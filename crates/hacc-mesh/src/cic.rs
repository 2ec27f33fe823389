//! Cloud-in-cell (CIC) mass deposit and force interpolation on a periodic
//! grid — the particle↔mesh transfer operators of HACC's long-range solver.

use hacc_fft::Dims;
use rayon::prelude::*;

/// Periodic wrap of a (possibly negative) cell index.
#[inline]
fn wrap(i: i64, n: usize) -> usize {
    i.rem_euclid(n as i64) as usize
}

/// The 8 cells and weights touched by a particle at grid-unit position
/// `(x, y, z)` (positions are in units of cells, periodic in `[0, n)`).
#[inline]
fn cic_stencil(dims: Dims, x: f64, y: f64, z: f64) -> [(usize, f64); 8] {
    let (i0, fx) = split(x);
    let (j0, fy) = split(y);
    let (k0, fz) = split(z);
    let i1 = wrap(i0 + 1, dims.nx);
    let j1 = wrap(j0 + 1, dims.ny);
    let k1 = wrap(k0 + 1, dims.nz);
    let i0 = wrap(i0, dims.nx);
    let j0 = wrap(j0, dims.ny);
    let k0 = wrap(k0, dims.nz);
    let (gx, gy, gz) = (1.0 - fx, 1.0 - fy, 1.0 - fz);
    [
        (dims.idx(i0, j0, k0), gx * gy * gz),
        (dims.idx(i1, j0, k0), fx * gy * gz),
        (dims.idx(i0, j1, k0), gx * fy * gz),
        (dims.idx(i1, j1, k0), fx * fy * gz),
        (dims.idx(i0, j0, k1), gx * gy * fz),
        (dims.idx(i1, j0, k1), fx * gy * fz),
        (dims.idx(i0, j1, k1), gx * fy * fz),
        (dims.idx(i1, j1, k1), fx * fy * fz),
    ]
}

#[inline]
fn split(x: f64) -> (i64, f64) {
    let f = x.floor();
    (f as i64, x - f)
}

/// Particles whose stencils are held at once by [`deposit`]: 512 KiB of
/// stencils, so a block is scattered while it is still in cache.
const DEPOSIT_BLOCK: usize = 4096;

/// Deposits particle masses onto the grid with CIC weights.
///
/// `positions` are in grid units (cells); the grid is cleared first.
/// Blocked deterministic parallel deposit: for each block of
/// `DEPOSIT_BLOCK` particles in turn, the stencil computation (cells +
/// mass-premultiplied weights, `m * w` — the exact product the serial
/// loop forms) fans out across threads, then a serial scatter in
/// particle order accumulates them. Because the scatter replays the same
/// f64 additions in the same order as a fully serial deposit, the grid is
/// bitwise reproducible at any thread count.
pub fn deposit(dims: Dims, positions: &[[f64; 3]], masses: &[f64], grid: &mut [f64]) {
    assert_eq!(grid.len(), dims.len(), "grid size mismatch");
    assert_eq!(
        positions.len(),
        masses.len(),
        "positions/masses length mismatch"
    );
    grid.fill(0.0);
    for (pos, mass) in positions
        .chunks(DEPOSIT_BLOCK)
        .zip(masses.chunks(DEPOSIT_BLOCK))
    {
        let stencils: Vec<[(usize, f64); 8]> = pos
            .par_iter()
            .zip(mass.par_iter())
            .map(|(p, &m)| {
                let mut st = cic_stencil(dims, p[0], p[1], p[2]);
                for e in &mut st {
                    e.1 *= m;
                }
                st
            })
            .collect();
        for st in &stencils {
            for &(idx, mw) in st {
                grid[idx] += mw;
            }
        }
    }
}

/// Interpolates a 3-component field (e.g. the mesh force) to particles.
pub fn interpolate_vec3(
    dims: Dims,
    fields: [&[f64]; 3],
    positions: &[[f64; 3]],
    out: &mut [[f64; 3]],
) {
    for f in fields {
        assert_eq!(f.len(), dims.len());
    }
    assert_eq!(positions.len(), out.len());
    positions
        .par_iter()
        .zip(out.par_iter_mut())
        .for_each(|(p, o)| {
            let mut acc = [0.0f64; 3];
            for (idx, w) in cic_stencil(dims, p[0], p[1], p[2]) {
                for c in 0..3 {
                    acc[c] += fields[c][idx] * w;
                }
            }
            *o = acc;
        });
}

/// Interpolates a grid-sampled scalar field to particle positions with the
/// CIC weights of deposit: the scalar form of [`interpolate_vec3`] the
/// stencil tests use.
#[cfg(test)]
fn interpolate(dims: Dims, grid: &[f64], positions: &[[f64; 3]], out: &mut [f64]) {
    assert_eq!(grid.len(), dims.len());
    assert_eq!(positions.len(), out.len());
    positions
        .par_iter()
        .zip(out.par_iter_mut())
        .for_each(|(p, o)| {
            let mut acc = 0.0;
            for (idx, w) in cic_stencil(dims, p[0], p[1], p[2]) {
                acc += grid[idx] * w;
            }
            *o = acc;
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The deposit before blocks: every particle's stencil collected,
    /// then one serial scatter. The oracle for the blocked `deposit`.
    fn two_pass_deposit_oracle(dims: Dims, positions: &[[f64; 3]], masses: &[f64]) -> Vec<f64> {
        let stencils: Vec<[(usize, f64); 8]> = positions
            .iter()
            .zip(masses)
            .map(|(p, &m)| {
                let mut st = cic_stencil(dims, p[0], p[1], p[2]);
                for e in &mut st {
                    e.1 *= m;
                }
                st
            })
            .collect();
        let mut grid = vec![0.0; dims.len()];
        for st in &stencils {
            for &(idx, mw) in st {
                grid[idx] += mw;
            }
        }
        grid
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The blocked deposit's grid equals the oracle's bit for bit at
        /// pool widths 1 and 3, for 1, block − 1, block, block + 1 and
        /// arbitrary particle counts.
        #[test]
        fn blocked_deposit_equals_the_oracle(
            pick in 0usize..5,
            many in 1usize..4 * DEPOSIT_BLOCK,
            seed in 0u64..1 << 32,
        ) {
            let n = [1, DEPOSIT_BLOCK - 1, DEPOSIT_BLOCK, DEPOSIT_BLOCK + 1, many][pick];
            let mut rng = StdRng::seed_from_u64(seed);
            let pos: Vec<[f64; 3]> =
                (0..n).map(|_| std::array::from_fn(|_| rng.gen_range(0.0..8.0))).collect();
            let mass: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..10.0)).collect();
            let dims = Dims::cube(8);
            let oracle = two_pass_deposit_oracle(dims, &pos, &mass);
            for threads in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let mut grid = vec![f64::NAN; dims.len()];
                pool.install(|| deposit(dims, &pos, &mass, &mut grid));
                let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&grid), bits(&oracle));
            }
        }
    }

    #[test]
    fn deposit_conserves_mass() {
        let dims = Dims::cube(8);
        let pos = vec![[0.3, 7.9, 4.5], [2.0, 2.0, 2.0], [6.7, 0.1, 3.3]];
        let m = vec![1.5, 2.0, 0.25];
        let mut grid = vec![0.0; dims.len()];
        deposit(dims, &pos, &m, &mut grid);
        let total: f64 = grid.iter().sum();
        let want: f64 = m.iter().sum();
        assert!((total - want).abs() < 1e-12);
    }

    #[test]
    fn particle_at_cell_center_hits_single_cell() {
        let dims = Dims::cube(4);
        let mut grid = vec![0.0; dims.len()];
        deposit(dims, &[[1.0, 2.0, 3.0]], &[1.0], &mut grid);
        assert!((grid[dims.idx(1, 2, 3)] - 1.0).abs() < 1e-15);
        assert!(grid.iter().filter(|&&v| v != 0.0).count() == 1);
    }

    #[test]
    fn deposit_wraps_periodically() {
        let dims = Dims::cube(4);
        let mut grid = vec![0.0; dims.len()];
        // At x = 3.5, half the mass wraps to cell 0.
        deposit(dims, &[[3.5, 0.0, 0.0]], &[2.0], &mut grid);
        assert!((grid[dims.idx(3, 0, 0)] - 1.0).abs() < 1e-12);
        assert!((grid[dims.idx(0, 0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interpolation_of_constant_field_is_exact() {
        let dims = Dims::cube(6);
        let grid = vec![3.25; dims.len()];
        let pos = vec![[0.1, 4.7, 2.9], [5.99, 0.01, 3.0]];
        let mut out = vec![0.0; 2];
        interpolate(dims, &grid, &pos, &mut out);
        for v in out {
            assert!((v - 3.25).abs() < 1e-12);
        }
    }

    #[test]
    fn interpolation_of_linear_field_is_exact_between_nodes() {
        // CIC is trilinear, so a field linear in x is reproduced exactly
        // away from the periodic seam.
        let dims = Dims::cube(8);
        let mut grid = vec![0.0; dims.len()];
        for f in 0..dims.len() {
            let (i, _, _) = dims.coords(f);
            grid[f] = 2.0 * i as f64 + 1.0;
        }
        let pos = vec![[2.25, 3.0, 3.0], [5.75, 1.0, 6.0]];
        let mut out = vec![0.0; 2];
        interpolate(dims, &grid, &pos, &mut out);
        assert!((out[0] - (2.0 * 2.25 + 1.0)).abs() < 1e-12);
        assert!((out[1] - (2.0 * 5.75 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn deposit_interpolate_adjoint_identity() {
        // <deposit(p, m), g> == <m, interpolate(g, p)> — CIC deposit and
        // interpolation are adjoint operators.
        let dims = Dims::cube(5);
        let pos = vec![[0.4, 1.9, 4.4], [3.2, 3.2, 0.6]];
        let mass = vec![1.0, 2.5];
        let mut grid = vec![0.0; dims.len()];
        deposit(dims, &pos, &mass, &mut grid);
        let g: Vec<f64> = (0..dims.len())
            .map(|f| ((f * 31 % 17) as f64) - 8.0)
            .collect();
        let lhs: f64 = grid.iter().zip(&g).map(|(a, b)| a * b).sum();
        let mut interp = vec![0.0; 2];
        interpolate(dims, &g, &pos, &mut interp);
        let rhs: f64 = mass.iter().zip(&interp).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10);
    }
}
