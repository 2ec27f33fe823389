//! Native speed-of-light reference for the short-range gravity kernel
//! (`upGrav`): the HeCBench `haccmk` fused f32 force loop, driven by
//! the same half-warp tile list and polynomial as `run_gravity`. It is
//! what the interpreted kernel's wall time is set against; the hydro
//! kernels get theirs in a later issue.

use crk_hacc::kernels::{GravityParams, Tile};

/// Leaf-ordered f32 particle columns, as the device buffers hold them.
pub struct Columns {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
    /// Mass times the gravity prefactor.
    pub m: Vec<f32>,
}

impl Columns {
    /// Narrows leaf-ordered host particles exactly as
    /// `DeviceParticles::upload` does.
    pub fn from_host(pos: &[[f64; 3]], mass: &[f64]) -> Self {
        Self {
            x: pos.iter().map(|p| p[0] as f32).collect(),
            y: pos.iter().map(|p| p[1] as f32).collect(),
            z: pos.iter().map(|p| p[2] as f32).collect(),
            m: mass.iter().map(|&m| m as f32).collect(),
        }
    }
}

/// Independent partial sums per component, so the compiler can keep
/// the inner loop in SIMD registers (a single running float sum forces
/// scalar order). Measured here: 4 ns per pair against 11 ns scalar.
const LANES: usize = 8;

/// Force on slot `i` from the slots `j0..j0 + len`: the `haccmk` inner
/// loop (min-image displacement, cutoff mask, softened `r⁻³` minus the
/// Horner polynomial of the long-range complement).
#[inline]
fn force_on(
    c: &Columns,
    i: usize,
    j0: usize,
    len: usize,
    box_size: f32,
    p: &GravityParams,
) -> [f32; 3] {
    let (xi, yi, zi) = (c.x[i], c.y[i], c.z[i]);
    // Positions lie in [0, box), so one comparison per side wraps.
    // Masks are multiplied in, not branched on: with branches the
    // compiler leaves the square root and the division scalar.
    let half = 0.5 * box_size;
    let on = |c: bool| f32::from(u8::from(c));
    let wrap = |d: f32| d - box_size * on(d > half) + box_size * on(d < -half);
    // One block of LANES neighbours, as whole-array steps.
    let block = |xs: &[f32], ys: &[f32], zs: &[f32], ms: &[f32], acc: &mut [[f32; LANES]; 3]| {
        let mut d = [[0.0f32; LANES]; 3];
        for (k, (src, own)) in [(xs, xi), (ys, yi), (zs, zi)].into_iter().enumerate() {
            for l in 0..LANES {
                d[k][l] = wrap(src[l] - own);
            }
        }
        let mut f = [0.0f32; LANES];
        for l in 0..LANES {
            let r2 = d[0][l] * d[0][l] + d[1][l] * d[1][l] + d[2][l] * d[2][l];
            let m = ms[l] * on((r2 < p.r_cut2) & (r2 > 1e-12));
            // Masked pairs (self, padding) sit at r² = 0: keep their
            // force finite so the zero mass really zeroes it.
            let s = (r2 + p.soft2).max(1e-12);
            let poly = p.poly[0]
                + r2 * (p.poly[1]
                    + r2 * (p.poly[2] + r2 * (p.poly[3] + r2 * (p.poly[4] + r2 * p.poly[5]))));
            f[l] = m * (1.0 / (s * s.sqrt()) - poly);
        }
        for k in 0..3 {
            for l in 0..LANES {
                acc[k][l] += f[l] * d[k][l];
            }
        }
    };
    let range = j0..j0 + len;
    let (xs, ys, zs, ms) = (
        &c.x[range.clone()],
        &c.y[range.clone()],
        &c.z[range.clone()],
        &c.m[range],
    );
    let mut acc = [[0.0f32; LANES]; 3];
    let whole = len - len % LANES;
    for j in (0..whole).step_by(LANES) {
        let at = j..j + LANES;
        block(
            &xs[at.clone()],
            &ys[at.clone()],
            &zs[at.clone()],
            &ms[at],
            &mut acc,
        );
    }
    if whole < len {
        // The ragged tail, padded with massless neighbours at the own
        // position (r² = 0 is masked as a self pair).
        let mut pad = [[xi; LANES], [yi; LANES], [zi; LANES], [0.0; LANES]];
        for (k, src) in [xs, ys, zs, ms].into_iter().enumerate() {
            pad[k][..len - whole].copy_from_slice(&src[whole..]);
        }
        block(&pad[0], &pad[1], &pad[2], &pad[3], &mut acc);
    }
    acc.map(|lanes| lanes.iter().sum())
}

/// Short-range accelerations of every slot over the tile list: each A
/// slot gathers from the B side and, off the diagonal, each B slot from
/// the A side — the pair coverage of the half-warp kernel.
pub fn gravity(c: &Columns, tiles: &[Tile], box_size: f32, p: &GravityParams) -> [Vec<f32>; 3] {
    let n = c.x.len();
    let mut acc = [vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]];
    let mut gather = |i: usize, j0: u32, len: u32| {
        let f = force_on(c, i, j0 as usize, len as usize, box_size, p);
        for k in 0..3 {
            acc[k][i] += f[k];
        }
    };
    for t in tiles {
        for i in t.a_start..t.a_start + t.a_len {
            gather(i as usize, t.b_start, t.b_len);
        }
        if !t.self_tile {
            for i in t.b_start..t.b_start + t.b_len {
                gather(i as usize, t.a_start, t.a_len);
            }
        }
    }
    acc
}

/// Largest absolute difference between the native and interpreted
/// accelerations, as a share of the largest interpreted component.
pub fn max_rel_error(native: &[Vec<f32>; 3], interpreted: &[[f32; 3]]) -> f64 {
    let scale = interpreted
        .iter()
        .flatten()
        .fold(0.0f64, |m, &v| m.max(f64::from(v).abs()))
        .max(1e-30);
    let mut worst = 0.0f64;
    for (i, a) in interpreted.iter().enumerate() {
        for k in 0..3 {
            worst = worst.max((f64::from(native[k][i]) - f64::from(a[k])).abs());
        }
    }
    worst / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_body_force_is_equal_opposite_and_attractive() {
        let c = Columns::from_host(&[[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]], &[1.0, 1.0]);
        let tile = Tile {
            a_start: 0,
            a_len: 1,
            b_start: 1,
            b_len: 1,
            self_tile: false,
        };
        let p = GravityParams {
            poly: [0.0; 6],
            r_cut2: 9.0,
            soft2: 0.0,
        };
        let acc = gravity(&c, &[tile], 16.0, &p);
        assert!(
            (acc[0][0] - 1.0).abs() < 1e-6,
            "unit masses at unit distance"
        );
        assert_eq!(acc[0][0], -acc[0][1]);
        assert_eq!((acc[1][0], acc[2][0]), (0.0, 0.0));
        let interp = [[1.0f32, 0.0, 0.0], [-1.0, 0.0, 0.0]];
        assert!(max_rel_error(&acc, &interp) < 1e-6);
    }

    #[test]
    fn self_tile_skips_self_pairs_and_cutoff_masks() {
        let c = Columns::from_host(
            &[[0.5, 0.0, 0.0], [15.5, 0.0, 0.0], [8.0, 0.0, 0.0]],
            &[1.0; 3],
        );
        let tile = Tile {
            a_start: 0,
            a_len: 3,
            b_start: 0,
            b_len: 3,
            self_tile: true,
        };
        let p = GravityParams {
            poly: [0.0; 6],
            r_cut2: 4.0,
            soft2: 0.0,
        };
        let acc = gravity(&c, &[tile], 16.0, &p);
        // 0.5 and 15.5 are one cell apart through the periodic wrap.
        assert!((acc[0][0] + 1.0).abs() < 1e-6);
        assert!((acc[0][1] - 1.0).abs() < 1e-6);
        assert_eq!(acc[0][2], 0.0, "beyond the cutoff");
    }
}
