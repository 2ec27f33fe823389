//! Chaining mesh (cell list) for fixed-radius neighbor queries in a
//! periodic box — the classic P3M acceleration structure HACC uses to
//! bound the short-range interaction volume.

use crate::aabb::dist_sq_periodic;

/// A chaining mesh over a periodic cubic domain.
#[derive(Clone, Debug)]
pub(crate) struct ChainingMesh {
    /// Cells per dimension.
    pub nc: usize,
    /// Box side (same units as positions).
    pub box_size: f64,
    /// CSR layout: particle indices grouped by cell.
    cell_start: Vec<u32>,
    particles: Vec<u32>,
}

impl ChainingMesh {
    /// Builds a mesh with cells at least `min_cell` wide (so a cutoff of
    /// `min_cell` needs only the 27-cell neighborhood).
    pub fn build(positions: &[[f64; 3]], box_size: f64, min_cell: f64) -> Self {
        assert!(box_size > 0.0 && min_cell > 0.0);
        assert!(min_cell <= box_size, "cell size exceeds box");
        let nc = ((box_size / min_cell).floor() as usize).max(1);
        Self::build_with_cells(positions, box_size, nc)
    }

    /// Builds a mesh with exactly `nc³` cells.
    fn build_with_cells(positions: &[[f64; 3]], box_size: f64, nc: usize) -> Self {
        assert!(nc >= 1);
        let n_cells = nc * nc * nc;
        // Counting sort into cells (CSR).
        let mut counts = vec![0u32; n_cells + 1];
        let cell_of = |p: &[f64; 3]| -> usize {
            let mut idx = [0usize; 3];
            for c in 0..3 {
                let x = p[c].rem_euclid(box_size);
                idx[c] = ((x / box_size * nc as f64) as usize).min(nc - 1);
            }
            (idx[0] * nc + idx[1]) * nc + idx[2]
        };
        for p in positions {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut particles = vec![0u32; positions.len()];
        let mut cursor = counts.clone();
        for (i, p) in positions.iter().enumerate() {
            let c = cell_of(p);
            particles[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        Self {
            nc,
            box_size,
            cell_start: counts,
            particles,
        }
    }

    /// Particle indices in cell `(i, j, k)` (wrapped).
    pub fn cell(&self, i: i64, j: i64, k: i64) -> &[u32] {
        let w = |v: i64| -> usize {
            let n = self.nc as i64;
            (((v % n) + n) % n) as usize
        };
        let c = (w(i) * self.nc + w(j)) * self.nc + w(k);
        let s = self.cell_start[c] as usize;
        let e = self.cell_start[c + 1] as usize;
        &self.particles[s..e]
    }

    /// Calls `f(j)` for every particle `j` within `radius` of `p`
    /// (minimum-image), including `p`'s own index if it is in the set.
    pub(crate) fn for_neighbors<F: FnMut(u32)>(
        &self,
        positions: &[[f64; 3]],
        p: &[f64; 3],
        radius: f64,
        mut f: F,
    ) {
        let r2 = radius * radius;
        let cell_w = self.box_size / self.nc as f64;
        let reach = (radius / cell_w).ceil() as i64;
        let base = [
            (p[0].rem_euclid(self.box_size) / cell_w) as i64,
            (p[1].rem_euclid(self.box_size) / cell_w) as i64,
            (p[2].rem_euclid(self.box_size) / cell_w) as i64,
        ];
        // When the search sphere spans the whole box, visit each cell once.
        let span = (2 * reach + 1).min(self.nc as i64);
        let lo = -(span / 2);
        let hi = lo + span;
        for di in lo..hi {
            for dj in lo..hi {
                for dk in lo..hi {
                    for &j in self.cell(base[0] + di, base[1] + dj, base[2] + dk) {
                        if dist_sq_periodic(p, &positions[j as usize], self.box_size) <= r2 {
                            f(j);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
impl ChainingMesh {
    /// Neighbor indices of `p` within `radius`, sorted.
    pub(crate) fn neighbors(&self, positions: &[[f64; 3]], p: &[f64; 3], radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_neighbors(positions, p, radius, |j| out.push(j));
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, box_size: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                ]
            })
            .collect()
    }

    fn brute_neighbors(positions: &[[f64; 3]], p: &[f64; 3], r: f64, box_size: f64) -> Vec<u32> {
        let mut out: Vec<u32> = positions
            .iter()
            .enumerate()
            .filter(|(_, q)| dist_sq_periodic(p, q, box_size) <= r * r)
            .map(|(i, _)| i as u32)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn matches_brute_force() {
        let box_size = 10.0;
        let pts = random_points(400, box_size, 7);
        let mesh = ChainingMesh::build(&pts, box_size, 1.5);
        for (qi, q) in pts.iter().enumerate().step_by(17) {
            let fast = mesh.neighbors(&pts, q, 1.5);
            let slow = brute_neighbors(&pts, q, 1.5, box_size);
            assert_eq!(fast, slow, "query {qi}");
        }
    }

    #[test]
    fn matches_brute_force_across_seam() {
        let box_size = 8.0;
        // Cluster straddling the periodic boundary.
        let pts = vec![
            [0.1, 0.1, 0.1],
            [7.9, 0.05, 7.95],
            [0.05, 7.9, 0.1],
            [4.0, 4.0, 4.0],
            [7.8, 7.8, 7.8],
        ];
        let mesh = ChainingMesh::build(&pts, box_size, 1.0);
        for q in &pts {
            assert_eq!(
                mesh.neighbors(&pts, q, 1.0),
                brute_neighbors(&pts, q, 1.0, box_size)
            );
        }
    }

    #[test]
    fn large_radius_visits_everything_once() {
        let box_size = 5.0;
        let pts = random_points(60, box_size, 9);
        let mesh = ChainingMesh::build(&pts, box_size, 1.0);
        // Radius > box diagonal/2: every particle is a neighbor, exactly once.
        let got = mesh.neighbors(&pts, &pts[0], 10.0);
        let want: Vec<u32> = (0..pts.len() as u32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn all_particles_are_binned() {
        let box_size = 10.0;
        let pts = random_points(123, box_size, 11);
        let mesh = ChainingMesh::build(&pts, box_size, 2.0);
        let mut count = 0;
        let n = mesh.nc as i64;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    count += mesh.cell(i, j, k).len();
                }
            }
        }
        assert_eq!(count, 123);
    }

    #[test]
    fn positions_outside_box_are_wrapped() {
        let pts = vec![[12.0, -3.0, 25.0]]; // box 10 → cell of (2, 7, 5)
        let mesh = ChainingMesh::build(&pts, 10.0, 1.0);
        assert_eq!(mesh.cell(2, 7, 5), &[0]);
    }
}
