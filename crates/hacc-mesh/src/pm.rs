//! The assembled particle-mesh (PM) long-range gravity solver:
//! deposit → density contrast → filtered Poisson solve → spectral forces →
//! interpolation back to particles.
//!
//! Everything works in grid units; the returned accelerations are
//! `−∇φ_grid` where `∇²φ_grid = δ` (density contrast). The application
//! driver multiplies by the physical coupling `3/2 · Ωₘ / a` appropriate to
//! comoving coordinates.

use crate::cic;
use crate::poisson::{PoissonConfig, PoissonSolver};
use crate::split::ForceSplit;
use hacc_fft::Dims;

/// A reusable PM solver for a fixed grid.
pub struct PmSolver {
    solver: PoissonSolver,
    dims: Dims,
    /// Scratch density grid, reused across steps to avoid reallocation.
    density: Vec<f64>,
}

impl PmSolver {
    /// Builds a PM solver. `split` should be the same [`ForceSplit`] used by
    /// the short-range kernels so the two halves sum to the full force.
    pub fn new(ng: usize, split: Option<ForceSplit>) -> Self {
        let dims = Dims::cube(ng);
        let solver = PoissonSolver::new(
            dims,
            PoissonConfig {
                deconvolve_cic: true,
                split,
            },
        );
        Self {
            solver,
            dims,
            density: vec![0.0; dims.len()],
        }
    }

    /// Grid dimensions.
    #[inline]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Deposits the particles and returns the density-contrast grid
    /// `δ = ρ/ρ̄ − 1` (masses in units where the box mean density is the
    /// mass-weighted average).
    pub fn density_contrast(&mut self, positions: &[[f64; 3]], masses: &[f64]) -> &[f64] {
        cic::deposit(self.dims, positions, masses, &mut self.density);
        let total: f64 = masses.iter().sum();
        let mean = total / self.dims.len() as f64;
        assert!(
            mean > 0.0,
            "cannot form density contrast with zero total mass"
        );
        for v in &mut self.density {
            *v = *v / mean - 1.0;
        }
        &self.density
    }

    /// Computes grid-unit long-range accelerations at the particle
    /// positions. Output has one `[ax, ay, az]` entry per particle.
    pub fn accelerations(
        &mut self,
        positions: &[[f64; 3]],
        masses: &[f64],
        out: &mut Vec<[f64; 3]>,
    ) {
        self.density_contrast(positions, masses);
        let force = self.solver.force(&self.density);
        out.clear();
        out.resize(positions.len(), [0.0; 3]);
        cic::interpolate_vec3(self.dims, [&force[0], &force[1], &force[2]], positions, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A uniform lattice of particles must feel (nearly) zero mesh force.
    #[test]
    fn uniform_lattice_has_no_force() {
        let ng = 16;
        let mut pm = PmSolver::new(ng, None);
        let mut pos = Vec::new();
        for i in 0..ng {
            for j in 0..ng {
                for k in 0..ng {
                    pos.push([i as f64, j as f64, k as f64]);
                }
            }
        }
        let masses = vec![1.0; pos.len()];
        let mut acc = Vec::new();
        pm.accelerations(&pos, &masses, &mut acc);
        for a in &acc {
            for c in 0..3 {
                assert!(
                    a[c].abs() < 1e-9,
                    "lattice force should vanish, got {}",
                    a[c]
                );
            }
        }
    }

    /// Two particles attract each other along the separation axis, with
    /// antisymmetric forces (momentum conservation at the mesh level).
    ///
    /// The split filter must be active: an *unfiltered* deconvolved point
    /// source rings at the grid scale (which is exactly why HACC always
    /// runs the mesh with the long-range filter).
    #[test]
    fn pair_attraction_is_antisymmetric() {
        let ng = 32;
        let mut pm = PmSolver::new(ng, Some(ForceSplit::new(2.0, 7.0)));
        let pos = vec![[10.0, 16.0, 16.0], [22.0, 16.0, 16.0]];
        let masses = vec![1.0, 1.0];
        let mut acc = Vec::new();
        pm.accelerations(&pos, &masses, &mut acc);
        // Particle 0 is pulled toward +x, particle 1 toward −x.
        assert!(acc[0][0] > 0.0, "ax0 = {}", acc[0][0]);
        assert!(acc[1][0] < 0.0, "ax1 = {}", acc[1][0]);
        assert!((acc[0][0] + acc[1][0]).abs() < 1e-9 * acc[0][0].abs());
        // Transverse components vanish by symmetry.
        for c in 1..3 {
            assert!(acc[0][c].abs() < 1e-6 * acc[0][0].abs());
        }
    }

    /// The filtered mesh force between two particles matches the analytic
    /// long-range force law: `F/r = m/(4πρ̄) · long_over_r(r)`, where
    /// `ρ̄` is the mean deposited mass per cell (the `1/ρ̄` comes from the
    /// density-contrast normalization of the source).
    #[test]
    fn pair_force_magnitude_matches_analytic_long_range() {
        let ng = 64;
        let split = ForceSplit::new(2.0, 8.0);
        let mut pm = PmSolver::new(ng, Some(split));
        let masses = vec![1.0, 1.0];
        let rho_bar = 2.0 / (ng * ng * ng) as f64;
        for r in [6.0, 10.0, 16.0] {
            let x0 = 32.0 - r / 2.0;
            let pos = vec![[x0, 32.0, 32.0], [x0 + r, 32.0, 32.0]];
            let mut acc = Vec::new();
            pm.accelerations(&pos, &masses, &mut acc);
            let expect = split.long_over_r(r) * r / (4.0 * std::f64::consts::PI * rho_bar);
            let got = acc[0][0];
            assert!(
                (got / expect - 1.0).abs() < 0.1,
                "r = {r}: mesh force {got:.4} vs analytic {expect:.4}"
            );
        }
    }

    /// With the splitting filter active the mesh force at short range is
    /// strongly suppressed relative to the unsplit mesh force.
    #[test]
    fn split_suppresses_short_range_mesh_force() {
        let ng = 32;
        let split = ForceSplit::new(2.0, 7.0);
        let mut plain = PmSolver::new(ng, None);
        let mut filt = PmSolver::new(ng, Some(split));
        let pos = vec![[14.0, 16.0, 16.0], [17.0, 16.0, 16.0]]; // r = 3 < r_s·1.5
        let masses = vec![1.0, 1.0];
        let (mut a1, mut a2) = (Vec::new(), Vec::new());
        plain.accelerations(&pos, &masses, &mut a1);
        filt.accelerations(&pos, &masses, &mut a2);
        assert!(
            a2[0][0].abs() < 0.8 * a1[0][0].abs(),
            "filtered short-range mesh force should be suppressed: {} vs {}",
            a2[0][0],
            a1[0][0]
        );
    }
}
