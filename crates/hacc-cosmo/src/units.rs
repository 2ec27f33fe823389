//! The HACC unit system: the simulation box and its working set.
//!
//! HACC works in comoving coordinates with lengths in Mpc/h and masses in
//! Msun/h. Internally the code normalizes positions to grid units; this
//! module holds the box geometry and the per-rank memory estimate.

use serde::{Deserialize, Serialize};

/// Simulation box description: physical size and particle loading.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoxSpec {
    /// Comoving box side in Mpc/h.
    pub box_mpc_h: f64,
    /// Number of particles per dimension for one species (total per species
    /// is `np³`).
    pub np: usize,
    /// Poisson-solver grid points per dimension.
    pub ng: usize,
}

impl BoxSpec {
    /// Creates a box spec, validating basic consistency.
    pub fn new(box_mpc_h: f64, np: usize, ng: usize) -> Self {
        assert!(box_mpc_h > 0.0, "box size must be positive");
        assert!(
            np >= 1 && ng >= 2,
            "need at least one particle and two grid points"
        );
        Self { box_mpc_h, np, ng }
    }

    /// The paper's scaled-down test problem: `2 × 512³` particles in a
    /// 177 Mpc/h box (§3.4.2), shrunk by `scale` per dimension while keeping
    /// the same mass resolution (box shrinks with particle count).
    ///
    /// `scale = 1` reproduces the paper configuration; the default test and
    /// bench configurations use `scale = 8` or `16` (64³ or 32³ particles).
    pub fn paper_problem(scale: usize) -> Self {
        assert!(scale >= 1 && 512 % scale == 0, "scale must divide 512");
        let np = 512 / scale;
        Self::new(177.0 / scale as f64, np, np)
    }

    /// Total particle count for one species.
    #[inline]
    pub fn particles_per_species(&self) -> usize {
        self.np * self.np * self.np
    }

    /// Comoving inter-particle spacing in Mpc/h.
    #[inline]
    pub fn particle_spacing(&self) -> f64 {
        self.box_mpc_h / self.np as f64
    }

    /// Grid cell size in Mpc/h.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.box_mpc_h / self.ng as f64
    }
}

/// Approximate device memory footprint (bytes per MPI rank) of a CRK-HACC
/// problem: used to check that a configuration matches the paper's
/// "~10 GB per rank" working set (§3.4.2).
///
/// Accounts for two species with positions, velocities, masses, and the
/// hydro state carried by baryons, in FP32 as on the GPU, plus a factor for
/// interaction buffers.
pub fn device_bytes_per_rank(spec: &BoxSpec, ranks: usize) -> u64 {
    assert!(ranks >= 1);
    let per_species = spec.particles_per_species() as u64;
    // DM: pos(3) + vel(3) + mass + phi + id(2) + tags/padding ≈ 12 floats.
    let dm = per_species * 12 * 4;
    // Baryons additionally carry the full CRK hydro state: density,
    // volume, energy, pressure, smoothing length, sound speed, CRK
    // coefficients A + B(3), moment scratch (10), state gradients (12),
    // predictor copies of the dynamic fields, sub-grid fields ≈ 60 floats.
    let baryon = per_species * 60 * 4;
    // Interaction buffers (leaf lists, tile work lists, neighbor scratch,
    // communication staging) roughly double the resident footprint in
    // production CRK-HACC configurations.
    (dm + baryon) * 2 / ranks as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_problem_matches_paper_numbers() {
        let full = BoxSpec::paper_problem(1);
        assert_eq!(full.np, 512);
        assert!((full.box_mpc_h - 177.0).abs() < 1e-12);
        // §3.4.2: ~10 GB per rank on 8 ranks for 2x512³ particles.
        let bytes = device_bytes_per_rank(&full, 8);
        let gb = bytes as f64 / 1e9;
        assert!(
            gb > 3.0 && gb < 20.0,
            "paper problem is ~10 GB/rank, got {gb:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "box size must be positive")]
    fn rejects_non_positive_box() {
        BoxSpec::new(0.0, 8, 8);
    }
}
