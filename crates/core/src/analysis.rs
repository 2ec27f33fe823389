//! In-situ analysis (§3.4.4 context: production CRK-HACC interleaves
//! in-situ analyses with the dynamical stepping; the paper disables them
//! while timing the kernels).
//!
//! Public although no code in the workspace calls it: this file is
//! Table 2's Unused-row stand-in for that analysis (one of the files
//! `hacc_metrics::inventory` lists as compiled but never run).
//!
//! Provides the standard summary statistics a cosmology run monitors:
//! the halo mass function, density PDF moments, and bulk velocity
//! statistics.

use crate::sim::{Simulation, Species};
use hacc_tree::{fof_halos, Halo};

/// One bin of the halo mass function.
#[derive(Clone, Copy, Debug)]
pub struct MassFunctionBin {
    /// Lower mass edge of the bin.
    pub mass_lo: f64,
    /// Upper mass edge.
    pub mass_hi: f64,
    /// Number of halos in the bin.
    pub count: usize,
}

/// Bins a halo catalog into a logarithmic mass function with `n_bins`
/// bins spanning the catalog's mass range.
pub fn mass_function(halos: &[Halo], n_bins: usize) -> Vec<MassFunctionBin> {
    assert!(n_bins >= 1);
    if halos.is_empty() {
        return Vec::new();
    }
    let lo = halos.iter().map(|h| h.mass).fold(f64::INFINITY, f64::min);
    let hi = halos.iter().map(|h| h.mass).fold(0.0f64, f64::max) * (1.0 + 1e-12);
    let (llo, lhi) = (lo.ln(), hi.ln());
    let width = ((lhi - llo) / n_bins as f64).max(1e-12);
    let mut bins: Vec<MassFunctionBin> = (0..n_bins)
        .map(|b| MassFunctionBin {
            mass_lo: (llo + b as f64 * width).exp(),
            mass_hi: (llo + (b + 1) as f64 * width).exp(),
            count: 0,
        })
        .collect();
    for h in halos {
        let b = (((h.mass.ln() - llo) / width) as usize).min(n_bins - 1);
        bins[b].count += 1;
    }
    bins
}

/// Runs the FOF halo finder on a simulation's current particle state
/// (all species) with a linking length `b_link` in units of the mean
/// inter-particle spacing (b = 0.2 is the standard convention).
pub fn find_halos(sim: &Simulation, b_link: f64, min_members: usize) -> Vec<Halo> {
    let ng = sim.config.box_spec.ng as f64;
    // Mean inter-particle spacing of the combined two-species set.
    let n_total = sim.n_particles() as f64;
    let mean_spacing = ng / n_total.cbrt();
    fof_halos(&sim.pos, &sim.mass, ng, b_link * mean_spacing, min_members)
}

/// Density-contrast PDF moments measured from the PM mesh.
#[derive(Clone, Copy, Debug)]
pub struct DensityMoments {
    /// Mean of δ (≈ 0 by construction).
    pub mean: f64,
    /// Variance of δ (grows as D² in the linear regime).
    pub variance: f64,
    /// Skewness of δ (grows under nonlinear clustering).
    pub skewness: f64,
}

/// Computes δ-field moments for the current particle state.
pub fn density_moments(sim: &mut Simulation) -> DensityMoments {
    let delta = sim.density_contrast_grid();
    let n = delta.len() as f64;
    let mean = delta.iter().sum::<f64>() / n;
    let var = delta.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n;
    let skew = if var > 0.0 {
        delta.iter().map(|d| (d - mean).powi(3)).sum::<f64>() / n / var.powf(1.5)
    } else {
        0.0
    };
    DensityMoments {
        mean,
        variance: var,
        skewness: skew,
    }
}

/// RMS peculiar velocity per species (grid units per 1/H0).
pub fn rms_velocity(sim: &Simulation, species: Species) -> f64 {
    let a2 = sim.a * sim.a;
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..sim.n_particles() {
        if sim.species[i] == species {
            let v = [sim.mom[i][0] / a2, sim.mom[i][1] / a2, sim.mom[i][2] / a2];
            sum += v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, SimConfig};
    use hacc_kernels::Variant;
    use sycl_sim::{GpuArch, GrfMode, Lang};

    fn sim() -> Simulation {
        Simulation::new(
            SimConfig::smoke(),
            DeviceConfig {
                lang: Lang::Sycl,
                fast_math: None,
                variant: Variant::Select,
                sg_size: Some(32),
                grf: GrfMode::Default,
            },
            GpuArch::polaris(),
        )
    }

    #[test]
    fn mass_function_partitions_catalog() {
        let halos: Vec<Halo> = (1..=20)
            .map(|i| Halo {
                members: vec![0],
                center: [0.0; 3],
                mass: 10f64.powi(i % 5 + 1),
            })
            .collect();
        let bins = mass_function(&halos, 5);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 20);
        for w in bins.windows(2) {
            assert!(
                (w[0].mass_hi / w[1].mass_lo - 1.0).abs() < 1e-9,
                "contiguous bins"
            );
        }
    }

    #[test]
    fn mass_function_of_empty_catalog() {
        assert!(mass_function(&[], 4).is_empty());
    }

    #[test]
    fn density_moments_of_initial_conditions() {
        let mut s = sim();
        let m = density_moments(&mut s);
        // Zel'dovich start: near-Gaussian, small variance, tiny mean.
        assert!(m.mean.abs() < 1e-8, "mean δ = {}", m.mean);
        assert!(m.variance > 0.0 && m.variance < 1.0, "σ² = {}", m.variance);
        assert!(
            m.skewness.abs() < 2.0,
            "early skewness should be mild: {}",
            m.skewness
        );
    }

    #[test]
    fn velocities_exist_for_both_species_at_start() {
        let s = sim();
        assert!(rms_velocity(&s, Species::DarkMatter) > 0.0);
        assert!(rms_velocity(&s, Species::Baryon) > 0.0);
    }

    #[test]
    fn halo_finding_runs_on_simulation_state() {
        // At z = 200 there are no collapsed halos — a short linking length
        // should find nothing above a reasonable membership cut.
        let s = sim();
        let halos = find_halos(&s, 0.2, 8);
        assert!(
            halos.len() < 4,
            "no real halos at z = 200, found {}",
            halos.len()
        );
    }
}
