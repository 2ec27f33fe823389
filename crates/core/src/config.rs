//! Simulation configuration and the paper's problem presets.

use hacc_cosmo::{BoxSpec, CosmoParams};
use hacc_kernels::Variant;
use serde::{Deserialize, Serialize};
use sycl_sim::{GpuArch, GrfMode, Lang};

/// Which GPU build runs the offloaded kernels.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Source programming model.
    pub lang: Lang,
    /// Fast-math flag (None = the language's compiler default, §4.4).
    pub fast_math: Option<bool>,
    /// Communication variant for the hot kernels.
    pub variant: Variant,
    /// Sub-group size (None = architecture default: largest supported).
    pub sg_size: Option<usize>,
    /// Register-file mode (§5.2).
    pub grf: GrfMode,
}

impl DeviceConfig {
    /// The paper's optimized SYCL configuration for an architecture:
    /// SYCL defaults, large GRF on Intel, Appendix-A sub-group sizes.
    pub fn sycl_optimized(arch: &GpuArch) -> Self {
        Self {
            lang: Lang::Sycl,
            fast_math: None,
            variant: Variant::Select,
            sg_size: None,
            grf: if arch.has_large_grf {
                GrfMode::Large
            } else {
                GrfMode::Default
            },
        }
    }
}

/// Full simulation configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cosmological parameters.
    pub cosmo: CosmoParams,
    /// Box and particle loading (per species).
    pub box_spec: BoxSpec,
    /// Initial redshift (the paper's test runs z = 200 → 50).
    pub z_init: f64,
    /// Final redshift.
    pub z_final: f64,
    /// Number of long (PM) time steps.
    pub n_steps: usize,
    /// Short-range sub-cycles per long step.
    pub sub_cycles: usize,
    /// Force-splitting scale in grid cells.
    pub r_split_cells: f64,
    /// Short-range cutoff in grid cells.
    pub r_cut_cells: f64,
    /// SPH smoothing length in units of the mean inter-particle spacing.
    pub eta_smoothing: f64,
    /// Initial gas specific internal energy (code units; small at z=200).
    pub u_init: f64,
    /// Leaf capacity of the RCB tree = half the sub-group size by default
    /// (None = derive from the launch configuration).
    pub max_leaf: Option<usize>,
    /// Random seed for the initial conditions.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's test problem (§3.4.2) at a reduction factor: 2×(512/s)³
    /// particles, box scaled to keep the FOM mass resolution, five steps
    /// from z = 200 to z = 50.
    pub fn paper_test_problem(scale: usize) -> Self {
        Self {
            cosmo: CosmoParams::planck2018(),
            box_spec: BoxSpec::paper_problem(scale),
            z_init: 200.0,
            z_final: 50.0,
            n_steps: 5,
            sub_cycles: 2,
            r_split_cells: 1.5,
            r_cut_cells: 5.0,
            eta_smoothing: 1.3,
            u_init: 1e-8,
            max_leaf: None,
            seed: 0xC0FFEE,
        }
    }

    /// A laptop-scale smoke configuration (2×8³ particles, 2 steps).
    pub fn smoke() -> Self {
        let mut c = Self::paper_test_problem(64);
        c.n_steps = 2;
        c.sub_cycles = 1;
        c
    }

    /// Validates cross-field consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.cosmo.validate()?;
        if self.z_final >= self.z_init {
            return Err("z_final must be below z_init".into());
        }
        if self.n_steps == 0 || self.sub_cycles == 0 {
            return Err("need at least one step and one sub-cycle".into());
        }
        if self.r_cut_cells <= self.r_split_cells {
            return Err("short-range cutoff must exceed the splitting scale".into());
        }
        // The SPH kernel support must fit inside the interaction cutoff,
        // or the leaf-pair lists would miss hydro neighbors.
        let spacing_cells = self.box_spec.ng as f64 / self.box_spec.np as f64;
        if 2.0 * self.eta_smoothing * spacing_cells > self.r_cut_cells {
            return Err(format!(
                "kernel support 2η·Δx = {} cells exceeds r_cut = {} cells",
                2.0 * self.eta_smoothing * spacing_cells,
                self.r_cut_cells
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::paper_test_problem(32).validate().unwrap();
        SimConfig::smoke().validate().unwrap();
    }

    #[test]
    fn paper_problem_full_scale_matches_section_3_4() {
        let c = SimConfig::paper_test_problem(1);
        assert_eq!(c.box_spec.np, 512);
        assert_eq!(c.n_steps, 5);
        assert_eq!(c.z_init, 200.0);
        assert_eq!(c.z_final, 50.0);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut c = SimConfig::smoke();
        c.z_final = 300.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::smoke();
        c.r_cut_cells = 1.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::smoke();
        c.eta_smoothing = 10.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sycl_optimized_uses_large_grf_on_intel_only() {
        let intel = DeviceConfig::sycl_optimized(&GpuArch::aurora());
        assert_eq!(intel.grf, GrfMode::Large);
        let nv = DeviceConfig::sycl_optimized(&GpuArch::polaris());
        assert_eq!(nv.grf, GrfMode::Default);
    }
}
