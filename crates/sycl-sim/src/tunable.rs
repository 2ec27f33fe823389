//! Tunable launch-parameter enumeration — the search space of the
//! offline autotune sweep (DESIGN.md §4j).
//!
//! The paper picks (variant, sub-group size, GRF mode) per kernel per
//! architecture by hand (Appendix A); "Cross-Platform Performance
//! Portability Using Highly Parametrized SYCL Kernels" shows the
//! production answer is an automated search over exactly these knobs.
//! This module enumerates the *architecture-valid* points of that space:
//!
//! * **sub-group size** — from [`GpuArch::sg_sizes`] (§4.3),
//! * **work-group size** — multiples of the sub-group size around
//!   CRK-HACC's `HACC_CUDA_BLOCK_SIZE=128`,
//! * **GRF mode** — [`GrfMode::Large`] only where the hardware has the
//!   lever (PVC; §5.2),
//! * **launch bounds** — a per-work-item register cap (the
//!   `__launch_bounds__` / `-mcumode` occupancy trade: capping raises
//!   residency but spills the excess, exactly the A100 mechanism the
//!   cost model already charges).
//!
//! The communication *variant* axis lives a layer up (in
//! `hacc-kernels`), because kernels — not the device — own the variant
//! dispatch; the autotuner composes both.

use crate::arch::{GpuArch, GrfMode};
use crate::device::LaunchConfig;

/// Per-work-item register cap, modeling `__launch_bounds__` (CUDA) /
/// `amdgpu-waves-per-eu` (HIP) / `-ze-opt-large-register-file`'s inverse
/// (L0): a compile-time promise that lets the scheduler keep more
/// work-items resident at the price of spilling the excess registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LaunchBounds {
    /// No cap: the architecture's natural per-work-item budget.
    #[default]
    Default,
    /// Cap the register allocation at this many 32-bit words per
    /// work-item (values at or above the natural budget are inert).
    Capped(u32),
}

impl LaunchBounds {
    /// Applies the cap to an architecture register budget. Identity for
    /// [`LaunchBounds::Default`]; otherwise the budget is clamped to the
    /// cap, floored at 8 words so a hostile cap cannot zero the budget.
    pub fn apply(&self, budget: u32) -> u32 {
        match self {
            LaunchBounds::Default => budget,
            LaunchBounds::Capped(n) => (*n).min(budget).max(8),
        }
    }

    /// Stable text form (`"default"` / `"cap96"`), used by the tuning
    /// cache and bench records.
    pub fn label(&self) -> String {
        match self {
            LaunchBounds::Default => "default".to_string(),
            LaunchBounds::Capped(n) => format!("cap{n}"),
        }
    }

    /// Parses [`LaunchBounds::label`] output. Rejects malformed text and
    /// caps outside `[8, 1024]` (hostile-input guard for the cache).
    pub fn from_label(s: &str) -> Option<Self> {
        if s == "default" {
            return Some(LaunchBounds::Default);
        }
        let n: u32 = s.strip_prefix("cap")?.parse().ok()?;
        if (8..=1024).contains(&n) {
            Some(LaunchBounds::Capped(n))
        } else {
            None
        }
    }
}

/// One point of the device-level search space (the variant axis is
/// composed a layer up, in `hacc-kernels`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TunablePoint {
    /// Sub-group size.
    pub sg_size: usize,
    /// Work-group size.
    pub wg_size: usize,
    /// Register-file mode.
    pub grf: GrfMode,
    /// Per-work-item register cap.
    pub bounds: LaunchBounds,
}

impl TunablePoint {
    /// The paper's classic point for a (sub-group, GRF) pair: CRK-HACC's
    /// `HACC_CUDA_BLOCK_SIZE=128` work-group, widened to the sub-group
    /// size should that ever be larger, with default launch bounds.
    pub fn classic(sg_size: usize, grf: GrfMode) -> Self {
        Self {
            sg_size,
            wg_size: 128.max(sg_size),
            grf,
            bounds: LaunchBounds::Default,
        }
    }

    /// Applies the four knobs to a base launch configuration, keeping
    /// its execution and metering policies.
    pub fn apply_to(&self, base: LaunchConfig) -> LaunchConfig {
        base.with_sg_size(self.sg_size)
            .with_grf(self.grf)
            .with_bounds(self.bounds)
            .with_wg_size(self.wg_size)
    }

    /// Compact display label, e.g. `sg16/wg128/large/cap96`.
    pub fn label(&self) -> String {
        let grf = match self.grf {
            GrfMode::Default => "std",
            GrfMode::Large => "large",
        };
        format!(
            "sg{}/wg{}/{}/{}",
            self.sg_size,
            self.wg_size,
            grf,
            self.bounds.label()
        )
    }

    /// True when every knob is legal on `arch` — the validity predicate
    /// the cache loader re-checks before trusting a persisted winner.
    pub fn is_valid(&self, arch: &GpuArch) -> bool {
        arch.supports_sg_size(self.sg_size)
            && self.wg_size >= self.sg_size
            && self.wg_size <= 1024
            && self.wg_size.is_multiple_of(self.sg_size)
            && (self.grf == GrfMode::Default || arch.has_large_grf)
            && match self.bounds {
                LaunchBounds::Default => true,
                LaunchBounds::Capped(n) => (8..=1024).contains(&n),
            }
    }
}

/// Work-group sizes the full search considers (filtered per sub-group
/// size; CRK-HACC's production value is 128).
const WG_CANDIDATES: &[usize] = &[64, 128, 256];

/// Register-cap candidates for [`LaunchBounds::Capped`] (filtered to
/// caps strictly below the natural budget — an inert cap is not a
/// distinct point).
const BOUNDS_CANDIDATES: &[u32] = &[48, 96];

/// GRF modes legal on `arch`.
fn grf_candidates(arch: &GpuArch) -> Vec<GrfMode> {
    if arch.has_large_grf {
        vec![GrfMode::Default, GrfMode::Large]
    } else {
        vec![GrfMode::Default]
    }
}

/// Work-group sizes legal for `sg` on any architecture: the candidates
/// that are multiples of the sub-group size.
fn wg_candidates(sg: usize) -> Vec<usize> {
    let mut v: Vec<usize> = WG_CANDIDATES
        .iter()
        .copied()
        .filter(|&wg| wg >= sg && wg % sg == 0)
        .collect();
    if v.is_empty() {
        v.push(sg);
    }
    v
}

/// Launch-bounds candidates for a (sub-group, GRF) pair on `arch`:
/// always [`LaunchBounds::Default`], plus each cap candidate strictly
/// below the natural register budget.
fn bounds_candidates(arch: &GpuArch, sg: usize, grf: GrfMode) -> Vec<LaunchBounds> {
    let budget = arch.reg_budget(sg, grf);
    let mut v = vec![LaunchBounds::Default];
    for &cap in BOUNDS_CANDIDATES {
        if cap < budget {
            v.push(LaunchBounds::Capped(cap));
        }
    }
    v
}

/// The full device-level search space for `arch`: every valid
/// (sub-group, work-group, GRF, bounds) combination.
pub fn enumerate(arch: &GpuArch) -> Vec<TunablePoint> {
    let mut out = Vec::new();
    for &sg in arch.sg_sizes {
        for grf in grf_candidates(arch) {
            for wg in wg_candidates(sg) {
                for bounds in bounds_candidates(arch, sg, grf) {
                    out.push(TunablePoint {
                        sg_size: sg,
                        wg_size: wg,
                        grf,
                        bounds,
                    });
                }
            }
        }
    }
    out
}

/// The bounded per-push search space: the paper's classic
/// (sub-group × GRF) axes at work-group 128 with default bounds — what
/// the `autotune-gate` CI job explores on every push. The nightly soak
/// runs [`enumerate`] instead.
pub fn enumerate_bounded(arch: &GpuArch) -> Vec<TunablePoint> {
    let mut out = Vec::new();
    for &sg in arch.sg_sizes {
        for grf in grf_candidates(arch) {
            out.push(TunablePoint::classic(sg, grf));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_enumerated_point_is_valid() {
        for arch in GpuArch::all_with_cpu() {
            for p in enumerate(&arch) {
                assert!(p.is_valid(&arch), "{} invalid on {}", p.label(), arch.id);
            }
            for p in enumerate_bounded(&arch) {
                assert!(p.is_valid(&arch), "{} invalid on {}", p.label(), arch.id);
            }
        }
    }

    #[test]
    fn paper_defaults_are_in_the_space() {
        // The hand-picked table (Appendix A) must be a subset of the
        // search space, so the tuned winner can never lose to it.
        for arch in GpuArch::all() {
            let space = enumerate(&arch);
            let sg = arch.max_sg_size();
            assert!(space.iter().any(|p| p.sg_size == sg
                && p.wg_size == 128
                && p.grf == GrfMode::Default
                && p.bounds == LaunchBounds::Default));
        }
        // Aurora's optimized sg16 + large-GRF points too (§5.2).
        let space = enumerate(&GpuArch::aurora());
        assert!(space
            .iter()
            .any(|p| p.sg_size == 16 && p.grf == GrfMode::Large && p.wg_size == 128));
    }

    #[test]
    fn bounds_labels_round_trip() {
        for b in [LaunchBounds::Default, LaunchBounds::Capped(96)] {
            assert_eq!(LaunchBounds::from_label(&b.label()), Some(b));
        }
        assert_eq!(LaunchBounds::from_label("cap0"), None);
        assert_eq!(LaunchBounds::from_label("cap99999"), None);
        assert_eq!(LaunchBounds::from_label("capx"), None);
        assert_eq!(LaunchBounds::from_label(""), None);
    }

    #[test]
    fn caps_apply_monotonically() {
        assert_eq!(LaunchBounds::Default.apply(256), 256);
        assert_eq!(LaunchBounds::Capped(96).apply(256), 96);
        assert_eq!(LaunchBounds::Capped(96).apply(64), 64);
        // Hostile caps cannot zero the budget.
        assert_eq!(LaunchBounds::Capped(8).apply(256), 8);
    }

    #[test]
    fn inert_caps_are_not_enumerated() {
        for arch in GpuArch::all_with_cpu() {
            for p in enumerate(&arch) {
                if let LaunchBounds::Capped(n) = p.bounds {
                    assert!(n < arch.reg_budget(p.sg_size, p.grf));
                }
            }
        }
    }
}
