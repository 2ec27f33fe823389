//! The Appendix-A launch table and its offline-tuned rows (DESIGN.md
//! §4j).
//!
//! Tuning is offline: `figures -- autotune` measures every candidate of
//! the composed search space — **variant × [`sycl_sim::tunable`]
//! device knobs** — and keeps the per-(kernel, architecture, size band)
//! winners in a [`TuneCache`]. [`TunedSelector::plan`] reads one row of
//! that table as a validated per-timer [`StepPlan`], falling back to the
//! paper's hand-picked table (Appendix A) wherever an entry is missing
//! or fails re-validation against the live architecture, and
//! [`crate::run_hydro_step_planned`] runs it. Nothing is learned at run
//! time.
//!
//! The launch choice is written once, here: [`hand_picked_knobs`] is
//! the workspace's only Appendix-A table and [`variant_candidates`] its
//! only legal-variant list.

use crate::launch::{StepPlan, GRAVITY_TIMER, HYDRO_TIMERS};
use crate::variant::{Variant, ALL_VARIANTS};
use hacc_telemetry::Recorder;
use hacc_tune::{digest_strs, SizeBand, TuneCache, TuneChoice, TuneKey};
use sycl_sim::{tunable, GpuArch, GrfMode, LaunchConfig, TunablePoint};

/// All timers the tuner plans: the seven hydro brackets plus gravity.
pub fn tuned_timers() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = HYDRO_TIMERS.to_vec();
    v.push(GRAVITY_TIMER);
    v
}

/// The paper's hand-picked launch knobs for a variant on an
/// architecture (Appendix A): sub-group 16 on Aurora for the broadcast
/// kernels and 32 otherwise, both with large GRF; 32 on Polaris; 64 on
/// Frontier; clamped to a supported size for anything else (the CPU
/// host tops out at 16).
pub fn hand_picked_knobs(arch: &GpuArch, variant: Variant) -> (usize, GrfMode) {
    let (sg, grf) = match arch.id {
        "pvc" => {
            if variant == Variant::Broadcast {
                (16, GrfMode::Large)
            } else {
                (32, GrfMode::Large)
            }
        }
        "a100" => (32, GrfMode::Default),
        "mi250x" => (64, GrfMode::Default),
        _ => (arch.max_sg_size(), GrfMode::Default),
    };
    let sg = if arch.supports_sg_size(sg) {
        sg
    } else {
        arch.max_sg_size()
    };
    let grf = if arch.has_large_grf {
        grf
    } else {
        GrfMode::Default
    };
    (sg, grf)
}

/// The hand-picked table as a [`TuneChoice`] — the cold-cache fallback
/// and the baseline the autotuner must never lose to.
pub fn hand_picked_choice(arch: &GpuArch, variant: Variant) -> TuneChoice {
    let (sg, grf) = hand_picked_knobs(arch, variant);
    TuneChoice::new(variant.id(), TunablePoint::classic(sg, grf))
}

/// Variants legal on `arch` under `toolchain_visa` (whether the build
/// enables inline vISA).
pub fn variant_candidates(arch: &GpuArch, toolchain_visa: bool) -> Vec<Variant> {
    ALL_VARIANTS
        .into_iter()
        .filter(|v| !v.needs_visa() || (arch.supports_visa && toolchain_visa))
        .collect()
}

/// The composed search space for `arch`: every legal variant crossed
/// with the device-level tunable points — the full space when `full`,
/// the bounded per-push space (sub-group × GRF at work-group 128)
/// otherwise.
pub fn search_space(arch: &GpuArch, full: bool, toolchain_visa: bool) -> Vec<TuneChoice> {
    let points = if full {
        tunable::enumerate(arch)
    } else {
        tunable::enumerate_bounded(arch)
    };
    variant_candidates(arch, toolchain_visa)
        .into_iter()
        .flat_map(|v| points.iter().map(move |&p| TuneChoice::new(v.id(), p)))
        .collect()
}

/// Digest of one architecture's tuning-relevant description, so a cache
/// tuned for one arch set is rejected on another.
pub fn arch_digest(arch: &GpuArch) -> u64 {
    let sgs = arch
        .sg_sizes
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",");
    digest_strs([
        arch.id,
        &sgs,
        if arch.has_large_grf { "grf" } else { "-" },
        if arch.supports_visa { "visa" } else { "-" },
    ])
}

/// Digest of the kernel/variant set this build tunes — bumps whenever a
/// timer or variant is added, renamed, or removed, invalidating caches
/// tuned for the old set.
pub fn kernel_digest() -> u64 {
    let mut parts: Vec<&str> = tuned_timers();
    for v in ALL_VARIANTS {
        parts.push(v.id());
    }
    digest_strs(parts)
}

/// Re-validates a table entry against the live build:
/// the variant id must parse and be legal here (vISA needs both the
/// hardware and the toolchain), and the device knobs must be legal on
/// `arch`.
fn validate_choice(
    arch: &GpuArch,
    toolchain_visa: bool,
    choice: &TuneChoice,
) -> Option<(Variant, TuneChoice)> {
    let variant = Variant::from_id(&choice.variant)?;
    let legal = variant_candidates(arch, toolchain_visa).contains(&variant)
        && choice.knobs().is_valid(arch);
    legal.then(|| (variant, choice.clone()))
}

/// Reads the tuned table for one (architecture, problem-size band) as
/// validated [`StepPlan`]s.
#[derive(Clone, Debug)]
pub struct TunedSelector {
    table: TuneCache,
    arch: GpuArch,
    band: SizeBand,
    toolchain_visa: bool,
}

impl TunedSelector {
    /// Wraps a table of winners. `epsilon` must be 0: a plan is a row of
    /// the table, and nothing explores (the parameter outlives the
    /// exploration only until its last caller is re-pointed, ROADMAP
    /// item 12b).
    pub fn new(
        arch: &GpuArch,
        n_particles: usize,
        cache: TuneCache,
        epsilon: f64,
        toolchain_visa: bool,
    ) -> Self {
        assert!(epsilon == 0.0, "exploration is gone: epsilon must be 0");
        Self {
            table: cache,
            arch: arch.clone(),
            band: SizeBand::of(n_particles),
            toolchain_visa,
        }
    }

    /// Builds a step plan: per timer, the table's winner, re-validated
    /// against the live architecture; anything missing or invalid falls
    /// back to the hand-picked table for `default_variant`. `base`
    /// supplies the launch fields the knobs leave alone. Takes
    /// `&mut self` only so that callers binding the selector `mut` (the
    /// benchmark's `pp_sweep` probe) stay warning-free until item 12b.
    ///
    /// The table's seconds were costed per candidate on a tree built at
    /// the candidate variant's preferred leaf capacity; a plan runs all
    /// its brackets on one tree (see [`WorkSet`](crate::launch::WorkSet)),
    /// so a winner whose variant differs from the tree's does not run
    /// the configuration the table measured.
    pub fn plan(
        &mut self,
        default_variant: Variant,
        base: LaunchConfig,
        telemetry: Option<&Recorder>,
    ) -> StepPlan {
        let hand = hand_picked_choice(&self.arch, default_variant);
        let (hand_variant, hand_choice) = validate_choice(&self.arch, self.toolchain_visa, &hand)
            .unwrap_or_else(|| {
                // The hand-picked table is always device-valid; the only
                // way to get here is an unsupported default variant
                // (vISA without the toolchain) — degrade to its fallback.
                let v = default_variant.fallback().unwrap_or(Variant::MemoryObject);
                let c = hand_picked_choice(&self.arch, v);
                (v, c)
            });
        let mut plan = StepPlan::uniform(hand_variant, hand_choice.knobs().apply_to(base));
        for timer in tuned_timers() {
            let key = TuneKey::new(timer, self.arch.id, self.band);
            let Some(entry) = self.table.lookup(&key) else {
                continue;
            };
            if let Some(t) = telemetry {
                t.counter("tune.cache_hits", 1.0);
            }
            if let Some((variant, choice)) =
                validate_choice(&self.arch, self.toolchain_visa, &entry.choice)
            {
                plan.set(timer, variant, choice.knobs().apply_to(base));
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::LaunchBounds;

    #[test]
    fn variant_ids_round_trip_and_pass_the_cache_charset() {
        for v in ALL_VARIANTS {
            assert_eq!(Variant::from_id(v.id()), Some(v));
            assert!(v.id().chars().all(|c| c.is_ascii_alphanumeric()));
        }
        assert_eq!(Variant::from_id("Memory, 32-bit"), None);
    }

    #[test]
    fn hand_picked_matches_the_paper_table() {
        let pvc = GpuArch::aurora();
        assert_eq!(
            hand_picked_knobs(&pvc, Variant::Broadcast),
            (16, GrfMode::Large)
        );
        assert_eq!(
            hand_picked_knobs(&pvc, Variant::Select),
            (32, GrfMode::Large)
        );
        assert_eq!(
            hand_picked_knobs(&GpuArch::polaris(), Variant::Select),
            (32, GrfMode::Default)
        );
        assert_eq!(
            hand_picked_knobs(&GpuArch::frontier(), Variant::Select),
            (64, GrfMode::Default)
        );
        // Clamped to a supported size on the CPU host.
        let cpu = GpuArch::cpu_host();
        let (sg, _) = hand_picked_knobs(&cpu, Variant::Select);
        assert!(cpu.supports_sg_size(sg));
    }

    #[test]
    fn search_space_contains_the_hand_picked_table() {
        for arch in GpuArch::all() {
            let space = search_space(&arch, true, arch.supports_visa);
            for v in variant_candidates(&arch, arch.supports_visa) {
                let hand = hand_picked_choice(&arch, v);
                assert!(
                    space.contains(&hand),
                    "{} missing hand-picked {}",
                    arch.id,
                    hand.label()
                );
            }
        }
    }

    #[test]
    fn bounded_space_respects_architecture() {
        // Aurora: 5 variants × 2 sg × 2 grf = 20; Polaris: 4 × 1 × 1 = 4;
        // Frontier: 4 × 2 × 1 = 8.
        let size = |arch: GpuArch| search_space(&arch, false, arch.supports_visa).len();
        assert_eq!(size(GpuArch::aurora()), 20);
        assert_eq!(size(GpuArch::polaris()), 4);
        assert_eq!(size(GpuArch::frontier()), 8);
    }

    #[test]
    fn visa_is_gated_by_arch_and_toolchain() {
        let pvc = GpuArch::aurora();
        assert!(variant_candidates(&pvc, true).contains(&Variant::Visa));
        assert!(!variant_candidates(&pvc, false).contains(&Variant::Visa));
        assert!(!variant_candidates(&GpuArch::frontier(), true).contains(&Variant::Visa));
        let visa_choice = TuneChoice {
            variant: "visa".to_string(),
            sg_size: 32,
            wg_size: 128,
            grf: GrfMode::Large,
            bounds: LaunchBounds::Default,
        };
        assert!(validate_choice(&pvc, true, &visa_choice).is_some());
        assert!(validate_choice(&pvc, false, &visa_choice).is_none());
    }

    #[test]
    fn digests_distinguish_architectures() {
        let mut seen = std::collections::HashSet::new();
        for arch in GpuArch::all_with_cpu() {
            assert!(seen.insert(arch_digest(&arch)), "collision on {}", arch.id);
        }
        assert_ne!(kernel_digest(), 0);
    }

    #[test]
    fn cold_selector_plans_the_hand_picked_table() {
        let arch = GpuArch::frontier();
        let cache = TuneCache::new(arch_digest(&arch), kernel_digest());
        let mut sel = TunedSelector::new(&arch, 512, cache, 0.0, false);
        let base = LaunchConfig::defaults_for(&arch);
        let plan = sel.plan(Variant::Select, base, None);
        for timer in tuned_timers() {
            let (v, cfg) = plan.choice(timer);
            assert_eq!(v, Variant::Select);
            assert_eq!(cfg.sg_size, 64);
            assert_eq!(cfg.wg_size, 128);
        }
    }

    #[test]
    fn cached_winners_and_invalid_entries_resolve_correctly() {
        let arch = GpuArch::frontier();
        let mut cache = TuneCache::new(arch_digest(&arch), kernel_digest());
        let band = SizeBand::of(512);
        // A valid winner for upGeo...
        cache.record(
            &TuneKey::new("upGeo", arch.id, band),
            &TuneChoice {
                variant: "broadcast".to_string(),
                sg_size: 32,
                wg_size: 256,
                grf: GrfMode::Default,
                bounds: LaunchBounds::Capped(96),
            },
            1e-4,
        );
        // ...and an arch-invalid one for upCor (sg 16 unsupported on
        // MI250X) that must fall back to hand-picked.
        cache.record(
            &TuneKey::new("upCor", arch.id, band),
            &TuneChoice {
                variant: "select".to_string(),
                sg_size: 16,
                wg_size: 128,
                grf: GrfMode::Default,
                bounds: LaunchBounds::Default,
            },
            1e-4,
        );
        let mut sel = TunedSelector::new(&arch, 512, cache, 0.0, false);
        let base = LaunchConfig::defaults_for(&arch);
        let plan = sel.plan(Variant::Select, base, None);
        let (v_geo, cfg_geo) = plan.choice("upGeo");
        assert_eq!(v_geo, Variant::Broadcast);
        assert_eq!(cfg_geo.sg_size, 32);
        assert_eq!(cfg_geo.wg_size, 256);
        assert_eq!(cfg_geo.bounds, LaunchBounds::Capped(96));
        let (v_cor, cfg_cor) = plan.choice("upCor");
        assert_eq!(v_cor, Variant::Select);
        assert_eq!(cfg_cor.sg_size, 64);
        // No entry: the hand-picked table.
        let (v_grav, cfg_grav) = plan.choice(GRAVITY_TIMER);
        assert_eq!((v_grav, cfg_grav.sg_size), (Variant::Select, 64));
    }

    /// Every table row a plan reads counts one `tune.cache_hits`, also a
    /// row that fails re-validation; a timer without a row counts none.
    #[test]
    fn each_row_read_counts_a_cache_hit() {
        let arch = GpuArch::frontier();
        let mut cache = TuneCache::new(arch_digest(&arch), kernel_digest());
        let band = SizeBand::of(512);
        // sg 16 is not legal on MI250X, so upCor's row fails validation.
        for (timer, sg_size) in [("upGeo", 64), ("upCor", 16)] {
            let choice = TuneChoice {
                sg_size,
                ..hand_picked_choice(&arch, Variant::Select)
            };
            cache.record(&TuneKey::new(timer, arch.id, band), &choice, 1e-4);
        }
        let mut sel = TunedSelector::new(&arch, 512, cache, 0.0, false);
        let rec = Recorder::new();
        for _ in 0..5 {
            sel.plan(
                Variant::Select,
                LaunchConfig::defaults_for(&arch),
                Some(&rec),
            );
        }
        let hits = hacc_telemetry::counter_total(&rec.events(), "tune.cache_hits");
        assert_eq!(hits, 10.0);
    }
}
