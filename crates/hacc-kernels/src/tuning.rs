//! Kernel-layer glue for the runtime autotuner (DESIGN.md §4j).
//!
//! `hacc-tune` owns the persistent cache and the epsilon-greedy
//! selector but carries the communication variant only as a string id
//! (it sits below this crate in the dependency order). This module
//! composes the full search space — **variant × [`sycl_sim::tunable`]
//! device knobs** — stamps the cache with arch/kernel digests, and
//! converts cached winners into validated per-timer [`StepPlan`]s,
//! falling back to the paper's hand-picked table (Appendix A) whenever
//! a cache entry is cold, stale, or fails re-validation against the
//! live architecture.
//!
//! The launch choice is written once, here: [`hand_picked_knobs`] is
//! the workspace's only Appendix-A table and [`variant_candidates`] its
//! only legal-variant list.

use crate::launch::{StepPlan, TimerReport, GRAVITY_TIMER, HYDRO_TIMERS};
use crate::variant::{Variant, ALL_VARIANTS};
use hacc_telemetry::Recorder;
use hacc_tune::{
    digest_strs, Selection, SizeBand, TuneCache, TuneChoice, TuneError, TuneKey, Tuner,
};
use sycl_sim::{tunable, Device, GpuArch, GrfMode, LaunchConfig, TunablePoint};

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

/// Re-validates a cached or explored choice against the live build:
/// the variant id must parse and be legal here (vISA needs both the
/// hardware and the toolchain), and the device knobs must be legal on
/// `arch`.
pub fn validate_choice(
    arch: &GpuArch,
    toolchain_visa: bool,
    choice: &TuneChoice,
) -> Option<(Variant, TuneChoice)> {
    let variant = Variant::from_id(&choice.variant)?;
    let legal = variant_candidates(arch, toolchain_visa).contains(&variant)
        && choice.knobs().is_valid(arch);
    legal.then(|| (variant, choice.clone()))
}

/// The per-simulation tuned selector: wraps the [`Tuner`] with the
/// composed search space for one (architecture, problem-size band) and
/// builds validated [`StepPlan`]s.
#[derive(Clone, Debug)]
pub struct TunedSelector {
    tuner: Tuner,
    arch: GpuArch,
    band: SizeBand,
    toolchain_visa: bool,
    space: Vec<TuneChoice>,
}

impl TunedSelector {
    /// Wraps a digest-checked cache. `epsilon` is the exploration rate
    /// in `[0, 1]`; exploration draws from the bounded space (cheap
    /// single-step experiments), while the nightly soak walks the full
    /// space offline.
    pub fn new(
        arch: &GpuArch,
        n_particles: usize,
        cache: TuneCache,
        epsilon: f64,
        toolchain_visa: bool,
    ) -> Self {
        Self {
            tuner: Tuner::new(cache, epsilon),
            arch: arch.clone(),
            band: SizeBand::of(n_particles),
            toolchain_visa,
            space: search_space(arch, false, toolchain_visa),
        }
    }

    /// Loads `path`, validates schema and digests, and wraps the result;
    /// any load failure (missing file, hostile bytes, stale digests)
    /// starts from an empty stamped cache instead, returning the error
    /// alongside so callers can log it.
    pub fn from_cache_file(
        arch: &GpuArch,
        n_particles: usize,
        path: &std::path::Path,
        epsilon: f64,
        toolchain_visa: bool,
    ) -> (Self, Option<TuneError>) {
        let want_arch = arch_digest(arch);
        let want_kernel = kernel_digest();
        let (cache, err) = match TuneCache::load(path) {
            Ok(c) => match c.check_digests(want_arch, want_kernel) {
                Ok(()) => (c, None),
                Err(e) => (TuneCache::new(want_arch, want_kernel), Some(e)),
            },
            Err(e) => (TuneCache::new(want_arch, want_kernel), Some(e)),
        };
        (
            Self::new(arch, n_particles, cache, epsilon, toolchain_visa),
            err,
        )
    }

    /// The problem-size band this selector tunes for.
    pub fn band(&self) -> SizeBand {
        self.band
    }

    /// The wrapped cache (for persistence or inspection).
    pub fn cache(&self) -> &TuneCache {
        self.tuner.cache()
    }

    /// Writes the cache to `path` in canonical form.
    pub fn save(&self, path: &std::path::Path) -> Result<(), TuneError> {
        self.tuner.cache().save(path)
    }

    /// Read-only look at the validated cached winner for a timer, if
    /// any — used where a `&mut` selector is not available (e.g. the
    /// gravity context snapshot).
    pub fn peek(&self, timer: &str) -> Option<(Variant, TuneChoice)> {
        let key = TuneKey::new(timer, self.arch.id, self.band);
        let entry = self.tuner.cache().lookup(&key)?;
        validate_choice(&self.arch, self.toolchain_visa, &entry.choice)
    }

    /// Builds the step plan for the next step: per timer, the cached
    /// winner (or an exploration candidate at rate epsilon), re-validated
    /// against the live architecture; anything cold or invalid falls
    /// back to the hand-picked table for `default_variant`. `base`
    /// supplies the execution and metering policies.
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
            let picked = match self.tuner.select(&key, &self.space, telemetry) {
                Selection::Cached(c) | Selection::Explore(c) => {
                    validate_choice(&self.arch, self.toolchain_visa, &c)
                }
                Selection::Cold => None,
            };
            if let Some((variant, choice)) = picked {
                plan.set(timer, variant, choice.knobs().apply_to(base));
            }
        }
        plan
    }

    /// Feeds a completed step's timer reports back into the cache: each
    /// bracket's merged cost-model estimate is recorded against the
    /// choice that actually ran (which may be a fallback demotion of the
    /// planned variant). Unmetered launches (zero estimate) are skipped —
    /// a zero would otherwise win every comparison.
    pub fn observe_step(
        &mut self,
        device: &Device,
        timers: &[TimerReport],
        telemetry: Option<&Recorder>,
    ) {
        for t in timers {
            let Some(first) = t.profiles.first() else {
                continue;
            };
            let Some(variant) = Variant::from_label(&first.variant) else {
                continue;
            };
            let est = device.profile(&t.report).est_seconds;
            if est <= 0.0 {
                continue;
            }
            let choice = TuneChoice {
                variant: variant.id().to_string(),
                sg_size: t.report.sg_size,
                wg_size: t.report.wg_size,
                grf: t.report.grf,
                bounds: t.report.bounds,
            };
            let key = TuneKey::new(&t.timer, self.arch.id, self.band);
            self.tuner.observe(&key, &choice, est, telemetry);
        }
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
            assert_eq!(Variant::from_label(v.label()), Some(v));
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
        // peek sees the same winner without mutating the tuner.
        assert!(sel.peek("upGeo").is_some());
        assert!(sel.peek("upCor").is_none(), "invalid entries don't peek");
        assert!(sel.peek("upGrav").is_none());
    }

    #[test]
    fn stale_digests_start_a_fresh_cache() {
        let arch = GpuArch::frontier();
        let dir = std::env::temp_dir().join("hacc-tune-test-stale");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune-cache.json");
        let mut stale = TuneCache::new(0xbad, 0xbad);
        stale.record(
            &TuneKey::new("upGeo", arch.id, SizeBand::Small),
            &hand_picked_choice(&arch, Variant::Select),
            1.0,
        );
        stale.save(&path).unwrap();
        let (sel, err) = TunedSelector::from_cache_file(&arch, 512, &path, 0.0, false);
        assert!(matches!(err, Some(TuneError::Digest { .. })));
        assert!(sel.cache().entries.is_empty());
        assert_eq!(sel.cache().arch_digest, arch_digest(&arch));
        let _ = std::fs::remove_file(&path);
    }
}
