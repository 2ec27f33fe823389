//! Tuned-plan acceptance tests (DESIGN.md §4j).
//!
//! Three contracts:
//!
//! 1. **Hostile-input hardening** — `TuneCache::from_json` treats every
//!    byte of a table's text as adversarial: truncations, bit-flips,
//!    forged headers, and out-of-range knobs parse to errors, never
//!    panics, exactly like the checkpoint codecs in `tests/resilience.rs`.
//! 2. **What a plan changes** — at the kernel layer a plan drives (one
//!    hydro step plus the gravity launch): work-group size, launch
//!    bounds and Memory32-for-Select are cost-model knobs only, so a
//!    plan that pins the hand-picked winners or changes only those is
//!    bit-identical to the hand-picked launch. Sub-group size sets tile
//!    order, which sets the f32 fold order of the deferred atomics
//!    (DESIGN §4d), and Broadcast restructures its loops; a plan of the
//!    committed winners runs those winners and lands near the
//!    hand-picked launch, not on it. Every planned bracket runs under
//!    the execution and metering policies of the plan's base launch.

use crk_hacc::bench::autotune::{AutotuneReport, KernelWinner};
use crk_hacc::bench::cli::{PINNED_SEED, PINNED_SIZE};
use crk_hacc::bench::experiments::{workload, BenchProblem};
use crk_hacc::bench::gate;
use crk_hacc::kernels::tuning::{
    arch_digest, hand_picked_choice, kernel_digest, tuned_timers, TunedSelector,
};
use crk_hacc::kernels::{
    run_gravity, run_hydro_step_planned, DeviceParticles, GravityParams, Offload, StepPlan,
    Variant, WorkSet, GRAVITY_TIMER,
};
use crk_hacc::sycl::{
    Device, ExecutionPolicy, GpuArch, GrfMode, LaunchBounds, LaunchConfig, MeterPolicy,
    TunablePoint,
};
use crk_hacc::telemetry::{counter_total, KernelProfile, Recorder};
use crk_hacc::tune::{SizeBand, TuneCache, TuneChoice, TuneError, TuneKey, SCHEMA_VERSION};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A populated cache in canonical form: one winner per tuned timer,
/// alternating variants/knobs so the serializer's branches (large GRF,
/// capped bounds) all appear in the bytes the corruption tests mangle.
fn sample_cache() -> TuneCache {
    let arch = GpuArch::frontier();
    let mut cache = TuneCache::new(arch_digest(&arch), kernel_digest());
    let band = SizeBand::of(512);
    for (i, timer) in tuned_timers().into_iter().enumerate() {
        let choice = if i % 2 == 0 {
            hand_picked_choice(&arch, Variant::Select)
        } else {
            TuneChoice {
                variant: "broadcast".to_string(),
                sg_size: 64,
                wg_size: 256,
                grf: GrfMode::Default,
                bounds: LaunchBounds::Capped(96),
            }
        };
        cache.record(
            &TuneKey::new(timer, arch.id, band),
            &choice,
            1e-6 * (i + 1) as f64,
        );
    }
    cache
}

/// A syntactically valid cache file with the given header fields and
/// entries object body — the forgery template for the header tests.
fn forged(schema: &str, arch_digest: &str, kernel_digest: &str, entries: &str) -> String {
    format!(
        "{{ \"schema_version\": {schema}, \"arch_digest\": \"{arch_digest}\", \
         \"kernel_digest\": \"{kernel_digest}\", \"entries\": {{{entries}}} }}"
    )
}

/// An entry body that passes every knob range check.
const GOOD_ENTRY: &str = "\"variant\": \"select\", \"sg_size\": 64, \"wg_size\": 128, \
     \"grf\": \"default\", \"bounds\": \"default\", \"modeled_seconds\": 1e-4, \"trials\": 3";

#[test]
fn canonical_json_round_trips_byte_stable() {
    let cache = sample_cache();
    let text = cache.to_json();
    let reparsed = TuneCache::from_json(&text).expect("canonical form parses");
    assert_eq!(reparsed, cache, "round trip preserves every entry");
    assert_eq!(reparsed.to_json(), text, "canonical form is byte-stable");
}

#[test]
fn oversized_files_and_entry_sets_are_rejected() {
    let blob = " ".repeat(9 * 1024 * 1024);
    assert!(matches!(
        TuneCache::from_json(&blob),
        Err(TuneError::Parse(_))
    ));
    // One entry over the alloc cap: rejected before any key parsing.
    let mut entries = String::new();
    for i in 0..=crk_hacc::tune::MAX_ENTRIES {
        if i > 0 {
            entries.push(',');
        }
        entries.push_str(&format!("\"k{i}@pvc@small\": {{ {GOOD_ENTRY} }}"));
    }
    let text = forged("1", "0123456789abcdef", "0123456789abcdef", &entries);
    assert!(matches!(
        TuneCache::from_json(&text),
        Err(TuneError::Parse(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random truncations of a valid cache file error out — a partial
    /// write can never parse as a smaller-but-valid cache.
    #[test]
    fn truncated_cache_files_error_and_never_panic(frac in 0.0f64..1.0) {
        let text = sample_cache().to_json();
        let cut = (text.len() as f64 * frac) as usize;
        let result = TuneCache::from_json(&text[..cut]);
        prop_assert!(result.is_err(), "prefix of {cut} bytes parsed");
    }

    /// Single-bit corruption anywhere in the file either still parses
    /// (a digit nudged to another digit) or errors — never panics, and
    /// whatever parses re-serializes cleanly.
    #[test]
    fn bit_flipped_cache_files_never_panic(byte_frac in 0.0f64..1.0, bit in 0usize..8) {
        let mut raw = sample_cache().to_json().into_bytes();
        let idx = ((raw.len() as f64 * byte_frac) as usize).min(raw.len() - 1);
        raw[idx] ^= 1 << bit;
        // from_json takes &str; a flip that breaks UTF-8 is rejected by
        // the read layer before the parser ever sees it.
        if let Ok(text) = String::from_utf8(raw) {
            if let Ok(cache) = TuneCache::from_json(&text) {
                let _ = cache.to_json();
            }
        }
    }

    /// Forged schema versions are rejected and echoed back in the error.
    #[test]
    fn hostile_schema_versions_are_rejected(schema in 2u64..u64::MAX) {
        let text = forged(&schema.to_string(), "0123456789abcdef", "0123456789abcdef", "");
        prop_assert_eq!(
            TuneCache::from_json(&text),
            Err(TuneError::Schema { found: Some(schema) })
        );
    }

    /// Digest headers parse only as exactly 16 lowercase hex digits;
    /// every other length or charset errors.
    #[test]
    fn hostile_digest_headers_never_panic(digest in "[0-9a-fxz]{0,24}") {
        let text = forged(&SCHEMA_VERSION.to_string(), &digest, "0123456789abcdef", "");
        let valid = digest.len() == 16 && digest.chars().all(|c| c.is_ascii_hexdigit());
        prop_assert_eq!(TuneCache::from_json(&text).is_ok(), valid, "digest {:?}", digest);
    }

    /// Hostile entry keys parse only when they decode as a well-formed
    /// `kernel@arch@band` triple; junk arity, charset, or band errors.
    #[test]
    fn hostile_entry_keys_never_panic(key in "[a-zA-Z0-9@._ ]{1,32}") {
        let entries = format!("\"{key}\": {{ {GOOD_ENTRY} }}");
        let text = forged(&SCHEMA_VERSION.to_string(), "0123456789abcdef", "0123456789abcdef", &entries);
        let valid = TuneKey::decode(&key).is_some();
        prop_assert_eq!(TuneCache::from_json(&text).is_ok(), valid, "key {:?}", key);
    }

    /// Out-of-range launch knobs are range-checked, not trusted: an
    /// entry parses only when every knob passes the same bounds the
    /// recorder enforces.
    #[test]
    fn hostile_knob_values_never_panic(sg in any::<u64>(), wg in any::<u64>(), trials in any::<u64>()) {
        let entries = format!(
            "\"upGeo@mi250x@small\": {{ \"variant\": \"select\", \"sg_size\": {sg}, \
             \"wg_size\": {wg}, \"grf\": \"default\", \"bounds\": \"default\", \
             \"modeled_seconds\": 1e-4, \"trials\": {trials} }}"
        );
        let text = forged(&SCHEMA_VERSION.to_string(), "0123456789abcdef", "0123456789abcdef", &entries);
        let valid = (1..=1024).contains(&sg)
            && (1..=1024).contains(&wg)
            && wg.is_multiple_of(sg)
            && (1..=1_000_000_000_000_000).contains(&trials);
        prop_assert_eq!(
            TuneCache::from_json(&text).is_ok(),
            valid,
            "sg {} wg {} trials {}", sg, wg, trials
        );
    }
}

// ---------------------------------------------------------------------
// What a plan changes.
// ---------------------------------------------------------------------

/// The pinned problem (512 particles) and its offload at the leaf
/// capacity of the hand-picked Frontier build (Select, sub-group 64):
/// what a simulation's offload uploads, whatever plan it runs.
fn pinned() -> &'static (BenchProblem, Offload) {
    static PINNED: OnceLock<(BenchProblem, Offload)> = OnceLock::new();
    PINNED.get_or_init(|| {
        let problem = workload(PINNED_SIZE, PINNED_SEED);
        let leaf = Variant::Select.preferred_leaf_capacity(64);
        let (box_size, cutoff) = (problem.box_size, problem.r_cut);
        let offload = Offload::new(&problem.particles, box_size, cutoff, leaf, 64).unwrap();
        (problem, offload)
    })
}

/// The base launch every plan below starts from: Frontier's defaults,
/// serial and fully metered unless a test says otherwise.
fn base() -> LaunchConfig {
    LaunchConfig::defaults_for(&GpuArch::frontier()).with_exec(ExecutionPolicy::Serial)
}

/// The hand-picked launch: Select at its Appendix-A knobs.
fn hand_picked_plan(base: LaunchConfig) -> StepPlan {
    let knobs = hand_picked_choice(&GpuArch::frontier(), Variant::Select).knobs();
    StepPlan::uniform(Variant::Select, knobs.apply_to(base))
}

/// The plan a table of `(timer, choice)` winners reads as on Frontier,
/// through the row reader a tuned run uses.
fn frontier_plan(winners: &[(String, TuneChoice)], base: LaunchConfig) -> StepPlan {
    let arch = GpuArch::frontier();
    let n = pinned().0.particles.len();
    let band = SizeBand::of(n);
    let mut cache = TuneCache::new(arch_digest(&arch), kernel_digest());
    for (timer, choice) in winners {
        cache.record(&TuneKey::new(timer, arch.id, band), choice, 1e-6);
    }
    TunedSelector::new(&arch, n, cache, 0.0, false).plan(Variant::Select, base, None)
}

/// `tests/tune_baseline.json`'s Frontier winners, one per tuned timer.
fn committed_frontier_winners() -> Vec<(String, TuneChoice)> {
    let report: AutotuneReport =
        gate::load("tune_baseline.json").expect("tests/tune_baseline.json");
    let frontier = report.archs.iter().find(|a| a.arch == "mi250x");
    let winners = &frontier.expect("Frontier row").winners;
    let choice = |w: &KernelWinner| TuneChoice {
        variant: w.variant.clone(),
        sg_size: w.sg_size,
        wg_size: w.wg_size,
        grf: if w.grf == "large" {
            GrfMode::Large
        } else {
            GrfMode::Default
        },
        bounds: LaunchBounds::from_label(&w.bounds).expect("bounds label"),
    };
    winners
        .iter()
        .map(|w| (w.kernel.clone(), choice(w)))
        .collect()
}

/// One hydro step plus the gravity launch under `plan`: the device
/// state it leaves and its telemetry.
fn run_plan(plan: &StepPlan) -> (DeviceParticles, Recorder) {
    let (problem, offload) = pinned();
    let device = Device::new(GpuArch::frontier(), Variant::Select.toolchain()).unwrap();
    let works = WorkSet::build(&offload.tree, &offload.list, plan.sg_sizes());
    let data = offload.upload();
    let telemetry = Recorder::new();
    let box_size = problem.box_size as f32;
    run_hydro_step_planned(&device, &data, &works, plan, box_size, &telemetry).expect("hydro step");
    let (variant, cfg) = plan.choice(GRAVITY_TIMER);
    let params = GravityParams {
        poly: problem.poly,
        r_cut2: (problem.r_cut * problem.r_cut) as f32,
        soft2: 1e-4,
    };
    let work = works.get(cfg.sg_size).expect("gravity's work lists");
    run_gravity(
        &device, &data, work, variant, box_size, params, cfg, &telemetry,
    )
    .expect("gravity launch");
    (data, telemetry)
}

/// Every launch's kernel profile, in launch order.
fn kernel_profiles(telemetry: &Recorder) -> Vec<KernelProfile> {
    let events = telemetry.events().into_iter();
    events.filter_map(|e| e.kernel.map(|p| *p)).collect()
}

#[test]
fn epsilon_zero_tuning_on_pinned_winners_is_bit_identical_to_hand_picked() {
    let pinned = hand_picked_choice(&GpuArch::frontier(), Variant::Select);
    let winners: Vec<(String, TuneChoice)> = tuned_timers()
        .into_iter()
        .map(|t| (t.to_string(), pinned.clone()))
        .collect();
    let (reference, _) = run_plan(&hand_picked_plan(base()));
    let (tuned, _) = run_plan(&frontier_plan(&winners, base()));
    assert_eq!(
        reference.download_vec3(&reference.acc),
        tuned.download_vec3(&tuned.acc),
        "accelerations must match bitwise"
    );
    assert_eq!(
        reference.state_digest(),
        tuned.state_digest(),
        "tuned and hand-picked launches must leave one device state"
    );
}

#[test]
fn work_group_size_launch_bounds_and_memory32_are_bit_neutral() {
    let knobs = |wg_size, bounds| {
        let grf = GrfMode::Default;
        TunablePoint {
            sg_size: 64,
            wg_size,
            grf,
            bounds,
        }
        .apply_to(base())
    };
    // Every bracket moves off the hand-picked (Select, work-group 128,
    // default bounds), at the hand-picked sub-group size.
    let moves = [
        (Variant::Select, knobs(256, LaunchBounds::Default)),
        (Variant::Select, knobs(128, LaunchBounds::Capped(96))),
        (Variant::Memory32, knobs(128, LaunchBounds::Default)),
        (Variant::Memory32, knobs(256, LaunchBounds::Capped(96))),
    ];
    let mut plan = StepPlan::uniform(moves[0].0, moves[0].1);
    for (timer, (variant, cfg)) in tuned_timers().into_iter().zip(moves.iter().cycle()) {
        plan.set(timer, *variant, *cfg);
    }
    let (tuned, telemetry) = run_plan(&plan);
    for p in kernel_profiles(&telemetry) {
        let (variant, cfg) = plan.choice(&p.timer);
        assert_eq!(p.variant, variant.label(), "{}: variant", p.timer);
        assert_eq!(
            p.wg_size as usize, cfg.wg_size,
            "{}: work-group size",
            p.timer
        );
    }
    let (reference, _) = run_plan(&hand_picked_plan(base()));
    assert_eq!(reference.state_digest(), tuned.state_digest());
}

/// Largest |difference| between two runs' values of a field, as a
/// fraction of the field's largest |value| in the first.
fn worst_relative(a: &[[f32; 3]], b: &[[f32; 3]]) -> f64 {
    let scale = a.iter().flatten().fold(0.0f32, |m, x| m.max(x.abs()));
    let pairs = a.iter().flatten().zip(b.iter().flatten());
    let worst = pairs.fold(0.0f32, |m, (x, y)| m.max((x - y).abs()));
    f64::from(worst / scale)
}

/// Accelerations (hydro and gravity) of a plan of the committed winners
/// stay within this fraction of the field's largest |value| under the
/// hand-picked launch. The plan changes no physics, only the order of
/// f32 sums: Broadcast's chunked loops fold each particle's neighbour
/// contributions in another order, and one reordered f32 sum differs in
/// its last bits. Measured against the field's largest value that is
/// 1.8e-7 for hydro and 1.0e-5 for gravity, whose neighbour terms
/// nearly cancel on the near-uniform z = 200 lattice, so the rounding
/// of each term is large next to the net force. A bound of 1e-4 leaves
/// 10× over the gravity figure, while a Broadcast kernel that skips one
/// neighbour range per chunk moves the fields by 3.5× (hydro) and 12×
/// (gravity) their largest value.
const WINNER_PLAN_TOLERANCE: f64 = 1e-4;

#[test]
fn a_plan_of_the_committed_frontier_winners_runs_those_winners() {
    let winners = committed_frontier_winners();
    assert_eq!(winners.len(), tuned_timers().len(), "one winner per timer");
    assert!(
        winners
            .iter()
            .any(|(_, c)| c.variant != "select" || c.sg_size != 64),
        "the committed winners must reach past the hand-picked Select build"
    );
    let (tuned, telemetry) = run_plan(&frontier_plan(&winners, base()));
    let profiles = kernel_profiles(&telemetry);

    // Each bracket ran the planned variant at the planned sub-group size.
    for (timer, choice) in &winners {
        let variant = Variant::from_id(&choice.variant).expect("variant id");
        let ran: Vec<&KernelProfile> = profiles.iter().filter(|p| p.timer == *timer).collect();
        assert!(!ran.is_empty(), "{timer} never ran");
        for p in ran {
            assert_eq!(p.variant, variant.label(), "{timer}: variant");
            assert_eq!(
                p.sg_size as usize, choice.sg_size,
                "{timer}: sub-group size"
            );
        }
    }

    let (reference, _) = run_plan(&hand_picked_plan(base()));
    let fields = [
        ("acc", [&reference.acc, &tuned.acc]),
        ("acc_grav", [&reference.acc_grav, &tuned.acc_grav]),
    ];
    for (name, [want, got]) in fields {
        let (want, got) = (reference.download_vec3(want), tuned.download_vec3(got));
        assert!(
            got.iter().flatten().all(|x| x.is_finite()),
            "{name}: not finite"
        );
        let worst = worst_relative(&want, &got);
        assert!(
            worst <= WINNER_PLAN_TOLERANCE,
            "winner plan moved {name} by {worst:.3e} of its largest |value|"
        );
    }
}

#[test]
fn every_planned_bracket_runs_under_the_base_policies() {
    let table = committed_frontier_winners();
    let mut digests = Vec::new();
    for exec in [ExecutionPolicy::Serial, ExecutionPolicy::with_threads(2)] {
        let base = base().with_exec(exec).with_meter(MeterPolicy::Off);
        let (data, telemetry) = run_plan(&frontier_plan(&table, base));
        let profiles = kernel_profiles(&telemetry);
        assert!(profiles.iter().any(|p| p.timer == GRAVITY_TIMER));
        for p in &profiles {
            assert!(
                p.instr.iter().all(|&c| c == 0),
                "{}: metered under MeterPolicy::Off ({exec:?})",
                p.timer
            );
        }
        // Only parallel launches report scheduler samples.
        let parallel = counter_total(&telemetry.events(), "sched.queue_depth") > 0.0;
        assert_eq!(
            parallel,
            exec != ExecutionPolicy::Serial,
            "{exec:?} not applied"
        );
        digests.push(data.state_digest());
    }
    assert_eq!(
        digests[0], digests[1],
        "serial and threaded plans must leave one device state"
    );
}
