//! Autotuner acceptance tests (DESIGN.md §4j).
//!
//! Two contracts:
//!
//! 1. **Hostile-input hardening** — `tune-cache.json` is an on-disk
//!    artifact that survives reboots, partial writes, and hand edits,
//!    so `TuneCache::from_json` must treat every byte as adversarial:
//!    truncations, bit-flips, forged headers, and out-of-range knobs
//!    parse to errors, never panics, exactly like the checkpoint
//!    codecs in `tests/resilience.rs`.
//! 2. **Determinism** — the tuner is a launch-knob selector with no
//!    physics surface. With exploration disabled and the cache pinning
//!    the paper's hand-picked winners, a tuned run must be bit-identical
//!    to the untuned hand-picked run.

use crk_hacc::core::{DeviceConfig, SimConfig, Simulation};
use crk_hacc::kernels::tuning::{
    arch_digest, hand_picked_choice, kernel_digest, tuned_timers, TunedSelector,
};
use crk_hacc::kernels::Variant;
use crk_hacc::sycl::{ExecutionPolicy, GpuArch, GrfMode, Lang, LaunchBounds};
use crk_hacc::tune::{SizeBand, TuneCache, TuneChoice, TuneError, TuneKey, SCHEMA_VERSION};
use proptest::prelude::*;

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
// Determinism: tuning with exploration off is bit-identical to the
// hand-picked table when the cache pins the same winners.
// ---------------------------------------------------------------------

/// The untuned reference build: Frontier with the paper's hand-picked
/// Select knobs (sub-group 64, standard GRF) fixed in the device config.
fn build_hand_picked() -> Simulation {
    let config = SimConfig::smoke();
    let device = DeviceConfig {
        lang: Lang::Sycl,
        fast_math: None,
        variant: Variant::Select,
        sg_size: Some(64),
        grf: GrfMode::Default,
    };
    let mut sim = Simulation::new(config, device, GpuArch::frontier());
    sim.set_execution_policy(ExecutionPolicy::Serial);
    sim
}

#[test]
fn epsilon_zero_tuning_on_pinned_winners_is_bit_identical_to_hand_picked() {
    let arch = GpuArch::frontier();
    let mut reference = build_hand_picked();
    let mut tuned = build_hand_picked();

    // Pin every timer's cached winner to the hand-picked choice, with a
    // modeled time small enough that no observed estimate can replace
    // it mid-run (the cache only swaps winners on strict improvement).
    let n = tuned.n_particles();
    let mut cache = TuneCache::new(arch_digest(&arch), kernel_digest());
    let pinned = hand_picked_choice(&arch, Variant::Select);
    for timer in tuned_timers() {
        cache.record(
            &TuneKey::new(timer, arch.id, SizeBand::of(n)),
            &pinned,
            1e-30,
        );
    }
    tuned.set_tuning(TunedSelector::new(&arch, n, cache, 0.0, false));
    assert!(tuned.tuning_enabled());
    assert!(!reference.tuning_enabled());

    // Both smoke-config PM steps, each with tuned sub-cycle launches.
    for _ in 0..2 {
        reference.step();
        tuned.step();
    }
    assert_eq!(reference.pos, tuned.pos, "positions must match bitwise");
    assert_eq!(reference.mom, tuned.mom, "momenta must match bitwise");
    assert_eq!(reference.u_int, tuned.u_int, "energies must match bitwise");
    assert_eq!(
        reference.state_digest(),
        tuned.state_digest(),
        "tuned and hand-picked trajectories must share one digest"
    );

    // The run fed estimates back, but the pinned winners must survive:
    // observation bumps trial counts, never the choice.
    let selector = tuned.take_tuning().expect("tuner still attached");
    for timer in tuned_timers() {
        let key = TuneKey::new(timer, arch.id, SizeBand::of(n));
        let entry = selector.cache().lookup(&key).expect("winner survives");
        assert_eq!(entry.choice, pinned, "{timer} winner moved during the run");
        assert!(entry.trials >= 1);
    }
}
