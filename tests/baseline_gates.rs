//! The `figures` gates, on the committed baselines and on synthetic
//! reports derived from them: every baseline parses through the report
//! type that writes it at `figures`' pinned configuration, a report
//! equal to its baseline passes, and each kind of violation fails
//! naming what moved. Everything here reads JSON; nothing simulates.

use crk_hacc::bench::autotune::{self, AutotuneReport, PP_FLOOR};
use crk_hacc::bench::cli::{PINNED_SEED, PINNED_SIZE, PINNED_STEPS};
use crk_hacc::bench::faults::{self, FaultSweepRecord};
use crk_hacc::bench::gate::{self, Gate};
use crk_hacc::bench::health::{self, HealthReport, HEALTH_RANKS, HEALTH_SCHEMA};
use crk_hacc::bench::ranks::{self, RankSweep};
use crk_hacc::bench::resilience::{self, ResilienceRecord, ResilienceSweep};
use crk_hacc::telemetry::chrome;

fn ranks_baseline() -> RankSweep {
    gate::load("perf_baseline.json").expect("tests/perf_baseline.json")
}

fn health_baseline() -> HealthReport {
    gate::load("observe_baseline.json").expect("tests/observe_baseline.json")
}

fn tune_baseline() -> AutotuneReport {
    gate::load("tune_baseline.json").expect("tests/tune_baseline.json")
}

/// The (place, metric) of every failing row, in the gate's order.
fn failing(gate: &Gate) -> Vec<(String, String)> {
    let rows = gate.rows.iter().filter(|r| !r.ok());
    rows.map(|r| (r.place.clone(), r.metric.clone())).collect()
}

#[test]
fn committed_baselines_are_reports_at_the_pinned_configuration() {
    let n = PINNED_SIZE * PINNED_SIZE * PINNED_SIZE;
    let sweep = ranks_baseline();
    assert_eq!(
        (sweep.n_base, sweep.steps, sweep.seed),
        (n, PINNED_STEPS, PINNED_SEED)
    );
    assert_eq!(
        sweep.records.len(),
        24,
        "3 architectures × 2 modes × 4 rank counts"
    );

    let report = health_baseline();
    assert_eq!(report.schema, HEALTH_SCHEMA);
    assert_eq!(
        (report.n_particles, report.ranks, report.steps, report.seed),
        (n, HEALTH_RANKS, PINNED_STEPS, PINNED_SEED)
    );

    let tune = tune_baseline();
    assert_eq!(tune.size, PINNED_SIZE);
    assert!(!tune.full_space, "the baseline pins the bounded space");
    assert_eq!(tune.pp_floor, PP_FLOOR);
    assert_eq!(tune.schema_version, crk_hacc::telemetry::SCHEMA_VERSION);
    assert_eq!(
        tune.kernel_digest,
        format!("{:016x}", crk_hacc::kernels::tuning::kernel_digest()),
        "the tuned kernel set changed: re-run `figures -- autotune --seeds 1` and accept its report"
    );
    assert!(
        autotune::gate(&tune).is_empty(),
        "{:?}",
        autotune::gate(&tune)
    );

    // Each baseline judged against itself moves nothing.
    for (what, gate) in [
        ("ranks", ranks::against(&sweep, &ranks_baseline())),
        ("health", health::against(&report, &health_baseline())),
        ("autotune", autotune::against(&tune, &tune_baseline())),
    ] {
        let text = gate.render(what);
        assert!(gate.passed() && gate.not_gated.is_none(), "{text}");
        assert!(text.contains("no gateable metric moved"), "{text}");
        assert!(gate.rows.iter().all(|r| r.delta() == 0.0), "{text}");
    }
}

#[test]
fn a_ranks_value_past_the_tolerance_names_its_configuration() {
    let base = ranks_baseline();
    let mut sweep = ranks_baseline();
    let at = sweep
        .records
        .iter()
        .position(|r| r.arch == "a100" && r.mode == "strong" && r.ranks == 4)
        .unwrap();
    sweep.records[at].node_seconds *= 1.2;
    assert!(
        ranks::against(&sweep, &base).passed(),
        "+20% is inside ±25%"
    );
    sweep.records[at].node_seconds = base.records[at].node_seconds * 1.3;
    let gate = ranks::against(&sweep, &base);
    assert!(!gate.passed());
    let place = ("a100/strong/4".to_string(), "node_seconds".to_string());
    assert_eq!(failing(&gate), [place]);
    let text = gate.render("ranks");
    assert!(
        text.contains("top 3 movers") && text.contains("a100/strong/4"),
        "{text}"
    );
    assert!(text.contains("+30.0%"), "{text}");

    // Another configuration is not gated at all.
    sweep.steps += 1;
    let gate = ranks::against(&sweep, &base);
    assert!(gate.passed() && gate.rows.is_empty());
    assert!(gate.render("ranks").starts_with("ranks gate: not gated: "));
}

#[test]
fn a_flipped_tune_knob_names_the_winner_and_the_knob() {
    let base = tune_baseline();
    let mut report = tune_baseline();
    let arch = report.archs.iter_mut().find(|a| a.arch == "pvc").unwrap();
    let winner = &mut arch.winners[0];
    let place = format!("pvc/{}", winner.kernel);
    winner.sg_size = if winner.sg_size == 16 { 32 } else { 16 };
    let gate = autotune::against(&report, &base);
    assert!(!gate.passed());
    assert_eq!(gate.mismatches.len(), 1, "{:?}", gate.mismatches);
    let m = &gate.mismatches[0];
    assert!(
        m.starts_with(&format!("{place}: winner knob sg_size moved")),
        "{m}"
    );

    // A stale kernel digest fails too; a full-space run is not gated.
    let mut report = tune_baseline();
    report.kernel_digest = "0000000000000000".to_string();
    assert!(!autotune::against(&report, &base).passed());
    report.full_space = true;
    let gate = autotune::against(&report, &base);
    assert!(gate.passed() && gate.not_gated.is_some());
}

#[test]
fn the_autotune_self_gate_holds_the_floor_and_the_hand_picked_table() {
    let mut report = tune_baseline();
    report.tuned_pp = 0.95;
    let arch = &mut report.archs[1];
    let winner = &mut arch.winners[2];
    winner.modeled_seconds = winner.hand_seconds * 1.01;
    let place = format!("{}/{}", arch.arch, winner.kernel);
    let failures = autotune::gate(&report);
    assert_eq!(failures.len(), 3, "{failures:?}");
    assert!(failures[0].contains("below the floor") && failures[1].contains("loses to"));
    assert!(failures[2].starts_with(&place), "{}", failures[2]);
}

#[test]
fn zero_baseline_and_missing_metrics_fail_in_delta_order() {
    let mut base = health_baseline();
    let mut report = health_baseline();
    let pvc = &mut base.archs[0];
    assert_eq!(pvc.arch, "pvc");
    let zeroed = pvc
        .metrics
        .iter_mut()
        .find(|m| m.name == "comm.bytes_sent")
        .unwrap();
    zeroed.sum = 0.0;
    let cur = &mut report.archs[0];
    cur.metrics.retain(|m| m.name != "task.nodes");
    let moved = cur
        .metrics
        .iter_mut()
        .find(|m| m.name == "comm.allreduce")
        .unwrap();
    moved.sum *= 1.3;
    let gate = health::against(&report, &base);
    let pvc = |m: &str| ("pvc".to_string(), m.to_string());
    assert_eq!(
        failing(&gate),
        [
            pvc("comm.bytes_sent"),
            pvc("task.nodes"),
            pvc("comm.allreduce")
        ],
        "{}",
        gate.render("health")
    );
    // The dashboard shows the same verdict as the console.
    let html = health::dashboard(&report, Some(&gate));
    assert!(
        html.contains("pvc comm.bytes_sent: 0.000000e0 -&gt; ") && html.contains("(from 0) FAIL"),
        "dashboard lost the verdict"
    );
}

#[test]
fn a_phase_mover_names_its_step_and_rank() {
    let base = health_baseline();
    let mut report = health_baseline();
    let a100 = report.archs.iter_mut().find(|a| a.arch == "a100").unwrap();
    let phase = a100
        .metrics
        .iter_mut()
        .find(|m| m.name == "phase.interior")
        .unwrap();
    let bump = phase.sum;
    phase.sum += bump;
    let step = &mut a100.critical_paths[2];
    let (step_no, rank) = (step.step, step.per_rank[5].rank);
    step.per_rank[5].interior_seconds += bump;
    step.critical_rank = (step.critical_rank + 1) % HEALTH_RANKS;

    let gate = health::against(&report, &base);
    assert_eq!(
        failing(&gate),
        [("a100".to_string(), "phase.interior".to_string())]
    );
    let why = &gate.rows[0].why;
    assert!(
        why.starts_with(&format!("largest mover: rank {rank} at step {step_no},")),
        "{why}"
    );
    let note = format!("a100 step {step_no}: critical rank moved");
    assert!(
        gate.notes.iter().any(|n| n.starts_with(&note)),
        "{:?}",
        gate.notes
    );
}

#[test]
fn sched_metrics_never_fail() {
    let base = health_baseline();
    let mut report = health_baseline();
    for a in &mut report.archs {
        for m in a
            .metrics
            .iter_mut()
            .filter(|m| m.name.starts_with("sched."))
        {
            m.sum = m.sum * 100.0 + 1.0;
        }
        a.metrics.retain(|m| m.name != "sched.steals");
    }
    let gate = health::against(&report, &base);
    assert!(gate.passed(), "{}", gate.render("health"));
    assert!(gate.rows.iter().all(|r| !r.metric.starts_with("sched.")));
    assert!(gate.render("health").contains("no gateable metric moved"));
}

#[test]
fn the_fault_sweep_needs_a_clean_zero_rate_row() {
    let row = |rate: f64, completed: bool, faults_injected: f64| FaultSweepRecord {
        rate,
        completed,
        steps: 4,
        gpu_seconds: 1e-3,
        faults_injected,
        retries: 0.0,
        fallbacks: 0.0,
        rollbacks: 0.0,
    };
    assert!(faults::gate(&[row(0.0, true, 0.0), row(0.1, true, 3.0)]).is_empty());
    assert_eq!(faults::gate(&[row(0.0, true, 1.0)]).len(), 1);
    assert_eq!(faults::gate(&[row(0.0, false, 0.0)]).len(), 1);
    assert_eq!(faults::gate(&[row(0.1, true, 3.0)]).len(), 1);
}

#[test]
fn the_resilience_sweep_must_recover_every_injected_loss() {
    let row = |mode: &str, recoveries: usize, digest_match: bool| ResilienceRecord {
        arch: "pvc".to_string(),
        ranks: 4,
        mode: mode.to_string(),
        interval: 2,
        seed: 1,
        loss_rank: if mode == "none" { -1 } else { 2 },
        loss_step: if mode == "none" { -1 } else { 3 },
        completed: true,
        digest: "0".to_string(),
        digest_match,
        checkpoints: 2,
        checkpoint_bytes: 0,
        checkpoint_seconds: 0.0,
        rollback_steps: 1,
        recoveries,
        mttr_seconds: 0.0,
        node_seconds: 1e-3,
        baseline_seconds: 1e-3,
        overhead_fraction: 0.0,
        final_ranks: 4,
    };
    let sweep = |records| ResilienceSweep {
        n_particles: 512,
        steps: 6,
        seeds: vec![1],
        records,
    };
    assert!(
        resilience::gate(&sweep(vec![row("none", 0, true), row("respawn", 1, true)])).is_empty()
    );
    let no_loss = resilience::gate(&sweep(vec![row("none", 0, true)]));
    assert_eq!(no_loss, ["no row injected a rank loss"]);
    assert_eq!(
        resilience::gate(&sweep(vec![row("shrink", 0, true)])).len(),
        1
    );
    assert_eq!(
        resilience::gate(&sweep(vec![row("shrink", 1, false)])).len(),
        1
    );
}

#[test]
fn a_chrome_trace_must_parse_and_hold_events() {
    let recorder = crk_hacc::telemetry::Recorder::new();
    drop(recorder.span("step"));
    let trace = chrome::chrome_trace(&recorder.events());
    assert!(chrome::event_count(&trace).unwrap() > 0);
    assert!(chrome::event_count(r#"{"traceEvents": []}"#).is_err());
    assert!(chrome::event_count(r#"{"displayTimeUnit": "ms"}"#).is_err());
    assert!(chrome::event_count(&trace[..trace.len() / 2]).is_err());
}
