//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p hacc-bench --bin figures -- all
//! cargo run --release -p hacc-bench --bin figures -- fig2 fig9 table2
//! cargo run --release -p hacc-bench --bin figures -- --size 12 fig12
//! ```
//!
//! The accepted targets and flags are the rows of
//! [`hacc_bench::TARGETS`] and [`hacc_bench::FLAGS`]; anything else
//! exits 2 naming both sets. No target means `all`. Every number
//! printed is the *modeled* clock: host wall-clock is measured in
//! `benchmark/` only.
//!
//! `--size N` sets the workload side length (default 8, i.e. 8³
//! baryons); `--json PATH` additionally writes the raw evaluation data
//! as JSON. `fig2`, `fig9`–`fig13`, `ablations`, `cpu` and `--json` are
//! views of one Figure 12 sweep, run once per invocation; they measure
//! only the builds it does not hold. `cpu` (§7.3) adds the CPU as one
//! more platform under Figure 12's PP rule.
//!
//! `faults` (not part of `all`) sweeps injected fault rates through the
//! guarded smoke run and reports the recovery overhead; with
//! `--json PATH` it dumps the sweep records instead of the evaluation
//! data. `autotune` (not part of `all`) runs the offline
//! autotune sweep — every (variant × sub-group × work-group × GRF ×
//! launch-bounds) candidate per architecture, winners per kernel — and
//! writes `BENCH_autotune.json` (or the `--json` path), exiting
//! non-zero unless the tuned plan reaches the hand-picked PP floor of
//! 0.96 and its winners match `tests/tune_baseline.json`; `--full`
//! searches the full space instead of the bounded per-push space, and
//! `--seeds N` with N > 1 additionally reports winners that move on
//! N−1 extra workload seeds. `ranks` (not part of `all`) runs the
//! weak/strong multi-rank sweep — 3D decomposition, halo exchange over
//! each architecture's modeled interconnect, comm/compute overlap —
//! over 1/2/4/8 ranks × architectures and writes `BENCH_ranks.json`
//! (or the `--json` path), exiting non-zero unless every row holds its
//! 1-rank bits and `tests/perf_baseline.json`'s values; `--size N` sets
//! its particle count to N³.
//! `health` (not part of `all`) collects the cross-rank performance
//! health report — per-step critical-path
//! attribution, a roofline point per kernel per architecture, and the
//! full metrics registry — writing `BENCH_observe.json` plus a
//! self-contained `BENCH_observe.html` dashboard, and exits non-zero
//! naming the kernel, (step, rank) or layer behind any metric that
//! moved past ±25 % of `tests/observe_baseline.json`. With
//! `--trace PATH` it also captures one instrumented multi-rank run as
//! a Chrome trace with a separate process lane per rank. `resilience`
//! (not part of `all`) sweeps checkpoint intervals × recovery modes ×
//! seeded rank-loss schedules over 1/2/4/8 ranks, digest-gating every
//! recovered run against its fault-free reference, and writes
//! `BENCH_resilience.json` (or the `--json` path); `--seeds N` sets
//! the number of loss-schedule seeds (default 2).
//!
//! `ranks`, `health` and `autotune` write their report, then judge it
//! against the committed `tests/*_baseline.json` — an accepted report,
//! so accepting a change is copying the new one over it. At another
//! configuration they print `not gated` and exit on their self-checks.
//!
//! Execution engine: every launch runs the auto-width parallel
//! scheduler, whose pool `RAYON_NUM_THREADS` caps. The results are
//! bit-identical at any width — the engine commits atomics in a fixed
//! order — so the width is purely a speed knob.
//!
//! Observability:
//!
//! * `profile` prints the per-kernel instruction/time profile table for
//!   all three architectures.
//! * `--trace PATH` writes a Chrome trace-event JSON of the profile run
//!   (load it in Perfetto or `chrome://tracing`).
//! * `--telemetry PATH` writes the profile run's raw event stream as
//!   versioned JSON Lines.
//! * `validate --telemetry PATH` re-reads a JSONL dump and checks it
//!   against the current schema; `validate --trace PATH` checks that a
//!   Chrome trace parses and holds events (both exit non-zero on a
//!   mismatch).

use hacc_bench::cli::{PINNED_SEED, PINNED_SIZE, PINNED_STEPS};
use hacc_bench::experiments::{profile_run, workload, VariantChoice};
use hacc_bench::figures::*;
use hacc_bench::gate::{self, Gate};
use hacc_bench::ranks::RankRecord;
use hacc_kernels::Variant;
use hacc_metrics::{find_workspace_root, RepoInventory};
use hacc_telemetry::{chrome, jsonl, table, Event, Recorder};
use std::path::Path;
use sycl_sim::{GpuArch, Toolchain};

/// Concatenates per-architecture event streams into one, keeping event
/// ids (and the parent links that reference them) unique.
fn merge_events(groups: &[(GpuArch, Recorder)]) -> Vec<Event> {
    let mut out = Vec::new();
    let mut offset = 0u64;
    for (_, recorder) in groups {
        let events = recorder.events();
        let mut max_id = 0;
        for ev in &events {
            let mut e = ev.clone();
            e.id += offset;
            if e.parent != 0 {
                e.parent += offset;
            }
            max_id = max_id.max(ev.id);
            out.push(e);
        }
        offset += max_id;
    }
    out
}

/// Writes `report` as JSON to `path` (the `--json` value) or `default`,
/// and returns the path written.
fn write_json(path: Option<String>, default: &str, report: &impl serde::Serialize) -> String {
    let path = path.unwrap_or_else(|| default.to_string());
    let text = serde_json::to_string_pretty(report).expect("serialize report");
    std::fs::write(&path, text).expect("write report JSON");
    eprintln!("[figures] wrote {path}");
    path
}

/// Prints each failure and exits 1 if there is any.
fn exit_on(failures: &[String]) {
    for f in failures {
        eprintln!("[figures] ERROR: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Prints the verdict against the committed baseline, then exits 1 on
/// any self-check failure, baseline violation or unreadable baseline.
fn judge(what: &str, mut failures: Vec<String>, verdict: Result<Gate, String>) {
    match verdict {
        Ok(gate) => {
            println!("{}", gate.render(what));
            if !gate.passed() {
                failures.push(format!("the {what} report violates its committed baseline"));
            }
        }
        Err(e) => failures.push(format!("cannot read the {what} baseline {e}")),
    }
    exit_on(&failures);
}

fn main() {
    let inv = hacc_bench::Invocation::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    });
    let given = |flag: &str| inv.values(flag).next().is_some();
    let path = |flag: &str| inv.values(flag).last().map(str::to_string);
    let count = |flag: &str, default: usize| -> usize {
        let n = inv.values(flag).last().map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} needs a positive integer"))
        });
        assert!(n > 0, "{flag} needs a positive integer");
        n
    };
    let (size, n_seeds) = (count("--size", PINNED_SIZE), count("--seeds", 2));
    let full_space = given("--full");
    let slow_kernels: Vec<(String, f64)> = inv
        .values("--slow")
        .map(|spec| {
            spec.split_once(':')
                .and_then(|(k, f)| f.parse::<f64>().ok().map(|f| (k.to_string(), f)))
                .expect("--slow needs KERNEL:FACTOR, e.g. upGeo:5.0")
        })
        .collect();
    let (json_path, trace_path) = (path("--json"), path("--trace"));
    let telemetry_path = path("--telemetry");
    let want = |t: &str| inv.wants(t);
    if want("validate") {
        assert!(
            telemetry_path.is_some() || trace_path.is_some(),
            "validate needs --telemetry PATH or --trace PATH"
        );
        let read = |path: &str| std::fs::read_to_string(path).expect("read file to validate");
        let mut failures = Vec::new();
        if let Some(path) = &telemetry_path {
            match jsonl::from_jsonl(&read(path)) {
                Ok(events) => println!(
                    "{path}: OK — {} events, schema v{}",
                    events.len(),
                    hacc_telemetry::SCHEMA_VERSION
                ),
                Err(e) => failures.push(format!("{path}: INVALID — {e:?}")),
            }
        }
        if let Some(path) = &trace_path {
            match chrome::event_count(&read(path)) {
                Ok(n) => println!("{path}: OK — Chrome trace with {n} events"),
                Err(e) => failures.push(format!("{path}: INVALID — {e}")),
            }
        }
        exit_on(&failures);
        return;
    }
    if want("ranks") {
        let n = size * size * size;
        eprintln!(
            "[figures] multi-rank sweep: {n} particles (strong) / per rank (weak) \
             over 1/2/4/8 ranks × architectures…"
        );
        let sweep = hacc_bench::ranks::sweep(n, PINNED_STEPS, PINNED_SEED);
        println!("{}", hacc_bench::ranks::render(&sweep));
        write_json(json_path, "BENCH_ranks.json", &sweep);
        let diverged = sweep.records.iter().filter(|r| !r.bit_identical);
        let row =
            |r: &RankRecord| format!("{}/{}/{} left the 1-rank bits", r.arch, r.mode, r.ranks);
        let failures = diverged.map(row).collect();
        let verdict =
            gate::load("perf_baseline.json").map(|b| hacc_bench::ranks::against(&sweep, &b));
        judge("ranks", failures, verdict);
        return;
    }
    if want("resilience") {
        let n = size * size * size;
        let seeds: Vec<u64> = (0..n_seeds as u64).map(|k| PINNED_SEED + k).collect();
        eprintln!(
            "[figures] resilience sweep: {n} particles, {} seeds, checkpoint \
             intervals × shrink/respawn × rank-loss schedules over 1/2/4/8 ranks…",
            seeds.len()
        );
        let sweep = hacc_bench::resilience::sweep(n, 6, &seeds);
        println!("{}", hacc_bench::resilience::render(&sweep));
        write_json(json_path, "BENCH_resilience.json", &sweep);
        exit_on(&hacc_bench::resilience::gate(&sweep));
        return;
    }
    if want("health") {
        eprintln!(
            "[figures] health report: {size}³ particles over {} ranks × architectures…",
            hacc_bench::health::HEALTH_RANKS
        );
        // `--slow KERNEL:FACTOR` routes through the fault injector's
        // latency knob — the acceptance path for the explaining gate:
        // slow one kernel, and the gate must name it.
        let fault = (!slow_kernels.is_empty()).then(|| sycl_sim::FaultConfig {
            slow_kernels: slow_kernels.clone(),
            ..Default::default()
        });
        let report = hacc_bench::health::collect_faulty(size, PINNED_STEPS, PINNED_SEED, fault);
        println!("{}", hacc_bench::health::render(&report));
        let verdict =
            gate::load("observe_baseline.json").map(|b| hacc_bench::health::against(&report, &b));
        // `--trace` captures one instrumented multi-rank run and writes
        // it as a Chrome trace: each rank gets its own process lane, so
        // the per-rank phase timeline is readable in Perfetto.
        if let Some(tp) = trace_path.as_ref() {
            use hacc_core::{MultiRankProblem, MultiRankSim};
            let mut sim = MultiRankSim::new(
                hacc_bench::health::HEALTH_RANKS,
                GpuArch::frontier(),
                MultiRankProblem::small(size * size * size, PINNED_SEED),
            );
            let rec = Recorder::new();
            sim.set_recorder(rec.clone());
            sim.run(PINNED_STEPS).expect("trace run must complete");
            let events = rec.events();
            std::fs::write(tp, chrome::chrome_trace_named(&[("frontier", &events)]))
                .expect("write multi-rank Chrome trace");
            eprintln!("[figures] wrote multi-rank Chrome trace to {tp}");
        }
        let path = write_json(json_path, "BENCH_observe.json", &report);
        let html_path = path
            .strip_suffix(".json")
            .map(|p| format!("{p}.html"))
            .unwrap_or_else(|| format!("{path}.html"));
        std::fs::write(
            &html_path,
            hacc_bench::health::dashboard(&report, verdict.as_ref().ok()),
        )
        .expect("write health dashboard");
        eprintln!("[figures] wrote {html_path}");
        judge("health", Vec::new(), verdict);
        return;
    }
    if want("autotune") {
        eprintln!(
            "[figures] autotune sweep: {size}³ baryons, {} space…",
            if full_space { "full" } else { "bounded" }
        );
        let mut report = hacc_bench::autotune::sweep(size, full_space);
        if n_seeds > 1 {
            let seeds: Vec<u64> = (1..n_seeds as u64).collect();
            eprintln!(
                "[figures] autotune soak: re-selecting winners on {} extra seed(s)…",
                seeds.len()
            );
            report.movers = hacc_bench::autotune::seed_movers(&report, size, &seeds);
            for m in report.movers.iter().take(3) {
                eprintln!(
                    "[autotune] mover {}/{} seed {}: {} -> {} ({:+.2}%)",
                    m.arch, m.kernel, m.seed, m.from, m.to, m.delta_pct
                );
            }
        }
        println!("{}", hacc_bench::autotune::render(&report));
        write_json(json_path, "BENCH_autotune.json", &report);
        let verdict =
            gate::load("tune_baseline.json").map(|b| hacc_bench::autotune::against(&report, &b));
        judge("autotune", hacc_bench::autotune::gate(&report), verdict);
        return;
    }
    if want("faults") {
        eprintln!("[figures] sweeping fault rates on the smoke problem…");
        let rates = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5];
        let records = hacc_bench::faults::sweep(&rates, 0xFA_17);
        println!("{}", hacc_bench::faults::render(&records));
        if json_path.is_some() {
            write_json(json_path, "", &records);
        }
        exit_on(&hacc_bench::faults::gate(&records));
        return;
    }
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root not found");
    let inventory = RepoInventory::measure(&root).expect("inventory measurement failed");

    if want("table1") {
        println!("{}", table1());
    }
    if want("table2") {
        println!("{}", table2(&inventory));
    }

    if want("fom") {
        println!("{}", hacc_core::fom::render_problems());
    }
    let need_profile = want("profile") || trace_path.is_some() || telemetry_path.is_some();
    let need_workload =
        json_path.is_some() || need_profile || inv.targets.iter().any(|t| t.needs_workload);
    if !need_workload {
        return;
    }
    eprintln!("[figures] building workload: {size}³ baryons, z = 200 snapshot…");
    let problem = workload(size, PINNED_SEED);

    // One Figure 12 sweep per invocation: every view of a build it
    // holds reads it from there.
    let views = "fig2 fig9 fig10 fig11 fig12 fig13 ablations cpu";
    let data = (json_path.is_some() || views.split(' ').any(want)).then(|| {
        eprintln!("[figures] running the full portability sweep…");
        portability_data(&problem)
    });
    let sweep = || data.as_ref().expect("the sweep runs for every view");
    if want("fig2") {
        println!("{}", fig2(&problem, sweep()));
    }
    for (i, fig) in ["fig9", "fig10", "fig11"].into_iter().enumerate() {
        if want(fig) {
            println!("{}", fig_variants(&sweep().runs[i]));
        }
    }
    if want("fig12") || want("fig13") {
        let (text, records) = fig12(sweep());
        if want("fig12") {
            println!("{text}");
        }
        if want("fig13") {
            println!("{}", fig13(&records, &inventory));
        }
    }
    if want("ablations") {
        println!("{}", ablation_registers(&problem));
        println!("{}", ablation_fast_math(&problem, sweep()));
        println!("{}", ablation_memory_granularity(sweep()));
    }
    if want("cpu") {
        println!("{}", cpu(&cpu_row(&problem, sweep())));
    }
    if need_profile {
        eprintln!("[figures] capturing per-launch telemetry on all architectures…");
        let runs: Vec<(GpuArch, Recorder)> = GpuArch::all()
            .into_iter()
            .map(|arch| {
                let choice = VariantChoice::paper_default(&arch, Variant::Select);
                let recorder = profile_run(&arch, Toolchain::sycl(), choice, &problem);
                (arch, recorder)
            })
            .collect();
        if want("profile") {
            for (arch, recorder) in &runs {
                let title = format!(
                    "profile: {} ({}), variant=Select, {size}³ baryons",
                    arch.system, arch.gpu_name
                );
                println!("{}", table::profile_table(&title, &recorder.events()));
            }
        }
        if let Some(path) = trace_path {
            let groups: Vec<(&str, Vec<Event>)> =
                runs.iter().map(|(a, r)| (a.system, r.events())).collect();
            let named: Vec<(&str, &[Event])> =
                groups.iter().map(|(n, e)| (*n, e.as_slice())).collect();
            std::fs::write(&path, chrome::chrome_trace_named(&named)).expect("write trace");
            eprintln!("[figures] wrote Chrome trace to {path}");
        }
        if let Some(path) = telemetry_path {
            let merged = merge_events(&runs);
            std::fs::write(&path, jsonl::to_jsonl(&merged)).expect("write telemetry");
            eprintln!("[figures] wrote {} JSONL events to {path}", merged.len());
        }
    }
    if let Some(path) = json_path {
        eprintln!("[figures] writing JSON dump to {path}…");
        let dump = evaluation_dump(&problem, sweep(), &inventory);
        let text = serde_json::to_string_pretty(&dump).expect("serialize dump");
        std::fs::write(&path, text).expect("write JSON dump");
    }
}
