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
//! as JSON. `faults` (not part of `all`) sweeps injected fault rates
//! through the guarded smoke run and reports the recovery overhead;
//! with `--json PATH` it dumps the sweep records instead of the
//! evaluation data. `autotune` (not part of `all`) runs the offline
//! autotune sweep — every (variant × sub-group × work-group × GRF ×
//! launch-bounds) candidate per architecture, winners per kernel,
//! epsilon-greedy replay — and writes `BENCH_autotune.json` (or the
//! `--json` path), exiting non-zero unless the tuned plan reaches the
//! hand-picked PP floor of 0.96; `--full`
//! searches the full space instead of the bounded per-push space,
//! `--seeds N` with N > 1 additionally reports winners that move on
//! N−1 extra workload seeds, and `PROPTEST_CASES` scales the replay
//! trial count (default 64). `ranks` (not part of `all`) runs the
//! weak/strong multi-rank sweep — 3D decomposition, halo exchange over
//! each architecture's modeled interconnect, comm/compute overlap —
//! over 1/2/4/8 ranks × architectures and writes `BENCH_ranks.json`
//! (or the `--json` path); `--size N` sets its particle count to N³.
//! `health` (not part of `all`) collects the cross-rank performance
//! health report — per-step critical-path
//! attribution, a roofline point per kernel per architecture, and the
//! full metrics registry — writing `BENCH_observe.json` plus a
//! self-contained `BENCH_observe.html` dashboard; when
//! `tests/observe_baseline.json` exists the top metric regressions
//! against it are printed and embedded in the dashboard. With
//! `--trace PATH` it also captures one instrumented multi-rank run as
//! a Chrome trace with a separate process lane per rank. `resilience`
//! (not part of `all`) sweeps checkpoint intervals × recovery modes ×
//! seeded rank-loss schedules over 1/2/4/8 ranks, digest-gating every
//! recovered run against its fault-free reference, and writes
//! `BENCH_resilience.json` (or the `--json` path); `--seeds N` sets
//! the number of loss-schedule seeds (default 2).
//!
//! Execution engine:
//!
//! * `--serial` forces the serial reference scheduler for every launch.
//! * `--threads N` caps the parallel scheduler at N worker threads
//!   (equivalent to setting `RAYON_NUM_THREADS=N`). Either way the
//!   results are bit-identical — the engine commits atomics in a fixed
//!   order — so these are purely speed knobs.
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
//!   against the current schema (exits non-zero on mismatch).

use hacc_bench::experiments::{profile_run, workload, VariantChoice};
use hacc_bench::figures::*;
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
    let (size, n_seeds) = (count("--size", 8), count("--seeds", 2));
    if given("--threads") {
        // The shim reads this at pool construction, so it caps every
        // parallel launch and host-side rayon loop in the process.
        std::env::set_var("RAYON_NUM_THREADS", count("--threads", 1).to_string());
    }
    if given("--serial") {
        std::env::set_var("HACC_EXEC", "serial");
    }
    let (with_async, full_space) = (given("--async"), given("--full"));
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
        let path = telemetry_path.expect("validate needs --telemetry PATH");
        let text = std::fs::read_to_string(&path).expect("read telemetry file");
        match jsonl::from_jsonl(&text) {
            Ok(events) => {
                println!(
                    "{path}: OK — {} events, schema v{}",
                    events.len(),
                    hacc_telemetry::SCHEMA_VERSION
                );
                return;
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e:?}");
                std::process::exit(1);
            }
        }
    }
    if want("ranks") {
        let n = size * size * size;
        eprintln!(
            "[figures] multi-rank sweep: {n} particles (strong) / per rank (weak) \
             over 1/2/4/8 ranks × architectures{}…",
            if with_async {
                " × barriered/async step modes"
            } else {
                ""
            }
        );
        let sweep = hacc_bench::ranks::sweep_with(n, 4, 0xC0FFEE, with_async);
        println!("{}", hacc_bench::ranks::render(&sweep));
        if sweep.records.iter().any(|r| !r.bit_identical) {
            eprintln!("[figures] ERROR: a rank count diverged from the single-rank bits");
            std::process::exit(1);
        }
        if with_async {
            // The async acceptance gate: at 8 ranks the task-graph
            // step must spend a strictly smaller share of rank-time
            // waiting on other ranks than the barriered step does.
            let pairs = hacc_bench::ranks::wait_share_pairs(&sweep);
            let mut gate_failed = false;
            for (system, mode, barriered, async_share) in &pairs {
                let verdict = if async_share < barriered {
                    "ok"
                } else {
                    "FAIL"
                };
                eprintln!(
                    "[figures] wait-share gate {system}/{mode} @ 8 ranks: \
                     barriered {:.2}% -> async {:.2}% [{verdict}]",
                    barriered * 100.0,
                    async_share * 100.0
                );
                gate_failed |= async_share >= barriered;
            }
            if pairs.is_empty() || gate_failed {
                eprintln!("[figures] ERROR: the async step did not cut the 8-rank wait share");
                std::process::exit(1);
            }
        }
        let path = json_path.unwrap_or_else(|| "BENCH_ranks.json".to_string());
        std::fs::write(&path, hacc_bench::ranks::to_json(&sweep)).expect("write rank sweep JSON");
        eprintln!("[figures] wrote rank sweep to {path}");
        return;
    }
    if want("resilience") {
        let n = size * size * size;
        let seeds: Vec<u64> = (0..n_seeds as u64).map(|k| 0xC0FFEE + k).collect();
        eprintln!(
            "[figures] resilience sweep: {n} particles, {} seeds, checkpoint \
             intervals × shrink/respawn × rank-loss schedules over 1/2/4/8 ranks…",
            seeds.len()
        );
        let sweep = hacc_bench::resilience::sweep(n, 6, &seeds);
        println!("{}", hacc_bench::resilience::render(&sweep));
        let path = json_path.unwrap_or_else(|| "BENCH_resilience.json".to_string());
        std::fs::write(&path, hacc_bench::resilience::to_json(&sweep))
            .expect("write resilience sweep JSON");
        eprintln!("[figures] wrote resilience sweep to {path}");
        if sweep
            .records
            .iter()
            .any(|r| !r.completed || !r.digest_match)
        {
            eprintln!(
                "[figures] ERROR: a recovered run failed or diverged from its \
                 fault-free reference bits"
            );
            std::process::exit(1);
        }
        return;
    }
    if want("health") {
        eprintln!(
            "[figures] health report: {size}³ particles over {} ranks × architectures…",
            hacc_bench::health::HEALTH_RANKS
        );
        // `--slow KERNEL:FACTOR` routes through the fault injector's
        // latency knob — the acceptance path for the explaining gate:
        // slow one kernel, regenerate, and the gate must name it.
        let fault = (!slow_kernels.is_empty()).then(|| sycl_sim::FaultConfig {
            slow_kernels: slow_kernels.clone(),
            ..Default::default()
        });
        let report = hacc_bench::health::collect_faulty(size, 4, 0xC0FFEE, fault);
        println!("{}", hacc_bench::health::render(&report));
        // Diff against the committed gate baseline when it exists, so
        // the dashboard's regression table matches what the explaining
        // perf gate would say.
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root not found");
        let baseline = std::fs::read_to_string(root.join("tests/observe_baseline.json"))
            .ok()
            .and_then(|text| hacc_bench::health::from_json(&text));
        if let Some(base) = &baseline {
            let deltas = hacc_bench::health::regressions(&report, base);
            println!("{}", hacc_bench::health::render_regressions(&deltas, 10));
        }
        // `--trace` captures one instrumented multi-rank run and writes
        // it as a Chrome trace: each rank gets its own process lane, so
        // the per-rank phase timeline is readable in Perfetto.
        if let Some(tp) = trace_path.as_ref() {
            use hacc_core::{MultiRankProblem, MultiRankSim};
            let mut sim = MultiRankSim::new(
                hacc_bench::health::HEALTH_RANKS,
                GpuArch::frontier(),
                MultiRankProblem::small(size * size * size, 0xC0FFEE),
            );
            let rec = Recorder::new();
            sim.set_recorder(rec.clone());
            sim.run(4).expect("trace run must complete");
            let events = rec.events();
            std::fs::write(tp, chrome::chrome_trace_named(&[("frontier", &events)]))
                .expect("write multi-rank Chrome trace");
            eprintln!("[figures] wrote multi-rank Chrome trace to {tp}");
        }
        let path = json_path.unwrap_or_else(|| "BENCH_observe.json".to_string());
        std::fs::write(&path, hacc_bench::health::to_json(&report))
            .expect("write health report JSON");
        let html_path = path
            .strip_suffix(".json")
            .map(|p| format!("{p}.html"))
            .unwrap_or_else(|| format!("{path}.html"));
        std::fs::write(
            &html_path,
            hacc_bench::health::dashboard(&report, baseline.as_ref()),
        )
        .expect("write health dashboard");
        eprintln!("[figures] wrote health report to {path} and dashboard to {html_path}");
        return;
    }
    if want("autotune") {
        let trials: usize = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        eprintln!(
            "[figures] autotune sweep: {size}³ baryons, {} space, {} replay trials…",
            if full_space { "full" } else { "bounded" },
            trials
        );
        let problem = workload(size, 0xC0FFEE);
        let mut report = hacc_bench::autotune::sweep(&problem, full_space, trials);
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
        let path = json_path.unwrap_or_else(|| "BENCH_autotune.json".to_string());
        std::fs::write(&path, hacc_bench::autotune::to_json(&report))
            .expect("write autotune report JSON");
        eprintln!("[figures] wrote autotune report to {path}");
        let failures = hacc_bench::autotune::gate(&report);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("[figures] ERROR: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    if want("faults") {
        eprintln!("[figures] sweeping fault rates on the smoke problem…");
        let rates = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5];
        let records = hacc_bench::faults::sweep(&rates, 0xFA_17);
        println!("{}", hacc_bench::faults::render(&records));
        if let Some(path) = json_path {
            std::fs::write(&path, hacc_bench::faults::to_json(&records))
                .expect("write fault sweep JSON");
            eprintln!("[figures] wrote fault sweep to {path}");
        }
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
    let problem = workload(size, 0xC0FFEE);

    if want("fig2") {
        println!("{}", fig2(&problem));
    }
    if want("fig9") {
        println!("{}", fig_variants(&GpuArch::aurora(), &problem).0);
    }
    if want("fig10") {
        println!("{}", fig_variants(&GpuArch::polaris(), &problem).0);
    }
    if want("fig11") {
        println!("{}", fig_variants(&GpuArch::frontier(), &problem).0);
    }
    if want("fig12") || want("fig13") {
        eprintln!("[figures] running the full portability sweep…");
        let data = portability_data(&problem);
        let (text, records) = fig12(&data);
        if want("fig12") {
            println!("{text}");
        }
        if want("fig13") {
            println!("{}", fig13(&records, &inventory));
        }
    }
    if want("ablations") {
        println!("{}", ablation_registers(&problem));
        println!("{}", ablation_fast_math(&problem));
        println!("{}", ablation_memory_granularity(&problem));
    }
    if want("cpu") {
        println!("{}", hacc_bench::cpu_backend::render(&problem));
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
        let dump = evaluation_dump(&problem, &inventory);
        let text = serde_json::to_string_pretty(&dump).expect("serialize dump");
        std::fs::write(&path, text).expect("write JSON dump");
    }
}
