//! Quickstart: run a small two-species CRK-HACC simulation on a simulated
//! Frontier GCD and print the HACC-style timing report.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --telemetry run.jsonl --trace run.json
//! cargo run --release --example quickstart -- --fault-rate 0.02 --fault-seed 7
//! ```
//!
//! `--telemetry PATH` writes the run's full telemetry stream (spans,
//! per-launch kernel profiles, counters) as versioned JSON Lines;
//! `--trace PATH` writes a Chrome trace-event file loadable in Perfetto.
//!
//! `--fault-rate F` attaches a deterministic fault injector (seeded by
//! `--fault-seed N`, default 7) that fails/corrupts each kernel launch
//! with probability `F`, and additionally blocks the configured variant
//! persistently so the fallback chain engages. The run then goes
//! through the guarded recovery loop (retry → variant fallback →
//! checkpoint rollback) and prints the recovery counters; the process
//! exits non-zero if the run could not be recovered. With `F = 0` the
//! run is bit-identical to one without the flag.
//!
//! `--serial` runs every kernel launch on the serial reference
//! scheduler; `--threads N` caps the parallel scheduler at N worker
//! threads. Both produce bit-identical trajectories (the engine commits
//! atomics in a fixed order), so these are purely speed knobs.
//!
//! `--meter full|off` selects the metering policy (default: the
//! `HACC_METER` environment variable, then `full`; `fast` is an alias
//! of `off`). `full` charges every op to the instruction-class meters,
//! `off` skips that bookkeeping and reports no instruction telemetry.
//! Both run the same data path, so the physics is bit-identical —
//! metering is a telemetry/speed trade, not a determinism one.
//!
//! `--tune PATH` attaches the runtime autotuner: kernel launches use
//! the cached per-(kernel, arch, size-band) winners from `PATH` (cold
//! start when missing or stale), explore alternatives at rate 5%, and
//! the updated cache is written back at the end of the run.
//!
//! `--ranks N` runs the distributed drill instead of the single-rank
//! simulation: the multi-rank engine (`MultiRankSim` — 3D domain
//! decomposition, particle migration and ghost-zone halo refresh over
//! the modeled interconnect, its own softened-gravity integrator, not
//! the CRK-SPH kernels above) advances N ranks under coordinated
//! checkpointing every `--checkpoint-interval K` steps (default 2) with
//! buddy replication, prints the transport's `comm:` summary, re-runs
//! the same problem on one rank, compares final state digests
//! bit-for-bit, and exits non-zero on any divergence. `--telemetry` /
//! `--trace` export the N-rank run's stream (`link.{src}->{dst}` spans,
//! `comm.bytes_sent`/`comm.bytes_recv` counters, per-rank `phase.*`
//! timers); `HACC_ASYNC=1` puts both runs on the task-graph schedule.
//! The single-rank flags (`--fault-rate`, `--meter`, `--tune`, …) do
//! not apply to the drill.
//!
//! `--lose-rank R@S` (requires `--ranks N`, N ≥ 2) adds a rank loss to
//! the drill: rank R dies at the start of step S, and the run recovers
//! by rolling back to the last coordinated checkpoint — `--recovery
//! respawn` (default) restores the full layout from the buddy mirror,
//! `--recovery shrink` re-decomposes onto the survivors. The digest
//! gate is the same — this is the CI resilience smoke gate.

use crk_hacc::core::{
    DeviceConfig, MultiRankProblem, MultiRankSim, RecoveryMode, RecoveryPolicy, ResilienceConfig,
    SimConfig, Simulation,
};
use crk_hacc::kernels::Variant;
use crk_hacc::sycl::{FaultConfig, GpuArch, GrfMode, Lang, RankLoss};
use crk_hacc::telemetry::{chrome, counter_total, jsonl, Event, Recorder};

fn main() {
    let mut telemetry_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut fault_rate = 0.0f64;
    let mut fault_seed = 7u64;
    let mut exec = crk_hacc::sycl::ExecutionPolicy::default();
    let mut meter = crk_hacc::sycl::MeterPolicy::from_env();
    let mut ranks: Option<usize> = None;
    let mut lose_rank: Option<(usize, u64)> = None;
    let mut checkpoint_interval = 2u64;
    let mut recovery_mode = RecoveryMode::Respawn;
    let mut tune_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--telemetry" => telemetry_path = Some(args.next().expect("--telemetry needs a path")),
            "--trace" => trace_path = Some(args.next().expect("--trace needs a path")),
            "--fault-rate" => {
                fault_rate = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--fault-rate needs a probability")
            }
            "--fault-seed" => {
                fault_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--fault-seed needs an integer")
            }
            "--serial" => exec = crk_hacc::sycl::ExecutionPolicy::Serial,
            "--meter" => {
                meter = args
                    .next()
                    .expect("--meter needs a policy")
                    .parse()
                    .unwrap_or_else(|e| panic!("--meter: {e}"));
            }
            "--ranks" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--ranks needs a positive integer");
                assert!(n > 0, "--ranks needs a positive integer");
                ranks = Some(n);
            }
            "--threads" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
                assert!(n > 0, "--threads needs a positive integer");
                exec = crk_hacc::sycl::ExecutionPolicy::with_threads(n);
            }
            "--lose-rank" => {
                let spec = args.next().expect("--lose-rank needs RANK@STEP");
                let (r, s) = spec
                    .split_once('@')
                    .expect("--lose-rank needs RANK@STEP, e.g. 2@3");
                lose_rank = Some((
                    r.parse().expect("--lose-rank rank must be an integer"),
                    s.parse().expect("--lose-rank step must be an integer"),
                ));
            }
            "--checkpoint-interval" => {
                checkpoint_interval = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--checkpoint-interval needs a positive integer");
                assert!(
                    checkpoint_interval > 0,
                    "--checkpoint-interval needs a positive integer"
                );
            }
            "--recovery" => {
                recovery_mode = match args.next().as_deref() {
                    Some("shrink") => RecoveryMode::Shrink,
                    Some("respawn") => RecoveryMode::Respawn,
                    other => panic!("--recovery needs shrink|respawn, got {other:?}"),
                };
            }
            "--tune" => tune_path = Some(args.next().expect("--tune needs a cache path")),
            other => panic!(
                "unknown argument {other:?} (expected --telemetry/--trace/--fault-rate/\
                 --fault-seed/--serial/--threads/--meter/--ranks/--lose-rank/\
                 --checkpoint-interval/--recovery/--tune)"
            ),
        }
    }
    let export = |events: Vec<Event>| {
        if let Some(path) = &telemetry_path {
            std::fs::write(path, jsonl::to_jsonl(&events)).expect("write telemetry");
            println!("wrote {} JSONL telemetry events to {path}", events.len());
        }
        if let Some(path) = &trace_path {
            std::fs::write(path, chrome::chrome_trace(&events)).expect("write trace");
            println!("wrote Chrome trace to {path} (load in Perfetto or chrome://tracing)");
        }
    };
    if let Some(n_ranks) = ranks {
        if let Some((lost_rank, _)) = lose_rank {
            assert!(n_ranks >= 2, "--lose-rank needs --ranks N (N >= 2)");
            assert!(lost_rank < n_ranks, "--lose-rank rank must be < --ranks");
        }
        let recorder = Recorder::new();
        rank_loss_drill(
            n_ranks,
            lose_rank,
            checkpoint_interval,
            recovery_mode,
            &recorder,
        );
        export(recorder.events());
        return;
    }
    assert!(lose_rank.is_none(), "--lose-rank needs --ranks N (N >= 2)");

    // The paper's test problem (§3.4.2), scaled down 64× per dimension:
    // 2 × 8³ particles, z = 200 → 50 in two long steps.
    let config = SimConfig::smoke();
    let device = DeviceConfig {
        lang: Lang::Sycl,
        fast_math: None, // DPC++ default (fast math on)
        variant: Variant::Select,
        sg_size: Some(64),
        grf: GrfMode::Default,
    };
    let arch = GpuArch::frontier();
    println!(
        "CRK-HACC quickstart: 2×{}³ particles, {} Mpc/h box, {} on {}",
        config.box_spec.np,
        config.box_spec.box_mpc_h,
        device.variant.label(),
        arch.gpu_name
    );

    let mut sim = Simulation::new(config, device, arch);
    sim.set_execution_policy(exec);
    sim.set_meter_policy(meter);
    if meter != crk_hacc::sycl::MeterPolicy::Full {
        println!(
            "metering: {} (physics unchanged, telemetry reduced)",
            meter.label()
        );
    }
    if let Some(path) = &tune_path {
        let (sel, err) = crk_hacc::kernels::TunedSelector::from_cache_file(
            &sim.device.arch,
            sim.n_particles(),
            std::path::Path::new(path),
            0.05,
            sim.device.toolchain.enable_visa,
        );
        match err {
            Some(e) => println!("autotune: starting cold ({e})"),
            None => println!(
                "autotune: loaded {} cached winner(s) from {path}",
                sel.cache().entries.len()
            ),
        }
        sim.set_tuning(sel);
    }
    let initial_positions = sim.pos.clone();
    let summary = if fault_rate > 0.0 {
        // Fault drill: transient failures + silent corruption at the
        // requested rate, plus a persistent failure of the configured
        // variant so the fallback chain engages every launch.
        println!("fault injection: rate {fault_rate}, seed {fault_seed}, variant Select blocked");
        sim.enable_fault_injection(FaultConfig {
            seed: fault_seed,
            transient_rate: fault_rate,
            corrupt_rate: fault_rate,
            persistent_variants: vec![Variant::Select.label().to_string()],
            ..Default::default()
        });
        match sim.try_run_guarded(&RecoveryPolicy::default()) {
            Ok(summary) => {
                let events = sim.telemetry.events();
                let injected = counter_total(&events, "faults.injected");
                let logged = sim.fault_injector().map_or(0, |inj| inj.log().len());
                println!(
                    "recovered run: {} faults injected ({} logged by the injector), \
                     {} retries, {} fallbacks, {} rollbacks",
                    injected,
                    logged,
                    counter_total(&events, "launch.retries"),
                    counter_total(&events, "launch.fallbacks"),
                    counter_total(&events, "rollbacks"),
                );
                assert_eq!(
                    injected, logged as f64,
                    "telemetry must reconcile with the injector log"
                );
                summary
            }
            Err(e) => {
                eprintln!("unrecoverable: {e}");
                std::process::exit(1);
            }
        }
    } else {
        sim.run()
    };

    println!(
        "\ncompleted {} steps: z = {:.1} → {:.1}",
        summary.steps,
        sim.config.z_init,
        sim.redshift()
    );
    println!(
        "rms comoving displacement: {:.4} grid cells",
        sim.rms_displacement_from(&initial_positions)
    );
    println!(
        "total simulated GPU time (all offloaded kernels): {:.4e} s",
        summary.gpu_seconds
    );
    println!("\n{}", sim.timers().render());

    if let Some(path) = &tune_path {
        sim.save_tuning(std::path::Path::new(path))
            .expect("write tune cache");
        let events = sim.telemetry.events();
        println!(
            "autotune: {} trials, {} cache hits, {} exploration picks; winners saved to {path}",
            counter_total(&events, "tune.trials"),
            counter_total(&events, "tune.cache_hits"),
            counter_total(&events, "tune.explore_picks"),
        );
    }

    export(sim.telemetry.events());
}

/// The distributed drill behind `--ranks N`: an N-rank run under
/// coordinated checkpointing — with rank `lose.0` killed at step
/// `lose.1` and recovered from the buddy-replicated checkpoint, when a
/// loss is scheduled — gated on bit-identity with the same problem's
/// fault-free 1-rank run.
fn rank_loss_drill(
    ranks: usize,
    lose: Option<(usize, u64)>,
    interval: u64,
    mode: RecoveryMode,
    recorder: &Recorder,
) {
    const N_PARTICLES: usize = 256;
    // Run a few steps past the failure (or just a few steps).
    let steps = lose.map_or(4, |(_, lost_step)| lost_step + 3);
    let problem = || MultiRankProblem::small(N_PARTICLES, 42);
    let arch = GpuArch::frontier();

    let loss = match lose {
        Some((rank, step)) => format!("rank {rank} dies at step {step}"),
        None => "no rank loss scheduled".to_string(),
    };
    println!(
        "rank drill: {N_PARTICLES} particles over {ranks} ranks, {steps} steps, {loss}, \
         checkpoint every {interval} ({} recovery)",
        mode.label()
    );

    let mut reference = MultiRankSim::new(1, arch.clone(), problem());
    reference
        .run(steps)
        .expect("fault-free 1-rank reference run");
    let expected = reference.state_digest();

    let mut sim = MultiRankSim::new(ranks, arch, problem());
    sim.set_recorder(recorder.clone());
    sim.enable_fault_injection(FaultConfig {
        seed: 42,
        rank_loss: lose
            .into_iter()
            .map(|(rank, step)| RankLoss { rank, step })
            .collect(),
        ..Default::default()
    });
    let config = ResilienceConfig {
        checkpoint_interval: interval,
        mode,
        ..Default::default()
    };
    let report = match sim.run_resilient(steps, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("drill failed: {e}");
            std::process::exit(1);
        }
    };

    for ev in &report.recoveries {
        println!(
            "recovered from losing rank(s) {:?} at step {}: rolled back {} step(s) \
             to checkpoint @ step {}, {} survivors, MTTR {:.3e} s",
            ev.lost_ranks,
            ev.detected_step,
            ev.rollback_steps,
            ev.checkpoint_step,
            ev.ranks_after,
            ev.mttr_seconds
        );
    }
    println!(
        "{} checkpoints ({} mirrored bytes, {:.3e} s fabric), {} rollback step(s), \
         finished on {} rank(s)",
        report.checkpoints,
        report.checkpoint_bytes,
        report.checkpoint_seconds,
        report.rollback_steps,
        report.final_ranks
    );
    let stats = sim.comm_stats();
    println!(
        "comm: {} messages, {} wire bytes, {:.3e} modeled link seconds, \
         {} retries over {} exchanges",
        stats.messages, stats.bytes, stats.seconds, stats.retries, stats.exchanges
    );

    let digest = sim.state_digest();
    if digest == expected {
        println!("digest {digest:016x} matches the fault-free 1-rank run: bit-identical");
    } else {
        eprintln!(
            "DIGEST MISMATCH: {ranks}-rank {digest:016x} vs fault-free 1-rank {expected:016x} — \
             decomposition or recovery diverged from the physics"
        );
        std::process::exit(1);
    }
}
