//! Decomposition- and thread-invariance of the multi-rank engine.
//!
//! The acceptance contract for the distributed engine is twofold:
//!
//! 1. **Decomposition invariance** — an N-rank run lands on exactly the
//!    same per-particle bits as a single-rank run of the same problem.
//!    Ghost-zone halo exchange, particle migration, and the split
//!    interior/boundary force passes must be a pure reorganization of
//!    the arithmetic, not a perturbation of it.
//! 2. **Thread invariance** — the 8-rank run is bit-identical at any
//!    worker-thread count. Ranks step concurrently as task-graph
//!    nodes, but everything a source owns (sequence numbers, fault
//!    ordinals, accounting) is claimed only by whoever drains that
//!    source, so the interleaving cannot leak into the physics — or
//!    even into the comm counters.

use crk_hacc::core::{MultiRankProblem, MultiRankSim};
use crk_hacc::sycl::{FaultConfig, GpuArch};
use crk_hacc::telemetry::{counter_total, Recorder};

/// Worker-thread counts the acceptance criterion names.
const THREADS: [usize; 3] = [1, 4, 8];
const STEPS: u64 = 3;

fn problem() -> MultiRankProblem {
    MultiRankProblem::small(512, 0xACCE55)
}

/// The 5 % transient link-fault schedule the faulted rows run under.
fn link_faults() -> FaultConfig {
    FaultConfig {
        seed: 0xFA_17,
        transient_rate: 0.05,
        ..Default::default()
    }
}

/// Runs `ranks` ranks under a pinned worker-thread count and returns
/// the final digest plus the transport's aggregate statistics.
fn run_with_threads(
    ranks: usize,
    threads: usize,
    faults: Option<FaultConfig>,
) -> (u64, crk_hacc::comm::TransportStats) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut sim = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
        if let Some(config) = faults {
            sim.enable_fault_injection(config);
        }
        sim.run(STEPS).expect("run must complete");
        (sim.state_digest(), sim.comm_stats())
    })
}

#[test]
fn eight_ranks_reproduce_single_rank_bits() {
    let mut single = MultiRankSim::new(1, GpuArch::frontier(), problem());
    single.run(STEPS).unwrap();
    let reference = single.state_digest();

    let mut eight = MultiRankSim::new(8, GpuArch::frontier(), problem());
    eight.run(STEPS).unwrap();
    assert_eq!(
        eight.state_digest(),
        reference,
        "8-rank digest must match the 1-rank digest bit-for-bit"
    );
    assert_eq!(eight.n_particles(), single.n_particles());
}

#[test]
fn eight_ranks_are_bit_identical_across_thread_counts() {
    let (ref_digest, ref_stats) = run_with_threads(8, THREADS[0], None);
    for &threads in &THREADS[1..] {
        let (digest, stats) = run_with_threads(8, threads, None);
        assert_eq!(
            digest, ref_digest,
            "{threads} worker threads diverged from the 1-thread bits"
        );
        // Not just the physics: the comm layer itself must be schedule
        // independent — same message count, same wire bytes, same
        // modeled link seconds.
        assert_eq!(
            stats, ref_stats,
            "{threads} worker threads changed the transport statistics"
        );
    }
    assert!(ref_stats.bytes > 0, "8 ranks must exchange halo traffic");
    assert!(ref_stats.exchanges >= 2 * STEPS, "migrate + halo per step");
}

#[test]
fn every_rank_count_matches_the_single_rank_digest() {
    let mut single = MultiRankSim::new(1, GpuArch::frontier(), problem());
    single.run(STEPS).unwrap();
    let reference = single.state_digest();
    for ranks in [2, 4, 8] {
        let (digest, stats) = run_with_threads(ranks, 4, None);
        assert_eq!(digest, reference, "{ranks} ranks diverged from 1 rank");
        assert!(stats.bytes > 0);
    }
}

#[test]
fn link_faults_retry_without_perturbing_the_bits() {
    let (clean, _) = run_with_threads(8, 4, None);
    for &threads in &THREADS {
        let (digest, stats) = run_with_threads(8, threads, Some(link_faults()));
        assert_eq!(
            digest, clean,
            "retried link faults must not change the physics ({threads} threads)"
        );
        assert!(stats.retries > 0, "the fault schedule must actually fire");
    }
}

/// Every width, every fault schedule, one set of bits: the 1- and
/// 8-rank runs land on the clean 1-rank digest at every worker-thread
/// count, clean and under link faults, and each rank count's transport
/// statistics agree field for field across thread counts — retries,
/// fault ordinals and modeled link seconds included.
#[test]
fn n_rank_runs_reproduce_one_rank_bits_at_every_width() {
    let (reference, _) = run_with_threads(1, THREADS[0], None);
    for fault_config in [None, Some(link_faults())] {
        for ranks in [1, 8] {
            let (_, first_stats) = run_with_threads(ranks, THREADS[0], fault_config.clone());
            for &threads in &THREADS {
                let (digest, stats) = run_with_threads(ranks, threads, fault_config.clone());
                assert_eq!(
                    digest,
                    reference,
                    "{ranks} ranks at {threads} threads diverged from 1 rank (faults={})",
                    fault_config.is_some()
                );
                assert_eq!(
                    stats,
                    first_stats,
                    "transport stats moved at {threads} threads ({ranks} ranks, faults={})",
                    fault_config.is_some()
                );
            }
        }
    }
}

/// Schedule-independence of the accounting is an every-run property,
/// not a most-runs one: a float summed in flush *completion* order
/// splits by 1 ulp about one run in six on two cores. Repeat the
/// 8-rank run 50× at each width, clean and faulted, against the first
/// run's full statistics.
#[test]
fn async_transport_stats_repeat_bit_for_bit() {
    for fault_config in [None, Some(link_faults())] {
        let first = run_with_threads(8, 2, fault_config.clone());
        for threads in [2, 4, 8] {
            for rep in 0..50 {
                assert_eq!(
                    run_with_threads(8, threads, fault_config.clone()),
                    first,
                    "repeat {rep} at {threads} threads split from the first run (faults={})",
                    fault_config.is_some()
                );
            }
        }
    }
}

/// Each source's wire is flushed on its own — one flush per (phase,
/// source): migrate and halo, twice a step per rank.
#[test]
fn async_flushes_per_source_without_extra_traffic() {
    let (_, stats) = run_with_threads(8, 4, None);
    assert!(stats.messages > 0 && stats.bytes > 0);
    assert_eq!(
        stats.exchanges,
        2 * 8 * STEPS,
        "each of the 8 sources must flush separately, twice a step"
    );
}

/// Byte counters are thread invariant and count exactly the wire
/// traffic the transport moved; and the whole event stream — comm
/// spans, counters, retry timers and faults included, clean and under
/// link faults — arrives in one order at any thread count, so every
/// float folded over it is thread invariant too. Only the
/// host-measured `sched.*` values and timestamps may differ.
#[test]
fn telemetry_counters_are_thread_invariant() {
    let capture = |threads: usize, faults: Option<FaultConfig>| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let recorder = Recorder::new();
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            sim.set_recorder(recorder.clone());
            if let Some(config) = faults {
                sim.enable_fault_injection(config);
            }
            sim.run(STEPS).unwrap();
            let events = recorder.events();
            let stream: Vec<(u64, u64, String, u64)> = events
                .iter()
                .filter(|e| !e.name.starts_with("sched."))
                .map(|e| (e.id, e.parent, e.name.clone(), e.value.to_bits()))
                .collect();
            (
                counter_total(&events, "comm.bytes_sent"),
                counter_total(&events, "comm.bytes_recv"),
                sim.comm_stats().bytes,
                stream,
            )
        })
    };
    for faults in [None, Some(link_faults())] {
        let reference = capture(THREADS[0], faults.clone());
        assert!(reference.0 > 0.0, "halo traffic must be counted");
        assert_eq!(reference.0, reference.1, "every byte sent is received");
        assert_eq!(reference.0, reference.2 as f64, "counters match the wire");
        for &threads in &THREADS[1..] {
            assert!(
                capture(threads, faults.clone()) == reference,
                "{threads} threads diverged (faults={})",
                faults.is_some()
            );
        }
    }
}
