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
//!    worker-thread count and under either step schedule. Ranks step
//!    concurrently on the shared pool, but everything a source owns
//!    (sequence numbers, fault ordinals, accounting) is claimed only by
//!    whoever drains that source, so the schedule cannot leak into the
//!    physics — or even into the comm counters.

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
    run_mode(ranks, threads, faults, false)
}

/// Same, with the step mode explicit: `async_on` selects the task-graph
/// executor over the barriered reference path.
fn run_mode(
    ranks: usize,
    threads: usize,
    faults: Option<FaultConfig>,
    async_on: bool,
) -> (u64, crk_hacc::comm::TransportStats) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut sim = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
        sim.set_async(async_on);
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

/// The async×barriered axis: the task-graph step — per-rank exchanges
/// flushed independently, interior force overlapped with the halo
/// window — must land on the barriered reference bits at every rank
/// count, worker-thread count, and fault schedule. Both schedules run
/// the one per-source drain on the one set of fault channels and
/// accounting slots, so the transport statistics agree field for field
/// too — all but `exchanges`, which counts barriers vs per-source
/// flushes.
#[test]
fn async_mode_reproduces_barriered_bits_at_every_width() {
    for fault_config in [None, Some(link_faults())] {
        for ranks in [1, 8] {
            let (reference, barriered_stats) =
                run_mode(ranks, THREADS[0], fault_config.clone(), false);
            for &threads in &THREADS {
                let (digest, stats) = run_mode(ranks, threads, fault_config.clone(), true);
                assert_eq!(
                    digest,
                    reference,
                    "async at {threads} threads diverged from barriered ({ranks} ranks, faults={})",
                    fault_config.is_some()
                );
                assert_eq!(
                    crk_hacc::comm::TransportStats {
                        exchanges: barriered_stats.exchanges,
                        ..stats
                    },
                    barriered_stats,
                    "async transport stats differ from barriered at {threads} threads \
                     ({ranks} ranks, faults={})",
                    fault_config.is_some()
                );
            }
        }
    }
}

/// Schedule-independence of the accounting is an every-run property,
/// not a most-runs one: a float summed in flush *completion* order
/// splits by 1 ulp about one run in six on two cores. Repeat the
/// 8-rank async run 50× at each width, clean and faulted, against the
/// first run's full statistics.
#[test]
fn async_transport_stats_repeat_bit_for_bit() {
    for fault_config in [None, Some(link_faults())] {
        let first = run_mode(8, 2, fault_config.clone(), true);
        for threads in [2, 4, 8] {
            for rep in 0..50 {
                assert_eq!(
                    run_mode(8, threads, fault_config.clone(), true),
                    first,
                    "repeat {rep} at {threads} threads split from the first run (faults={})",
                    fault_config.is_some()
                );
            }
        }
    }
}

/// Under async the per-source flushes multiply the exchange count —
/// one per (phase, source) instead of one per phase — without adding
/// messages or bytes.
#[test]
fn async_flushes_per_source_without_extra_traffic() {
    let (_, barriered) = run_mode(8, 4, None, false);
    let (_, async_stats) = run_mode(8, 4, None, true);
    assert_eq!(async_stats.messages, barriered.messages);
    assert_eq!(async_stats.bytes, barriered.bytes);
    assert_eq!(
        async_stats.exchanges,
        2 * 8 * STEPS,
        "async must flush each of the 8 sources separately, twice a step"
    );
    assert_eq!(barriered.exchanges, 2 * STEPS);
}

#[test]
fn telemetry_counters_are_thread_invariant() {
    let capture = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let recorder = Recorder::new();
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            sim.set_recorder(recorder.clone());
            sim.run(STEPS).unwrap();
            let events = recorder.events();
            (
                counter_total(&events, "comm.bytes_sent"),
                counter_total(&events, "comm.bytes_recv"),
            )
        })
    };
    let reference = capture(THREADS[0]);
    assert!(reference.0 > 0.0, "halo traffic must be counted");
    assert_eq!(reference.0, reference.1, "every byte sent is received");
    for &threads in &THREADS[1..] {
        assert_eq!(capture(threads), reference, "{threads} threads diverged");
    }
}

/// Byte-level telemetry is mode independent: the async step moves the
/// same wire traffic the barriered step does, and its counters are
/// thread invariant.
#[test]
fn async_telemetry_bytes_match_barriered() {
    let capture = |threads: usize, async_on: bool| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let recorder = Recorder::new();
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            sim.set_async(async_on);
            sim.set_recorder(recorder.clone());
            sim.run(STEPS).unwrap();
            let events = recorder.events();
            (
                counter_total(&events, "comm.bytes_sent"),
                counter_total(&events, "comm.bytes_recv"),
            )
        })
    };
    let barriered = capture(4, false);
    assert!(barriered.0 > 0.0);
    for &threads in &THREADS {
        assert_eq!(
            capture(threads, true),
            barriered,
            "async byte counters diverged at {threads} threads"
        );
    }
}
