//! Distributed fault-tolerance acceptance tests.
//!
//! Three contracts from DESIGN.md §4g:
//!
//! 1. The `HCK3` multi-rank checkpoint codec round-trips bit-exactly
//!    and never panics on a hostile header (truncations and bit flips
//!    of all three formats: `tests/hostile_checkpoints.rs`).
//! 2. An 8-rank run that loses a rank mid-stream recovers — shrink or
//!    respawn — and finishes on the *same bits* as the fault-free run,
//!    for any loss step and any checkpoint interval.
//! 3. Recovery composes with the transport's transient-fault retry
//!    path without perturbing physics.

use hacc_core::{
    MultiRankCheckpoint, MultiRankProblem, MultiRankSim, RecoveryMode, ResilienceConfig,
};
use proptest::prelude::*;
use sycl_sim::{FaultConfig, GpuArch, RankLoss};

const N_PARTICLES: usize = 192;

fn problem() -> MultiRankProblem {
    MultiRankProblem::small(N_PARTICLES, 1234)
}

/// A realistic checkpoint: capture a real engine a few steps in.
fn checkpoint_for(ranks: usize, steps: u64) -> MultiRankCheckpoint {
    let mut sim = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
    sim.run(steps).expect("fault-free run");
    sim.checkpoint()
}

fn fault_free_digest(ranks: usize, steps: u64) -> u64 {
    let mut sim = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
    sim.run(steps).expect("fault-free run");
    sim.state_digest()
}

#[test]
fn hck3_round_trips_bit_exactly_across_layouts() {
    for ranks in [1usize, 2, 4, 8] {
        let cp = checkpoint_for(ranks, 2);
        assert_eq!(cp.ranks(), ranks);
        assert_eq!(cp.n_particles(), N_PARTICLES);
        let blob = cp.to_bytes();
        assert_eq!(blob.len() as u64, cp.total_bytes());
        let back = MultiRankCheckpoint::from_bytes(blob).expect("parse own bytes");
        assert_eq!(cp, back, "{ranks}-rank checkpoint must round-trip");
    }
}

#[test]
fn restoring_a_checkpoint_resumes_on_the_same_bits() {
    let reference = fault_free_digest(4, 5);
    let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
    sim.run(3).unwrap();
    let cp = MultiRankCheckpoint::from_bytes(sim.checkpoint().to_bytes()).unwrap();
    sim.run(2).unwrap(); // wander off…
    sim.restore(&cp).unwrap(); // …roll back…
    sim.run(2).unwrap(); // …and replay.
    assert_eq!(sim.state_digest(), reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A hostile header with random counts and dims never panics.
    #[test]
    fn hostile_hck3_headers_never_panic(
        step in 0u64..u64::MAX,
        ng in 0u64..u64::MAX,
        d0 in 0u64..u64::MAX,
        d1 in 0u64..64,
        d2 in 0u64..64,
        ranks in 0u64..u64::MAX,
        count in 1u64..u64::MAX,
    ) {
        let mut buf = 0x4843_4B33u32.to_be_bytes().to_vec();
        for word in [step, ng, d0, d1, d2, ranks, count] {
            buf.extend_from_slice(&word.to_be_bytes());
        }
        prop_assert!(MultiRankCheckpoint::from_bytes(buf).is_err());
    }
}

/// The tentpole acceptance gate: an 8-rank run with a seeded mid-run
/// rank loss completes via rollback + re-decomposition with a final
/// digest bit-identical to the fault-free run — for every loss step
/// and both recovery modes. The loss surfaces as `CommError::RankDead`
/// from the step graph's earliest affected flush, in canonical order.
#[test]
fn eight_rank_recovery_is_bit_identical_for_any_loss_step() {
    let steps = 6u64;
    let clean = fault_free_digest(8, steps);
    for mode in [RecoveryMode::Shrink, RecoveryMode::Respawn] {
        for loss_step in 1..steps {
            let rank = 1 + (loss_step as usize % 7);
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            sim.enable_fault_injection(FaultConfig {
                seed: 77,
                rank_loss: vec![RankLoss {
                    rank,
                    step: loss_step,
                }],
                ..FaultConfig::default()
            });
            let config = ResilienceConfig {
                checkpoint_interval: 2,
                mode,
            };
            let report = sim
                .run_resilient(steps, &config)
                .unwrap_or_else(|e| panic!("{mode:?} loss of rank {rank} at {loss_step}: {e}"));
            assert_eq!(report.recoveries.len(), 1);
            assert_eq!(report.steps.len(), steps as usize);
            assert_eq!(
                sim.state_digest(),
                clean,
                "{mode:?} recovery from losing rank {rank} at step {loss_step} \
                 diverged from the fault-free bits"
            );
        }
    }
}

#[test]
fn checkpoint_interval_does_not_change_the_bits() {
    let steps = 6u64;
    let clean = fault_free_digest(8, steps);
    for interval in [1u64, 2, 3, 6] {
        let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
        sim.enable_fault_injection(FaultConfig {
            seed: 5,
            rank_loss: vec![RankLoss { rank: 3, step: 4 }],
            ..FaultConfig::default()
        });
        let config = ResilienceConfig {
            checkpoint_interval: interval,
            mode: RecoveryMode::Respawn,
        };
        let report = sim.run_resilient(steps, &config).expect("must recover");
        assert!(
            report.recoveries[0].rollback_steps < interval.max(1),
            "rollback is bounded by the interval"
        );
        assert_eq!(sim.state_digest(), clean, "interval {interval} diverged");
    }
}

#[test]
fn recovery_composes_with_transient_link_retries() {
    let steps = 5u64;
    let clean = fault_free_digest(4, steps);
    let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
    sim.enable_fault_injection(FaultConfig {
        seed: 13,
        transient_rate: 0.02,
        rank_loss: vec![RankLoss { rank: 2, step: 2 }],
        ..FaultConfig::default()
    });
    let config = ResilienceConfig {
        checkpoint_interval: 2,
        mode: RecoveryMode::Respawn,
    };
    sim.run_resilient(steps, &config)
        .expect("retries and recovery must compose");
    assert!(
        sim.transport().injector().unwrap().injected() > 0,
        "the transient channel must actually fire"
    );
    assert_eq!(
        sim.state_digest(),
        clean,
        "retries during replay must not change physics"
    );
}
