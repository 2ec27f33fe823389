//! Overhead budget of the telemetry plane on the multi-rank engine.
//!
//! Tier-1 counts it: attaching a recorder to an 8-rank step moves no bit
//! of the state, and each step emits a fixed number of events (the emit
//! path is a plain `Vec` push; everything expensive happens at analysis
//! time).
//!
//! The wall-clock budget — attaching the plane costs less than 5 % of a
//! 512-particle step's host time — fails on a loaded host, so it is
//! `#[ignore]`d and runs in the nightly workflow:
//! `cargo test --release --test telemetry_budget -- --ignored`.
//! It sits alone in this test binary: tests of one binary run
//! concurrently on the same cores, and a sibling's work would land
//! inside the timed batches.

use crk_hacc::core::{MultiRankProblem, MultiRankSim};
use crk_hacc::sycl::GpuArch;
use crk_hacc::telemetry::Recorder;
use std::time::Instant;

fn problem() -> MultiRankProblem {
    MultiRankProblem::small(512, 0x0B5E)
}

/// Events each of the first two 8-rank steps of [`problem`] emits: the
/// comm charges, the `step` span with its `rank.{r}` spans and their
/// `phase.*` timers.
const EVENTS_PER_STEP: [usize; 2] = [510, 518];

/// The budget, counted: the recorder moves no bit of the state, and
/// each step emits exactly its budget of events.
#[test]
fn telemetry_overhead_stays_under_budget() {
    let mut plain = MultiRankSim::new(8, GpuArch::frontier(), problem());
    let mut traced = MultiRankSim::new(8, GpuArch::frontier(), problem());
    let recorder = Recorder::new();
    traced.set_recorder(recorder.clone());
    let mut emitted = 0;
    for (step, events) in EVENTS_PER_STEP.into_iter().enumerate() {
        plain.step().expect("plain step");
        traced.step().expect("traced step");
        assert_eq!(
            traced.state_digest(),
            plain.state_digest(),
            "step {step}: the recorder moved the state"
        );
        emitted += events;
        assert_eq!(recorder.len(), emitted, "step {step}: event count");
    }
}

#[test]
#[ignore = "wall-clock ratio; runs in the nightly workflow"]
fn telemetry_wall_clock_overhead_stays_under_5_percent() {
    // Budget: attaching the recorder costs < 5% of a 512-particle
    // step's wall time. A single step is ~1 ms, far too short to time
    // against a 5% budget, so each measurement times a batch of steps;
    // wall clocks on shared CI runners are also noisy, so each side
    // takes the min of several trials (the least-disturbed run) and the
    // whole comparison retries a few times before failing.
    const BATCH: usize = 8;
    let wall = |instrument: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _trial in 0..5 {
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            if instrument {
                sim.set_recorder(Recorder::new());
            }
            sim.step().expect("warm-up step"); // populate ghosts, warm caches
            let t = Instant::now();
            for _ in 0..BATCH {
                sim.step().expect("timed step");
            }
            best = best.min(t.elapsed().as_secs_f64() / BATCH as f64);
        }
        best
    };

    const BUDGET: f64 = 0.05;
    let mut overhead = f64::INFINITY;
    for _attempt in 0..4 {
        let plain = wall(false);
        let instrumented = wall(true);
        overhead = (instrumented - plain) / plain;
        if overhead < BUDGET {
            return;
        }
    }
    panic!(
        "telemetry overhead {:.2}% exceeds the {:.0}% budget in 4 attempts",
        overhead * 100.0,
        BUDGET * 100.0
    );
}
