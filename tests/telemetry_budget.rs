//! Overhead budget of the cross-rank analysis plane: attaching the full
//! telemetry plane to a 512-particle multi-rank step costs less than 5%
//! of host wall time (the emit path is a plain `Vec` push; everything
//! expensive happens at analysis time).
//!
//! This is a wall-clock ratio, so it sits alone in its own test binary.
//! Tests of one binary run concurrently on the same cores, and a
//! sibling's work lands inside the timed batches; cargo runs test
//! binaries one after another, so here nothing else shares the host's
//! cores with the measurement.

use crk_hacc::core::{MultiRankProblem, MultiRankSim};
use crk_hacc::sycl::GpuArch;
use crk_hacc::telemetry::Recorder;
use std::time::Instant;

fn problem() -> MultiRankProblem {
    MultiRankProblem::small(512, 0x0B5E)
}

#[test]
fn telemetry_overhead_stays_under_budget() {
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
