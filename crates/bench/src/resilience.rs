//! Resilience sweep: checkpoint-interval vs recovery-overhead under
//! seeded rank-loss schedules.
//!
//! Drives [`hacc_core::MultiRankSim::run_resilient`] across rank
//! counts × checkpoint intervals × recovery modes × seeds on the
//! Frontier interconnect model. Every faulted row kills one seeded
//! rank mid-run, recovers (shrink or respawn), and digest-checks the
//! final state against a fault-free run of the same problem — the
//! determinism contract of the recovery protocol, enforced inside the
//! sweep itself. 1-rank rows run loss-free and isolate the pure
//! buddy-mirror checkpoint overhead (which is zero: a single rank has
//! no partner). The `figures -- resilience` target renders the table
//! and writes the raw records as `BENCH_resilience.json`.

use hacc_core::{MultiRankProblem, MultiRankSim, RecoveryMode, ResilienceConfig};
use serde::Serialize;
use sycl_sim::{FaultConfig, GpuArch, RankLoss};

/// Rank counts the sweep visits.
pub const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Checkpoint intervals (steps between coordinated checkpoints).
const INTERVALS: [u64; 3] = [1, 2, 4];

/// One measured configuration.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceRecord {
    /// Architecture id the interconnect was modeled on.
    pub arch: String,
    /// Rank count at the start of the run.
    pub ranks: usize,
    /// `none` (loss-free), `shrink`, or `respawn`.
    pub mode: String,
    /// Steps between coordinated checkpoints.
    pub interval: u64,
    /// Rank-loss schedule seed.
    pub seed: u64,
    /// Rank killed mid-run (`-1` for loss-free rows).
    pub loss_rank: i64,
    /// Step boundary at which it was killed (`-1` for loss-free rows).
    pub loss_step: i64,
    /// Whether the run completed all steps.
    pub completed: bool,
    /// Digest of the final particle state (hex; see
    /// `MultiRankSim::state_digest`).
    pub digest: String,
    /// Whether the digest matches the fault-free reference bit-for-bit.
    pub digest_match: bool,
    /// Coordinated checkpoints taken.
    pub checkpoints: u64,
    /// Total buddy-mirror wire bytes.
    pub checkpoint_bytes: u64,
    /// Modeled seconds of mirror traffic.
    pub checkpoint_seconds: f64,
    /// Completed steps discarded by rollbacks.
    pub rollback_steps: u64,
    /// Recoveries performed.
    pub recoveries: usize,
    /// Total modeled mean-time-to-repair (buddy restore + replay).
    pub mttr_seconds: f64,
    /// Modeled node seconds of the surviving timeline.
    pub node_seconds: f64,
    /// Fault-free node seconds of the same problem at the same rank
    /// count, no checkpointing.
    pub baseline_seconds: f64,
    /// `(node + checkpoint + mttr − baseline) / baseline`.
    pub overhead_fraction: f64,
    /// Ranks in the communicator when the run finished.
    pub final_ranks: usize,
}

/// The full sweep result, serialized as `BENCH_resilience.json`.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceSweep {
    /// Particles in every configuration.
    pub n_particles: usize,
    /// Steps per run.
    pub steps: u64,
    /// Rank-loss schedule seeds swept.
    pub seeds: Vec<u64>,
    /// One row per configuration.
    pub records: Vec<ResilienceRecord>,
}

/// splitmix64, for deriving loss schedules from sweep seeds.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seeded schedule: which rank dies, and at which step boundary.
/// Deterministic per (seed, ranks, mode); the step always leaves work
/// both to roll back and to replay.
fn loss_for(seed: u64, ranks: usize, mode: RecoveryMode, steps: u64) -> RankLoss {
    let h = hash64(seed ^ hash64(ranks as u64) ^ hash64(mode.label().len() as u64));
    RankLoss {
        rank: 1 + (h as usize % (ranks - 1)),
        step: 1 + (hash64(h) % (steps - 1)),
    }
}

/// Runs one configuration against its fault-free baseline.
#[allow(clippy::too_many_arguments)]
fn run_config(
    arch: &GpuArch,
    ranks: usize,
    interval: u64,
    mode: Option<RecoveryMode>,
    seed: u64,
    n: usize,
    steps: u64,
    baseline_seconds: f64,
    reference_digest: u64,
) -> ResilienceRecord {
    let problem = MultiRankProblem::small(n, 42);
    let mut sim = MultiRankSim::new(ranks, arch.clone(), problem);
    let loss = mode.map(|m| loss_for(seed, ranks, m, steps));
    if let Some(l) = loss {
        sim.enable_fault_injection(FaultConfig {
            seed,
            rank_loss: vec![l],
            ..FaultConfig::default()
        });
    }
    let config = ResilienceConfig {
        checkpoint_interval: interval,
        mode: mode.unwrap_or(RecoveryMode::Respawn),
    };
    let outcome = sim.run_resilient(steps, &config);
    let digest = sim.state_digest();
    let (completed, report) = match outcome {
        Ok(report) => (true, Some(report)),
        Err(_) => (false, None),
    };
    let node_seconds = report.as_ref().map(|r| r.node_seconds()).unwrap_or(0.0);
    let checkpoint_seconds = report.as_ref().map(|r| r.checkpoint_seconds).unwrap_or(0.0);
    let mttr_seconds = report.as_ref().map(|r| r.mttr_seconds()).unwrap_or(0.0);
    ResilienceRecord {
        arch: arch.id.to_string(),
        ranks,
        mode: mode
            .map(|m| m.label().to_string())
            .unwrap_or_else(|| "none".to_string()),
        interval,
        seed,
        loss_rank: loss.map(|l| l.rank as i64).unwrap_or(-1),
        loss_step: loss.map(|l| l.step as i64).unwrap_or(-1),
        completed,
        digest: format!("{digest:016x}"),
        digest_match: completed && digest == reference_digest,
        checkpoints: report.as_ref().map(|r| r.checkpoints).unwrap_or(0),
        checkpoint_bytes: report.as_ref().map(|r| r.checkpoint_bytes).unwrap_or(0),
        checkpoint_seconds,
        rollback_steps: report.as_ref().map(|r| r.rollback_steps).unwrap_or(0),
        recoveries: report.as_ref().map(|r| r.recoveries.len()).unwrap_or(0),
        mttr_seconds,
        node_seconds,
        baseline_seconds,
        overhead_fraction: if baseline_seconds > 0.0 {
            (node_seconds + checkpoint_seconds + mttr_seconds - baseline_seconds) / baseline_seconds
        } else {
            0.0
        },
        final_ranks: report.as_ref().map(|r| r.final_ranks).unwrap_or(0),
    }
}

/// Sweeps [`RANK_COUNTS`] × `INTERVALS` × {shrink, respawn} × seeds
/// on the Frontier interconnect. 1-rank rows run loss-free once per
/// interval (per seed they would be identical).
pub fn sweep(n: usize, steps: u64, seeds: &[u64]) -> ResilienceSweep {
    assert!(steps >= 2, "a loss needs steps both before and after it");
    let arch = GpuArch::frontier();
    let mut records = Vec::new();
    for &ranks in &RANK_COUNTS {
        // Fault-free baseline at this rank count: node seconds and the
        // reference digest every faulted row must reproduce.
        let (baseline_seconds, reference_digest) = {
            let mut sim = MultiRankSim::new(ranks, arch.clone(), MultiRankProblem::small(n, 42));
            let stats = sim.run(steps).expect("fault-free baseline must complete");
            (
                stats.iter().map(|s| s.node_seconds).sum::<f64>(),
                sim.state_digest(),
            )
        };
        for &interval in &INTERVALS {
            if ranks == 1 {
                records.push(run_config(
                    &arch,
                    ranks,
                    interval,
                    None,
                    seeds[0],
                    n,
                    steps,
                    baseline_seconds,
                    reference_digest,
                ));
                continue;
            }
            for mode in [RecoveryMode::Shrink, RecoveryMode::Respawn] {
                for &seed in seeds {
                    records.push(run_config(
                        &arch,
                        ranks,
                        interval,
                        Some(mode),
                        seed,
                        n,
                        steps,
                        baseline_seconds,
                        reference_digest,
                    ));
                }
            }
        }
    }
    ResilienceSweep {
        n_particles: n,
        steps,
        seeds: seeds.to_vec(),
        records,
    }
}

/// Renders the sweep as a console table.
pub fn render(sweep: &ResilienceSweep) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== Resilience: {} particles, {} steps, coordinated buddy checkpoints \
         + rank-loss recovery (Frontier interconnect) ==\n",
        sweep.n_particles, sweep.steps
    ));
    out.push_str(&format!(
        "{:>6} {:>8} {:>9} {:>12} {:>6} {:>6} {:>11} {:>9} {:>10} {:>10} {:>8}\n",
        "ranks",
        "mode",
        "interval",
        "loss",
        "ckpts",
        "rollbk",
        "ckpt bytes",
        "mttr[us]",
        "node[ms]",
        "overhead",
        "bitwise"
    ));
    for r in &sweep.records {
        out.push_str(&format!(
            "{:>6} {:>8} {:>9} {:>12} {:>6} {:>6} {:>11} {:>9.2} {:>10.4} {:>9.1}% {:>8}\n",
            r.ranks,
            r.mode,
            r.interval,
            if r.loss_rank < 0 {
                "-".to_string()
            } else {
                format!("r{}@s{} (x{})", r.loss_rank, r.loss_step, r.seed)
            },
            r.checkpoints,
            r.rollback_steps,
            r.checkpoint_bytes,
            r.mttr_seconds * 1e6,
            r.node_seconds * 1e3,
            r.overhead_fraction * 100.0,
            if !r.completed {
                "FAILED"
            } else if r.digest_match {
                "ok"
            } else {
                "DIVERGED"
            }
        ));
    }
    out
}

/// The sweep's self-gate: every run completes on its fault-free
/// reference bits, and rank loss was exercised — there are faulted rows
/// and each recovered at least once. Returns the failures.
pub fn gate(sweep: &ResilienceSweep) -> Vec<String> {
    let faulted = || sweep.records.iter().filter(|r| r.mode != "none");
    let diverged = sweep
        .records
        .iter()
        .filter(|r| !r.completed || !r.digest_match);
    let unrecovered = faulted().filter(|r| r.recoveries == 0);
    let mut failures: Vec<String> = (diverged.chain(unrecovered))
        .map(|r| format!("row did not recover onto its fault-free bits: {r:?}"))
        .collect();
    if faulted().next().is_none() {
        failures.push("no row injected a rank loss".to_string());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_recovers_and_stays_bit_identical() {
        let sweep = sweep(128, 4, &[7]);
        // 1-rank: 3 loss-free rows; 2/4/8 ranks: 3 intervals × 2 modes.
        assert_eq!(sweep.records.len(), 3 + 3 * 6);
        for r in &sweep.records {
            assert!(
                r.completed,
                "{}r {} i{} must complete",
                r.ranks, r.mode, r.interval
            );
            assert!(
                r.digest_match,
                "{}r {} i{} diverged from the fault-free bits",
                r.ranks, r.mode, r.interval
            );
            if r.mode == "none" {
                assert_eq!(r.recoveries, 0);
                assert_eq!(r.checkpoint_bytes, 0, "one rank has no buddy");
            } else {
                assert_eq!(r.recoveries, 1, "exactly one seeded loss per row");
                assert!(r.checkpoint_bytes > 0);
                assert!(r.mttr_seconds > 0.0);
            }
            if r.mode == "shrink" {
                assert_eq!(r.final_ranks, r.ranks - 1);
            } else if r.mode == "respawn" {
                assert_eq!(r.final_ranks, r.ranks);
            }
        }
        let text = serde_json::to_string_pretty(&sweep).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            back["records"].as_array().unwrap().len(),
            sweep.records.len()
        );
        assert!(render(&sweep).contains("Resilience"));
    }

    #[test]
    fn tighter_checkpoints_bound_the_rollback() {
        let sweep = sweep(128, 6, &[3]);
        for r in &sweep.records {
            if r.mode != "none" {
                assert!(
                    r.rollback_steps < r.interval,
                    "rollback {} must stay under the interval {}",
                    r.rollback_steps,
                    r.interval
                );
            }
        }
    }
}
