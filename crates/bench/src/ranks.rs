//! Multi-rank scaling sweep (§3.4.2's rank configuration, distributed).
//!
//! Drives the [`hacc_core::MultiRankSim`] engine — 3D domain
//! decomposition, ghost-zone halo exchange over the architecture's
//! modeled interconnect, post/compute-interior/wait/compute-boundary
//! overlap — across 1/2/4/8 ranks on every architecture, in two modes:
//!
//! * **strong**: a fixed particle count split over more ranks; the
//!   per-rank domain shrinks and halo surface grows relative to
//!   interior volume, so overlap and speedup both degrade;
//! * **weak**: a fixed per-rank particle count, so the global problem
//!   grows with the rank count; efficiency measures how well the
//!   interconnect hides behind the (constant) per-rank compute.
//!
//! Every strong row is digest-checked against the 1-rank run of the
//! same problem, and every weak row against a 1-rank run of *its*
//! problem — the engine's decomposition-invariance contract, enforced
//! inside the sweep itself. The `figures -- ranks` target renders the
//! tables and writes the raw records as `BENCH_ranks.json`.

use crate::gate::{Gate, Values};
use hacc_core::{MultiRankProblem, MultiRankSim};
use serde::{Deserialize, Serialize};
use sycl_sim::GpuArch;

/// Rank counts the sweep visits (the paper's node is the 8-rank point).
pub const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured configuration: (architecture, mode, rank count).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RankRecord {
    /// Architecture id (`pvc`, `a100`, `mi250x`).
    pub arch: String,
    /// System name (Aurora, Polaris, Frontier).
    pub system: String,
    /// `strong` or `weak`.
    pub mode: String,
    /// Rank count.
    pub ranks: usize,
    /// Total particles in this configuration's problem.
    pub n_particles: usize,
    /// Steps advanced.
    pub steps: u64,
    /// Modeled node seconds over the run (slowest rank per step).
    pub node_seconds: f64,
    /// Modeled seconds per rank over the run (each rank's own
    /// migrate + max(halo, interior) + boundary path).
    pub per_rank_seconds: Vec<f64>,
    /// Total wire bytes exchanged (halo + migration).
    pub exchange_bytes: u64,
    /// Mean fraction of halo comm hidden behind interior compute.
    pub overlap_fraction: f64,
    /// Share of the run's rank-time spent waiting on other ranks:
    /// Σ per-rank wait seconds / (ranks × node seconds), counting
    /// in-step message stalls (see `RankStepStats::wait_seconds`).
    pub wait_share: f64,
    /// Particle load imbalance at the end of the run (max/mean).
    pub imbalance: f64,
    /// Particles that changed owner over the run.
    pub migrated: u64,
    /// Strong mode: speedup vs the 1-rank row. Weak mode: parallel
    /// efficiency vs the 1-rank row (ideal 1.0).
    pub speedup: f64,
    /// Digest of the final particle state (hex; see
    /// `MultiRankSim::state_digest`).
    pub digest: String,
    /// Whether the digest matches a 1-rank run of the same problem
    /// bit-for-bit (the decomposition-invariance contract).
    pub bit_identical: bool,
}

/// The full sweep result, serialized as `BENCH_ranks.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RankSweep {
    /// Particles in the strong problem (= particles per rank in weak).
    pub n_base: usize,
    /// Steps per configuration.
    pub steps: u64,
    /// IC seed.
    pub seed: u64,
    /// One row per (architecture, mode, rank count).
    pub records: Vec<RankRecord>,
}

/// Runs one configuration and folds its per-step stats.
fn run_config(
    arch: &GpuArch,
    mode: &str,
    ranks: usize,
    n_particles: usize,
    steps: u64,
    seed: u64,
) -> RankRecord {
    // Weak mode grows the box with the rank count so the particle
    // density — and hence the per-rank pair work — stays constant.
    let base = MultiRankProblem::small(n_particles, seed);
    let problem = if mode == "weak" {
        base.with_ng((base.ng as f64 * (ranks as f64).cbrt()).round() as usize)
    } else {
        base
    };
    let mut sim = MultiRankSim::new(ranks, arch.clone(), problem);
    let stats = sim.run(steps).expect("fault-free sweep must complete");

    let mut per_rank_seconds = vec![0.0f64; ranks];
    let mut node_seconds = 0.0;
    let mut bytes = 0u64;
    let mut migrated = 0u64;
    let mut overlap_sum = 0.0;
    let mut overlap_rows = 0usize;
    let mut wait_sum = 0.0;
    for s in &stats {
        node_seconds += s.node_seconds;
        bytes += s.bytes;
        migrated += s.migrated;
        if ranks > 1 {
            overlap_sum += s.overlap_fraction;
            overlap_rows += 1;
        }
        for r in &s.per_rank {
            per_rank_seconds[r.rank] += r.step_seconds;
            wait_sum += r.wait_seconds;
        }
    }
    let pops = sim.rank_populations();
    let max_pop = pops.iter().copied().max().unwrap_or(0) as f64;
    let mean_pop = n_particles as f64 / ranks as f64;

    // The invariance check: the same problem on one rank must land on
    // the same bits.
    let digest = sim.state_digest();
    let reference = {
        let mut single = MultiRankSim::new(1, arch.clone(), problem);
        single
            .run(steps)
            .expect("single-rank reference must complete");
        single.state_digest()
    };

    RankRecord {
        arch: arch.id.to_string(),
        system: arch.system.to_string(),
        mode: mode.to_string(),
        ranks,
        n_particles,
        steps,
        node_seconds,
        per_rank_seconds,
        exchange_bytes: bytes,
        overlap_fraction: if overlap_rows > 0 {
            overlap_sum / overlap_rows as f64
        } else {
            0.0
        },
        wait_share: if node_seconds > 0.0 {
            wait_sum / (ranks as f64 * node_seconds)
        } else {
            0.0
        },
        imbalance: if mean_pop > 0.0 {
            max_pop / mean_pop
        } else {
            1.0
        },
        migrated,
        speedup: 0.0, // filled once the mode's 1-rank row is known
        digest: format!("{digest:016x}"),
        bit_identical: digest == reference,
    }
}

/// Sweeps both modes over [`RANK_COUNTS`] × all three architectures.
///
/// `n_base` is the strong-mode particle count and the weak-mode
/// per-rank count; `steps` steps are advanced per configuration.
pub fn sweep(n_base: usize, steps: u64, seed: u64) -> RankSweep {
    let mut records = Vec::new();
    for arch in GpuArch::all() {
        for mode in ["strong", "weak"] {
            let mut rows: Vec<RankRecord> = RANK_COUNTS
                .iter()
                .map(|&ranks| {
                    let n = if mode == "weak" {
                        n_base * ranks
                    } else {
                        n_base
                    };
                    run_config(&arch, mode, ranks, n, steps, seed)
                })
                .collect();
            let base = rows[0].node_seconds;
            for row in &mut rows {
                // Strong: time ratio (ideal = ranks). Weak: efficiency
                // (ideal = 1.0; the problem grows with the ranks).
                row.speedup = if row.node_seconds > 0.0 {
                    base / row.node_seconds
                } else {
                    0.0
                };
            }
            records.extend(rows);
        }
    }
    RankSweep {
        n_base,
        steps,
        seed,
        records,
    }
}

/// Renders the sweep as console tables.
pub fn render(sweep: &RankSweep) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== Multi-rank scaling: {} particles (strong) / per rank (weak), \
         {} steps, 3D decomposition + halo exchange ==\n",
        sweep.n_base, sweep.steps
    ));
    for system in sweep
        .records
        .iter()
        .map(|r| r.system.clone())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let modes: Vec<String> = sweep
            .records
            .iter()
            .map(|r| r.mode.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for mode in modes {
            out.push_str(&format!("\n{system} · {mode} scaling\n"));
            out.push_str(&format!(
                "{:>6} {:>10} {:>12} {:>9} {:>9} {:>8} {:>12} {:>10} {:>8}\n",
                "ranks",
                "particles",
                "node [ms]",
                "speedup",
                "overlap",
                "wait",
                "bytes/step",
                "migrated",
                "bitwise"
            ));
            for r in sweep
                .records
                .iter()
                .filter(|r| r.system == system && r.mode == mode)
            {
                out.push_str(&format!(
                    "{:>6} {:>10} {:>12.4} {:>8.2}x {:>8.1}% {:>7.1}% {:>12} {:>10} {:>8}\n",
                    r.ranks,
                    r.n_particles,
                    r.node_seconds * 1e3,
                    r.speedup,
                    r.overlap_fraction * 100.0,
                    r.wait_share * 100.0,
                    r.exchange_bytes / sweep.steps.max(1),
                    r.migrated,
                    if r.bit_identical { "ok" } else { "DIVERGED" }
                ));
            }
        }
    }
    out
}

/// The modeled values gated per `arch/mode/ranks` row.
fn gated(sweep: &RankSweep) -> Values {
    let mut values = Values::new();
    for r in &sweep.records {
        let place = format!("{}/{}/{}", r.arch, r.mode, r.ranks);
        for (metric, v) in [
            ("node_seconds", r.node_seconds),
            ("speedup", r.speedup),
            ("overlap_fraction", r.overlap_fraction),
            ("exchange_bytes", r.exchange_bytes as f64),
        ] {
            values.insert((place.clone(), metric.to_string()), v);
        }
    }
    values
}

/// Gates `sweep` against the committed `baseline` sweep: node seconds,
/// speedup, overlap and exchange bytes per row.
pub fn against(sweep: &RankSweep, baseline: &RankSweep) -> Gate {
    let config = |s: &RankSweep| format!("n_base {}, steps {}, seed {}", s.n_base, s.steps, s.seed);
    Gate::pinned(config(sweep), config(baseline), |gate| {
        gate.compare(&gated(sweep), &gated(baseline))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_modes_and_stays_bit_identical() {
        let sweep = sweep(128, 2, 9);
        // 3 arch × 2 modes × 4 rank counts.
        assert_eq!(sweep.records.len(), 24);
        assert!(sweep.records.iter().all(|r| r.bit_identical));
        assert!(sweep.records.iter().all(|r| r.node_seconds > 0.0));
        // Multi-rank rows must move bytes; 1-rank rows must not.
        for r in &sweep.records {
            if r.ranks == 1 {
                assert_eq!(r.exchange_bytes, 0, "1 rank has nobody to talk to");
            } else {
                assert!(r.exchange_bytes > 0, "{} ranks moved no bytes", r.ranks);
                assert!((0.0..=1.0).contains(&r.overlap_fraction));
            }
        }
        let text = serde_json::to_string_pretty(&sweep).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["records"].as_array().unwrap().len(), 24);
        assert!(render(&sweep).contains("Multi-rank scaling"));
    }

    #[test]
    fn strong_scaling_reduces_node_time() {
        let sweep = sweep(256, 2, 4);
        for system in ["Aurora", "Polaris", "Frontier"] {
            let strong: Vec<&RankRecord> = sweep
                .records
                .iter()
                .filter(|r| r.system == system && r.mode == "strong")
                .collect();
            let t1 = strong.iter().find(|r| r.ranks == 1).unwrap().node_seconds;
            let t8 = strong.iter().find(|r| r.ranks == 8).unwrap().node_seconds;
            assert!(
                t8 < t1,
                "{system}: 8 ranks ({t8:.3e}s) must beat 1 rank ({t1:.3e}s)"
            );
        }
    }

    #[test]
    fn architectures_differ_through_the_cost_model() {
        let sweep = sweep(128, 1, 2);
        let node = |system: &str| {
            sweep
                .records
                .iter()
                .find(|r| r.system == system && r.mode == "strong" && r.ranks == 8)
                .unwrap()
                .node_seconds
        };
        let (a, p, f) = (node("Aurora"), node("Polaris"), node("Frontier"));
        assert!(a != p && p != f, "cost model must differentiate systems");
    }
}
