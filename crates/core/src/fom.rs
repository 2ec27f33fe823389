//! The ExaSky Figure-of-Merit (FOM) machinery (paper §3.4.2).
//!
//! The ECP project assessed CRK-HACC with two problem sizes on 8192
//! Frontier nodes: the *default* problem at 2×229³ particles per GCD and
//! the *stretch* problem at 2×305³. The paper's test problem interpolates
//! between them at 2×256³ per GCD. The FOM itself is throughput:
//! particle-steps per second of wall-clock time.

use crate::sim::RunSummary;
use hacc_cosmo::{device_bytes_per_rank, BoxSpec};
use serde::Serialize;

/// One FOM problem configuration.
#[derive(Clone, Debug, Serialize)]
struct FomProblem {
    /// Name used by the ExaSky project.
    pub name: &'static str,
    /// Particles per dimension per GCD/rank (one species).
    pub np_per_rank: usize,
    /// Ranks (GCDs) in the full-machine configuration.
    pub ranks: usize,
}

impl FomProblem {
    /// The ECP default FOM problem: 2×229³ particles per GCD.
    fn default_problem() -> Self {
        Self {
            name: "default",
            np_per_rank: 229,
            ranks: 8 * 8192,
        }
    }

    /// The ECP stretch FOM problem: 2×305³ per GCD.
    fn stretch_problem() -> Self {
        Self {
            name: "stretch",
            np_per_rank: 305,
            ranks: 8 * 8192,
        }
    }

    /// The paper's scaled-down test problem: 2×256³ per GCD on one node
    /// (8 ranks), "in-between the default and stretch FOM problem sizes".
    fn paper_test() -> Self {
        Self {
            name: "paper-test",
            np_per_rank: 256,
            ranks: 8,
        }
    }

    /// Total particles (both species) across all ranks.
    fn total_particles(&self) -> u64 {
        2 * (self.np_per_rank as u64).pow(3) * self.ranks as u64
    }

    /// Device memory per rank for this configuration, in bytes, using the
    /// same accounting as `hacc_cosmo::device_bytes_per_rank`.
    fn bytes_per_rank(&self) -> u64 {
        let np = self.np_per_rank;
        // One rank's slab of the global problem at FOM mass resolution.
        let spec = BoxSpec::new(177.0 * np as f64 / 512.0, np, np);
        device_bytes_per_rank(&spec, 1)
    }
}

/// Computes the FOM (particle-steps per second) from a run summary.
pub fn fom(n_particles: u64, summary: &RunSummary) -> f64 {
    assert!(summary.gpu_seconds > 0.0, "FOM requires nonzero GPU time");
    n_particles as f64 * summary.steps as f64 / summary.gpu_seconds
}

/// Renders the FOM problem table (the §3.4.2 context).
pub fn render_problems() -> String {
    let mut out = String::from(
        "== ExaSky FOM problem configurations (paper §3.4.2) ==\n\
         name        np/rank   ranks     total particles   ~GB/rank\n",
    );
    for p in [
        FomProblem::default_problem(),
        FomProblem::paper_test(),
        FomProblem::stretch_problem(),
    ] {
        out.push_str(&format!(
            "{:<11} {:>7}   {:>6}   {:>15.3e}   {:>8.1}\n",
            p.name,
            p.np_per_rank,
            p.ranks,
            p.total_particles() as f64,
            p.bytes_per_rank() as f64 / 1e9,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_test_sits_between_default_and_stretch() {
        let d = FomProblem::default_problem();
        let t = FomProblem::paper_test();
        let s = FomProblem::stretch_problem();
        assert!(d.np_per_rank < t.np_per_rank && t.np_per_rank < s.np_per_rank);
    }

    #[test]
    fn paper_test_is_about_ten_gb_per_rank() {
        // §3.4.2: "a device memory usage of ~10 GB per MPI rank".
        let gb = FomProblem::paper_test().bytes_per_rank() as f64 / 1e9;
        assert!(gb > 3.0 && gb < 20.0, "{gb:.1} GB/rank");
    }

    #[test]
    fn full_machine_configurations_are_exascale_sized() {
        // 8192 nodes × 8 GCDs × 2×229³ ≈ 1.6e15 particles… per the FOM
        // definition the default problem holds ~1.6 trillion particles.
        let d = FomProblem::default_problem();
        assert!(d.total_particles() > 1e12 as u64);
        let s = FomProblem::stretch_problem();
        assert!(s.total_particles() > d.total_particles());
    }

    #[test]
    fn fom_scales_with_throughput() {
        let summary = |secs: f64| RunSummary {
            a_final: 1.0,
            steps: 5,
            gpu_seconds: secs,
            timers: Vec::new(),
        };
        let fast = fom(1_000_000, &summary(1.0));
        let slow = fom(1_000_000, &summary(2.0));
        assert!((fast / slow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn render_lists_all_problems() {
        let s = render_problems();
        assert!(s.contains("default") && s.contains("stretch") && s.contains("paper-test"));
    }
}
