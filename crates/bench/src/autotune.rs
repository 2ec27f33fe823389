//! The offline autotune sweep behind `figures -- autotune` (DESIGN.md
//! §4j) — the one place launch choices are tuned.
//!
//! For each architecture the sweep measures every candidate in the
//! composed search space — communication variant × sub-group size ×
//! work-group size × GRF mode × launch bounds — on the cost model,
//! picks the per-kernel winners, and compares the tuned application
//! against the paper's hand-picked table (Appendix A). The output
//! proves the tuning claim: the tuned per-kernel plan reaches at least
//! the hand-picked performance portability of 0.96 on every
//! architecture. The winners are the table a `TunedSelector` reads a
//! `StepPlan` from, and `run_hydro_step_planned` runs.
//!
//! For the nightly soak it re-runs the winner selection over extra
//! workload seeds to surface winners that move with the realization.

use crate::experiments::{base_launch, measure, timer_seconds, workload, BenchProblem};
use crate::gate::{Gate, Values};
use hacc_kernels::tuning::{
    hand_picked_choice, kernel_digest, search_space, tuned_timers, variant_candidates,
};
use hacc_kernels::Variant;
use hacc_tune::TuneChoice;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use sycl_sim::{GpuArch, GrfMode, MeterPolicy};

/// The acceptance floor: the tuned plan must reach at least the paper's
/// hand-picked performance portability (§6.1).
pub const PP_FLOOR: f64 = 0.96;

/// Measures every candidate of `space` (metered — the cost model needs
/// the counts): choice label → timer → seconds.
fn measure_space(
    arch: &GpuArch,
    space: &[TuneChoice],
    problem: &BenchProblem,
) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for c in space {
        let variant = Variant::from_id(&c.variant).expect("search-space choices carry variant ids");
        let launch = c.knobs().apply_to(base_launch(arch, MeterPolicy::Full));
        let run = measure(arch, variant.toolchain(), variant, launch, problem, None);
        out.insert(c.label(), timer_seconds(&run));
    }
    out
}

fn seconds_of(table: &BTreeMap<String, BTreeMap<String, f64>>, choice: &str, timer: &str) -> f64 {
    table
        .get(choice)
        .and_then(|t| t.get(timer))
        .copied()
        .unwrap_or(f64::INFINITY)
}

/// Per-kernel winner on one architecture.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct KernelWinner {
    /// Kernel timer name.
    pub kernel: String,
    /// Canonical choice label (`variant/sgN/wgN/grf/bounds`).
    pub choice: String,
    /// Communication-variant id.
    pub variant: String,
    /// Sub-group size.
    pub sg_size: usize,
    /// Work-group size.
    pub wg_size: usize,
    /// GRF mode label (`std` / `large`).
    pub grf: String,
    /// Launch-bounds label (`default` / `capNN`).
    pub bounds: String,
    /// Modeled seconds.
    pub modeled_seconds: f64,
    /// Seconds of the hand-picked application config for this kernel.
    pub hand_seconds: f64,
    /// `hand_seconds / modeled_seconds` (≥ 1 when tuning helps).
    pub speedup: f64,
}

/// One architecture's sweep result.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct ArchReport {
    /// Architecture id (`pvc` / `a100` / `mi250x`).
    pub arch: String,
    /// System name (Aurora / Polaris / Frontier).
    pub system: String,
    /// Search-space size (candidates measured).
    pub candidates: usize,
    /// Best uniform hand-picked variant (the paper's per-platform
    /// specialization) by total modeled seconds.
    pub hand_variant: String,
    /// Per-kernel winners.
    pub winners: Vec<KernelWinner>,
    /// Tuned application efficiency vs the per-kernel envelope of the
    /// hand-picked variant runs.
    pub tuned_efficiency: f64,
    /// Hand-picked application efficiency.
    pub hand_efficiency: f64,
}

/// Winner movement across workload seeds (nightly soak).
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct Mover {
    /// Architecture id.
    pub arch: String,
    /// Kernel timer.
    pub kernel: String,
    /// Workload seed whose winner differs from the base seed's.
    pub seed: u64,
    /// Base-seed winner label.
    pub from: String,
    /// This seed's winner label.
    pub to: String,
    /// Relative modeled-seconds change of the moved winner (percent).
    pub delta_pct: f64,
}

/// The full autotune report (serialized to `BENCH_autotune.json`).
#[derive(Serialize, Deserialize, Debug)]
pub struct AutotuneReport {
    /// Telemetry schema version (shared across BENCH dumps).
    pub schema_version: u32,
    /// Digest of the kernel/variant set tuned (cache invalidation key).
    pub kernel_digest: String,
    /// Workload side length (`size³` baryons).
    pub size: usize,
    /// Whether the full space (`--full`) or the bounded per-push space
    /// was searched.
    pub full_space: bool,
    /// Per-architecture results.
    pub archs: Vec<ArchReport>,
    /// Harmonic-mean PP of the tuned plan.
    pub tuned_pp: f64,
    /// Harmonic-mean PP of the hand-picked table.
    pub hand_pp: f64,
    /// The acceptance floor the tuned PP is gated against.
    pub pp_floor: f64,
    /// Winner movement across extra seeds (empty outside the soak).
    pub movers: Vec<Mover>,
}

fn harmonic_mean<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let mut n = 0usize;
    let mut inv = 0.0;
    for x in xs {
        if x <= 0.0 {
            return 0.0;
        }
        n += 1;
        inv += 1.0 / x;
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / inv
    }
}

/// The per-kernel winners on one architecture: timer → (choice,
/// seconds). Shared by the main sweep and the seed soak.
fn kernel_winners(
    space: &[TuneChoice],
    table: &BTreeMap<String, BTreeMap<String, f64>>,
) -> BTreeMap<String, (TuneChoice, f64)> {
    let mut winners = BTreeMap::new();
    for timer in tuned_timers() {
        let mut best: Option<(TuneChoice, f64)> = None;
        for c in space {
            let s = seconds_of(table, &c.label(), timer);
            if s.is_finite() && best.as_ref().is_none_or(|(_, b)| s < *b) {
                best = Some((c.clone(), s));
            }
        }
        if let Some(w) = best {
            winners.insert(timer.to_string(), w);
        }
    }
    winners
}

/// Runs the sweep on one architecture.
fn tune_arch(arch: &GpuArch, problem: &BenchProblem, full: bool) -> ArchReport {
    let visa = arch.supports_visa;
    let space = search_space(arch, full, visa);
    let table = &measure_space(arch, &space, problem);

    // The hand-picked application: the best uniform Appendix-A variant.
    let hand_choices: Vec<TuneChoice> = variant_candidates(arch, visa)
        .into_iter()
        .map(|v| hand_picked_choice(arch, v))
        .collect();
    let hand_variant = hand_choices
        .iter()
        .min_by(|a, b| {
            let ta: f64 = tuned_timers()
                .iter()
                .map(|t| seconds_of(table, &a.label(), t))
                .sum();
            let tb: f64 = tuned_timers()
                .iter()
                .map(|t| seconds_of(table, &b.label(), t))
                .sum();
            ta.total_cmp(&tb)
        })
        .expect("at least one hand-picked variant")
        .clone();

    let winners = kernel_winners(&space, table);
    let winner_rows: Vec<KernelWinner> = winners
        .iter()
        .map(|(timer, (choice, secs))| {
            let hand = seconds_of(table, &hand_variant.label(), timer);
            let grf = match choice.grf {
                GrfMode::Default => "std",
                GrfMode::Large => "large",
            };
            KernelWinner {
                kernel: timer.clone(),
                choice: choice.label(),
                variant: choice.variant.clone(),
                sg_size: choice.sg_size,
                wg_size: choice.wg_size,
                grf: grf.to_string(),
                bounds: choice.bounds.label(),
                modeled_seconds: *secs,
                hand_seconds: hand,
                speedup: hand / secs,
            }
        })
        .collect();

    // Efficiencies: the reference is the per-kernel lower envelope over
    // the hand-picked variant runs (the Figures 9–11 "hypothetical
    // application").
    let mut envelope = 0.0;
    let mut hand_total = 0.0;
    let mut tuned_total = 0.0;
    for timer in tuned_timers() {
        envelope += hand_choices
            .iter()
            .map(|c| seconds_of(table, &c.label(), timer))
            .fold(f64::INFINITY, f64::min);
        hand_total += seconds_of(table, &hand_variant.label(), timer);
        tuned_total += winners.get(timer).map_or(f64::INFINITY, |(_, s)| *s);
    }
    ArchReport {
        arch: arch.id.to_string(),
        system: arch.system.to_string(),
        candidates: space.len(),
        hand_variant: hand_variant.variant.clone(),
        winners: winner_rows,
        tuned_efficiency: (envelope / tuned_total).min(1.0),
        hand_efficiency: (envelope / hand_total).min(1.0),
    }
}

/// Runs the sweep on all three architectures over the `size³` workload
/// at figures' pinned seed and assembles the report.
pub fn sweep(size: usize, full: bool) -> AutotuneReport {
    let problem = workload(size, crate::cli::PINNED_SEED);
    let archs: Vec<ArchReport> = GpuArch::all()
        .iter()
        .map(|a| tune_arch(a, &problem, full))
        .collect();
    let tuned_pp = harmonic_mean(archs.iter().map(|a| a.tuned_efficiency));
    let hand_pp = harmonic_mean(archs.iter().map(|a| a.hand_efficiency));
    AutotuneReport {
        schema_version: hacc_telemetry::SCHEMA_VERSION,
        kernel_digest: format!("{:016x}", kernel_digest()),
        size,
        full_space: full,
        archs,
        tuned_pp,
        hand_pp,
        pp_floor: PP_FLOOR,
        movers: Vec::new(),
    }
}

/// Nightly-soak seed sensitivity: recompute the winners on extra
/// workload seeds and report every (arch, kernel) whose winner moved,
/// with the relative modeled-seconds change.
pub fn seed_movers(report: &AutotuneReport, size: usize, seeds: &[u64]) -> Vec<Mover> {
    let mut movers = Vec::new();
    for &seed in seeds {
        let problem = workload(size, seed);
        for arch in GpuArch::all() {
            let space = search_space(&arch, report.full_space, arch.supports_visa);
            let table = measure_space(&arch, &space, &problem);
            let winners = kernel_winners(&space, &table);
            let base = report
                .archs
                .iter()
                .find(|a| a.arch == arch.id)
                .map(|a| &a.winners[..])
                .unwrap_or(&[]);
            for row in base {
                let Some((choice, secs)) = winners.get(&row.kernel) else {
                    continue;
                };
                if choice.label() != row.choice {
                    movers.push(Mover {
                        arch: arch.id.to_string(),
                        kernel: row.kernel.clone(),
                        seed,
                        from: row.choice.clone(),
                        to: choice.label(),
                        delta_pct: 100.0 * (secs / row.modeled_seconds - 1.0),
                    });
                }
            }
        }
    }
    movers.sort_by(|a, b| b.delta_pct.abs().total_cmp(&a.delta_pct.abs()));
    movers
}

/// The acceptance gate: tuned PP must reach the floor and never lose to
/// the hand-picked table. Returns the failures.
pub fn gate(report: &AutotuneReport) -> Vec<String> {
    let mut failures = Vec::new();
    let (tuned, hand) = (report.tuned_pp, report.hand_pp);
    if tuned < report.pp_floor {
        failures.push(format!(
            "tuned PP {tuned:.4} is below the floor {:.2}",
            report.pp_floor
        ));
    }
    if tuned + 1e-12 < hand {
        failures.push(format!(
            "tuned PP {tuned:.4} loses to the hand-picked {hand:.4}"
        ));
    }
    for a in &report.archs {
        for w in &a.winners {
            if w.modeled_seconds > w.hand_seconds * (1.0 + 1e-9) {
                failures.push(format!(
                    "{}/{}: tuned winner {} ({:.4e} s) is slower than hand-picked ({:.4e} s)",
                    a.arch, w.kernel, w.choice, w.modeled_seconds, w.hand_seconds
                ));
            }
        }
    }
    failures
}

/// The knobs a winner is pinned on, named by [`KNOBS`].
fn knobs(w: &KernelWinner) -> [String; 5] {
    let (sg, wg) = (w.sg_size.to_string(), w.wg_size.to_string());
    [w.variant.clone(), sg, wg, w.grf.clone(), w.bounds.clone()]
}

const KNOBS: [&str; 5] = ["variant", "sg_size", "wg_size", "grf", "bounds"];

/// A report's winners by `arch/kernel`.
fn winners(r: &AutotuneReport) -> BTreeMap<String, &KernelWinner> {
    let rows = r
        .archs
        .iter()
        .flat_map(|a| a.winners.iter().map(move |w| (&a.arch, w)));
    rows.map(|(arch, w)| (format!("{arch}/{}", w.kernel), w))
        .collect()
}

/// Gates `report` against the committed `baseline` report: each
/// winner's knobs exactly, its modeled seconds within the tolerance.
pub fn against(report: &AutotuneReport, baseline: &AutotuneReport) -> Gate {
    let config = |r: &AutotuneReport| format!("size {}, full_space {}", r.size, r.full_space);
    Gate::pinned(config(report), config(baseline), |gate| {
        let (r, b) = (report, baseline);
        gate.header("schema_version", r.schema_version, b.schema_version);
        gate.header("kernel_digest", &r.kernel_digest, &b.kernel_digest);
        gate.header("pp_floor", r.pp_floor, b.pp_floor);
        let (current, base) = (winners(report), winners(baseline));
        for (p, b) in &base {
            let Some(c) = current.get(p) else { continue };
            for (knob, (was, now)) in KNOBS.iter().zip(knobs(b).into_iter().zip(knobs(c))) {
                if was != now {
                    gate.mismatches.push(format!(
                        "{p}: winner knob {knob} moved {was} -> {now} — the committed tune baseline is stale"
                    ));
                }
            }
        }
        let seconds = |winners: &BTreeMap<String, &KernelWinner>| -> Values {
            let row = |(p, w): (&String, &&KernelWinner)| {
                ((p.clone(), "modeled_seconds".into()), w.modeled_seconds)
            };
            winners.iter().map(row).collect()
        };
        gate.compare(&seconds(&current), &seconds(&base));
    })
}

/// Renders the report for the terminal.
pub fn render(report: &AutotuneReport) -> String {
    let mut out = String::from("== Autotune: per-kernel winners vs the hand-picked table ==\n");
    out.push_str(&format!(
        "search space: {}\n",
        if report.full_space {
            "full"
        } else {
            "bounded (per-push)"
        }
    ));
    for a in &report.archs {
        out.push_str(&format!(
            "{} ({}): {} candidates, hand-picked variant {}\n",
            a.system, a.arch, a.candidates, a.hand_variant
        ));
        for w in &a.winners {
            out.push_str(&format!(
                "  {:<8} {:<36} {:.4e} s  ({:.2}× vs hand-picked)\n",
                w.kernel, w.choice, w.modeled_seconds, w.speedup
            ));
        }
        out.push_str(&format!(
            "  efficiency {:.4} (hand-picked {:.4})\n",
            a.tuned_efficiency, a.hand_efficiency
        ));
    }
    out.push_str(&format!(
        "PP: tuned {:.4}, hand-picked {:.4}, floor {:.2}\n",
        report.tuned_pp, report.hand_pp, report.pp_floor
    ));
    for m in report.movers.iter().take(3) {
        out.push_str(&format!(
            "mover: {}/{} seed {}: {} -> {} ({:+.2}%)\n",
            m.arch, m.kernel, m.seed, m.from, m.to, m.delta_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::workload;
    use std::collections::BTreeSet;

    #[test]
    fn bounded_sweep_on_frontier_reaches_the_envelope() {
        let problem = workload(8, 1);
        let arch = GpuArch::frontier();
        let rep = tune_arch(&arch, &problem, false);
        assert_eq!(rep.winners.len(), tuned_timers().len());
        // The winners are the per-space argmin, so the tuned plan
        // reaches the hand-picked envelope exactly.
        assert!(rep.tuned_efficiency >= 1.0 - 1e-12);
        for w in &rep.winners {
            assert!(
                w.modeled_seconds <= w.hand_seconds * (1.0 + 1e-9),
                "{}: winner must not lose to hand-picked",
                w.kernel
            );
        }
    }

    /// The paper's closing future-work item — *"We may also be able to
    /// achieve higher overall performance by selectively applying
    /// different optimization strategies to different kernels"* — on
    /// the bounded sweep's per-kernel winners. One sweep per
    /// architecture, shared by every claim.
    #[test]
    fn per_kernel_winners_reproduce_the_paper_claims() {
        let problem = workload(6, 11);
        for arch in GpuArch::all() {
            let rep = tune_arch(&arch, &problem, false);
            assert_eq!(rep.winners.len(), 8, "7 hydro timers + gravity");
            // Tuning per kernel never loses to the best uniform
            // hand-picked build.
            let tuned: f64 = rep.winners.iter().map(|w| w.modeled_seconds).sum();
            let hand: f64 = rep.winners.iter().map(|w| w.hand_seconds).sum();
            assert!(
                tuned <= hand * (1.0 + 1e-12),
                "{}: tuned {tuned} vs hand-picked {hand}",
                rep.system
            );
            if arch.id == "a100" {
                // No single variant is best for every kernel: on Polaris
                // the atomic-light broadcast wins the cheap kernels while
                // Select wins the register-heavy force kernels.
                let variants: BTreeSet<&str> =
                    rep.winners.iter().map(|w| w.variant.as_str()).collect();
                assert!(variants.len() >= 2, "mixed schedule, got {variants:?}");
            }
            if arch.id == "pvc" {
                // §5.2: "the best combination of register file size and
                // sub-group size varied across different kernels".
                let levers: BTreeSet<(usize, &str)> = rep
                    .winners
                    .iter()
                    .map(|w| (w.sg_size, w.grf.as_str()))
                    .collect();
                assert!(levers.len() >= 2, "per-kernel levers, got {levers:?}");
            }
        }
    }

    #[test]
    fn harmonic_mean_matches_the_pp_definition() {
        assert!((harmonic_mean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean([0.5, 1.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(harmonic_mean([0.9, 0.0]), 0.0);
    }

    #[test]
    fn gate_names_the_floor_and_the_hand_picked_loss() {
        let report = AutotuneReport {
            schema_version: hacc_telemetry::SCHEMA_VERSION,
            kernel_digest: format!("{:016x}", kernel_digest()),
            size: 8,
            full_space: false,
            archs: Vec::new(),
            tuned_pp: 0.90,
            hand_pp: 0.96,
            pp_floor: PP_FLOOR,
            movers: Vec::new(),
        };
        let failures = gate(&report);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("floor"));
        assert!(failures[1].contains("hand-picked"));
    }
}
