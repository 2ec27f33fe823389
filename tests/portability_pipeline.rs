//! End-to-end portability analysis: the full Figure 12/13 pipeline on a
//! small workload must reproduce the paper's qualitative findings —
//! the variant rankings per platform (§5.4), the configuration ordering
//! of the cascade plot (§6.1), and the convergence structure of the
//! navigation chart (§6.2), and the §7.3 CPU row under the same PP rule
//! — and the evaluation docs must quote the numbers the program prints.

use hacc_bench::cli::{PINNED_SEED, PINNED_SIZE};
use hacc_bench::experiments::{total_seconds, workload, ArchRun, BenchProblem};
use hacc_bench::figures::{
    all_configs, cpu_row, fig12_records, portability_data, CpuRow, PortabilityData,
};
use hacc_metrics::{find_workspace_root, ConfigKind, Mechanism, RepoInventory};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

/// The one Figure 12 sweep these tests read (6³ baryons, seed 5).
fn sweep() -> &'static (BenchProblem, PortabilityData) {
    static SWEEP: OnceLock<(BenchProblem, PortabilityData)> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let problem = workload(6, 5);
        let data = portability_data(&problem);
        (problem, data)
    })
}

/// The §7.3 row over [`sweep`].
fn cpu() -> &'static CpuRow {
    static ROW: OnceLock<CpuRow> = OnceLock::new();
    ROW.get_or_init(|| {
        let (problem, data) = sweep();
        cpu_row(problem, data)
    })
}

/// The sweep's variant runs on one system.
fn run(system: &str) -> &'static ArchRun {
    sweep()
        .1
        .runs
        .iter()
        .find(|r| r.arch.system == system)
        .unwrap_or_else(|| panic!("no {system} run in the sweep"))
}

#[test]
fn variant_rankings_match_the_paper() {
    // Aurora (Fig 9): Select is always the worst variant.
    let aurora = run("Aurora");
    let t = |run: &ArchRun, v: &str| total_seconds(&run.by_variant[v]);
    for other in ["Memory, 32-bit", "Memory, Object", "Broadcast", "vISA"] {
        assert!(
            t(aurora, "Select") > t(aurora, other),
            "Aurora: Select must be slowest (vs {other})"
        );
    }
    // §5.4: picking the right variant improves kernels by 2–5×.
    let gain = t(aurora, "Select") / t(aurora, "vISA");
    assert!(
        gain > 1.8 && gain < 6.0,
        "Aurora Select→best gain {gain:.2} should fall in the paper's 2–5× band"
    );

    // Polaris (Fig 10): Broadcast collapses on the register-heavy
    // kernels ("almost 10× slower in some cases").
    let polaris = run("Polaris");
    let ac_sel = polaris.by_variant["Select"]["upBarAc"];
    let ac_bc = polaris.by_variant["Broadcast"]["upBarAc"];
    assert!(
        ac_bc / ac_sel > 5.0,
        "Polaris Broadcast/Select on upBarAc = {:.1}, expected ≫ 1",
        ac_bc / ac_sel
    );
    // Select beats both memory variants overall on Polaris.
    assert!(t(polaris, "Select") < t(polaris, "Memory, 32-bit"));
    assert!(t(polaris, "Select") < t(polaris, "Memory, Object"));

    // Frontier (Fig 11): Select best overall; Broadcast ≈ 0.6 efficiency
    // on the force kernels; Memory (Object) second tier.
    let frontier = run("Frontier");
    assert!(t(frontier, "Select") < t(frontier, "Memory, Object"));
    let eff_bc =
        frontier.by_variant["Select"]["upBarAc"] / frontier.by_variant["Broadcast"]["upBarAc"];
    assert!(
        eff_bc > 0.4 && eff_bc < 0.85,
        "Frontier Broadcast efficiency on upBarAc = {eff_bc:.2}, paper ≈ 0.6"
    );
}

#[test]
fn cascade_ordering_matches_figure_12() {
    let records = fig12_records(&sweep().1);
    let pp = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing config {name}"))
            .pp()
    };

    // Unsupported-platform configurations score exactly zero.
    assert_eq!(pp("CUDA/HIP"), 0.0);
    assert_eq!(pp("vISA"), 0.0);

    // The paper's ordering: Select+vISA (0.96) ≥ Select+Memory (0.91) ≥
    // Unified (0.90) > Memory (0.79) > … > Broadcast (worst non-zero).
    assert!(pp("SYCL (Select + vISA)") >= pp("SYCL (Select + Memory)") - 1e-9);
    assert!(pp("SYCL (Select + Memory)") >= pp("Unified") - 1e-9);
    assert!(pp("Unified") > pp("SYCL (Memory)"));
    assert!(pp("SYCL (Memory)") > pp("SYCL (Broadcast)"));
    assert!(pp("SYCL (Select)") > pp("SYCL (Broadcast)"));

    // Band checks against the paper's headline values.
    let v = pp("SYCL (Select + vISA)");
    assert!(v > 0.9 && v <= 1.0, "Select+vISA PP = {v:.3}, paper: 0.96");
    let m = pp("SYCL (Memory)");
    assert!(m > 0.6 && m < 0.95, "Memory PP = {m:.3}, paper: 0.79");
}

#[test]
fn cpu_runs_all_kernels() {
    for (variant, timers) in &cpu().run.by_variant {
        for t in hacc_kernels::HYDRO_TIMERS.iter().chain(&["upGrav"]) {
            assert!(timers[*t] > 0.0, "CPU {variant} {t}");
        }
    }
}

#[test]
fn atomics_dominate_more_on_cpu_than_gpu() {
    // §7.3: the CPU's penalty is "primarily due to the way the code
    // uses atomics" — every float atomic is a compare-exchange loop.
    let (cpu_share, gpu_share) = (cpu().atomic_share_cpu, cpu().atomic_share_frontier);
    assert!(
        cpu_share > 2.0 * gpu_share,
        "CPU atomic share {cpu_share:.3} should far exceed GPU {gpu_share:.3}"
    );
}

#[test]
fn the_cpu_row_extends_figure_12s_pp() {
    // One PP rule: the §7.3 row's GPU-only PP is Figure 12's, bit for bit.
    let records = fig12_records(&sweep().1);
    let name = ConfigKind::SyclSelectPlusVisa.label();
    let fig12 = records.iter().find(|r| r.name == name).unwrap().pp();
    assert_eq!(cpu().pp_gpus.to_bits(), fig12.to_bits());
    assert!(cpu().efficiency > 0.0 && cpu().efficiency <= 1.0);
    assert!(cpu().pp_gpus_and_cpu > 0.0 && cpu().pp_gpus_and_cpu <= 1.0);
}

#[test]
fn navigation_chart_structure_matches_figure_13() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let inv = RepoInventory::measure(&root).unwrap();

    // Specialized SYCL variants sit at convergence ≈ 1 (the paper: the
    // select and local-memory variants differ by ~19 lines; vISA adds
    // only 226 lines of 85k).
    for c in [
        ConfigKind::SyclSelectPlusMemory,
        ConfigKind::SyclSelectPlusVisa,
    ] {
        assert!(inv.convergence(c) > 0.98, "{c:?}: {}", inv.convergence(c));
    }
    // Single-source configurations are exactly 1.
    assert_eq!(
        inv.convergence(ConfigKind::SyclUniform(Mechanism::Select)),
        1.0
    );
    // Unified is the only configuration with significantly lower
    // convergence (two kernel-source bodies).
    let unified = inv.convergence(ConfigKind::Unified);
    assert!(
        unified < 0.9,
        "Unified convergence {unified} must stand out"
    );
    for c in all_configs() {
        if c != ConfigKind::Unified {
            assert!(inv.convergence(c) > unified);
        }
    }
}

/// The part of `doc` under `heading`, up to the next `## ` heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("no {heading:?} section"));
    let body = &doc[start + heading.len()..];
    &body[..body.find("\n## ").unwrap_or(body.len())]
}

/// The markdown table row of `text` whose first cell is `key`.
fn row<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find(|l| l.split('|').nth(1).is_some_and(|c| c.trim() == key))
}

/// The last cell of a table row, bold markers dropped.
fn last_cell(row: &str) -> String {
    let cells: Vec<&str> = row.trim().trim_end_matches('|').split('|').collect();
    cells[cells.len() - 1].trim().replace("**", "")
}

#[test]
fn the_evaluation_docs_quote_the_program() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let read = |doc: &str| std::fs::read_to_string(root.join(doc)).unwrap();
    let (experiments, readme) = (read("EXPERIMENTS.md"), read("README.md"));
    let inv = RepoInventory::measure(&root).unwrap();
    let problem = workload(PINNED_SIZE, PINNED_SEED);
    let data = portability_data(&problem);
    let records = fig12_records(&data);
    let pp = |name: &str| records.iter().find(|r| r.name == name).unwrap().pp();

    // (doc, the text its table sits in, first cell, the cell the program
    // prints at the doc's precision).
    let mut cells: Vec<(&str, &str, String, String)> = Vec::new();
    let fig12 = section(&experiments, "## Figure 12");
    let fig13 = section(&experiments, "## Figure 13");
    for (config, rec) in all_configs().into_iter().zip(&records) {
        cells.push((
            "EXPERIMENTS.md",
            fig12,
            rec.name.clone(),
            format!("{:.3}", rec.pp()),
        ));
        let convergence = format!("{:.2}", inv.convergence(config));
        cells.push(("EXPERIMENTS.md", fig13, rec.name.clone(), convergence));
    }
    let table2 = section(&experiments, "## Table 2");
    for (label, _, pct) in inv.table2() {
        let pct = if pct < 1.0 {
            "< 1".to_string()
        } else {
            format!("{pct:.0}")
        };
        cells.push(("EXPERIMENTS.md", table2, label, pct));
    }
    let visa = format!(
        "{:.3} at {:.2}",
        pp("SYCL (Select + vISA)"),
        inv.convergence(ConfigKind::SyclSelectPlusVisa)
    );
    let headline = [
        ("PP(SYCL Select+vISA) = 0.96 at convergence ≈ 1", visa),
        (
            "PP(SYCL Select+Memory) = 0.91",
            format!("{:.3}", pp("SYCL (Select + Memory)")),
        ),
        (
            "PP(single-source local-memory SYCL) = 0.79",
            format!("{:.3}", pp("SYCL (Memory)")),
        ),
    ];
    for (key, value) in headline {
        cells.push(("README.md", &readme, key.to_string(), value));
    }
    let cpu = cpu_row(&problem, &data);
    let extensions = section(&experiments, "## Extension experiments");
    let mut cpu_cells: Vec<(String, String)> = cpu
        .run
        .by_variant
        .iter()
        .map(|(v, timers)| {
            let total = format!("{:.4e} s", total_seconds(timers));
            (format!("CPU total, {v}"), total)
        })
        .collect();
    cpu_cells.extend([
        ("PP on the 3 GPUs".into(), format!("{:.3}", cpu.pp_gpus)),
        (
            "PP with the CPU added".into(),
            format!("{:.3}", cpu.pp_gpus_and_cpu),
        ),
        (
            "Atomic share of lane-cycles, CPU".into(),
            format!("{:.1}%", cpu.atomic_share_cpu * 100.0),
        ),
        (
            "Atomic share of lane-cycles, Frontier".into(),
            format!("{:.1}%", cpu.atomic_share_frontier * 100.0),
        ),
    ]);
    for (key, value) in cpu_cells {
        cells.push(("EXPERIMENTS.md", extensions, key, value));
    }

    let stale: Vec<String> = cells
        .iter()
        .filter_map(|(doc, text, key, want)| match row(text, key) {
            Some(line) if last_cell(line) == *want => None,
            Some(line) => {
                let head = &line.trim_end().trim_end_matches('|');
                let head = &head[..head.rfind('|').unwrap()];
                Some(format!("{doc}: {head}| {want} |"))
            }
            None => Some(format!("{doc}: missing row | {key} | … | {want} |")),
        })
        .collect();
    assert!(
        stale.is_empty(),
        "the evaluation docs quote stale numbers; paste these rows:\n{}",
        stale.join("\n")
    );
}

/// Name bytes and seconds bits of a timer map, one word each.
fn timer_words(timers: &BTreeMap<String, f64>, words: &mut Vec<u64>) {
    for (name, seconds) in timers {
        words.extend(name.bytes().map(u64::from));
        words.push(seconds.to_bits());
    }
}

/// The metered sweep at the benchmark's smoke size is pinned bit for
/// bit: every timer of every build, folded as the `pp_sweep` benchmark
/// checksum folds them (FNV-1a over each word's little-endian bytes),
/// and the Σ of modeled seconds. A change that moves the modeled clock
/// (a count, a register peak, a cost model) fails here, not only in the
/// benchmark.
#[test]
fn the_metered_sweep_is_pinned() {
    let data = portability_data(&workload(4, 0xC0FFEE));
    let mut words = Vec::new();
    for run in &data.runs {
        for (variant, timers) in &run.by_variant {
            words.extend(variant.bytes().map(u64::from));
            timer_words(timers, &mut words);
        }
    }
    for timers in data
        .best
        .iter()
        .chain([&data.cuda_polaris, &data.hip_frontier])
    {
        timer_words(timers, &mut words);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let checksum = hacc_tune::fnv1a(&bytes);
    let modeled: f64 = data
        .runs
        .iter()
        .flat_map(|r| r.by_variant.values())
        .map(total_seconds)
        .sum();
    assert_eq!(
        checksum, 0xb584_f073_686a_1d4b,
        "sweep checksum {checksum:#x}"
    );
    assert_eq!(modeled, 1.0912092791513393e-5, "Σ modeled seconds");
}
