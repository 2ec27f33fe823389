//! Assembly of every table and figure in the paper's evaluation.
//!
//! Each `figN`/`tableN` function returns the rendered text plus (where
//! useful) the raw numbers, so the `figures` binary, the repo benchmark
//! and EXPERIMENTS.md all draw from the same code paths. Every build the
//! Figure 12 sweep ([`portability_data`]) measures is read from it, so
//! one invocation measures each build once and every PP printed is
//! Figure 12's rule.

use crate::experiments::{
    best_per_kernel, kernel_seconds, prepare, run_all_variants, total_seconds, ArchRun,
    BenchProblem, VariantChoice,
};
use hacc_kernels::Variant;
use hacc_metrics::{
    app_efficiency, cascade_plot, grouped_bars, navigation_chart, performance_portability,
    AppRecord, ConfigKind, Mechanism, RepoInventory,
};
use hacc_telemetry::Recorder;
use serde::Serialize;
use std::collections::BTreeMap;
use sycl_sim::{CostModel, GpuArch, GrfMode, InstrClass, Toolchain};

/// Table 1: hardware configuration of the three systems.
pub fn table1() -> String {
    let mut out =
        String::from("== Table 1: Hardware configuration for one node of each test system ==\n");
    out.push_str(
        "System    CPU                                    Sockets  GPU                               #GPUs  FP32/GPU\n",
    );
    for a in GpuArch::all() {
        out.push_str(&format!(
            "{:<9} {:<38} {:>7}  {:<33} {:>5}  {:>6.1} TF\n",
            a.system, a.cpu, a.sockets, a.gpu_name, a.gpus_per_node, a.fp32_peak_tflops
        ));
    }
    out
}

/// Figure 2 data: per system, (build label, total kernel seconds).
fn fig2_data(problem: &BenchProblem, data: &PortabilityData) -> Vec<(String, Vec<(String, f64)>)> {
    let mut out = Vec::new();
    for (run, best) in data.runs.iter().zip(&data.best) {
        let arch = &run.arch;
        // The builds the sweep does not hold: CUDA/HIP, then the initial
        // Select build at the system's native sub-group size.
        let (sg_size, mut builds) = match arch.id {
            "a100" => (
                32,
                vec![
                    ("CUDA", Toolchain::cuda()),
                    ("CUDA (fast math)", Toolchain::cuda_fast_math()),
                ],
            ),
            "mi250x" => (
                64,
                vec![
                    ("HIP", Toolchain::hip()),
                    ("HIP (fast math)", Toolchain::hip_fast_math()),
                ],
            ),
            _ => (32, Vec::new()),
        };
        builds.push(("SYCL (initial)", Toolchain::sycl()));
        let initial = VariantChoice {
            variant: Variant::Select,
            sg_size,
            grf: GrfMode::Default,
        };
        let mut rows: Vec<(String, f64)> = builds
            .into_iter()
            .map(|(label, tc)| {
                let secs = kernel_seconds(arch, tc, initial, problem);
                (label.to_string(), total_seconds(&secs))
            })
            .collect();
        if arch.id == "pvc" {
            // Optimized SYCL on Aurora: per-kernel best over all variants
            // at the paper's tuned launch parameters (§5.4, Figure 2's
            // final bar) — the sweep's best, with no CUDA/HIP build to
            // merge on Aurora.
            rows.push(("SYCL (optimized)".into(), total_seconds(best)));
        }
        out.push((arch.system.to_string(), rows));
    }
    out
}

/// Figure 2 rendered.
pub fn fig2(problem: &BenchProblem, data: &PortabilityData) -> String {
    let data = fig2_data(problem, data);
    let max = data
        .iter()
        .flat_map(|(_, rows)| rows.iter().map(|(_, v)| *v))
        .fold(0.0f64, f64::max);
    let mut out = String::from(
        "== Figure 2: initial performance of the migrated SYCL code (total GPU kernel seconds; lower is better) ==\n",
    );
    for (system, rows) in &data {
        out.push_str(&format!("{system}\n"));
        for (label, v) in rows {
            let n = ((v / max) * 40.0).round() as usize;
            out.push_str(&format!(
                "  {label:<18} |{}{}| {v:.4e} s\n",
                "█".repeat(n),
                " ".repeat(40 - n)
            ));
        }
    }
    out
}

/// Figures 9, 10, 11: application efficiency of SYCL variants on one
/// system — per timer, each variant's `best/this` — from its row of
/// the sweep.
pub fn fig_variants(run: &ArchRun) -> String {
    let best = best_per_kernel(run);
    let series: Vec<String> = run.by_variant.keys().map(|s| s.to_string()).collect();
    let groups: Vec<(String, Vec<f64>)> = hacc_kernels::HYDRO_TIMERS
        .iter()
        .map(|&t| {
            let effs = run
                .by_variant
                .values()
                .map(|m| app_efficiency(m[t], best[t]))
                .collect();
            (t.to_string(), effs)
        })
        .collect();
    let title = format!(
        "Application efficiency of SYCL variants on {} ({})",
        run.arch.system, run.arch.gpu_name
    );
    grouped_bars(&title, &series, &groups, false)
}

/// Everything needed for Figures 12–13: per-platform variant runs and
/// the CUDA/HIP baselines.
pub struct PortabilityData {
    /// Per-platform variant runs (Aurora, Polaris, Frontier order).
    pub runs: Vec<ArchRun>,
    /// Per-platform per-kernel best seconds, including CUDA/HIP builds.
    pub best: Vec<BTreeMap<String, f64>>,
    /// CUDA (fast-math) timer seconds on Polaris.
    pub cuda_polaris: BTreeMap<String, f64>,
    /// HIP (fast-math) timer seconds on Frontier.
    pub hip_frontier: BTreeMap<String, f64>,
}

/// Runs the portability sweep.
pub fn portability_data(problem: &BenchProblem) -> PortabilityData {
    let archs = GpuArch::all();
    let runs: Vec<ArchRun> = archs.iter().map(|a| run_all_variants(a, problem)).collect();
    let cuda_polaris = kernel_seconds(
        &archs[1],
        Toolchain::cuda_fast_math(),
        VariantChoice::paper_default(&archs[1], Variant::Select),
        problem,
    );
    let hip_frontier = kernel_seconds(
        &archs[2],
        Toolchain::hip_fast_math(),
        VariantChoice::paper_default(&archs[2], Variant::Select),
        problem,
    );
    // Per-platform best over every language and variant ("irrespective of
    // source language or compiler", §6.1).
    let mut best: Vec<BTreeMap<String, f64>> = runs.iter().map(best_per_kernel).collect();
    for (k, &v) in &cuda_polaris {
        best[1]
            .entry(k.clone())
            .and_modify(|b| *b = b.min(v))
            .or_insert(v);
    }
    for (k, &v) in &hip_frontier {
        best[2]
            .entry(k.clone())
            .and_modify(|b| *b = b.min(v))
            .or_insert(v);
    }
    PortabilityData {
        runs,
        best,
        cuda_polaris,
        hip_frontier,
    }
}

fn efficiency_of(times: &BTreeMap<String, f64>, best: &BTreeMap<String, f64>) -> f64 {
    app_efficiency(total_seconds(times), best.values().sum())
}

/// Per-platform timer seconds of one configuration, `None` when the
/// platform is unsupported.
fn config_times<'a>(
    data: &'a PortabilityData,
    config: ConfigKind,
) -> Vec<Option<&'a BTreeMap<String, f64>>> {
    use hacc_metrics::{ConfigKind::*, Platform};
    let variant_times = |pi: usize, v: Variant| -> &'a BTreeMap<String, f64> {
        let label = v.label();
        data.runs[pi]
            .by_variant
            .get(label)
            .unwrap_or_else(|| panic!("variant {label} missing on platform {pi}"))
    };
    // Best local-memory variant per platform (the paper's "Memory"
    // specialization picks whichever granularity wins).
    let memory_best = |pi: usize| -> &'a BTreeMap<String, f64> {
        let m32 = variant_times(pi, Variant::Memory32);
        let mob = variant_times(pi, Variant::MemoryObject);
        if total_seconds(m32) <= total_seconds(mob) {
            m32
        } else {
            mob
        }
    };
    // `runs` is in `ALL_PLATFORMS` order.
    hacc_metrics::ALL_PLATFORMS
        .into_iter()
        .enumerate()
        .map(|(pi, p)| {
            config.build_for(p)?;
            Some(match (config, p) {
                (CudaHip | Unified, Platform::Polaris) => &data.cuda_polaris,
                (CudaHip | Unified, Platform::Frontier) => &data.hip_frontier,
                (SyclUniform(Mechanism::Memory), _) => memory_best(pi),
                (Unified | SyclSelectPlusMemory, Platform::Aurora) => memory_best(pi),
                (SyclUniform(Mechanism::Broadcast), _) => variant_times(pi, Variant::Broadcast),
                (SyclUniform(Mechanism::Visa), _) => variant_times(pi, Variant::Visa),
                (SyclSelectPlusVisa | VisaOnly, Platform::Aurora) => {
                    variant_times(pi, Variant::Visa)
                }
                (SyclUniform(Mechanism::Select) | SyclSelectPlusMemory | SyclSelectPlusVisa, _) => {
                    variant_times(pi, Variant::Select)
                }
                _ => unreachable!("unsupported platforms filtered by build_for"),
            })
        })
        .collect()
}

/// The configurations of Figures 12–13.
pub fn all_configs() -> Vec<ConfigKind> {
    vec![
        ConfigKind::CudaHip,
        ConfigKind::SyclUniform(Mechanism::Select),
        ConfigKind::SyclUniform(Mechanism::Memory),
        ConfigKind::SyclUniform(Mechanism::Broadcast),
        ConfigKind::SyclSelectPlusMemory,
        ConfigKind::SyclSelectPlusVisa,
        ConfigKind::VisaOnly,
        ConfigKind::Unified,
    ]
}

/// Builds the Figure 12 application records.
pub fn fig12_records(data: &PortabilityData) -> Vec<AppRecord> {
    let platforms: Vec<String> = GpuArch::all()
        .iter()
        .map(|a| a.system.to_string())
        .collect();
    all_configs()
        .into_iter()
        .map(|config| {
            let times = config_times(data, config);
            let efficiencies = times
                .iter()
                .enumerate()
                .map(|(pi, t)| t.map(|t| efficiency_of(t, &data.best[pi])))
                .collect();
            AppRecord {
                name: config.label(),
                platforms: platforms.clone(),
                efficiencies,
            }
        })
        .collect()
}

/// Figure 12 rendered.
pub fn fig12(data: &PortabilityData) -> (String, Vec<AppRecord>) {
    let records = fig12_records(data);
    (
        cascade_plot(
            "Figure 12: application efficiency and performance portability (cascade)",
            &records,
        ),
        records,
    )
}

/// Figure 13 rendered: PP vs code convergence, with convergence measured
/// from this repository's sources by the mini-CBI.
pub fn fig13(records: &[AppRecord], inventory: &RepoInventory) -> String {
    navigation_chart(
        "Figure 13: performance portability vs code convergence (navigation chart)",
        &fig13_points(records, inventory),
    )
}

/// Figure 13's points: (configuration, convergence, PP).
fn fig13_points(records: &[AppRecord], inventory: &RepoInventory) -> Vec<(String, f64, f64)> {
    all_configs()
        .iter()
        .zip(records)
        .map(|(config, rec)| (rec.name.clone(), inventory.convergence(*config), rec.pp()))
        .collect()
}

/// Table 2 rendered: measured SLOC breakdown.
pub fn table2(inventory: &RepoInventory) -> String {
    let mut out = String::from("== Table 2: breakdown of lines of code across variants (measured from this repository) ==\n");
    out.push_str("Implementations        #SLOC   %SLOC\n");
    for (label, sloc, pct) in inventory.table2() {
        out.push_str(&format!("{label:<22} {sloc:>6}  {pct:>6.2}\n"));
    }
    out
}

/// Ablation: sub-group size and GRF mode on Aurora (§5.2's two levers).
pub fn ablation_registers(problem: &BenchProblem) -> String {
    let arch = GpuArch::aurora();
    let mut out = String::from(
        "== Ablation: register levers on Aurora (sub-group size × GRF mode), Select variant total seconds ==\n",
    );
    for sg in [16usize, 32] {
        for grf in [GrfMode::Default, GrfMode::Large] {
            let secs = kernel_seconds(
                &arch,
                Toolchain::sycl(),
                VariantChoice {
                    variant: Variant::Select,
                    sg_size: sg,
                    grf,
                },
                problem,
            );
            out.push_str(&format!(
                "  sg={sg:<3} grf={grf:?}:  {:.4e} s\n",
                total_seconds(&secs)
            ));
        }
    }
    out
}

/// Ablation: fast math on/off per toolchain (§4.4's Figure-2 mechanism).
/// The fast-math builds are the sweep's CUDA/HIP baselines; the precise
/// ones are measured at the same launch.
pub fn ablation_fast_math(problem: &BenchProblem, data: &PortabilityData) -> String {
    let mut out = String::from("== Ablation: fast-math flag (total kernel seconds) ==\n");
    let cuda = (
        "CUDA on Polaris",
        GpuArch::polaris(),
        Toolchain::cuda(),
        &data.cuda_polaris,
    );
    let hip = (
        "HIP on Frontier",
        GpuArch::frontier(),
        Toolchain::hip(),
        &data.hip_frontier,
    );
    for (label, arch, off, fast) in [cuda, hip] {
        let choice = VariantChoice::paper_default(&arch, Variant::Select);
        let t_off = total_seconds(&kernel_seconds(&arch, off, choice, problem));
        let t_on = total_seconds(fast);
        out.push_str(&format!(
            "  {label:<18} precise {t_off:.4e} s → fast {t_on:.4e} s  ({:.2}×)\n",
            t_off / t_on
        ));
    }
    out
}

/// Ablation: half-warp exchange granularity (Memory 32-bit vs Object),
/// per platform, from the sweep.
pub fn ablation_memory_granularity(data: &PortabilityData) -> String {
    let mut out =
        String::from("== Ablation: local-memory exchange granularity (total kernel seconds) ==\n");
    for run in &data.runs {
        let t32 = total_seconds(&run.by_variant[Variant::Memory32.label()]);
        let tob = total_seconds(&run.by_variant[Variant::MemoryObject.label()]);
        out.push_str(&format!(
            "  {:<9} 32-bit {t32:.4e} s   object {tob:.4e} s   (object/32-bit = {:.2})\n",
            run.arch.system,
            tob / t32
        ));
    }
    out
}

/// The §7.3 extension: the CPU joins the platform set of the paper's
/// best configuration, `SYCL (Select + vISA)` (Select on the CPU),
/// under Figure 12's rule — efficiency against the platform's
/// per-kernel best measured build.
pub struct CpuRow {
    /// Every variant measured on the CPU.
    pub run: ArchRun,
    /// The configuration's efficiency on the CPU.
    pub efficiency: f64,
    /// The configuration's PP on the three GPUs (Figure 12's).
    pub pp_gpus: f64,
    /// The configuration's PP with the CPU added.
    pub pp_gpus_and_cpu: f64,
    /// Atomic share of the Select hydro step's lane-cycles on the CPU.
    pub atomic_share_cpu: f64,
    /// The same on Frontier.
    pub atomic_share_frontier: f64,
}

/// Fraction of pre-multiplier lane-cycles in atomic classes for the
/// Select hydro step on an architecture — the measured §7.3 mechanism
/// (the CPU emulates every float atomic with a compare-exchange loop).
fn atomic_share_of(arch: &GpuArch, problem: &BenchProblem) -> f64 {
    let cost = CostModel::new(arch.clone());
    let choice = VariantChoice {
        variant: Variant::Select,
        sg_size: if arch.supports_sg_size(16) {
            16
        } else {
            arch.sg_sizes[0]
        },
        grf: GrfMode::Default,
    };
    let prepared = prepare(
        arch,
        Toolchain::sycl(),
        Variant::Select,
        choice.sg_size,
        problem,
        None,
    );
    let reports = prepared.hydro(&prepared.upload(), choice.launch(arch), &Recorder::new());
    let (mut atomic, mut total) = (0.0, 0.0);
    for r in &reports {
        let est = cost.estimate(&r.report);
        atomic += est.lane_cycles[InstrClass::AtomicNative as usize]
            + est.lane_cycles[InstrClass::AtomicCas as usize];
        total += est.total_lane_cycles();
    }
    atomic / total
}

/// Measures the §7.3 row: every variant on the CPU, plus the atomic
/// shares on the CPU and on Frontier.
pub fn cpu_row(problem: &BenchProblem, data: &PortabilityData) -> CpuRow {
    let cpu = GpuArch::cpu_host();
    let run = run_all_variants(&cpu, problem);
    let select = &run.by_variant[Variant::Select.label()];
    let efficiency = efficiency_of(select, &best_per_kernel(&run));
    let config = ConfigKind::SyclSelectPlusVisa.label();
    let mut effs = fig12_records(data)
        .into_iter()
        .find(|r| r.name == config)
        .expect("Figure 12 scores SYCL (Select + vISA)")
        .efficiencies;
    let pp_gpus = performance_portability(&effs);
    effs.push(Some(efficiency));
    CpuRow {
        efficiency,
        pp_gpus,
        pp_gpus_and_cpu: performance_portability(&effs),
        atomic_share_cpu: atomic_share_of(&cpu, problem),
        atomic_share_frontier: atomic_share_of(&GpuArch::frontier(), problem),
        run,
    }
}

/// The §7.3 row rendered.
pub fn cpu(row: &CpuRow) -> String {
    let mut out =
        String::from("== Extension (§7.3): SYCL on the CPU through the OpenCL backend ==\n");
    let cpu_name = row.run.arch.gpu_name;
    out.push_str(&format!("total kernel seconds on {cpu_name}:\n"));
    for (variant, timers) in &row.run.by_variant {
        let total = total_seconds(timers);
        out.push_str(&format!("  {variant:<16} {total:.4e} s\n"));
    }
    out.push_str(&format!(
        "atomic share of lane-cycles: CPU {:.1}% vs Frontier {:.1}% — the paper's \
         \"primarily due to the way the code uses atomics\"\n",
        row.atomic_share_cpu * 100.0,
        row.atomic_share_frontier * 100.0
    ));
    out.push_str(&format!(
        "PP of SYCL (Select + vISA) under Figure 12's rule: {:.3} on the 3 GPUs → {:.3} with \
         the CPU added (CPU efficiency {:.3})\n",
        row.pp_gpus, row.pp_gpus_and_cpu, row.efficiency
    ));
    out
}

/// Machine-readable dump of the full evaluation (for plotting scripts
/// and regression tracking).
#[derive(Serialize)]
pub struct EvaluationDump {
    /// Version of the dump layout (shared with the telemetry schema).
    pub schema_version: u32,
    /// Per-system Figure 2 bars: (build label, seconds).
    pub fig2: Vec<(String, Vec<(String, f64)>)>,
    /// Per-system per-variant per-timer seconds (Figures 9–11 raw data).
    pub variant_seconds: BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>>,
    /// Figure 12 records (efficiencies + platforms).
    pub fig12: Vec<AppRecord>,
    /// Figure 13 points: (configuration, convergence, PP).
    pub fig13: Vec<(String, f64, f64)>,
    /// Table 2 rows: (label, SLOC, percent).
    pub table2: Vec<(String, u32, f64)>,
}

/// Builds the JSON-ready dump from the sweep (measuring Figure 2's
/// builds that the sweep does not hold).
pub fn evaluation_dump(
    problem: &BenchProblem,
    data: &PortabilityData,
    inventory: &RepoInventory,
) -> EvaluationDump {
    let records = fig12_records(data);
    let variant_seconds = data
        .runs
        .iter()
        .map(|run| {
            let per_variant = run
                .by_variant
                .iter()
                .map(|(v, t)| (v.to_string(), t.clone()));
            (run.arch.system.to_string(), per_variant.collect())
        })
        .collect();
    EvaluationDump {
        schema_version: hacc_telemetry::SCHEMA_VERSION,
        fig2: fig2_data(problem, data),
        variant_seconds,
        fig13: fig13_points(&records, inventory),
        fig12: records,
        table2: inventory.table2(),
    }
}

#[cfg(test)]
mod dump_tests {
    use super::*;

    #[test]
    fn evaluation_dump_is_schema_versioned() {
        let dump = EvaluationDump {
            schema_version: hacc_telemetry::SCHEMA_VERSION,
            fig2: Vec::new(),
            variant_seconds: BTreeMap::new(),
            fig12: Vec::new(),
            fig13: Vec::new(),
            table2: Vec::new(),
        };
        let text = serde_json::to_string(&dump).unwrap();
        assert!(
            text.contains(&format!(
                "\"schema_version\":{}",
                hacc_telemetry::SCHEMA_VERSION
            )),
            "dump must carry the schema version: {text}"
        );
    }
}
