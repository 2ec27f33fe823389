//! Assembly of every table and figure in the paper's evaluation.
//!
//! Each `figN`/`tableN` function runs the necessary experiments and
//! returns the rendered text plus (where useful) the raw numbers, so the
//! `figures` binary, the repo benchmark and EXPERIMENTS.md all draw from
//! the same code paths.

use crate::experiments::{
    best_per_kernel, kernel_seconds, run_all_variants, total_seconds, ArchRun, BenchProblem,
    VariantChoice,
};
use hacc_kernels::Variant;
use hacc_metrics::{
    cascade_plot, grouped_bars, navigation_chart, AppRecord, ConfigKind, Mechanism, RepoInventory,
};
use serde::Serialize;
use std::collections::BTreeMap;
use sycl_sim::{GpuArch, GrfMode, Toolchain};

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

/// The per-system builds compared in Figure 2.
fn fig2_builds(arch: &GpuArch) -> Vec<(String, Toolchain, VariantChoice)> {
    let initial = |sg: usize| VariantChoice {
        variant: Variant::Select,
        sg_size: sg,
        grf: GrfMode::Default,
    };
    match arch.id {
        "a100" => vec![
            ("CUDA".into(), Toolchain::cuda(), initial(32)),
            (
                "CUDA (fast math)".into(),
                Toolchain::cuda_fast_math(),
                initial(32),
            ),
            ("SYCL (initial)".into(), Toolchain::sycl(), initial(32)),
        ],
        "mi250x" => vec![
            ("HIP".into(), Toolchain::hip(), initial(64)),
            (
                "HIP (fast math)".into(),
                Toolchain::hip_fast_math(),
                initial(64),
            ),
            ("SYCL (initial)".into(), Toolchain::sycl(), initial(64)),
        ],
        _ => vec![
            ("SYCL (initial)".into(), Toolchain::sycl(), initial(32)),
            // The optimized entry is handled separately (per-kernel best).
        ],
    }
}

/// Figure 2 data: per system, (build label, total kernel seconds).
pub fn fig2_data(problem: &BenchProblem) -> Vec<(String, Vec<(String, f64)>)> {
    let mut out = Vec::new();
    for arch in GpuArch::all() {
        let mut rows = Vec::new();
        for (label, tc, choice) in fig2_builds(&arch) {
            let secs = kernel_seconds(&arch, tc, choice, problem);
            rows.push((label, total_seconds(&secs)));
        }
        if arch.id == "pvc" {
            // Optimized SYCL on Aurora: per-kernel best over all variants
            // at the paper's tuned launch parameters (§5.4, Figure 2's
            // final bar).
            let run = run_all_variants(&arch, problem);
            let best = best_per_kernel(&run);
            rows.push(("SYCL (optimized)".into(), total_seconds(&best)));
        }
        out.push((arch.system.to_string(), rows));
    }
    out
}

/// Figure 2 rendered.
pub fn fig2(problem: &BenchProblem) -> String {
    let data = fig2_data(problem);
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

/// Application-efficiency table for one architecture (Figures 9–11):
/// per timer, each variant's `best/this`.
pub fn variant_efficiencies(run: &ArchRun) -> Vec<(String, Vec<(String, f64)>)> {
    let timers: Vec<String> = hacc_kernels::HYDRO_TIMERS
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    for t in &timers {
        let best = run
            .by_variant
            .values()
            .filter_map(|m| m.get(t))
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let mut row = Vec::new();
        for (variant, timers_map) in &run.by_variant {
            let v = timers_map.get(t).copied().unwrap_or(f64::INFINITY);
            row.push((variant.to_string(), best / v));
        }
        out.push((t.clone(), row));
    }
    out
}

/// Figures 9, 10, 11: application efficiency of SYCL variants on one
/// system.
pub fn fig_variants(arch: &GpuArch, problem: &BenchProblem) -> (String, ArchRun) {
    let run = run_all_variants(arch, problem);
    let eff = variant_efficiencies(&run);
    let series: Vec<String> = run.by_variant.keys().map(|s| s.to_string()).collect();
    let groups: Vec<(String, Vec<f64>)> = eff
        .iter()
        .map(|(t, row)| {
            let mut by_series = Vec::new();
            for s in &series {
                let v = row
                    .iter()
                    .find(|(n, _)| n == s)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
                by_series.push(v);
            }
            (t.clone(), by_series)
        })
        .collect();
    let title = format!(
        "Application efficiency of SYCL variants on {} ({})",
        arch.system, arch.gpu_name
    );
    (grouped_bars(&title, &series, &groups, false), run)
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
    let t = total_seconds(times);
    let b: f64 = best.values().sum();
    (b / t).min(1.0)
}

/// Per-platform timer seconds of one configuration, `None` when the
/// platform is unsupported.
fn config_times<'a>(
    data: &'a PortabilityData,
    config: ConfigKind,
) -> Vec<Option<&'a BTreeMap<String, f64>>> {
    use hacc_metrics::Platform;
    let platform_index = |p: Platform| match p {
        Platform::Aurora => 0usize,
        Platform::Polaris => 1,
        Platform::Frontier => 2,
    };
    let variant_times = |pi: usize, label: &str| -> &'a BTreeMap<String, f64> {
        data.runs[pi]
            .by_variant
            .get(label)
            .unwrap_or_else(|| panic!("variant {label} missing on platform {pi}"))
    };
    // Best local-memory variant per platform (the paper's "Memory"
    // specialization picks whichever granularity wins).
    let memory_best = |pi: usize| -> &'a BTreeMap<String, f64> {
        let m32 = variant_times(pi, Variant::Memory32.label());
        let mob = variant_times(pi, Variant::MemoryObject.label());
        if total_seconds(m32) <= total_seconds(mob) {
            m32
        } else {
            mob
        }
    };
    hacc_metrics::ALL_PLATFORMS
        .iter()
        .map(|&p| {
            let pi = platform_index(p);
            let build = config.build_for(p)?;
            Some(match (config, p) {
                (ConfigKind::CudaHip, Platform::Polaris) => &data.cuda_polaris,
                (ConfigKind::CudaHip, Platform::Frontier) => &data.hip_frontier,
                (ConfigKind::Unified, Platform::Polaris) => &data.cuda_polaris,
                (ConfigKind::Unified, Platform::Frontier) => &data.hip_frontier,
                (ConfigKind::Unified, Platform::Aurora) => memory_best(pi),
                (ConfigKind::SyclUniform(m), _) => match m {
                    Mechanism::Select => variant_times(pi, Variant::Select.label()),
                    Mechanism::Broadcast => variant_times(pi, Variant::Broadcast.label()),
                    Mechanism::Visa => variant_times(pi, Variant::Visa.label()),
                    Mechanism::Memory => memory_best(pi),
                },
                (ConfigKind::SyclSelectPlusMemory, Platform::Aurora) => memory_best(pi),
                (ConfigKind::SyclSelectPlusMemory, _) => variant_times(pi, Variant::Select.label()),
                (ConfigKind::SyclSelectPlusVisa, Platform::Aurora) => {
                    variant_times(pi, Variant::Visa.label())
                }
                (ConfigKind::SyclSelectPlusVisa, _) => variant_times(pi, Variant::Select.label()),
                (ConfigKind::VisaOnly, Platform::Aurora) => {
                    variant_times(pi, Variant::Visa.label())
                }
                _ => {
                    let _ = build;
                    unreachable!("unsupported platforms filtered by build_for")
                }
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
    let points: Vec<(String, f64, f64)> = all_configs()
        .iter()
        .zip(records)
        .map(|(config, rec)| (rec.name.clone(), inventory.convergence(*config), rec.pp()))
        .collect();
    navigation_chart(
        "Figure 13: performance portability vs code convergence (navigation chart)",
        &points,
    )
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
pub fn ablation_fast_math(problem: &BenchProblem) -> String {
    let mut out = String::from("== Ablation: fast-math flag (total kernel seconds) ==\n");
    let cases = [
        (
            "CUDA on Polaris",
            GpuArch::polaris(),
            Toolchain::cuda(),
            Toolchain::cuda_fast_math(),
        ),
        (
            "HIP on Frontier",
            GpuArch::frontier(),
            Toolchain::hip(),
            Toolchain::hip_fast_math(),
        ),
    ];
    for (label, arch, off, on) in cases {
        let choice = VariantChoice::paper_default(&arch, Variant::Select);
        let t_off = total_seconds(&kernel_seconds(&arch, off, choice, problem));
        let t_on = total_seconds(&kernel_seconds(&arch, on, choice, problem));
        out.push_str(&format!(
            "  {label:<18} precise {t_off:.4e} s → fast {t_on:.4e} s  ({:.2}×)\n",
            t_off / t_on
        ));
    }
    out
}

/// Ablation: half-warp exchange granularity (Memory 32-bit vs Object),
/// per platform.
pub fn ablation_memory_granularity(problem: &BenchProblem) -> String {
    let mut out =
        String::from("== Ablation: local-memory exchange granularity (total kernel seconds) ==\n");
    for arch in GpuArch::all() {
        let t32 = total_seconds(&kernel_seconds(
            &arch,
            Toolchain::sycl(),
            VariantChoice::paper_default(&arch, Variant::Memory32),
            problem,
        ));
        let tob = total_seconds(&kernel_seconds(
            &arch,
            Toolchain::sycl(),
            VariantChoice::paper_default(&arch, Variant::MemoryObject),
            problem,
        ));
        out.push_str(&format!(
            "  {:<9} 32-bit {t32:.4e} s   object {tob:.4e} s   (object/32-bit = {:.2})\n",
            arch.system,
            tob / t32
        ));
    }
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

/// Builds the JSON-ready dump (runs the full sweep).
pub fn evaluation_dump(problem: &BenchProblem, inventory: &RepoInventory) -> EvaluationDump {
    let data = portability_data(problem);
    let records = fig12_records(&data);
    let fig13_points: Vec<(String, f64, f64)> = all_configs()
        .iter()
        .zip(&records)
        .map(|(c, r)| (r.name.clone(), inventory.convergence(*c), r.pp()))
        .collect();
    let mut variant_seconds = BTreeMap::new();
    for run in &data.runs {
        let mut per_variant = BTreeMap::new();
        for (v, timers) in &run.by_variant {
            per_variant.insert(v.to_string(), timers.clone());
        }
        variant_seconds.insert(run.arch.system.to_string(), per_variant);
    }
    EvaluationDump {
        schema_version: hacc_telemetry::SCHEMA_VERSION,
        fig2: fig2_data(problem),
        variant_seconds,
        fig12: records,
        fig13: fig13_points,
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
