//! The §7.3 extension experiment: running the SYCL kernels on a CPU
//! through the OpenCL backend.
//!
//! The paper tested the SYCL code for correctness on CPUs and predicted
//! that performance portability to CPUs would suffer "primarily due to
//! the way the code uses atomics". This experiment quantifies both
//! claims on the simulated CPU device: correctness (verified by the
//! equivalence tests) and the atomic-dominated cost profile.

use crate::experiments::{
    kernel_seconds, prepare, total_seconds, variants_for, BenchProblem, VariantChoice,
};
use hacc_kernels::Variant;
use hacc_metrics::performance_portability;
use hacc_telemetry::Recorder;
use std::collections::BTreeMap;
use sycl_sim::{CostModel, GpuArch, GrfMode, InstrClass, Toolchain};

/// Runs the hydro kernels on the CPU backend, returning per-timer
/// seconds and the fraction of lane-cycles spent in (CAS-emulated)
/// atomics per timer.
pub fn cpu_profile(problem: &BenchProblem) -> (BTreeMap<String, f64>, f64) {
    let cpu = GpuArch::cpu_host();
    // The Appendix-A table clamps to the CPU's AVX-512 sub-groups of 16.
    let choice = VariantChoice::paper_default(&cpu, Variant::Select);
    let secs = kernel_seconds(&cpu, Toolchain::sycl(), choice, problem);
    // Re-run one kernel to read the class breakdown (atomic share).
    let atomic_share = atomic_share_of(&cpu, problem);
    (secs, atomic_share)
}

/// Fraction of pre-multiplier lane-cycles in atomic classes for the
/// Select variant on an architecture.
pub fn atomic_share_of(arch: &GpuArch, problem: &BenchProblem) -> f64 {
    let cost = CostModel::new(arch.clone());
    let choice = VariantChoice {
        variant: Variant::Select,
        sg_size: if arch.supports_sg_size(16) {
            16
        } else {
            *arch.sg_sizes.first().unwrap()
        },
        grf: GrfMode::Default,
    };
    let prepared = prepare(
        arch,
        Toolchain::sycl(),
        choice.variant,
        choice.sg_size,
        problem,
        None,
    );
    let reports = prepared.hydro(&prepared.upload(), choice.launch(arch), &Recorder::new());
    let mut atomic = 0.0;
    let mut total = 0.0;
    for r in &reports {
        let est = cost.estimate(&r.report);
        atomic += est.lane_cycles[InstrClass::AtomicNative as usize]
            + est.lane_cycles[InstrClass::AtomicCas as usize];
        total += est.total_lane_cycles();
    }
    atomic / total
}

/// PP of the paper's best configuration — SYCL (Select + vISA) — when
/// the CPU joins the platform set. On each platform the configuration's
/// efficiency is measured against that platform's best fixed build; on
/// the CPU the configuration falls back to Select (no vISA), where the
/// CAS-emulated atomics cost it.
pub fn pp_with_cpu(problem: &BenchProblem) -> (f64, f64) {
    let mut effs_gpu_only = Vec::new();
    let mut effs_with_cpu = Vec::new();
    for arch in GpuArch::all_with_cpu() {
        let sg = *arch.sg_sizes.last().unwrap();
        // The config's variant on this platform: vISA on Intel GPUs,
        // Select elsewhere (including the CPU).
        let config_variant = if arch.supports_visa {
            Variant::Visa
        } else {
            Variant::Select
        };
        let mut config_total = 0.0;
        let mut best_total = f64::INFINITY;
        for v in variants_for(&arch) {
            let choice = VariantChoice {
                variant: v,
                sg_size: sg,
                grf: GrfMode::Default,
            };
            let t = total_seconds(&kernel_seconds(&arch, v.toolchain(), choice, problem));
            if v == config_variant {
                config_total = t;
            }
            best_total = best_total.min(t);
        }
        let eff = if arch.id == "cpu" {
            // No existing variant avoids the CAS-emulated atomics; the
            // achievable-best reference on the CPU is the atomics-free
            // restructure the paper says a tuned CPU port needs (§7.3).
            let share = atomic_share_of(&arch, problem);
            Some((best_total.min(config_total * (1.0 - share))) / config_total)
        } else {
            Some(best_total / config_total)
        };
        if arch.id != "cpu" {
            effs_gpu_only.push(eff);
        }
        effs_with_cpu.push(eff);
    }
    (
        performance_portability(&effs_gpu_only),
        performance_portability(&effs_with_cpu),
    )
}

/// Renders the CPU-backend report.
pub fn render(problem: &BenchProblem) -> String {
    let (secs, atomic_share) = cpu_profile(problem);
    let gpu_share = atomic_share_of(&GpuArch::frontier(), problem);
    let (pp_gpu, pp_cpu) = pp_with_cpu(problem);
    let mut out =
        String::from("== Extension (§7.3): SYCL on the CPU through the OpenCL backend ==\n");
    out.push_str(&format!(
        "total kernel seconds on {}: {:.4e}\n",
        GpuArch::cpu_host().gpu_name,
        total_seconds(&secs)
    ));
    out.push_str(&format!(
        "atomic share of lane-cycles: CPU {:.1}% vs Frontier {:.1}% — the paper's \
         \"primarily due to the way the code uses atomics\"\n",
        atomic_share * 100.0,
        gpu_share * 100.0
    ));
    out.push_str(&format!(
        "PP of SYCL (Select + vISA): {pp_gpu:.3} on the 3 GPUs → {pp_cpu:.3} with the CPU added\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::workload;

    #[test]
    fn cpu_runs_all_kernels() {
        let p = workload(6, 2);
        let (secs, _) = cpu_profile(&p);
        for t in hacc_kernels::HYDRO_TIMERS {
            assert!(secs[t] > 0.0);
        }
    }

    #[test]
    fn atomics_dominate_more_on_cpu_than_gpu() {
        let p = workload(6, 2);
        let cpu_share = atomic_share_of(&GpuArch::cpu_host(), &p);
        let gpu_share = atomic_share_of(&GpuArch::frontier(), &p);
        assert!(
            cpu_share > 2.0 * gpu_share,
            "CPU atomic share {cpu_share:.3} should far exceed GPU {gpu_share:.3}"
        );
    }

    #[test]
    fn adding_the_cpu_lowers_pp() {
        // §7.3: "some additional tuning for CPUs would be required to
        // achieve high levels of performance portability".
        let p = workload(6, 2);
        let (pp_gpu, pp_cpu) = pp_with_cpu(&p);
        assert!(
            pp_cpu < pp_gpu,
            "CPU should drag PP down: {pp_cpu} vs {pp_gpu}"
        );
        assert!(
            pp_cpu > 0.0,
            "but the code still runs there (correctness ≠ 0)"
        );
    }
}
