//! Recovery-overhead sweep: how much simulated device time the
//! retry/fallback/rollback machinery costs as the injected fault rate
//! rises.
//!
//! Each point of the sweep runs the same smoke-scale simulation with a
//! deterministic [`FaultInjector`](sycl_sim::FaultInjector) at a given
//! per-launch fault rate (applied to both transient launch failures and
//! silent output corruption), under the guarded run loop of
//! [`hacc_core::recovery`]. The record keeps the telemetry counters a
//! completed run must reconcile — injected faults, launch retries,
//! variant fallbacks, and checkpoint rollbacks — plus the total
//! simulated GPU seconds, so the JSON dump directly plots recovery
//! overhead versus fault rate.

use hacc_core::{DeviceConfig, RecoveryPolicy, SimConfig, Simulation};
use hacc_kernels::Variant;
use hacc_telemetry::counter_total;
use serde::Serialize;
use sycl_sim::{ExecutionPolicy, FaultConfig, GpuArch, GrfMode, Lang};

/// One point of the fault-rate sweep.
#[derive(Clone, Debug, Serialize)]
pub struct FaultSweepRecord {
    /// Per-launch probability of both transient failure and silent
    /// corruption.
    pub rate: f64,
    /// Whether the guarded run completed within its recovery budget.
    pub completed: bool,
    /// Long steps finished.
    pub steps: usize,
    /// Total simulated device seconds (includes retried launches and
    /// re-run steps — the recovery overhead).
    pub gpu_seconds: f64,
    /// Telemetry counter `faults.injected` (must equal the injector's
    /// log length on a completed run).
    pub faults_injected: f64,
    /// Telemetry counter `launch.retries`.
    pub retries: f64,
    /// Telemetry counter `launch.fallbacks`.
    pub fallbacks: f64,
    /// Telemetry counter `rollbacks`.
    pub rollbacks: f64,
}

fn smoke_sim() -> Simulation {
    let device_cfg = DeviceConfig {
        lang: Lang::Sycl,
        fast_math: None,
        variant: Variant::Select,
        sg_size: Some(32),
        grf: GrfMode::Default,
    };
    let mut sim = Simulation::new(SimConfig::smoke(), device_cfg, GpuArch::frontier());
    sim.set_execution_policy(ExecutionPolicy::Serial);
    sim
}

/// Runs the sweep: one guarded smoke run per rate, same injector seed.
pub fn sweep(rates: &[f64], seed: u64) -> Vec<FaultSweepRecord> {
    rates
        .iter()
        .map(|&rate| {
            let mut sim = smoke_sim();
            sim.enable_fault_injection(FaultConfig {
                seed,
                transient_rate: rate,
                corrupt_rate: rate,
                ..Default::default()
            });
            let completed = sim.try_run_guarded(&RecoveryPolicy::default()).is_ok();
            let events = sim.telemetry.events();
            FaultSweepRecord {
                rate,
                completed,
                steps: sim.step_count,
                gpu_seconds: hacc_core::Timers::from_events(&events).total_seconds(),
                faults_injected: counter_total(&events, "faults.injected"),
                retries: counter_total(&events, "launch.retries"),
                fallbacks: counter_total(&events, "launch.fallbacks"),
                rollbacks: counter_total(&events, "rollbacks"),
            }
        })
        .collect()
}

/// Renders the sweep as a text table.
pub fn render(records: &[FaultSweepRecord]) -> String {
    let mut out = String::from(
        "== Fault-injection sweep: recovery overhead vs per-launch fault rate (smoke problem) ==\n",
    );
    out.push_str("rate       done  steps  GPU seconds   faults  retries  fallbacks  rollbacks\n");
    for r in records {
        out.push_str(&format!(
            "{:<9.1e} {:>5} {:>6}  {:>11.4e} {:>8} {:>8} {:>10} {:>10}\n",
            r.rate,
            if r.completed { "yes" } else { "NO" },
            r.steps,
            r.gpu_seconds,
            r.faults_injected,
            r.retries,
            r.fallbacks,
            r.rollbacks,
        ));
    }
    out
}

/// Serializes the sweep as pretty JSON.
pub fn to_json(records: &[FaultSweepRecord]) -> String {
    serde_json::to_string_pretty(records).expect("serialize fault sweep")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_point_is_fault_free() {
        let records = sweep(&[0.0], 7);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert!(r.completed);
        assert_eq!(r.faults_injected, 0.0);
        assert_eq!(r.retries, 0.0);
        assert_eq!(r.fallbacks, 0.0);
        assert_eq!(r.rollbacks, 0.0);
        assert!(r.gpu_seconds > 0.0);
    }

    #[test]
    fn nonzero_rate_injects_and_still_completes() {
        let records = sweep(&[0.2], 7);
        let r = &records[0];
        assert!(r.completed, "20% fault rate must be recoverable: {r:?}");
        assert!(r.faults_injected > 0.0, "no faults injected: {r:?}");
        assert!(
            r.retries > 0.0 || r.rollbacks > 0.0,
            "recovery machinery never engaged: {r:?}"
        );
    }

    #[test]
    fn json_dump_round_trips_field_names() {
        let records = sweep(&[0.0], 3);
        let text = to_json(&records);
        for field in [
            "rate",
            "completed",
            "gpu_seconds",
            "faults_injected",
            "retries",
            "fallbacks",
            "rollbacks",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }
}
