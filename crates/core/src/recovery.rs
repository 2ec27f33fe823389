//! Checkpoint-rollback recovery for the simulation driver.
//!
//! The launch layer ([`hacc_kernels::launch_resilient`]) already
//! absorbs *detected* faults — transient launch failures are retried
//! and persistently failing variants are demoted down the fallback
//! chain. What it cannot catch is silent corruption: a flipped bit or
//! NaN written into device output poisons the particle state without
//! any launch reporting failure. This module closes that gap with the
//! classic HPC pattern: audit the state after every long step
//! ([`StepGuard`]), and on a violation (or an unrecoverable launch
//! error) roll back to the last known-good [`FullCheckpoint`], tighten
//! the time stepping, and retry — giving up with a structured error
//! after a bounded number of attempts.

use crate::checkpoint::{CheckpointError, FullCheckpoint};
use crate::guard::StepGuard;
use crate::sim::{RunSummary, Simulation};
use hacc_telemetry::FaultInfo;

/// Rollback/retry policy for the guarded run loop.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Consecutive failed attempts at the same long step before giving
    /// up.
    pub max_attempts: u32,
    /// Multiplier applied to the sub-cycle count on each retry (more
    /// sub-cycles → smaller kicks → a rerun perturbed less by any
    /// surviving corruption; the count is clamped at
    /// [`RecoveryPolicy::max_sub_cycles`]).
    pub sub_cycle_boost: usize,
    /// Upper clamp for the boosted sub-cycle count.
    pub max_sub_cycles: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            sub_cycle_boost: 2,
            max_sub_cycles: 64,
        }
    }
}

/// Structured failure of a guarded run: the step that could not be
/// completed and why.
#[derive(Clone, Debug)]
pub struct RecoveryError {
    /// Long-step index that kept failing.
    pub step: usize,
    /// Attempts spent on that step (== the policy's `max_attempts`).
    pub attempts: u32,
    /// Description of the final failure.
    pub detail: String,
    /// When the failure was the rollback itself (the checkpoint could
    /// not be restored), the typed checkpoint error — `None` for
    /// launch/guard failures that simply exhausted the retry budget.
    pub checkpoint: Option<CheckpointError>,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {} failed after {} recovery attempts: {}",
            self.step, self.attempts, self.detail
        )
    }
}

impl std::error::Error for RecoveryError {}

impl Simulation {
    /// Runs all configured steps under guard-and-rollback recovery.
    ///
    /// Each long step is followed by a [`StepGuard`] audit; a launch
    /// error or guard violation rolls the state back to the last good
    /// [`FullCheckpoint`], boosts the sub-cycle count per `policy`, and
    /// retries. Every rollback increments the `rollbacks` telemetry
    /// counter and emits a `fault.rollback` event, so a completed run's
    /// event stream fully accounts for its recovery history. With no
    /// faults injected this takes exactly the same physics path as
    /// [`Simulation::run`].
    pub fn try_run_guarded(
        &mut self,
        policy: &RecoveryPolicy,
    ) -> Result<RunSummary, RecoveryError> {
        let span = self.telemetry.span("run");
        let guard = StepGuard::new(self);
        let mut good = FullCheckpoint::capture(self);
        let mut attempts: u32 = 0;
        while self.step_count < self.config.n_steps {
            let step = self.step_count;
            let outcome = self
                .try_step()
                .map_err(|e| e.to_string())
                .and_then(|()| guard.check(self).map_err(|v| v.to_string()));
            match outcome {
                Ok(()) => {
                    good = FullCheckpoint::capture(self);
                    attempts = 0;
                }
                Err(detail) => {
                    attempts += 1;
                    self.telemetry.counter("rollbacks", 1.0);
                    self.telemetry.fault(
                        "fault.rollback",
                        FaultInfo {
                            kind: "rollback".to_string(),
                            kernel: format!("step {step}"),
                            variant: self.variant.label().to_string(),
                            detail: detail.clone(),
                        },
                        1.0,
                    );
                    if attempts >= policy.max_attempts {
                        return Err(RecoveryError {
                            step,
                            attempts,
                            detail,
                            checkpoint: None,
                        });
                    }
                    good.restore_into(self).map_err(|e| RecoveryError {
                        step,
                        attempts,
                        detail: format!("rollback failed: {e}"),
                        checkpoint: Some(e),
                    })?;
                    // Retry with tighter stepping. The fault injector's
                    // launch ordinals keep advancing across the retry,
                    // so a deterministic injector does not replay the
                    // identical fault schedule.
                    let base = self.adaptive_sub_cycles.max(self.config.sub_cycles);
                    self.adaptive_sub_cycles = base
                        .saturating_mul(policy.sub_cycle_boost.saturating_pow(attempts))
                        .min(policy.max_sub_cycles);
                }
            }
        }
        drop(span);
        Ok(self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, SimConfig};
    use hacc_kernels::Variant;
    use hacc_telemetry::counter_total;
    use sycl_sim::{ExecutionPolicy, FaultConfig, GpuArch, GrfMode, Lang};

    fn smoke() -> Simulation {
        let dc = DeviceConfig {
            lang: Lang::Sycl,
            fast_math: None,
            variant: Variant::Select,
            sg_size: Some(32),
            grf: GrfMode::Default,
        };
        Simulation::new(SimConfig::smoke(), dc, GpuArch::frontier())
    }

    #[test]
    fn guarded_run_without_faults_matches_plain_run() {
        let mut plain = smoke();
        plain.set_execution_policy(ExecutionPolicy::Serial);
        let plain_summary = plain.run();

        let mut guarded = smoke();
        guarded.set_execution_policy(ExecutionPolicy::Serial);
        let summary = guarded
            .try_run_guarded(&RecoveryPolicy::default())
            .expect("fault-free guarded run must succeed");
        assert_eq!(summary.steps, plain_summary.steps);
        assert_eq!(summary.a_final, plain_summary.a_final);
        for i in 0..plain.n_particles() {
            for c in 0..3 {
                assert_eq!(plain.pos[i][c].to_bits(), guarded.pos[i][c].to_bits());
                assert_eq!(plain.mom[i][c].to_bits(), guarded.mom[i][c].to_bits());
            }
        }
        let sink = guarded.telemetry.events();
        assert_eq!(counter_total(&sink, "rollbacks"), 0.0);
    }

    #[test]
    fn unrecoverable_failure_is_a_structured_error() {
        let mut sim = smoke();
        sim.set_execution_policy(ExecutionPolicy::Serial);
        // Permanently blocking the whole fallback chain makes every
        // launch fail: no amount of rollback can recover.
        sim.enable_fault_injection(FaultConfig {
            seed: 11,
            persistent_variants: vec![
                "Select".to_string(),
                "Memory, 32-bit".to_string(),
                "Memory, Object".to_string(),
            ],
            ..Default::default()
        });
        let policy = RecoveryPolicy {
            max_attempts: 2,
            ..Default::default()
        };
        let err = sim.try_run_guarded(&policy).unwrap_err();
        assert_eq!(err.step, 0);
        assert_eq!(err.attempts, 2);
        assert!(!err.detail.is_empty());
        let events = sim.telemetry.events();
        assert_eq!(counter_total(&events, "rollbacks"), 2.0);
    }
}
