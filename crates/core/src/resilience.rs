//! Rank-loss recovery for the distributed engine.
//!
//! [`MultiRankSim::run_resilient`] wraps the step loop of
//! [`crate::multirank`] in the coordinated-checkpoint / rollback
//! protocol real MPI applications run at scale:
//!
//! 1. At every `checkpoint_interval` step boundary (and at the start),
//!    take a coordinated [`MultiRankCheckpoint`] and mirror each rank's
//!    section to its buddy (`distckpt::buddy_of`), charging
//!    the mirror traffic on the interconnect.
//! 2. Before each step, consult the injector's rank-loss schedule
//!    ([`sycl_sim::FaultConfig::rank_loss`]) and mark any scheduled
//!    victims dead on the transport.
//! 3. A step that fails with [`CommError::RankDead`] — a survivor's
//!    receive from the dead peer can never complete — triggers
//!    recovery: purge the in-flight timeline, roll every rank back to
//!    the last coordinated checkpoint, and either
//!    * **shrink** — re-factorize the layout over the survivors and
//!      re-partition all particles (the dead rank's state comes from
//!      its buddy's mirror) — or
//!    * **respawn** — revive the lost rank slot and restore the full
//!      layout from the mirror —
//!
//!    then replay the rolled-back steps.
//!
//! Both modes are deterministic and physics-preserving: the particle
//! state is restored bit-exactly and the engine's step physics is
//! decomposition-invariant, so a recovered run's final
//! [`MultiRankSim::state_digest`] is bit-identical to a fault-free
//! run's — the acceptance gate the resilience tests and the CI smoke
//! job enforce.

use crate::distckpt::{buddy_of, section_bytes, MultiRankCheckpoint};
use crate::multirank::{MultiRankSim, StepStats};
use hacc_comm::CommError;
use hacc_telemetry::FaultInfo;
use serde::Serialize;
use std::collections::HashSet;
use std::fmt;

/// How the communicator is rebuilt after a rank loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RecoveryMode {
    /// Survivors absorb the lost rank's domain: the layout is
    /// re-factorized over `ranks - lost` ranks and every particle is
    /// re-partitioned by position. Models running on after node loss
    /// without a replacement allocation.
    Shrink,
    /// The lost rank's slot is revived and restored from its buddy's
    /// mirror: the layout is unchanged. Models pulling a spare node
    /// into the job.
    Respawn,
}

impl RecoveryMode {
    /// Stable label for reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryMode::Shrink => "shrink",
            RecoveryMode::Respawn => "respawn",
        }
    }
}

/// Recoveries a resilient run tolerates before it gives up: a guard
/// against a schedule that kills ranks faster than replay can catch up.
const MAX_RECOVERIES: usize = 8;

/// Policy for the resilient run loop.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Steps between coordinated checkpoints (clamped to ≥ 1). Smaller
    /// intervals cost more mirror traffic but bound the rollback.
    pub checkpoint_interval: u64,
    /// How to rebuild the communicator after a loss.
    pub mode: RecoveryMode,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 4,
            mode: RecoveryMode::Respawn,
        }
    }
}

/// One completed recovery.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryEvent {
    /// Ranks that were dead when recovery ran.
    pub lost_ranks: Vec<usize>,
    /// Step index (0-based) whose exchange detected the loss.
    pub detected_step: u64,
    /// Step the run rolled back to.
    pub checkpoint_step: u64,
    /// Mode used.
    pub mode: RecoveryMode,
    /// Completed steps discarded by the rollback (the failed step was
    /// never completed and is not counted).
    pub rollback_steps: u64,
    /// Ranks in the communicator after recovery.
    pub ranks_after: usize,
    /// Modeled mean-time-to-repair: the buddy-restore transfer plus
    /// the node seconds spent replaying up to the point of failure.
    pub mttr_seconds: f64,
}

/// Outcome of a resilient run.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceReport {
    /// The surviving timeline: one entry per step of the final run,
    /// replays overwriting the timelines they rolled back.
    pub steps: Vec<StepStats>,
    /// Coordinated checkpoints taken (including re-checkpoints during
    /// replay).
    pub checkpoints: u64,
    /// Total buddy-mirror wire bytes.
    pub checkpoint_bytes: u64,
    /// Total modeled seconds of mirror traffic.
    pub checkpoint_seconds: f64,
    /// Completed steps discarded across all rollbacks.
    pub rollback_steps: u64,
    /// Every recovery, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Ranks in the communicator when the run finished.
    pub final_ranks: usize,
}

impl ResilienceReport {
    /// Total modeled node seconds of the surviving timeline.
    pub fn node_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.node_seconds).sum()
    }

    /// Total modeled MTTR across recoveries.
    pub fn mttr_seconds(&self) -> f64 {
        self.recoveries.iter().map(|r| r.mttr_seconds).sum()
    }
}

/// A resilient run that could not be completed.
#[derive(Clone, Debug)]
pub struct ResilienceError {
    /// Step index (0-based) that could not be completed.
    pub step: u64,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resilient run failed at step {}: {}",
            self.step, self.detail
        )
    }
}

impl std::error::Error for ResilienceError {}

impl MultiRankSim {
    /// Runs `steps` steps under coordinated checkpointing and rank-loss
    /// recovery. See the module docs for the protocol; with no rank
    /// losses scheduled this takes exactly the same physics path as
    /// [`MultiRankSim::run`], plus the checkpoint mirror charges.
    pub fn run_resilient(
        &mut self,
        steps: u64,
        config: &ResilienceConfig,
    ) -> Result<ResilienceReport, ResilienceError> {
        let interval = config.checkpoint_interval.max(1);
        let start = self.step_count();
        let end = start + steps;
        let schedule: Vec<(usize, u64)> = self
            .fault_config()
            .map(|c| c.rank_loss.iter().map(|l| (l.rank, l.step)).collect())
            .unwrap_or_default();
        let mut applied: HashSet<(usize, u64)> = HashSet::new();
        let mut ckpt = self.checkpoint();
        let mut report = ResilienceReport {
            steps: Vec::with_capacity(steps as usize),
            checkpoints: 1,
            checkpoint_bytes: ckpt.mirror_bytes(),
            checkpoint_seconds: self.charge_checkpoint(&ckpt),
            rollback_steps: 0,
            recoveries: Vec::new(),
            final_ranks: self.layout.ranks,
        };
        // Recoveries still replaying: their MTTR accumulates node
        // seconds until the run regains the step that failed.
        let mut replaying: Vec<(usize, u64)> = Vec::new();

        while self.step_count() < end {
            let step = self.step_count();
            if step > ckpt.step && (step - start).is_multiple_of(interval) {
                ckpt = self.checkpoint();
                report.checkpoints += 1;
                report.checkpoint_bytes += ckpt.mirror_bytes();
                report.checkpoint_seconds += self.charge_checkpoint(&ckpt);
            }
            for &(rank, loss_step) in &schedule {
                if loss_step == step
                    && rank < self.layout.ranks
                    && !applied.contains(&(rank, loss_step))
                {
                    applied.insert((rank, loss_step));
                    self.transport().mark_dead(rank, loss_step);
                    if let Some(injector) = self.transport().injector() {
                        injector.inject_rank_loss(rank, loss_step);
                    }
                }
            }
            match self.step() {
                Ok(stats) => {
                    for &(idx, until) in &replaying {
                        report.recoveries[idx].mttr_seconds += stats.node_seconds;
                        let _ = until;
                    }
                    let done = self.step_count();
                    replaying.retain(|&(idx, until)| {
                        if done > until {
                            self.emit_mttr(&report.recoveries[idx]);
                            false
                        } else {
                            true
                        }
                    });
                    report.steps.push(stats);
                }
                Err(CommError::RankDead { .. }) => {
                    if report.recoveries.len() >= MAX_RECOVERIES {
                        return Err(ResilienceError {
                            step,
                            detail: format!("recovery budget of {MAX_RECOVERIES} exhausted"),
                        });
                    }
                    let event = self
                        .recover(&ckpt, step, config.mode)
                        .map_err(|detail| ResilienceError { step, detail })?;
                    report.rollback_steps += event.rollback_steps;
                    report.steps.truncate((ckpt.step - start) as usize);
                    replaying.push((report.recoveries.len(), step));
                    report.recoveries.push(event);
                    if config.mode == RecoveryMode::Shrink {
                        // The old schedule's rank indices no longer
                        // name the same domains; checkpoints must also
                        // be retaken under the new layout.
                        ckpt = self.checkpoint();
                        report.checkpoints += 1;
                        report.checkpoint_bytes += ckpt.mirror_bytes();
                        report.checkpoint_seconds += self.charge_checkpoint(&ckpt);
                    }
                }
                Err(other) => {
                    return Err(ResilienceError {
                        step,
                        detail: other.to_string(),
                    })
                }
            }
        }
        for (idx, _) in replaying {
            self.emit_mttr(&report.recoveries[idx]);
        }
        report.final_ranks = self.layout.ranks;
        Ok(report)
    }

    /// Charges the buddy-mirror traffic of one coordinated checkpoint
    /// on the interconnect; returns the modeled seconds.
    fn charge_checkpoint(&self, ckpt: &MultiRankCheckpoint) -> f64 {
        let layout = ckpt.layout();
        let fabric = self.transport().fabric();
        let mut seconds = 0.0;
        for (rank, snap) in ckpt.per_rank.iter().enumerate() {
            let buddy = buddy_of(&layout, rank);
            if buddy != rank {
                seconds += fabric.cost(rank, buddy, section_bytes(snap));
            }
        }
        if let Some(rec) = self.recorder() {
            rec.counter("checkpoint.bytes", ckpt.mirror_bytes() as f64);
            rec.timer("checkpoint.mirror", seconds);
        }
        seconds
    }

    /// Rolls back to `ckpt` and rebuilds the communicator per `mode`.
    fn recover(
        &mut self,
        ckpt: &MultiRankCheckpoint,
        detected_step: u64,
        mode: RecoveryMode,
    ) -> Result<RecoveryEvent, String> {
        let lost = self.transport().dead_ranks();
        if lost.is_empty() {
            return Err("RankDead surfaced with no rank marked dead".to_string());
        }
        if lost.len() >= self.layout.ranks {
            return Err("every rank is dead; nothing can recover".to_string());
        }
        // The buddy-restore transfer: each lost rank's mirrored section
        // travels from its buddy back into the rebuilt communicator.
        let layout = ckpt.layout();
        let fabric = self.transport().fabric();
        let mut restore_seconds = 0.0;
        for &rank in &lost {
            let buddy = buddy_of(&layout, rank);
            if buddy != rank {
                restore_seconds += fabric.cost(buddy, rank, section_bytes(&ckpt.per_rank[rank]));
            }
        }
        let ranks_after = match mode {
            RecoveryMode::Shrink => {
                let survivors = self.layout.ranks - lost.len();
                self.restore_resized(survivors, ckpt)
                    .map_err(|e| format!("shrink restore failed: {e}"))?;
                survivors
            }
            RecoveryMode::Respawn => {
                self.restore(ckpt)
                    .map_err(|e| format!("respawn restore failed: {e}"))?;
                for &rank in &lost {
                    self.transport().revive(rank);
                }
                self.layout.ranks
            }
        };
        let rollback_steps = detected_step - ckpt.step;
        if let Some(rec) = self.recorder() {
            rec.counter("recovery.rank_loss", lost.len() as f64);
            rec.counter("recovery.rollback_steps", rollback_steps as f64);
            rec.timer("recovery.restore", restore_seconds);
            rec.fault(
                "fault.recovery",
                FaultInfo {
                    kind: "recovery".to_string(),
                    kernel: format!("step {detected_step}"),
                    variant: mode.label().to_string(),
                    detail: format!(
                        "lost ranks {lost:?}; rolled back to step {} ({mode:?} → {ranks_after} ranks)",
                        ckpt.step
                    ),
                },
                1.0,
            );
        }
        Ok(RecoveryEvent {
            lost_ranks: lost,
            detected_step,
            checkpoint_step: ckpt.step,
            mode,
            rollback_steps,
            ranks_after,
            mttr_seconds: restore_seconds,
        })
    }

    /// Emits the final MTTR of a recovery once its replay catches up.
    fn emit_mttr(&self, event: &RecoveryEvent) {
        if let Some(rec) = self.recorder() {
            rec.timer("recovery.mttr", event.mttr_seconds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multirank::MultiRankProblem;
    use hacc_telemetry::{counter_total, Recorder};
    use sycl_sim::{FaultConfig, FaultKind, GpuArch, RankLoss};

    fn problem() -> MultiRankProblem {
        MultiRankProblem::small(256, 42)
    }

    fn fault_free_digest(ranks: usize, steps: u64) -> u64 {
        let mut sim = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
        sim.run(steps).unwrap();
        sim.state_digest()
    }

    #[test]
    fn loss_free_resilient_run_matches_plain_run_bits() {
        let plain = fault_free_digest(4, 4);
        let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
        let report = sim
            .run_resilient(4, &ResilienceConfig::default())
            .expect("loss-free run must complete");
        assert_eq!(sim.state_digest(), plain);
        assert_eq!(report.steps.len(), 4);
        assert!(report.checkpoints >= 1);
        assert!(report.checkpoint_bytes > 0, "4 ranks mirror real bytes");
        assert!(report.recoveries.is_empty());
        assert_eq!(report.rollback_steps, 0);
    }

    #[test]
    fn respawn_recovery_reproduces_fault_free_bits() {
        let clean = fault_free_digest(4, 5);
        let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
        sim.enable_fault_injection(FaultConfig {
            seed: 9,
            rank_loss: vec![RankLoss { rank: 2, step: 3 }],
            ..FaultConfig::default()
        });
        let config = ResilienceConfig {
            checkpoint_interval: 2,
            mode: RecoveryMode::Respawn,
        };
        let report = sim.run_resilient(5, &config).expect("must recover");
        assert_eq!(sim.state_digest(), clean, "recovered bits must match");
        assert_eq!(report.recoveries.len(), 1);
        let r = &report.recoveries[0];
        assert_eq!(r.lost_ranks, vec![2]);
        assert_eq!(r.detected_step, 3);
        assert_eq!(r.checkpoint_step, 2);
        assert_eq!(r.rollback_steps, 1);
        assert_eq!(r.ranks_after, 4);
        assert!(r.mttr_seconds > 0.0);
        assert_eq!(report.final_ranks, 4);
        assert_eq!(report.steps.len(), 5, "the surviving timeline is complete");
    }

    #[test]
    fn shrink_recovery_reproduces_fault_free_bits_on_fewer_ranks() {
        let clean = fault_free_digest(8, 5);
        let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
        sim.enable_fault_injection(FaultConfig {
            seed: 9,
            rank_loss: vec![RankLoss { rank: 5, step: 2 }],
            ..FaultConfig::default()
        });
        let config = ResilienceConfig {
            checkpoint_interval: 2,
            mode: RecoveryMode::Shrink,
        };
        let report = sim.run_resilient(5, &config).expect("must recover");
        assert_eq!(report.final_ranks, 7, "one rank was absorbed");
        assert_eq!(sim.layout.ranks, 7);
        assert_eq!(
            sim.state_digest(),
            clean,
            "physics is decomposition-invariant, so the shrunk run matches"
        );
        assert_eq!(sim.n_particles(), 256, "no particle was lost");
    }

    #[test]
    fn recovery_telemetry_accounts_for_the_protocol() {
        let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
        let rec = Recorder::new();
        sim.set_recorder(rec.clone());
        sim.enable_fault_injection(FaultConfig {
            seed: 1,
            rank_loss: vec![RankLoss { rank: 1, step: 2 }],
            ..FaultConfig::default()
        });
        let config = ResilienceConfig {
            checkpoint_interval: 2,
            mode: RecoveryMode::Respawn,
        };
        let report = sim.run_resilient(4, &config).expect("must recover");
        let events = rec.events();
        assert_eq!(counter_total(&events, "recovery.rank_loss"), 1.0);
        assert_eq!(
            counter_total(&events, "recovery.rollback_steps"),
            report.rollback_steps as f64
        );
        assert!(
            counter_total(&events, "checkpoint.bytes") >= report.checkpoint_bytes as f64 - 0.5,
            "mirror bytes are counted"
        );
        assert!(
            hacc_telemetry::fault_total(&events, "fault.rank_dead") > 0.0,
            "the detection event is on the fault stream"
        );
        assert!(
            hacc_telemetry::fault_total(&events, "fault.recovery") > 0.0,
            "the recovery itself is on the fault stream"
        );
    }

    #[test]
    fn each_scheduled_loss_is_applied_once() {
        // Two ranks at one boundary, one entry duplicated, a later loss.
        let clean = fault_free_digest(4, 6);
        let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
        sim.enable_fault_injection(FaultConfig {
            rank_loss: vec![
                RankLoss { rank: 3, step: 2 },
                RankLoss { rank: 1, step: 2 },
                RankLoss { rank: 3, step: 2 },
                RankLoss { rank: 0, step: 5 },
            ],
            ..FaultConfig::default()
        });
        let config = ResilienceConfig {
            checkpoint_interval: 2,
            mode: RecoveryMode::Respawn,
        };
        let report = sim.run_resilient(6, &config).expect("must recover");
        assert_eq!(sim.state_digest(), clean);
        let lost: Vec<_> = report
            .recoveries
            .iter()
            .map(|r| (r.detected_step, r.lost_ranks.clone()))
            .collect();
        assert_eq!(lost, vec![(2, vec![1, 3]), (5, vec![0])]);
        let injector = sim.transport().injector().expect("injector attached");
        assert_eq!(injector.injected_of(FaultKind::RankLost), 3);
    }

    #[test]
    fn losing_the_only_other_rank_at_every_step_exhausts_the_budget() {
        let mut sim = MultiRankSim::new(2, GpuArch::frontier(), problem());
        // Respawned ranks get killed again by later schedule entries.
        let losses: Vec<RankLoss> = (0..64).map(|s| RankLoss { rank: 1, step: s }).collect();
        sim.enable_fault_injection(FaultConfig {
            seed: 1,
            rank_loss: losses,
            ..FaultConfig::default()
        });
        let config = ResilienceConfig {
            checkpoint_interval: 1,
            mode: RecoveryMode::Respawn,
        };
        // Steps 0..8 each recover once; the ninth loss finds the budget
        // of 8 spent.
        let err = sim.run_resilient(16, &config).unwrap_err();
        assert_eq!(err.step, 8);
        assert!(err.detail.contains("budget of 8"), "{err}");
    }
}
