//! Deterministic fault injection for the simulated offload stack.
//!
//! Exascale CRK-HACC runs treat transient launch failures, silent data
//! corruption, and device loss as routine events (paper §7.2 leans on
//! checkpoint-driven replay precisely because full runs are too costly to
//! lose). This module provides the failure surface: a seeded
//! [`FaultInjector`] attached to a [`crate::Device`] decides, purely as a
//! function of `(seed, kernel name, per-kernel launch ordinal)`, whether a
//! launch fails transiently, the device is lost, a kernel variant faults
//! persistently, or an output-buffer word is corrupted after a successful
//! launch. Determinism is the point — the same seed reproduces the same
//! fault schedule, so recovery paths are testable bit-for-bit.

use crate::buffer::Buffer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;

/// Retries of one transient failure — a kernel launch or a message on
/// a link — after the first attempt. One budget for both layers.
pub const MAX_RETRIES: u32 = 3;

/// Simulated seconds of the first retry's backoff; retry `k` (0-based)
/// waits `BACKOFF_BASE_S · 2^k`, so an exhausted budget waits 7 µs.
pub const BACKOFF_BASE_S: f64 = 1e-6;

/// Typed launch failure, returned by [`crate::Device::launch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// Invalid launch configuration or device construction (programmer
    /// error surfaced as data: unsupported sub-group size, incompatible
    /// toolchain, work-group not a multiple of the sub-group).
    Config {
        /// Human-readable description of the misconfiguration.
        message: String,
    },
    /// A transient launch failure: retrying the same launch may succeed.
    Transient {
        /// Kernel whose launch failed.
        kernel: String,
    },
    /// A kernel variant that persistently faults on this device; retries
    /// of the same variant will never succeed, but a fallback variant may.
    PersistentVariant {
        /// Kernel whose launch failed.
        kernel: String,
        /// The faulting variant label.
        variant: String,
    },
    /// The device was lost; no further launches on it can succeed without
    /// higher-level recovery (rollback / re-creation).
    DeviceLost {
        /// Kernel whose launch observed the loss.
        kernel: String,
    },
    /// A worker thread of the parallel work-group scheduler panicked while
    /// executing the kernel body (e.g. an out-of-bounds buffer access).
    /// Fail-stop: no deferred atomics from the launch were committed.
    Worker {
        /// Kernel whose work-group died.
        kernel: String,
        /// The panic message, best effort.
        message: String,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Config { message } => write!(f, "launch config error: {message}"),
            LaunchError::Transient { kernel } => {
                write!(f, "transient launch failure in kernel {kernel}")
            }
            LaunchError::PersistentVariant { kernel, variant } => {
                write!(
                    f,
                    "variant {variant} persistently faults in kernel {kernel}"
                )
            }
            LaunchError::DeviceLost { kernel } => {
                write!(f, "device lost during launch of kernel {kernel}")
            }
            LaunchError::Worker { kernel, message } => {
                write!(f, "worker thread panicked in kernel {kernel}: {message}")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

impl LaunchError {
    /// True for errors that a bounded retry of the *same* launch may fix.
    pub fn is_retryable(&self) -> bool {
        matches!(self, LaunchError::Transient { .. })
    }
}

/// A scheduled rank death: at the start of step `step`, rank `rank`
/// stops responding — its in-flight messages are lost and every peer
/// that waits on it observes a dead link. Unlike the probabilistic
/// rates this is a deterministic schedule entry (distributed recovery
/// must be replayed bit-for-bit to be testable), mirroring how
/// `slow_kernels` models a standing condition rather than a coin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLoss {
    /// Rank that dies.
    pub rank: usize,
    /// Step (0-based, counted at the boundary before the step runs) at
    /// which the loss takes effect.
    pub step: u64,
}

/// Seeded fault-plan configuration. All rates are probabilities in
/// `[0, 1]` evaluated independently per launch; the default is all-zero
/// (no faults), under which an attached injector is behaviour-neutral.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability that a launch fails transiently (fail-stop, before any
    /// kernel side effects, so a retry is safe).
    pub transient_rate: f64,
    /// Probability that one word of one kernel output buffer is silently
    /// corrupted (NaN write or single bit flip) after a successful launch.
    pub corrupt_rate: f64,
    /// Probability that a launch observes device loss.
    pub device_loss_rate: f64,
    /// Variant labels (as reported by the launch layer) that persistently
    /// fault on this device — e.g. `["vISA"]` to model an Intel-only
    /// code path running elsewhere.
    pub persistent_variants: Vec<String>,
    /// Deterministic per-kernel latency degradation: each entry
    /// `(kernel, multiplier)` scales the cost model's time estimate for
    /// every launch of that kernel by `multiplier` (> 1 slows it down).
    /// Unlike the probabilistic rates this knob is not a coin — it
    /// models a kernel that got slower (thermal throttling, a bad code
    /// path, a mis-tuned variant), which is exactly the shape the
    /// explaining perf gate must attribute. Multipliers for the same
    /// kernel compose multiplicatively.
    pub slow_kernels: Vec<(String, f64)>,
    /// Scheduled rank deaths for the distributed engine: each entry
    /// kills one rank at one step boundary. Consumed by
    /// `MultiRankSim::run_resilient`, which marks the rank dead on the
    /// transport; the first message a peer addresses to the dead rank
    /// fails its drain at once with `CommError::RankDead`.
    pub rank_loss: Vec<RankLoss>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_rate: 0.0,
            corrupt_rate: 0.0,
            device_loss_rate: 0.0,
            persistent_variants: Vec::new(),
            slow_kernels: Vec::new(),
            rank_loss: Vec::new(),
        }
    }
}

/// The kind of an injected fault, as recorded in the injector's log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient launch failure (retryable).
    Transient,
    /// Persistent per-variant failure (needs a fallback variant).
    Persistent,
    /// Silent corruption of an output-buffer word.
    Corruption,
    /// Device loss.
    DeviceLost,
    /// A whole rank (node/device pair) died mid-run.
    RankLost,
}

impl FaultKind {
    /// Stable lower-case label, used in telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Persistent => "persistent-variant",
            FaultKind::Corruption => "corruption",
            FaultKind::DeviceLost => "device-lost",
            FaultKind::RankLost => "rank-lost",
        }
    }
}

/// One injected fault, appended to [`FaultInjector::log`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// What was injected.
    pub kind: FaultKind,
    /// Kernel the fault targeted.
    pub kernel: String,
    /// Free-form detail (ordinal, corrupted word, variant label, …).
    pub detail: String,
}

/// Deterministic, seeded fault injector.
///
/// Decisions are pure functions of `(seed, salt, kernel name, ordinal)`
/// where the ordinal counts launches of that kernel name on this injector.
/// The driver issues launches serially, so the ordinal sequence — and
/// hence the whole fault schedule — is reproducible even though sub-groups
/// within a launch execute on a rayon pool.
pub struct FaultInjector {
    config: FaultConfig,
    ordinals: Mutex<HashMap<String, u64>>,
    log: Mutex<Vec<FaultRecord>>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("config", &self.config)
            .field("injected", &self.log.lock().len())
            .finish()
    }
}

/// Distinct decision channels so that e.g. the transient coin and the
/// corruption coin for the same launch are independent.
const SALT_DEVICE_LOST: u64 = 0x1;
const SALT_TRANSIENT: u64 = 0x2;
const SALT_CORRUPT: u64 = 0x3;
const SALT_CORRUPT_WORD: u64 = 0x4;
const SALT_CORRUPT_MODE: u64 = 0x5;
const SALT_CORRUPT_BIT: u64 = 0x6;
const SALT_CORRUPT_BUFFER: u64 = 0x7;

impl FaultInjector {
    /// Creates an injector with the given fault plan.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            config,
            ordinals: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The configured fault plan.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Claims the next launch ordinal for `kernel` (one per
    /// `Device::launch` call).
    pub fn next_ordinal(&self, kernel: &str) -> u64 {
        let mut map = self.ordinals.lock();
        let slot = map.entry(kernel.to_string()).or_insert(0);
        let ord = *slot;
        *slot += 1;
        ord
    }

    /// SplitMix64-style hash over the decision inputs.
    fn decision(&self, salt: u64, kernel: &str, ordinal: u64) -> u64 {
        let mut z = self.config.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in kernel.bytes() {
            z = (z ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        z = z.wrapping_add(ordinal.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Maps a decision hash to a uniform value in `[0, 1)`.
    fn unit(&self, salt: u64, kernel: &str, ordinal: u64) -> f64 {
        (self.decision(salt, kernel, ordinal) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Rolls the pre-execution fault coins for one launch. Returns the
    /// injected failure, if any, and records it. Device loss dominates
    /// transient failure. Fail-stop semantics: the caller must return the
    /// error *before* running the kernel, so retries never double-apply
    /// atomic accumulations.
    pub fn launch_fault(&self, kernel: &str, ordinal: u64) -> Option<LaunchError> {
        if self.config.device_loss_rate > 0.0
            && self.unit(SALT_DEVICE_LOST, kernel, ordinal) < self.config.device_loss_rate
        {
            self.record(FaultKind::DeviceLost, kernel, format!("launch #{ordinal}"));
            return Some(LaunchError::DeviceLost {
                kernel: kernel.to_string(),
            });
        }
        if self.config.transient_rate > 0.0
            && self.unit(SALT_TRANSIENT, kernel, ordinal) < self.config.transient_rate
        {
            self.record(FaultKind::Transient, kernel, format!("launch #{ordinal}"));
            return Some(LaunchError::Transient {
                kernel: kernel.to_string(),
            });
        }
        None
    }

    /// After a successful launch, possibly corrupts at most one word of
    /// one output buffer: either a NaN overwrite or a single bit flip.
    /// Returns the number of corrupted words (0 or 1) and records each.
    pub fn corrupt(&self, kernel: &str, ordinal: u64, buffers: &[Buffer]) -> u32 {
        if self.config.corrupt_rate <= 0.0 || buffers.is_empty() {
            return 0;
        }
        if self.unit(SALT_CORRUPT, kernel, ordinal) >= self.config.corrupt_rate {
            return 0;
        }
        let bi = (self.decision(SALT_CORRUPT_BUFFER, kernel, ordinal) as usize) % buffers.len();
        let buf = &buffers[bi];
        if buf.is_empty() {
            return 0;
        }
        let wi = (self.decision(SALT_CORRUPT_WORD, kernel, ordinal) as usize) % buf.len();
        let nan_mode = self.decision(SALT_CORRUPT_MODE, kernel, ordinal) & 1 == 0;
        let detail = if nan_mode {
            buf.write_f32(wi, f32::NAN);
            format!("launch #{ordinal}: NaN into buffer {bi} word {wi}")
        } else {
            let bit = (self.decision(SALT_CORRUPT_BIT, kernel, ordinal) % 32) as u32;
            buf.write_u32(wi, buf.read_u32(wi) ^ (1 << bit));
            format!("launch #{ordinal}: bit {bit} flipped in buffer {bi} word {wi}")
        };
        self.record(FaultKind::Corruption, kernel, detail);
        1
    }

    /// The combined latency multiplier configured for `kernel` (1.0
    /// when unconfigured). Pure lookup — repeated consults for the
    /// same launch are free and nothing is logged, since the slowdown
    /// is a standing condition rather than a discrete event.
    pub(crate) fn latency_multiplier(&self, kernel: &str) -> f64 {
        self.config
            .slow_kernels
            .iter()
            .filter(|(k, _)| k == kernel)
            .map(|&(_, m)| m)
            .product()
    }

    /// Records one applied rank loss in the injector log, so the
    /// telemetry fault counters reconcile against the schedule. The
    /// engine applies each schedule entry once; a rollback that replays
    /// past the same step does not re-kill the rank.
    pub fn inject_rank_loss(&self, rank: usize, step: u64) {
        self.record(
            FaultKind::RankLost,
            "comm.rank",
            format!("rank {rank} lost at step {step}"),
        );
    }

    /// True when `variant` is configured to persistently fault for this
    /// device. Each consult that blocks is recorded, so the telemetry
    /// counters reconcile against the log.
    pub fn variant_blocked(&self, kernel: &str, variant: &str) -> bool {
        if self.config.persistent_variants.iter().any(|v| v == variant) {
            self.record(
                FaultKind::Persistent,
                kernel,
                format!("variant {variant} blocked"),
            );
            return true;
        }
        false
    }

    fn record(&self, kind: FaultKind, kernel: &str, detail: String) {
        self.log.lock().push(FaultRecord {
            kind,
            kernel: kernel.to_string(),
            detail,
        });
    }

    /// Snapshot of every fault injected so far, in injection order.
    pub fn log(&self) -> Vec<FaultRecord> {
        self.log.lock().clone()
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.log.lock().len()
    }

    /// Number of injected faults of one kind.
    pub fn injected_of(&self, kind: FaultKind) -> usize {
        self.log.lock().iter().filter(|r| r.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_rate: 0.3,
            corrupt_rate: 0.3,
            device_loss_rate: 0.05,
            persistent_variants: vec!["vISA".to_string()],
            slow_kernels: Vec::new(),
            rank_loss: Vec::new(),
        }
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let inj = FaultInjector::new(FaultConfig::default());
        for i in 0..100 {
            let ord = inj.next_ordinal("upGeo");
            assert_eq!(ord, i);
            assert!(inj.launch_fault("upGeo", ord).is_none());
            assert_eq!(inj.corrupt("upGeo", ord, &[Buffer::zeros(8)]), 0);
        }
        assert!(!inj.variant_blocked("upGeo", "Select"));
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultInjector::new(cfg(42));
        let b = FaultInjector::new(cfg(42));
        for _ in 0..200 {
            let oa = a.next_ordinal("upGrav");
            let ob = b.next_ordinal("upGrav");
            assert_eq!(a.launch_fault("upGrav", oa), b.launch_fault("upGrav", ob));
        }
        assert_eq!(a.log(), b.log());
        assert!(a.injected() > 0, "rate 0.3 over 200 launches must fire");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(cfg(1));
        let b = FaultInjector::new(cfg(2));
        let fire = |inj: &FaultInjector| -> Vec<bool> {
            (0..64)
                .map(|_| {
                    let o = inj.next_ordinal("k");
                    inj.launch_fault("k", o).is_some()
                })
                .collect()
        };
        assert_ne!(fire(&a), fire(&b));
    }

    #[test]
    fn rate_one_always_fails() {
        let inj = FaultInjector::new(FaultConfig {
            transient_rate: 1.0,
            ..FaultConfig::default()
        });
        for _ in 0..16 {
            let o = inj.next_ordinal("k");
            assert_eq!(
                inj.launch_fault("k", o),
                Some(LaunchError::Transient {
                    kernel: "k".to_string()
                })
            );
        }
        assert_eq!(inj.injected_of(FaultKind::Transient), 16);
    }

    #[test]
    fn corruption_touches_exactly_one_word() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 7,
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        });
        let buf = Buffer::from_f32(&[1.0; 64]);
        let n = inj.corrupt("k", inj.next_ordinal("k"), std::slice::from_ref(&buf));
        assert_eq!(n, 1);
        let changed = buf
            .to_u32_vec()
            .iter()
            .filter(|&&w| w != 1.0f32.to_bits())
            .count();
        assert_eq!(changed, 1, "exactly one word corrupted");
        assert_eq!(inj.injected_of(FaultKind::Corruption), 1);
    }

    #[test]
    fn persistent_variant_blocks_and_records() {
        let inj = FaultInjector::new(cfg(9));
        assert!(inj.variant_blocked("upGeo", "vISA"));
        assert!(!inj.variant_blocked("upGeo", "Select"));
        assert_eq!(inj.injected_of(FaultKind::Persistent), 1);
    }

    #[test]
    fn latency_multipliers_compose_per_kernel() {
        let inj = FaultInjector::new(FaultConfig {
            slow_kernels: vec![
                ("upGeo".to_string(), 3.0),
                ("upGrav".to_string(), 2.0),
                ("upGeo".to_string(), 2.0),
            ],
            ..FaultConfig::default()
        });
        assert_eq!(inj.latency_multiplier("upGeo"), 6.0);
        assert_eq!(inj.latency_multiplier("upGrav"), 2.0);
        assert_eq!(inj.latency_multiplier("upCor"), 1.0);
        assert_eq!(inj.injected(), 0, "slowdowns are not discrete faults");
    }

    #[test]
    fn rank_loss_is_recorded_per_injection() {
        let inj = FaultInjector::new(FaultConfig {
            rank_loss: vec![RankLoss { rank: 3, step: 2 }],
            ..FaultConfig::default()
        });
        assert_eq!(inj.injected(), 0, "a schedule alone records nothing");
        inj.inject_rank_loss(3, 2);
        assert_eq!(inj.injected_of(FaultKind::RankLost), 1);
        let rec = &inj.log()[0];
        assert_eq!(rec.kind, FaultKind::RankLost);
        assert!(rec.detail.contains("rank 3") && rec.detail.contains("step 2"));
    }

    #[test]
    fn ordinals_are_per_kernel() {
        let inj = FaultInjector::new(FaultConfig::default());
        assert_eq!(inj.next_ordinal("a"), 0);
        assert_eq!(inj.next_ordinal("b"), 0);
        assert_eq!(inj.next_ordinal("a"), 1);
        assert_eq!(inj.next_ordinal("b"), 1);
    }

    #[test]
    fn display_covers_all_variants() {
        let errs = [
            LaunchError::Config {
                message: "m".into(),
            },
            LaunchError::Transient { kernel: "k".into() },
            LaunchError::PersistentVariant {
                kernel: "k".into(),
                variant: "v".into(),
            },
            LaunchError::DeviceLost { kernel: "k".into() },
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
        assert!(errs[1].is_retryable());
        assert!(!errs[3].is_retryable());
    }
}
