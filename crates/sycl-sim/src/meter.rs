//! Instruction metering and virtual-register tracking.
//!
//! Every operation executed through the simulator is classified into an
//! [`InstrClass`] and counted. The counts, together with the peak number of
//! live virtual registers (tracked by [`Lanes`](crate::lanes::Lanes)
//! allocation/drop), are the inputs to the cost model — performance is
//! derived from what the kernel actually *did*, not from declared numbers.

use std::cell::{Cell, RefCell};

/// Per-launch metering policy: whether the sub-group meters of a
/// [`crate::Device::launch`] record anything.
///
/// Metering is bookkeeping on the one execution path. Under
/// [`MeterPolicy::Off`] every charge, register-tracking and local-memory
/// call on the [`SgMeter`] is a no-op; the [`Lanes`](crate::lanes::Lanes)
/// operations themselves are the same code on the same values either way,
/// so results are bit-identical and only the cost of the bookkeeping
/// differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MeterPolicy {
    /// Count every instruction, track register pressure and local memory.
    #[default]
    Full,
    /// Record nothing. Launch reports carry zeroed instruction counts.
    Off,
}

impl std::str::FromStr for MeterPolicy {
    type Err = String;

    /// The one spelling table (`HACC_METER`, `--meter`): `full` meters,
    /// `off` (alias `fast`) does not; anything else is an error listing
    /// the accepted set.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(MeterPolicy::Full),
            "off" | "fast" => Ok(MeterPolicy::Off),
            other => Err(format!(
                "unknown metering policy `{other}` (accepted: full | off | fast)"
            )),
        }
    }
}

impl MeterPolicy {
    /// Policy selected by the `HACC_METER` environment variable (unset
    /// meters fully). Lets CLI front-ends flip the whole process without
    /// threading a flag through every call, mirroring `HACC_EXEC`.
    ///
    /// # Panics
    /// On a value [`MeterPolicy::from_str`](std::str::FromStr) rejects:
    /// a mistyped `HACC_METER` must not silently run the other policy.
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var("HACC_METER").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MeterPolicy::from_env`] on an already-read value (`None` = unset).
    fn from_env_value(value: Option<&str>) -> Result<Self, String> {
        match value {
            None => Ok(MeterPolicy::Full),
            Some(v) => v.parse().map_err(|e| format!("HACC_METER: {e}")),
        }
    }

    /// Stable label for telemetry and benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            MeterPolicy::Full => "full",
            MeterPolicy::Off => "off",
        }
    }
}

/// Classification of simulated device instructions.
///
/// Counts are per sub-group instruction, except the atomic classes, which
/// are counted per *active lane* (GPU atomics serialize per lane).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum InstrClass {
    /// Single-cycle vector ALU: add/sub/mul/fma/compare/select/mov.
    Alu = 0,
    /// Full-precision floating-point division / IEEE sqrt.
    Div,
    /// Fast (native/approximate) transcendental: rsqrt, exp, pow, …
    MathFast,
    /// Precise transcendental (library sequence).
    MathPrecise,
    /// Global-memory load (per vector instruction, coalesced).
    GlobalLoad,
    /// Global-memory store.
    GlobalStore,
    /// Work-group local-memory load.
    LocalLoad,
    /// Work-group local-memory store.
    LocalStore,
    /// Arbitrary cross-lane gather through indirect register access
    /// (Intel Xe `mov r[a0.0]`; costs one cycle per element — Figure 5).
    ShuffleIndirect,
    /// Dedicated cross-lane instruction (NVIDIA `SHFL`, AMD `ds_bpermute`).
    ShuffleDedicated,
    /// Broadcast via register regioning (Intel, compile-time-known lane;
    /// Figure 6 — nearly free).
    ShuffleRegioned,
    /// The 4-`mov` inline-vISA butterfly shuffle (§5.3.3, Figure 8).
    ShuffleVisa,
    /// Hardware-native atomic (FP32 add everywhere; min/max where
    /// supported). Counted per active lane.
    AtomicNative,
    /// Atomic emulated by a compare-and-swap loop (FP min/max on NVIDIA;
    /// §5.1). Counted per active lane.
    AtomicCas,
    /// Sub-group / work-group barrier.
    Barrier,
}

/// Number of instruction classes.
pub const N_CLASSES: usize = 15;

/// All classes, for iteration and reporting.
pub const ALL_CLASSES: [InstrClass; N_CLASSES] = [
    InstrClass::Alu,
    InstrClass::Div,
    InstrClass::MathFast,
    InstrClass::MathPrecise,
    InstrClass::GlobalLoad,
    InstrClass::GlobalStore,
    InstrClass::LocalLoad,
    InstrClass::LocalStore,
    InstrClass::ShuffleIndirect,
    InstrClass::ShuffleDedicated,
    InstrClass::ShuffleRegioned,
    InstrClass::ShuffleVisa,
    InstrClass::AtomicNative,
    InstrClass::AtomicCas,
    InstrClass::Barrier,
];

impl InstrClass {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            InstrClass::Alu => "alu",
            InstrClass::Div => "div",
            InstrClass::MathFast => "math.fast",
            InstrClass::MathPrecise => "math.precise",
            InstrClass::GlobalLoad => "mem.load",
            InstrClass::GlobalStore => "mem.store",
            InstrClass::LocalLoad => "slm.load",
            InstrClass::LocalStore => "slm.store",
            InstrClass::ShuffleIndirect => "shuffle.indirect",
            InstrClass::ShuffleDedicated => "shuffle.dedicated",
            InstrClass::ShuffleRegioned => "shuffle.regioned",
            InstrClass::ShuffleVisa => "shuffle.visa",
            InstrClass::AtomicNative => "atomic.native",
            InstrClass::AtomicCas => "atomic.cas",
            InstrClass::Barrier => "barrier",
        }
    }
}

thread_local! {
    /// Parked `Lanes` scratch buffers, handed from a retiring meter to
    /// the next one constructed on this thread. A launch creates one
    /// meter per sub-group, so routing the pools through this stash (two
    /// thread-local accesses per *sub-group*) lets every sub-group after
    /// the first start with warm buffers while keeping the per-*op*
    /// pool access a plain field load on the meter.
    static SCRATCH_STASH: RefCell<ScratchStash> = const { RefCell::new(ScratchStash::empty()) };
}

/// The parked pools (one per lane scalar type) of a retired meter.
#[derive(Debug, Default)]
struct ScratchStash {
    f32: Vec<Box<[f32]>>,
    u32: Vec<Box<[u32]>>,
    bool: Vec<Box<[bool]>>,
}

impl ScratchStash {
    const fn empty() -> Self {
        Self {
            f32: Vec::new(),
            u32: Vec::new(),
            bool: Vec::new(),
        }
    }
}

/// Per-sub-group meter. Single-threaded (`Cell`) because one sub-group
/// executes on one host thread; results are merged into a
/// [`LaunchStats`] after the sub-group finishes.
#[derive(Debug)]
pub struct SgMeter {
    counts: [Cell<u64>; N_CLASSES],
    live_regs: Cell<u32>,
    peak_regs: Cell<u32>,
    local_bytes: Cell<u32>,
    metered: bool,
    /// Fast-math code generation (affects how math ops are classified).
    pub fast_math: bool,
    /// Scratch-buffer pools for `Lanes` storage recycling, seeded from
    /// this thread's [`ScratchStash`] and returned to it on drop.
    pub(crate) scratch_f32: RefCell<Vec<Box<[f32]>>>,
    pub(crate) scratch_u32: RefCell<Vec<Box<[u32]>>>,
    pub(crate) scratch_bool: RefCell<Vec<Box<[bool]>>>,
}

impl SgMeter {
    /// A fresh, fully-metering meter.
    pub fn new(fast_math: bool) -> Self {
        Self::new_with_mode(fast_math, MeterPolicy::Full)
    }

    /// A fresh meter under an explicit [`MeterPolicy`].
    pub fn new_with_mode(fast_math: bool, policy: MeterPolicy) -> Self {
        let stash = SCRATCH_STASH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        Self {
            counts: Default::default(),
            live_regs: Cell::new(0),
            peak_regs: Cell::new(0),
            local_bytes: Cell::new(0),
            metered: policy == MeterPolicy::Full,
            fast_math,
            scratch_f32: RefCell::new(stash.f32),
            scratch_u32: RefCell::new(stash.u32),
            scratch_bool: RefCell::new(stash.bool),
        }
    }

    /// Adds `n` occurrences of `class`.
    #[inline]
    pub fn charge(&self, class: InstrClass, n: u64) {
        if !self.metered {
            return;
        }
        let c = &self.counts[class as usize];
        c.set(c.get() + n);
    }

    /// Classifies a transcendental under the current math mode.
    #[inline]
    pub fn charge_math(&self, n: u64) {
        if self.fast_math {
            self.charge(InstrClass::MathFast, n);
        } else {
            self.charge(InstrClass::MathPrecise, n);
        }
    }

    /// Allocates `words` virtual registers per work-item (a `Lanes` value).
    #[inline]
    pub fn alloc_regs(&self, words: u32) {
        if !self.metered {
            return;
        }
        let live = self.live_regs.get() + words;
        self.live_regs.set(live);
        if live > self.peak_regs.get() {
            self.peak_regs.set(live);
        }
    }

    /// Releases registers on `Lanes` drop.
    #[inline]
    pub fn free_regs(&self, words: u32) {
        if !self.metered {
            return;
        }
        let live = self.live_regs.get();
        debug_assert!(live >= words, "register tracker underflow");
        self.live_regs.set(live.saturating_sub(words));
    }

    /// Records a local-memory footprint requirement (bytes per sub-group);
    /// keeps the maximum.
    #[inline]
    pub fn note_local_bytes(&self, bytes: u32) {
        if !self.metered {
            return;
        }
        if bytes > self.local_bytes.get() {
            self.local_bytes.set(bytes);
        }
    }

    /// Currently live registers (words per work-item).
    pub fn live_regs(&self) -> u32 {
        self.live_regs.get()
    }

    /// Snapshot of this sub-group's contribution.
    pub fn snapshot(&self) -> LaunchStats {
        let mut counts = [0u64; N_CLASSES];
        for (o, c) in counts.iter_mut().zip(&self.counts) {
            *o = c.get();
        }
        LaunchStats {
            counts,
            peak_regs: self.peak_regs.get(),
            local_bytes_per_sg: self.local_bytes.get(),
            n_subgroups: 1,
        }
    }
}

impl Drop for SgMeter {
    /// Parks the meter's scratch pools in the thread-local stash so the
    /// next sub-group on this thread starts with warm buffers.
    fn drop(&mut self) {
        let pools = ScratchStash {
            f32: std::mem::take(&mut *self.scratch_f32.borrow_mut()),
            u32: std::mem::take(&mut *self.scratch_u32.borrow_mut()),
            bool: std::mem::take(&mut *self.scratch_bool.borrow_mut()),
        };
        if pools.f32.is_empty() && pools.u32.is_empty() && pools.bool.is_empty() {
            return;
        }
        SCRATCH_STASH.with(|s| {
            let mut stash = s.borrow_mut();
            // Keep whichever generation holds more warm buffers; in the
            // common one-meter-at-a-time case the stash is empty here.
            if pools.f32.len() + pools.u32.len() + pools.bool.len()
                >= stash.f32.len() + stash.u32.len() + stash.bool.len()
            {
                *stash = pools;
            }
        });
    }
}

/// Aggregated execution statistics for a kernel launch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Instruction counts per class.
    pub counts: [u64; N_CLASSES],
    /// Maximum live registers (words per work-item) over all sub-groups.
    pub peak_regs: u32,
    /// Local-memory footprint per sub-group, bytes (max over sub-groups).
    pub local_bytes_per_sg: u32,
    /// Number of sub-group instances merged in.
    pub n_subgroups: u64,
}

impl LaunchStats {
    /// Merges another sub-group's (or launch's) stats into this one.
    pub fn merge(&mut self, other: &LaunchStats) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.peak_regs = self.peak_regs.max(other.peak_regs);
        self.local_bytes_per_sg = self.local_bytes_per_sg.max(other.local_bytes_per_sg);
        self.n_subgroups += other.n_subgroups;
    }

    /// Count for one class.
    #[inline]
    pub fn count(&self, class: InstrClass) -> u64 {
        self.counts[class as usize]
    }

    /// Total dynamic instructions (all classes).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_accumulates() {
        let m = SgMeter::new(true);
        m.charge(InstrClass::Alu, 3);
        m.charge(InstrClass::Alu, 2);
        m.charge(InstrClass::Barrier, 1);
        let s = m.snapshot();
        assert_eq!(s.count(InstrClass::Alu), 5);
        assert_eq!(s.count(InstrClass::Barrier), 1);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn math_mode_selects_class() {
        let fast = SgMeter::new(true);
        fast.charge_math(4);
        assert_eq!(fast.snapshot().count(InstrClass::MathFast), 4);
        assert_eq!(fast.snapshot().count(InstrClass::MathPrecise), 0);
        let precise = SgMeter::new(false);
        precise.charge_math(4);
        assert_eq!(precise.snapshot().count(InstrClass::MathPrecise), 4);
    }

    #[test]
    fn register_peak_tracking() {
        let m = SgMeter::new(true);
        m.alloc_regs(3);
        m.alloc_regs(5); // live 8
        m.free_regs(3); // live 5
        m.alloc_regs(2); // live 7 < peak 8
        assert_eq!(m.snapshot().peak_regs, 8);
        assert_eq!(m.live_regs(), 7);
    }

    #[test]
    fn fast_mode_records_nothing() {
        let m = SgMeter::new_with_mode(true, MeterPolicy::Off);
        m.charge(InstrClass::Alu, 5);
        m.charge_math(3);
        m.alloc_regs(7);
        m.note_local_bytes(256);
        m.free_regs(7);
        let s = m.snapshot();
        assert_eq!(s.total(), 0);
        assert_eq!(s.peak_regs, 0);
        assert_eq!(s.local_bytes_per_sg, 0);
        assert_eq!(s.n_subgroups, 1);
        assert_eq!(m.live_regs(), 0);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(MeterPolicy::Full.label(), "full");
        assert_eq!(MeterPolicy::Off.label(), "off");
        assert_eq!(MeterPolicy::default(), MeterPolicy::Full);
    }

    #[test]
    fn policy_parses_once_and_loudly() {
        assert_eq!("full".parse(), Ok(MeterPolicy::Full));
        assert_eq!("off".parse(), Ok(MeterPolicy::Off));
        assert_eq!("fast".parse(), Ok(MeterPolicy::Off));
        assert_eq!(MeterPolicy::from_env_value(None), Ok(MeterPolicy::Full));
        assert_eq!(
            MeterPolicy::from_env_value(Some("off")),
            Ok(MeterPolicy::Off)
        );
        // The removed policy (and any typo) names the variable and the
        // accepted set instead of silently metering fully.
        assert_eq!(
            MeterPolicy::from_env_value(Some("sampled")),
            Err(
                "HACC_METER: unknown metering policy `sampled` (accepted: full | off | fast)"
                    .to_string()
            )
        );
        assert!(MeterPolicy::from_env_value(Some("Full")).is_err());
        assert!(MeterPolicy::from_env_value(Some("")).is_err());
    }

    #[test]
    fn stats_merge() {
        let a = {
            let m = SgMeter::new(true);
            m.charge(InstrClass::Alu, 10);
            m.alloc_regs(4);
            m.snapshot()
        };
        let b = {
            let m = SgMeter::new(true);
            m.charge(InstrClass::Alu, 7);
            m.charge(InstrClass::Div, 1);
            m.alloc_regs(9);
            m.note_local_bytes(128);
            m.snapshot()
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(InstrClass::Alu), 17);
        assert_eq!(merged.count(InstrClass::Div), 1);
        assert_eq!(merged.peak_regs, 9);
        assert_eq!(merged.local_bytes_per_sg, 128);
        assert_eq!(merged.n_subgroups, 2);
    }
}
