//! Instruction metering and virtual-register tracking.
//!
//! Every operation executed through the simulator is classified into an
//! [`InstrClass`] and counted. The counts, together with the peak number of
//! live virtual registers (tracked by [`Lanes`](crate::lanes::Lanes)
//! allocation/drop), are the inputs to the cost model — performance is
//! derived from what the kernel actually *did*, not from declared numbers.
//! A loop whose iterations run the same op sequence may be metered for
//! one iteration and charged for the rest ([`SgMeter::repeat_since`]).

use crate::lanes::MAX_SG_SIZE;
use crate::simd::{Reg, LANE_BLOCK};
use std::cell::Cell;

/// Per-launch metering policy: whether the sub-group meters of a
/// [`crate::Device::launch`] record anything.
///
/// The `hacc-kernels` pair kernels run one interaction group per tile
/// op by op on [`Lanes`](crate::lanes::Lanes), charge the identical
/// remaining groups with [`SgMeter::repeat_since`], and run those in a
/// fused executor. Under [`MeterPolicy::Off`] every charge,
/// register-tracking and local-memory call on the [`SgMeter`] is a
/// no-op, and those kernels fuse the first group too. Results are
/// bit-identical under both policies; only the cost differs.
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

    /// The inverse of [`MeterPolicy::label`] (`--meter`): anything else
    /// is an error listing the accepted set.
    fn from_str(s: &str) -> Result<Self, String> {
        let all = [MeterPolicy::Full, MeterPolicy::Off];
        all.into_iter().find(|p| p.label() == s).ok_or_else(|| {
            let accepted: Vec<_> = all.iter().map(MeterPolicy::label).collect();
            format!(
                "unknown metering policy `{s}` (accepted: {})",
                accepted.join(" | ")
            )
        })
    }
}

impl MeterPolicy {
    /// Stable label for telemetry, benchmark output and `--meter`: the
    /// one spelling of each policy.
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
pub(crate) const ALL_CLASSES: [InstrClass; N_CLASSES] = [
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

/// Registers a pool holds per scalar type: more than a kernel keeps
/// live, and at most 36 KiB per worker thread.
const POOL_CAP: usize = 64;

/// A fixed stack of free registers of one scalar type. Every register is
/// [`MAX_SG_SIZE`] lanes wide, so any pooled register serves any
/// sub-group, and the `Cell` slots need no borrow flag.
#[doc(hidden)]
pub struct RegPool<T> {
    slots: [Cell<Option<Box<Reg<T>>>>; POOL_CAP],
    len: Cell<usize>,
}

impl<T: Copy + Default> RegPool<T> {
    const fn empty() -> Self {
        Self {
            slots: [const { Cell::new(None) }; POOL_CAP],
            len: Cell::new(0),
        }
    }

    /// Takes a free register, or allocates one when the pool is empty.
    #[inline]
    pub(crate) fn pop(&self) -> Box<Reg<T>> {
        let len = self.len.get();
        let top = len.checked_sub(1).and_then(|top| self.slots.get(top));
        if let Some(reg) = top.and_then(Cell::take) {
            self.len.set(len - 1);
            return reg;
        }
        Box::new([[T::default(); LANE_BLOCK]; MAX_SG_SIZE / LANE_BLOCK])
    }

    /// Returns a register to the pool (freed instead when it is full).
    #[inline]
    pub(crate) fn push(&self, reg: Box<Reg<T>>) {
        let len = self.len.get();
        if let Some(slot) = self.slots.get(len) {
            slot.set(Some(reg));
            self.len.set(len + 1);
        }
    }
}

/// The register pools of one meter, one per lane scalar type.
pub(crate) struct Pools {
    pub(crate) f32: RegPool<f32>,
    pub(crate) u32: RegPool<u32>,
    pub(crate) bool: RegPool<bool>,
}

impl Pools {
    const fn empty() -> Self {
        Self {
            f32: RegPool::empty(),
            u32: RegPool::empty(),
            bool: RegPool::empty(),
        }
    }
}

thread_local! {
    /// The register pools of the last meter retired on this thread,
    /// handed to the next one: two thread-local accesses per sub-group,
    /// none per op, and every sub-group after the first starts warm.
    static REG_STASH: Cell<Pools> = const { Cell::new(Pools::empty()) };
}

/// Per-sub-group meter. Single-threaded (`Cell`) because one sub-group
/// executes on one host thread; results are merged into a
/// [`LaunchStats`] after the sub-group finishes.
pub struct SgMeter {
    counts: [Cell<u64>; N_CLASSES],
    live_regs: Cell<u32>,
    peak_regs: Cell<u32>,
    local_bytes: Cell<u32>,
    metered: bool,
    /// Fast-math code generation (affects how math ops are classified).
    pub fast_math: bool,
    /// `Lanes` storage, taken from and returned to this thread's stash.
    pub(crate) pools: Pools,
}

impl SgMeter {
    /// A fresh meter under an explicit [`MeterPolicy`].
    pub(crate) fn new_with_mode(fast_math: bool, policy: MeterPolicy) -> Self {
        Self {
            counts: Default::default(),
            live_regs: Cell::new(0),
            peak_regs: Cell::new(0),
            local_bytes: Cell::new(0),
            metered: policy == MeterPolicy::Full,
            fast_math,
            pools: REG_STASH.with(|s| s.replace(Pools::empty())),
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
    pub(crate) fn charge_math(&self, n: u64) {
        if self.fast_math {
            self.charge(InstrClass::MathFast, n);
        } else {
            self.charge(InstrClass::MathPrecise, n);
        }
    }

    /// Allocates `words` virtual registers per work-item (a `Lanes` value).
    #[inline]
    pub(crate) fn alloc_regs(&self, words: u32) {
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
    pub(crate) fn free_regs(&self, words: u32) {
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
    pub(crate) fn note_local_bytes(&self, bytes: u32) {
        if !self.metered {
            return;
        }
        if bytes > self.local_bytes.get() {
            self.local_bytes.set(bytes);
        }
    }

    /// Charges the instructions recorded since `mark` (an earlier
    /// [`SgMeter::snapshot`]) again, scaled to `more` iterations when
    /// they were `of` identical iterations of a loop body. Registers and
    /// local memory are maxima, which a repeat cannot raise.
    pub fn repeat_since(&self, mark: &LaunchStats, of: u64, more: u64) {
        if !self.metered {
            return;
        }
        for (c, m) in self.counts.iter().zip(&mark.counts) {
            let span = c.get() - m;
            debug_assert_eq!(span % of, 0, "{of} iterations charged unequal counts");
            c.set(c.get() + span / of * more);
        }
    }

    /// Currently live registers (words per work-item).
    pub(crate) fn live_regs(&self) -> u32 {
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
    /// Parks the meter's register pools in the thread-local stash so the
    /// next sub-group on this thread starts with warm registers.
    fn drop(&mut self) {
        let pools = std::mem::replace(&mut self.pools, Pools::empty());
        REG_STASH.with(|s| s.set(pools));
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
}

#[cfg(test)]
impl LaunchStats {
    /// Total dynamic instructions (all classes).
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pool helpers for the register-layer tests of this crate.
    impl<T: Copy + Default> RegPool<T> {
        /// Free registers held.
        pub(crate) fn len(&self) -> usize {
            self.len.get()
        }

        /// Frees every pooled register.
        pub(crate) fn clear(&self) {
            while self.len() > 0 {
                drop(self.pop());
            }
        }

        /// Refills the pool with registers holding `v` in every lane.
        pub(crate) fn poison(&self, v: T) {
            self.clear();
            for _ in 0..POOL_CAP {
                self.push(Box::new([[v; LANE_BLOCK]; MAX_SG_SIZE / LANE_BLOCK]));
            }
        }
    }

    #[test]
    fn charging_accumulates() {
        let m = SgMeter::new_with_mode(true, MeterPolicy::Full);
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
        let fast = SgMeter::new_with_mode(true, MeterPolicy::Full);
        fast.charge_math(4);
        assert_eq!(fast.snapshot().count(InstrClass::MathFast), 4);
        assert_eq!(fast.snapshot().count(InstrClass::MathPrecise), 0);
        let precise = SgMeter::new_with_mode(false, MeterPolicy::Full);
        precise.charge_math(4);
        assert_eq!(precise.snapshot().count(InstrClass::MathPrecise), 4);
    }

    #[test]
    fn register_peak_tracking() {
        let m = SgMeter::new_with_mode(true, MeterPolicy::Full);
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
    fn repeats_charge_the_span_since_the_mark_per_iteration() {
        let m = SgMeter::new_with_mode(true, MeterPolicy::Full);
        m.charge(InstrClass::Div, 7);
        m.alloc_regs(5);
        let mark = m.snapshot();
        m.charge(InstrClass::Alu, 6);
        m.charge(InstrClass::Barrier, 2);
        m.repeat_since(&mark, 2, 5);
        let s = m.snapshot();
        assert_eq!(s.count(InstrClass::Alu), 6 + 15);
        assert_eq!(s.count(InstrClass::Barrier), 2 + 5);
        assert_eq!(s.count(InstrClass::Div), 7, "charged before the mark");
        assert_eq!(s.peak_regs, 5);
        let off = SgMeter::new_with_mode(true, MeterPolicy::Off);
        off.repeat_since(&mark, 1, 3);
        assert_eq!(off.snapshot().total(), 0);
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
        for p in [MeterPolicy::Full, MeterPolicy::Off] {
            assert_eq!(p.label().parse(), Ok(p));
        }
        // The removed policy and alias (and any typo) name the accepted
        // set instead of silently metering fully.
        assert_eq!(
            "sampled".parse::<MeterPolicy>(),
            Err("unknown metering policy `sampled` (accepted: full | off)".to_string())
        );
        assert!("fast".parse::<MeterPolicy>().is_err());
        assert!("Full".parse::<MeterPolicy>().is_err());
        assert!("".parse::<MeterPolicy>().is_err());
    }

    #[test]
    fn stats_merge() {
        let a = {
            let m = SgMeter::new_with_mode(true, MeterPolicy::Full);
            m.charge(InstrClass::Alu, 10);
            m.alloc_regs(4);
            m.snapshot()
        };
        let b = {
            let m = SgMeter::new_with_mode(true, MeterPolicy::Full);
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
