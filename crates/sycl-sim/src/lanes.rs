//! `Lanes<'sg, T>` — a sub-group-wide SIMD value with instruction
//! metering and virtual-register tracking.
//!
//! A `Lanes<f32>` models one vector register holding one 32-bit value per
//! work-item of a sub-group. Its arithmetic is its [`Real`] instance and
//! nothing else: every op charges the sub-group meter with its
//! [`InstrClass`], and every live `Lanes` occupies tracked virtual
//! registers — so a kernel's register pressure (the paper's central
//! tuning concern, §5.2) **emerges from the number of live temporaries in
//! the kernel source**, exactly as it does under a real compiler.
//!
//! ## One data path
//!
//! Every data-producing operation runs the same body whether or not the
//! meter records: lanes are processed in `simd` block loops
//! (`LANE_BLOCK`-wide batches dispatched to AVX2 where the host has it)
//! writing into a pooled register, so the hot loop performs no
//! per-instruction heap allocation. Metering
//! ([`MeterPolicy`](crate::meter::MeterPolicy)) only decides whether the
//! `charge`/`alloc_regs`/`free_regs`/`note_local_bytes` calls record —
//! it never selects arithmetic, so an unmetered run cannot differ from a
//! metered one in its results.
//!
//! ## Registers
//!
//! A value's storage is a boxed register of [`MAX_SG_SIZE`] lanes,
//! whatever the sub-group size `n`, popped from and pushed back to a
//! fixed stack of `Cell` slots on the sub-group's meter, so any pooled
//! register serves any sub-group. The value borrows the meter its
//! [`Sg`] owns (`&'sg SgMeter`): an op costs no reference
//! count, and the compiler checks that no register outlives its
//! sub-group. A retired meter hands its pools to the next one on the
//! same thread through a thread-local stash.
//!
//! **Padding lanes** `n..` hold stale values. Only the pure element-wise
//! loops compute on them (see `simd`); every reader sees lanes `0..n`.

use crate::meter::{InstrClass, InstrClass::Alu, RegPool, SgMeter};
use crate::real::Real;
use crate::simd::{self, Reg};
use crate::subgroup::Sg;

/// Lanes of one register: the widest sub-group the simulator runs
/// (AMD wave64). Every register has this width; a sub-group of size
/// `n` uses its first `n` lanes.
pub const MAX_SG_SIZE: usize = 64;

/// Marker for types storable in a lane (one 32-bit word each).
pub trait LaneScalar: Copy + Default + std::fmt::Debug + 'static {
    /// Register words occupied per work-item.
    const WORDS: u32;

    /// The meter's register pool for this scalar type.
    #[doc(hidden)]
    fn pool(meter: &SgMeter) -> &RegPool<Self>;
}
macro_rules! lane_scalar {
    ($($t:ident),*) => {$(
        impl LaneScalar for $t {
            const WORDS: u32 = 1;
            #[inline]
            fn pool(meter: &SgMeter) -> &RegPool<$t> {
                &meter.pools.$t
            }
        }
    )*};
}
lane_scalar!(f32, u32, bool);

/// A sub-group-wide vector value (one element per work-item): a pooled
/// fixed-width register borrowed from its sub-group's meter, so it
/// cannot outlive the sub-group.
///
/// ```compile_fail,E0597
/// use sycl_sim::{GpuArch, Lanes, Sg, SgConfig};
/// let escaped: Lanes<f32> = {
///     let sg = Sg::new(0, 16, SgConfig::for_arch(&GpuArch::aurora(), true, true));
///     sg.splat_f32(1.0)
/// };
/// ```
pub struct Lanes<'sg, T: LaneScalar> {
    /// Always `Some` until `drop` hands the storage back to the pool.
    vals: Option<Box<Reg<T>>>,
    n: usize,
    meter: &'sg SgMeter,
}

impl<'sg, T: LaneScalar> Lanes<'sg, T> {
    /// Register allocation: pops a register from the meter's pool (its
    /// lanes hold stale values; every user writes lanes `0..n` before
    /// any reader sees them).
    #[inline]
    pub(crate) fn alloc(n: usize, meter: &'sg SgMeter) -> Self {
        meter.alloc_regs(T::WORDS);
        Self {
            vals: Some(T::pool(meter).pop()),
            n,
            meter,
        }
    }

    /// Builds a register from a per-lane function — the shared core of
    /// splats, lane ids and gathered global loads. Charging is done by
    /// the caller.
    #[inline]
    pub(crate) fn build(n: usize, meter: &'sg SgMeter, f: impl Fn(usize) -> T) -> Self {
        let mut out = Lanes::alloc(n, meter);
        simd::fill(n, out.reg_mut(), f);
        out
    }

    #[inline]
    fn reg(&self) -> &Reg<T> {
        self.vals.as_deref().expect("live register")
    }

    #[inline]
    fn reg_mut(&mut self) -> &mut Reg<T> {
        self.vals.as_deref_mut().expect("live register")
    }

    /// Number of lanes (the sub-group size).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Lanes are never zero-width.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reads one lane (host-side inspection; free).
    #[inline]
    pub fn get(&self, lane: usize) -> T {
        self.as_slice()[lane]
    }

    /// Raw lane values (host-side inspection; free).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.padded()[..self.n]
    }

    /// All `MAX_SG_SIZE` lanes, padding included, for gathers: they
    /// index lanes below `n`, so need no bounds check against it.
    #[inline]
    pub(crate) fn padded(&self) -> &[T; MAX_SG_SIZE] {
        self.reg().as_flattened().try_into().expect("64 lanes")
    }

    /// Overwrites lanes `0..n` with `vals[..n]` in place: hands a value
    /// computed outside the meter back into the register that held it.
    /// Charges nothing and takes no new register, so the meter reports
    /// the ops that ran on `Lanes` and nothing else.
    #[inline]
    pub fn refill(&mut self, vals: &[T]) {
        let n = self.n;
        self.reg_mut().as_flattened_mut()[..n].copy_from_slice(&vals[..n]);
    }

    /// Element-wise map (no charge).
    #[inline]
    pub(crate) fn apply_map<U: LaneScalar>(&self, f: impl Fn(T) -> U) -> Lanes<'sg, U> {
        let mut out = Lanes::<U>::alloc(self.n, self.meter);
        simd::map(self.n, self.reg(), out.reg_mut(), f);
        out
    }

    /// Element-wise zip (no charge).
    #[inline]
    pub(crate) fn apply_zip<U: LaneScalar, V: LaneScalar>(
        &self,
        other: &Lanes<'sg, U>,
        f: impl Fn(T, U) -> V,
    ) -> Lanes<'sg, V> {
        debug_assert_eq!(self.n, other.n, "sub-group width mismatch");
        let mut out = Lanes::<V>::alloc(self.n, self.meter);
        simd::zip(self.n, self.reg(), other.reg(), out.reg_mut(), f);
        out
    }

    /// Element-wise three-operand combine (no charge).
    #[inline]
    pub(crate) fn apply_zip3<U: LaneScalar, V: LaneScalar, W: LaneScalar>(
        &self,
        b: &Lanes<'sg, U>,
        c: &Lanes<'sg, V>,
        f: impl Fn(T, U, V) -> W,
    ) -> Lanes<'sg, W> {
        debug_assert_eq!(self.n, b.n, "sub-group width mismatch");
        debug_assert_eq!(self.n, c.n, "sub-group width mismatch");
        let mut out = Lanes::<W>::alloc(self.n, self.meter);
        simd::zip3(self.n, self.reg(), b.reg(), c.reg(), out.reg_mut(), f);
        out
    }

    /// Element-wise map producing a new register, charging `class` once.
    #[inline]
    pub(crate) fn map_into<U: LaneScalar>(
        &self,
        class: InstrClass,
        f: impl Fn(T) -> U,
    ) -> Lanes<'sg, U> {
        self.meter.charge(class, 1);
        self.apply_map(f)
    }

    /// Element-wise zip producing a new register, charging `class` once.
    #[inline]
    pub(crate) fn zip_into<U: LaneScalar, V: LaneScalar>(
        &self,
        other: &Lanes<'sg, U>,
        class: InstrClass,
        f: impl Fn(T, U) -> V,
    ) -> Lanes<'sg, V> {
        self.meter.charge(class, 1);
        self.apply_zip(other, f)
    }
}

impl<T: LaneScalar> Drop for Lanes<'_, T> {
    /// Out of line: inlined at every temporary of a kernel body, the
    /// register bookkeeping and pool push were most of its metered copy.
    #[inline(never)]
    fn drop(&mut self) {
        self.meter.free_regs(T::WORDS);
        if let Some(vals) = self.vals.take() {
            T::pool(self.meter).push(vals);
        }
    }
}

impl<T: LaneScalar> Clone for Lanes<'_, T> {
    /// A register copy: allocates a new register and charges one `mov`.
    #[inline]
    fn clone(&self) -> Self {
        self.map_into(InstrClass::Alu, |v| v)
    }
}

impl<T: LaneScalar> std::fmt::Debug for Lanes<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lanes({:?})", self.as_slice())
    }
}

// ---------------------------------------------------------------------------
// f32 arithmetic: the `Real` instance, a register's only arithmetic
// ---------------------------------------------------------------------------

/// `Div`, or `MathFast` under fast-math, where division and square root
/// become reciprocal and native sequences.
#[inline]
fn div_class(meter: &SgMeter) -> InstrClass {
    if meter.fast_math {
        InstrClass::MathFast
    } else {
        InstrClass::Div
    }
}

/// `impl Real for Lanes<f32>`, one line per op: one charge of the op's
/// class and one register for its result. Every op is `#[inline]`, as
/// the kernels that call it live in other crates.
macro_rules! lanes_real {
    ($(fn $name:ident($($param:tt)*) -> $ret:ty $body:block)*) => {
        impl<'sg> Real for Lanes<'sg, f32> {
            type Mask = Lanes<'sg, bool>;
            type Ctx = &'sg Sg;
            $(#[inline] fn $name($($param)*) -> $ret $body)*
        }
    };
}
lanes_real! {
    fn splat(sg: &'sg Sg, c: f64) -> Self { sg.splat_f32(c as f32) }
    fn add(&self, o: &Self) -> Self { self.zip_into(o, Alu, |a, b| a + b) }
    fn sub(&self, o: &Self) -> Self { self.zip_into(o, Alu, |a, b| a - b) }
    fn mul(&self, o: &Self) -> Self { self.zip_into(o, Alu, |a, b| a * b) }
    fn div(&self, o: &Self) -> Self { self.zip_into(o, div_class(self.meter), |a, b| a / b) }
    fn neg(&self) -> Self { self.map_into(Alu, |a| -a) }
    fn add_c(&self, c: f64) -> Self { let c = c as f32; self.map_into(Alu, move |a| a + c) }
    fn mul_c(&self, c: f64) -> Self { let c = c as f32; self.map_into(Alu, move |a| a * c) }
    // Division by a constant is strength-reduced to a multiply.
    fn div_c(&self, c: f64) -> Self { let c = c as f32; self.map_into(Alu, move |a| a / c) }
    fn fma(&self, b: &Self, c: &Self) -> Self {
        self.meter.charge(Alu, 1);
        self.apply_zip3(b, c, |a, b, c| a * b + c)
    }
    fn sqrt(&self) -> Self { self.map_into(div_class(self.meter), f32::sqrt) }
    // Transcendental-class, whatever the math mode.
    fn rsqrt(&self) -> Self { self.meter.charge_math(1); self.apply_map(|v| 1.0 / v.sqrt()) }
    fn round(&self) -> Self { self.map_into(Alu, f32::round) }
    fn abs(&self) -> Self { self.map_into(Alu, f32::abs) }
    fn max(&self, o: &Self) -> Self { self.zip_into(o, Alu, f32::max) }
    fn min(&self, o: &Self) -> Self { self.zip_into(o, Alu, f32::min) }
    fn lt(&self, o: &Self) -> Self::Mask { self.zip_into(o, Alu, |a, b| a < b) }
    fn lt_c(&self, c: f64) -> Self::Mask { let c = c as f32; self.map_into(Alu, move |a| a < c) }
    fn gt_c(&self, c: f64) -> Self::Mask { let c = c as f32; self.map_into(Alu, move |a| a > c) }
    // `select` and `zero_unless` are one predicated mov each.
    fn select(&self, m: &Self::Mask, o: &Self) -> Self {
        self.meter.charge(Alu, 1);
        self.apply_zip3(m, o, |a, m, b| if m { a } else { b })
    }
    fn zero_unless(&self, m: &Self::Mask) -> Self {
        self.meter.charge(Alu, 1);
        self.apply_zip(m, |a, m| if m { a } else { 0.0 })
    }
    fn and(m: &Self::Mask, o: &Self::Mask) -> Self::Mask { m.and(o) }
    fn not(m: &Self::Mask) -> Self::Mask { m.not() }
}

// ---------------------------------------------------------------------------
// u32 operations (index arithmetic)
// ---------------------------------------------------------------------------

impl<'sg> Lanes<'sg, u32> {
    /// `self + c`.
    #[inline]
    pub fn add_scalar(&self, c: u32) -> Lanes<'sg, u32> {
        self.map_into(InstrClass::Alu, move |a| a.wrapping_add(c))
    }

    /// `self ^ c`.
    #[inline]
    pub fn xor_scalar(&self, c: u32) -> Lanes<'sg, u32> {
        self.map_into(InstrClass::Alu, move |a| a ^ c)
    }

    /// Converts to f32 lanes.
    #[inline]
    pub fn to_f32(&self) -> Lanes<'sg, f32> {
        self.map_into(InstrClass::Alu, |a| a as f32)
    }

    /// `self < c` per lane.
    #[inline]
    pub fn lt_scalar(&self, c: u32) -> Lanes<'sg, bool> {
        self.map_into(InstrClass::Alu, move |a| a < c)
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(&self, rhs: &Lanes<'sg, u32>) -> Lanes<'sg, u32> {
        self.zip_into(rhs, InstrClass::Alu, |a, b| a.min(b))
    }

    /// Masked select.
    #[inline]
    pub fn select(&self, mask: &Lanes<'sg, bool>, other: &Lanes<'sg, u32>) -> Lanes<'sg, u32> {
        self.meter.charge(InstrClass::Alu, 1);
        self.apply_zip3(mask, other, |a, m, b| if m { a } else { b })
    }
}

// ---------------------------------------------------------------------------
// bool operations (predicates)
// ---------------------------------------------------------------------------

impl<'sg> Lanes<'sg, bool> {
    /// Converts to 1.0/0.0 lanes (predicate materialization, one mov).
    #[inline]
    pub fn to_f32(&self) -> Lanes<'sg, f32> {
        self.map_into(InstrClass::Alu, |b| if b { 1.0 } else { 0.0 })
    }

    /// Logical and.
    #[inline]
    pub fn and(&self, other: &Lanes<'sg, bool>) -> Lanes<'sg, bool> {
        self.zip_into(other, InstrClass::Alu, |a, b| a && b)
    }

    /// Logical or.
    #[inline]
    pub fn or(&self, other: &Lanes<'sg, bool>) -> Lanes<'sg, bool> {
        self.zip_into(other, InstrClass::Alu, |a, b| a || b)
    }

    /// Logical not.
    #[inline]
    pub fn not(&self) -> Lanes<'sg, bool> {
        self.map_into(InstrClass::Alu, |a| !a)
    }

    /// True if all lanes are set.
    #[inline]
    pub fn all(&self) -> bool {
        self.meter.charge(InstrClass::Alu, 1);
        self.as_slice().iter().all(|&b| b)
    }

    /// Number of set lanes (host-visible popcount of a ballot).
    #[inline]
    pub fn count(&self) -> u64 {
        self.meter.charge(InstrClass::Alu, 1);
        self.as_slice().iter().filter(|&&b| b).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::meter::MeterPolicy;
    use crate::subgroup::SgConfig;

    const POLICIES: [MeterPolicy; 2] = [MeterPolicy::Full, MeterPolicy::Off];

    fn meter(policy: MeterPolicy) -> SgMeter {
        SgMeter::new_with_mode(true, policy)
    }

    /// Every op produces the directly computed lanes, metered or not.
    #[test]
    fn ops_match_directly_computed_lanes_under_both_policies() {
        for meter in POLICIES.map(meter) {
            let a = Lanes::<f32>::build(32, &meter, |l| (l as f32).sin() * 3.0);
            let b = Lanes::<f32>::build(32, &meter, |l| 1.0 + l as f32);
            let m = a.lt_c(0.0);
            let sum = a.add(&b);
            let fma = a.fma(&b, &sum);
            let sel = a.select(&m, &b);
            let rs = b.rsqrt();
            let copy = a.clone();
            // Golden values computed directly.
            for l in 0..32 {
                let av = (l as f32).sin() * 3.0;
                let bv = 1.0 + l as f32;
                assert_eq!(sum.get(l), av + bv);
                assert_eq!(fma.get(l), av * bv + (av + bv));
                assert_eq!(sel.get(l), if av < 0.0 { av } else { bv });
                assert_eq!(rs.get(l), 1.0 / bv.sqrt());
                assert_eq!(copy.get(l), av);
            }
        }
    }

    /// Register storage is recycled through the meter pool instead of
    /// being allocated per op.
    #[test]
    fn fast_path_recycles_scratch_buffers() {
        for meter in POLICIES.map(meter) {
            meter.pools.f32.clear();
            {
                let a = Lanes::<f32>::build(16, &meter, |l| l as f32);
                let _b = a.mul_c(2.0);
            } // both dropped into the pool
            assert_eq!(meter.pools.f32.len(), 2);
            {
                let a = Lanes::<f32>::build(16, &meter, |l| l as f32);
                let b = a.mul_c(2.0);
                // Both values came from the pool…
                assert_eq!(meter.pools.f32.len(), 0);
                // …and reused storage carries no stale data.
                for l in 0..16 {
                    assert_eq!(a.get(l), l as f32);
                    assert_eq!(b.get(l), 2.0 * l as f32);
                }
            }
            assert_eq!(meter.pools.f32.len(), 2);
        }
    }

    /// Pool storage survives across sub-groups via the thread-local
    /// stash: a retired sub-group's registers seed the next one's pool,
    /// whatever the two sub-groups' sizes, so sub-groups after the first
    /// start warm.
    #[test]
    fn scratch_pool_is_handed_across_subgroups() {
        let cfg = SgConfig::for_arch(&GpuArch::frontier(), true, false);
        for policy in POLICIES {
            let cfg = cfg.with_meter(policy);
            let storage = {
                let wide = Sg::new(0, 64, cfg);
                wide.meter().pools.f32.clear();
                let a = wide.from_fn_f32(|l| l as f32);
                a.as_slice().as_ptr()
            }; // sub-group dropped: its pooled register moves to the stash
            let narrow = Sg::new(1, 16, cfg);
            assert_eq!(
                narrow.meter().pools.f32.len(),
                1,
                "fresh {policy:?} sub-group must inherit the retired one's pool"
            );
            let a = narrow.from_fn_f32(|l| 2.0 * l as f32);
            assert_eq!(
                a.as_slice().as_ptr(),
                storage,
                "the 16-wide sub-group reuses the 64-wide one's register"
            );
            assert_eq!(a.len(), 16);
            assert_eq!(a.get(15), 30.0);
        }
    }

    /// The pool holds at most `POOL_CAP` registers; past that, dropped
    /// registers are freed and the pool stays usable.
    #[test]
    fn pool_is_bounded() {
        let meter = meter(MeterPolicy::Full);
        let live: Vec<_> = (0..100)
            .map(|l| Lanes::<u32>::build(8, &meter, |_| l))
            .collect();
        drop(live);
        assert_eq!(meter.pools.u32.len(), 64);
        assert_eq!(meter.live_regs(), 0);
        let x = Lanes::<u32>::build(8, &meter, |l| l as u32);
        assert_eq!(x.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// A refill writes the lanes in place: no charge, no register.
    #[test]
    fn refill_charges_nothing_and_keeps_its_register() {
        let meter = meter(MeterPolicy::Full);
        let mut a = Lanes::<f32>::build(4, &meter, |l| l as f32);
        let storage = a.as_slice().as_ptr();
        let before = (meter.snapshot(), meter.live_regs());
        a.refill(&[9.0, 8.0, 7.0, 6.0, 5.0]);
        assert_eq!(a.as_slice(), &[9.0, 8.0, 7.0, 6.0]);
        assert_eq!(a.as_slice().as_ptr(), storage);
        assert_eq!((meter.snapshot(), meter.live_regs()), before);
    }

    /// The counts `op` charges and the registers live while its result
    /// is held.
    fn charged<R>(sg: &Sg, op: impl FnOnce() -> R) -> ([u64; crate::meter::N_CLASSES], u32) {
        let before = sg.meter().snapshot().counts;
        let result = op();
        let after = sg.meter().snapshot().counts;
        let live = sg.meter().live_regs();
        drop(result);
        (std::array::from_fn(|c| after[c] - before[c]), live)
    }

    /// The per-op charge table of `Lanes<f32>`: every arithmetic op
    /// charges one instruction of its class, under precise and fast
    /// math, and takes one register for its result.
    #[test]
    fn each_op_charges_one_instruction_of_its_class() {
        use InstrClass::{Alu, Div, MathFast, MathPrecise};
        for fast_math in [false, true] {
            let sg = Sg::new(
                0,
                16,
                SgConfig::for_arch(&GpuArch::aurora(), fast_math, true),
            );
            let a = sg.from_fn_f32(|l| 1.0 + l as f32);
            let b = sg.from_fn_f32(|l| 2.0 - l as f32);
            let m = a.lt_c(4.0);
            let k = b.lt_c(0.0);
            let base = sg.meter().live_regs();
            let (div, math) = if fast_math {
                (MathFast, MathFast)
            } else {
                (Div, MathPrecise)
            };
            let table = [
                ("splat", Alu, charged(&sg, || Lanes::<f32>::splat(&sg, 0.5))),
                ("add", Alu, charged(&sg, || a.add(&b))),
                ("sub", Alu, charged(&sg, || a.sub(&b))),
                ("mul", Alu, charged(&sg, || a.mul(&b))),
                ("div", div, charged(&sg, || a.div(&b))),
                ("neg", Alu, charged(&sg, || a.neg())),
                ("add_c", Alu, charged(&sg, || a.add_c(0.5))),
                ("mul_c", Alu, charged(&sg, || a.mul_c(0.5))),
                ("div_c", Alu, charged(&sg, || a.div_c(0.5))),
                ("fma", Alu, charged(&sg, || a.fma(&b, &a))),
                ("sqrt", div, charged(&sg, || a.sqrt())),
                ("rsqrt", math, charged(&sg, || a.rsqrt())),
                ("round", Alu, charged(&sg, || a.round())),
                ("abs", Alu, charged(&sg, || b.abs())),
                ("max", Alu, charged(&sg, || a.max(&b))),
                ("min", Alu, charged(&sg, || a.min(&b))),
                ("lt", Alu, charged(&sg, || a.lt(&b))),
                ("lt_c", Alu, charged(&sg, || a.lt_c(0.5))),
                ("gt_c", Alu, charged(&sg, || a.gt_c(0.5))),
                ("select", Alu, charged(&sg, || a.select(&m, &b))),
                ("zero_unless", Alu, charged(&sg, || a.zero_unless(&m))),
                ("and", Alu, charged(&sg, || Lanes::<f32>::and(&m, &k))),
                ("not", Alu, charged(&sg, || Lanes::<f32>::not(&m))),
            ];
            for (op, class, (counts, live)) in table {
                let mut want = [0u64; crate::meter::N_CLASSES];
                want[class as usize] = 1;
                assert_eq!(counts, want, "{op} (fast_math {fast_math})");
                assert_eq!(live, base + 1, "{op} (fast_math {fast_math})");
            }
            assert_eq!(sg.meter().live_regs(), base);
        }
    }

    /// Pooling is invisible to the bookkeeping: a fixed op sequence on a
    /// metered sub-group reports the counts, register peak and
    /// local-memory footprint the allocate-per-op interpreter reported,
    /// on a cold pool and on a warm one.
    #[test]
    fn metered_counts_are_unchanged_by_pooling() {
        let cfg = SgConfig::for_arch(&GpuArch::aurora(), true, true);
        for pool in ["cold", "warm"] {
            let sg = Sg::new(0, 16, cfg);
            {
                let a = sg.from_fn_f32(|l| 1.0 + l as f32);
                let b = sg.splat_f32(2.0);
                let idx = sg.lane_id().xor_scalar(3);
                let c = a.fma(&b, &a.rsqrt());
                let d = sg.local_exchange(&c, &idx);
                let e = sg.shuffle_xor(&d, 1);
                let m = e.lt(&c);
                let _f = c.div(&e).select(&m, &d.clone());
            }
            let stats = sg.meter().snapshot();
            let mut want = [0u64; crate::meter::N_CLASSES];
            want[InstrClass::Alu as usize] = 7;
            want[InstrClass::MathFast as usize] = 2;
            want[InstrClass::LocalLoad as usize] = 1;
            want[InstrClass::LocalStore as usize] = 1;
            want[InstrClass::ShuffleIndirect as usize] = 1;
            want[InstrClass::Barrier as usize] = 1;
            assert_eq!(stats.counts, want, "{pool} pool");
            assert_eq!(stats.peak_regs, 10, "{pool} pool");
            assert_eq!(stats.local_bytes_per_sg, 64, "{pool} pool");
            assert_eq!(sg.meter().live_regs(), 0);
        }
    }
}
