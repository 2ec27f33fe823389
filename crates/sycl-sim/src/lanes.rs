//! `Lanes<T>` — a sub-group-wide SIMD value with instruction metering and
//! virtual-register tracking.
//!
//! A `Lanes<f32>` models one vector register holding one 32-bit value per
//! work-item of a sub-group. Every arithmetic operation charges the
//! sub-group meter with the appropriate [`InstrClass`], and every live
//! `Lanes` occupies tracked virtual registers — so a kernel's register
//! pressure (the paper's central tuning concern, §5.2) **emerges from the
//! number of live temporaries in the kernel source**, exactly as it does
//! under a real compiler.
//!
//! ## One data path
//!
//! Every data-producing operation runs the same body whether or not the
//! meter records: lanes are processed in `simd` block loops
//! (`LANE_BLOCK`-wide batches dispatched to AVX2 where the host has it)
//! writing into scratch buffers recycled through a pool, so the hot loop
//! performs no per-instruction heap allocation. Metering
//! ([`MeterPolicy`](crate::meter::MeterPolicy)) only decides whether the
//! `charge`/`alloc_regs`/`free_regs`/`note_local_bytes` calls record —
//! it never selects arithmetic, so an unmetered run cannot differ from a
//! metered one in its results.
//!
//! The pool hangs off the meter for one-pointer-chase access in the
//! per-op path, and is handed from retired meters to new ones through a
//! thread-local stash (see [`SgMeter`]) so sub-groups after the first
//! start warm. Profiling drove this shape: `malloc`/`free` and
//! `drop_in_place` of per-op temporaries cost more than the arithmetic
//! itself, a fixed-size inline-array register file measured *slower*
//! than recycling (the 256-byte values get memcpy'd through every
//! operator return), and per-op thread-local access measured slower than
//! the meter-resident pool.

use crate::meter::{InstrClass, SgMeter};
use crate::simd;
use std::cell::RefCell;
use std::rc::Rc;

/// Cap on recycled buffers held per scalar type; kernels keep at most a
/// few dozen temporaries live, so this bounds pool memory (a few tens of
/// KiB per worker thread) without ever dropping a hot buffer.
const POOL_CAP: usize = 64;

/// Marker for types storable in a lane (one 32-bit word each).
pub trait LaneScalar: Copy + Default + std::fmt::Debug + 'static {
    /// Register words occupied per work-item.
    const WORDS: u32;

    /// The meter's scratch-buffer pool for this scalar type (register
    /// storage recycling).
    #[doc(hidden)]
    fn pool(meter: &SgMeter) -> &RefCell<Vec<Box<[Self]>>>;
}
impl LaneScalar for f32 {
    const WORDS: u32 = 1;
    #[inline]
    fn pool(meter: &SgMeter) -> &RefCell<Vec<Box<[f32]>>> {
        &meter.scratch_f32
    }
}
impl LaneScalar for u32 {
    const WORDS: u32 = 1;
    #[inline]
    fn pool(meter: &SgMeter) -> &RefCell<Vec<Box<[u32]>>> {
        &meter.scratch_u32
    }
}
impl LaneScalar for bool {
    const WORDS: u32 = 1;
    #[inline]
    fn pool(meter: &SgMeter) -> &RefCell<Vec<Box<[bool]>>> {
        &meter.scratch_bool
    }
}

/// A sub-group-wide vector value (one element per work-item).
pub struct Lanes<T: LaneScalar> {
    vals: Box<[T]>,
    meter: Rc<SgMeter>,
}

impl<T: LaneScalar> Lanes<T> {
    /// Register allocation: reuses a scratch buffer from the
    /// meter's pool when one of the right width is available (contents
    /// are uninitialized from the caller's perspective — every user
    /// overwrites all lanes).
    #[inline]
    pub(crate) fn alloc(len: usize, meter: Rc<SgMeter>) -> Self {
        meter.alloc_regs(T::WORDS);
        let vals = T::pool(&meter)
            .borrow_mut()
            .pop()
            .filter(|b| b.len() == len)
            .unwrap_or_else(|| vec![T::default(); len].into_boxed_slice());
        Self { vals, meter }
    }

    /// Builds a register from a per-lane function — the shared core of
    /// splats, lane ids and gathered global loads. Charging is done by
    /// the caller.
    #[inline]
    pub(crate) fn build(len: usize, meter: Rc<SgMeter>, f: impl Fn(usize) -> T) -> Self {
        let mut out = Lanes::alloc(len, meter);
        simd::fill(&mut out.vals, f);
        out
    }

    /// Number of lanes (the sub-group size).
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Lanes are never zero-width.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reads one lane (host-side inspection; free).
    #[inline]
    pub fn get(&self, lane: usize) -> T {
        self.vals[lane]
    }

    /// Raw lane values (host-side inspection; free).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.vals
    }

    /// The meter this value charges (used by cross-type helpers).
    pub fn meter(&self) -> &Rc<SgMeter> {
        &self.meter
    }

    /// Element-wise map (no charge).
    #[inline]
    pub(crate) fn apply_map<U: LaneScalar>(&self, f: impl Fn(T) -> U) -> Lanes<U> {
        let mut out = Lanes::<U>::alloc(self.len(), self.meter.clone());
        simd::map(&self.vals, &mut out.vals, f);
        out
    }

    /// Element-wise zip (no charge).
    #[inline]
    pub(crate) fn apply_zip<U: LaneScalar, V: LaneScalar>(
        &self,
        other: &Lanes<U>,
        f: impl Fn(T, U) -> V,
    ) -> Lanes<V> {
        assert_eq!(self.len(), other.len(), "sub-group width mismatch");
        let mut out = Lanes::<V>::alloc(self.len(), self.meter.clone());
        simd::zip(&self.vals, &other.vals, &mut out.vals, f);
        out
    }

    /// Element-wise three-operand combine (no charge).
    #[inline]
    pub(crate) fn apply_zip3<U: LaneScalar, V: LaneScalar, W: LaneScalar>(
        &self,
        b: &Lanes<U>,
        c: &Lanes<V>,
        f: impl Fn(T, U, V) -> W,
    ) -> Lanes<W> {
        assert_eq!(self.len(), b.len(), "sub-group width mismatch");
        assert_eq!(self.len(), c.len(), "sub-group width mismatch");
        let mut out = Lanes::<W>::alloc(self.len(), self.meter.clone());
        simd::zip3(&self.vals, &b.vals, &c.vals, &mut out.vals, f);
        out
    }

    /// Element-wise map producing a new register, charging `class` once.
    #[inline]
    pub(crate) fn map_into<U: LaneScalar>(
        &self,
        class: InstrClass,
        f: impl Fn(T) -> U,
    ) -> Lanes<U> {
        self.meter.charge(class, 1);
        self.apply_map(f)
    }

    /// Element-wise zip producing a new register, charging `class` once.
    #[inline]
    pub(crate) fn zip_into<U: LaneScalar, V: LaneScalar>(
        &self,
        other: &Lanes<U>,
        class: InstrClass,
        f: impl Fn(T, U) -> V,
    ) -> Lanes<V> {
        self.meter.charge(class, 1);
        self.apply_zip(other, f)
    }

    /// Gathers `self[src(l)]` per lane — the *functional* core of every
    /// shuffle; charging is done by the caller (the sub-group context)
    /// according to the communication mechanism used. Index-driven (no
    /// materialized index vector) so shuffles allocate nothing beyond
    /// the output register.
    #[inline]
    pub(crate) fn gather_map(&self, src: impl Fn(usize) -> usize) -> Lanes<T> {
        Lanes::build(self.len(), self.meter.clone(), |l| self.vals[src(l)])
    }
}

impl<T: LaneScalar> Drop for Lanes<T> {
    #[inline]
    fn drop(&mut self) {
        self.meter.free_regs(T::WORDS);
        // Recycle the storage through the meter's pool.
        let vals = std::mem::take(&mut self.vals);
        if !vals.is_empty() {
            let mut pool = T::pool(&self.meter).borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(vals);
            }
        }
    }
}

impl<T: LaneScalar> Clone for Lanes<T> {
    /// A register copy: allocates a new register and charges one `mov`.
    #[inline]
    fn clone(&self) -> Self {
        self.meter.charge(InstrClass::Alu, 1);
        let mut out = Lanes::alloc(self.len(), self.meter.clone());
        out.vals.copy_from_slice(&self.vals);
        out
    }
}

impl<T: LaneScalar> std::fmt::Debug for Lanes<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lanes({:?})", &self.vals)
    }
}

// ---------------------------------------------------------------------------
// f32 arithmetic
// ---------------------------------------------------------------------------

macro_rules! impl_f32_binop {
    ($trait:ident, $method:ident, $class:expr, $op:tt) => {
        impl std::ops::$trait for &Lanes<f32> {
            type Output = Lanes<f32>;
            #[inline]
            fn $method(self, rhs: &Lanes<f32>) -> Lanes<f32> {
                self.zip_into(rhs, $class, |a, b| a $op b)
            }
        }
        impl std::ops::$trait<f32> for &Lanes<f32> {
            type Output = Lanes<f32>;
            #[inline]
            fn $method(self, rhs: f32) -> Lanes<f32> {
                self.map_into($class, |a| a $op rhs)
            }
        }
    };
}

impl_f32_binop!(Add, add, InstrClass::Alu, +);
impl_f32_binop!(Sub, sub, InstrClass::Alu, -);
impl_f32_binop!(Mul, mul, InstrClass::Alu, *);

impl std::ops::Div for &Lanes<f32> {
    type Output = Lanes<f32>;
    #[inline]
    fn div(self, rhs: &Lanes<f32>) -> Lanes<f32> {
        // Fast-math turns division into a reciprocal-multiply sequence.
        let class = if self.meter.fast_math {
            InstrClass::MathFast
        } else {
            InstrClass::Div
        };
        self.zip_into(rhs, class, |a, b| a / b)
    }
}

impl std::ops::Div<f32> for &Lanes<f32> {
    type Output = Lanes<f32>;
    #[inline]
    fn div(self, rhs: f32) -> Lanes<f32> {
        // Division by a scalar constant is strength-reduced to a multiply.
        self.map_into(InstrClass::Alu, |a| a / rhs)
    }
}

impl std::ops::Neg for &Lanes<f32> {
    type Output = Lanes<f32>;
    #[inline]
    fn neg(self) -> Lanes<f32> {
        self.map_into(InstrClass::Alu, |a| -a)
    }
}

impl Lanes<f32> {
    /// Fused multiply-add `self * b + c` (one instruction).
    #[inline]
    pub fn fma(&self, b: &Lanes<f32>, c: &Lanes<f32>) -> Lanes<f32> {
        self.meter.charge(InstrClass::Alu, 1);
        self.apply_zip3(b, c, |a, b, c| a * b + c)
    }

    /// |x| (single ALU op).
    #[inline]
    pub fn abs(&self) -> Lanes<f32> {
        self.map_into(InstrClass::Alu, f32::abs)
    }

    /// Round to nearest (single ALU op; used for minimum-image wrapping).
    #[inline]
    pub fn round(&self) -> Lanes<f32> {
        self.map_into(InstrClass::Alu, f32::round)
    }

    /// Floor (single ALU op).
    #[inline]
    pub fn floor(&self) -> Lanes<f32> {
        self.map_into(InstrClass::Alu, f32::floor)
    }

    /// Square root (precise: `Div`-class pipeline; fast-math: native).
    #[inline]
    pub fn sqrt(&self) -> Lanes<f32> {
        let class = if self.meter.fast_math {
            InstrClass::MathFast
        } else {
            InstrClass::Div
        };
        self.map_into(class, f32::sqrt)
    }

    /// Reciprocal square root (always transcendental-class).
    #[inline]
    pub fn rsqrt(&self) -> Lanes<f32> {
        self.meter.charge_math(1);
        self.apply_map(|v| 1.0 / v.sqrt())
    }

    /// `exp(x)` (transcendental).
    #[inline]
    pub fn exp(&self) -> Lanes<f32> {
        self.meter.charge_math(1);
        self.apply_map(|v| v.exp())
    }

    /// `x^p` with a lane-varying exponent (transcendental).
    #[inline]
    pub fn powf(&self, p: &Lanes<f32>) -> Lanes<f32> {
        self.meter.charge_math(1);
        self.apply_zip(p, |v, e| v.powf(e))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(&self, other: &Lanes<f32>) -> Lanes<f32> {
        self.zip_into(other, InstrClass::Alu, f32::min)
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(&self, other: &Lanes<f32>) -> Lanes<f32> {
        self.zip_into(other, InstrClass::Alu, f32::max)
    }

    /// `self < rhs` per lane.
    #[inline]
    pub fn lt(&self, rhs: &Lanes<f32>) -> Lanes<bool> {
        self.zip_into(rhs, InstrClass::Alu, |a, b| a < b)
    }

    /// `self < c` per lane.
    #[inline]
    pub fn lt_scalar(&self, c: f32) -> Lanes<bool> {
        self.map_into(InstrClass::Alu, move |a| a < c)
    }

    /// `self > c` per lane.
    #[inline]
    pub fn gt_scalar(&self, c: f32) -> Lanes<bool> {
        self.map_into(InstrClass::Alu, move |a| a > c)
    }

    /// Masked select: `mask ? self : other` (one predicated mov).
    #[inline]
    pub fn select(&self, mask: &Lanes<bool>, other: &Lanes<f32>) -> Lanes<f32> {
        self.meter.charge(InstrClass::Alu, 1);
        self.apply_zip3(mask, other, |a, m, b| if m { a } else { b })
    }

    /// Zeroes lanes where the mask is false (predicated mov).
    #[inline]
    pub fn zero_unless(&self, mask: &Lanes<bool>) -> Lanes<f32> {
        self.meter.charge(InstrClass::Alu, 1);
        self.apply_zip(mask, |a, m| if m { a } else { 0.0 })
    }
}

// ---------------------------------------------------------------------------
// u32 operations (index arithmetic)
// ---------------------------------------------------------------------------

impl Lanes<u32> {
    /// `self + c`.
    #[inline]
    pub fn add_scalar(&self, c: u32) -> Lanes<u32> {
        self.map_into(InstrClass::Alu, move |a| a.wrapping_add(c))
    }

    /// Element-wise add.
    #[inline]
    pub fn add(&self, other: &Lanes<u32>) -> Lanes<u32> {
        self.zip_into(other, InstrClass::Alu, |a, b| a.wrapping_add(b))
    }

    /// `self % c` — the integer modulo CUDA code uses for warp-lane math,
    /// which the SYCL built-ins avoid (§5.1). Charged as `Div`.
    #[inline]
    pub fn mod_scalar(&self, c: u32) -> Lanes<u32> {
        self.map_into(InstrClass::Div, move |a| a % c)
    }

    /// `self ^ c`.
    #[inline]
    pub fn xor_scalar(&self, c: u32) -> Lanes<u32> {
        self.map_into(InstrClass::Alu, move |a| a ^ c)
    }

    /// Converts to f32 lanes.
    #[inline]
    pub fn to_f32(&self) -> Lanes<f32> {
        self.map_into(InstrClass::Alu, |a| a as f32)
    }

    /// `self < c` per lane.
    #[inline]
    pub fn lt_scalar(&self, c: u32) -> Lanes<bool> {
        self.map_into(InstrClass::Alu, move |a| a < c)
    }

    /// `self < rhs` per lane.
    #[inline]
    pub fn lt(&self, rhs: &Lanes<u32>) -> Lanes<bool> {
        self.zip_into(rhs, InstrClass::Alu, |a, b| a < b)
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(&self, rhs: &Lanes<u32>) -> Lanes<u32> {
        self.zip_into(rhs, InstrClass::Alu, |a, b| a.min(b))
    }

    /// Masked select.
    #[inline]
    pub fn select(&self, mask: &Lanes<bool>, other: &Lanes<u32>) -> Lanes<u32> {
        self.meter.charge(InstrClass::Alu, 1);
        self.apply_zip3(mask, other, |a, m, b| if m { a } else { b })
    }
}

// ---------------------------------------------------------------------------
// bool operations (predicates)
// ---------------------------------------------------------------------------

impl Lanes<bool> {
    /// Converts to 1.0/0.0 lanes (predicate materialization, one mov).
    #[inline]
    pub fn to_f32(&self) -> Lanes<f32> {
        self.map_into(InstrClass::Alu, |b| if b { 1.0 } else { 0.0 })
    }

    /// Logical and.
    #[inline]
    pub fn and(&self, other: &Lanes<bool>) -> Lanes<bool> {
        self.zip_into(other, InstrClass::Alu, |a, b| a && b)
    }

    /// Logical or.
    #[inline]
    pub fn or(&self, other: &Lanes<bool>) -> Lanes<bool> {
        self.zip_into(other, InstrClass::Alu, |a, b| a || b)
    }

    /// Logical not.
    #[inline]
    pub fn not(&self) -> Lanes<bool> {
        self.map_into(InstrClass::Alu, |a| !a)
    }

    /// True if any lane is set (ballot; one ALU op on all targets).
    #[inline]
    pub fn any(&self) -> bool {
        self.meter.charge(InstrClass::Alu, 1);
        self.vals.iter().any(|&b| b)
    }

    /// True if all lanes are set.
    #[inline]
    pub fn all(&self) -> bool {
        self.meter.charge(InstrClass::Alu, 1);
        self.vals.iter().all(|&b| b)
    }

    /// Number of set lanes (host-visible popcount of a ballot).
    #[inline]
    pub fn count(&self) -> u64 {
        self.meter.charge(InstrClass::Alu, 1);
        self.vals.iter().filter(|&&b| b).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::meter::MeterPolicy;
    use crate::subgroup::{Sg, SgConfig};

    const POLICIES: [MeterPolicy; 2] = [MeterPolicy::Full, MeterPolicy::Off];

    fn meter(policy: MeterPolicy) -> Rc<SgMeter> {
        Rc::new(SgMeter::new_with_mode(true, policy))
    }

    /// Every op produces the directly computed lanes, metered or not.
    #[test]
    fn ops_match_directly_computed_lanes_under_both_policies() {
        for meter in POLICIES.map(meter) {
            let a = Lanes::<f32>::build(32, meter.clone(), |l| (l as f32).sin() * 3.0);
            let b = Lanes::<f32>::build(32, meter.clone(), |l| 1.0 + l as f32);
            let m = a.lt_scalar(0.0);
            let sum = &a + &b;
            let fma = a.fma(&b, &sum);
            let sel = a.select(&m, &b);
            let rs = b.rsqrt();
            let gathered = a.gather_map(|l| l ^ 5);
            let copy = a.clone();
            // Golden values computed directly.
            for l in 0..32 {
                let av = (l as f32).sin() * 3.0;
                let bv = 1.0 + l as f32;
                assert_eq!(sum.get(l), av + bv);
                assert_eq!(fma.get(l), av * bv + (av + bv));
                assert_eq!(sel.get(l), if av < 0.0 { av } else { bv });
                assert_eq!(rs.get(l), 1.0 / bv.sqrt());
                assert_eq!(gathered.get(l), ((l ^ 5) as f32).sin() * 3.0);
                assert_eq!(copy.get(l), av);
            }
        }
    }

    /// Lane storage is recycled through the meter pool instead of being
    /// allocated per op.
    #[test]
    fn fast_path_recycles_scratch_buffers() {
        for meter in POLICIES.map(meter) {
            meter.scratch_f32.borrow_mut().clear();
            {
                let a = Lanes::<f32>::build(16, meter.clone(), |l| l as f32);
                let _b = &a * 2.0;
            } // both dropped into the pool
            assert_eq!(meter.scratch_f32.borrow().len(), 2);
            {
                let a = Lanes::<f32>::build(16, meter.clone(), |l| l as f32);
                let b = &a * 2.0;
                // Both values came from the pool…
                assert_eq!(meter.scratch_f32.borrow().len(), 0);
                // …and reused storage carries no stale data.
                for l in 0..16 {
                    assert_eq!(a.get(l), l as f32);
                    assert_eq!(b.get(l), 2.0 * l as f32);
                }
            }
            assert_eq!(meter.scratch_f32.borrow().len(), 2);
        }
    }

    /// Pool storage survives across meters (sub-groups) via the
    /// thread-local stash: a retired meter's buffers seed the next
    /// meter's pool, so sub-groups after the first start warm.
    #[test]
    fn scratch_pool_is_handed_across_subgroups() {
        for policy in POLICIES {
            {
                let first = meter(policy);
                first.scratch_f32.borrow_mut().clear();
                let _a = Lanes::<f32>::build(8, first.clone(), |l| l as f32);
            } // meter dropped: its pooled buffer moves to the stash
            let second = meter(policy);
            assert!(
                !second.scratch_f32.borrow().is_empty(),
                "fresh {policy:?} meter must inherit the retired meter's pool"
            );
            let a = Lanes::<f32>::build(8, second.clone(), |l| 2.0 * l as f32);
            assert_eq!(a.get(7), 14.0);
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
                let _f = (&c / &e).select(&m, &d.clone());
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
