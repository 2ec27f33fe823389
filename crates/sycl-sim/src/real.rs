//! [`Real`] — the one arithmetic vocabulary of device code.
//!
//! Kernel math is written once over `T: Real` and specialised per
//! target: the metered register `Lanes<'sg, f32>` (its instance, in
//! [`crate::lanes`], is the only arithmetic a register has: each op is
//! one meter charge of its instruction class and one register), the
//! plain `f32` (the device math without the meter, lane for lane
//! bit-identical to `Lanes<f32>`) and `f64` (a reference precision).
//! Downstream crates add their own instances, such as an eight-lane
//! block that applies the `f32` instance lane by lane.
//!
//! The vocabulary belongs to the language, not to a kernel: a migration
//! from CUDA to SYCL rewrites no `float` operator, so the trait sits
//! here, with the runtime the kernels are written against.
//!
//! Two rules keep the instances bit-identical: `fma` is unfused (`a·b +
//! c`, rounded twice) and `rsqrt` is `1/√x`. Constants are `f64` and
//! narrow to the instance's scalar (`c as f32`), which gives the same
//! bits as the `f32` literal for every constant that is one.

/// The ops device math uses. A `_c` op takes a constant operand.
pub trait Real: Sized {
    /// The result of a comparison.
    type Mask;
    /// What constants are splatted through: the sub-group for `Lanes`,
    /// nothing for a plain float.
    type Ctx: Copy;
    /// The constant `c` in every lane.
    fn splat(cx: Self::Ctx, c: f64) -> Self;
    /// `self + o`.
    fn add(&self, o: &Self) -> Self;
    /// `self − o`.
    fn sub(&self, o: &Self) -> Self;
    /// `self · o`.
    fn mul(&self, o: &Self) -> Self;
    /// `self / o`.
    fn div(&self, o: &Self) -> Self;
    /// `−self`.
    fn neg(&self) -> Self;
    /// `self + c`.
    fn add_c(&self, c: f64) -> Self;
    /// `self · c`.
    fn mul_c(&self, c: f64) -> Self;
    /// `self / c`.
    fn div_c(&self, c: f64) -> Self;
    /// `self · b + c`, unfused.
    fn fma(&self, b: &Self, c: &Self) -> Self;
    /// `√self`.
    fn sqrt(&self) -> Self;
    /// `1/√self`.
    fn rsqrt(&self) -> Self;
    /// Round to nearest, halves away from zero.
    fn round(&self) -> Self;
    /// `|self|`.
    fn abs(&self) -> Self;
    /// `max(self, o)`.
    fn max(&self, o: &Self) -> Self;
    /// `min(self, o)`.
    fn min(&self, o: &Self) -> Self;
    /// `self < o`.
    fn lt(&self, o: &Self) -> Self::Mask;
    /// `self < c`.
    fn lt_c(&self, c: f64) -> Self::Mask;
    /// `self > c`.
    fn gt_c(&self, c: f64) -> Self::Mask;
    /// `m ? self : o`.
    fn select(&self, m: &Self::Mask, o: &Self) -> Self;
    /// `m ? self : 0`.
    fn zero_unless(&self, m: &Self::Mask) -> Self;
    /// `m && o`.
    fn and(m: &Self::Mask, o: &Self::Mask) -> Self::Mask;
    /// `!m`.
    fn not(m: &Self::Mask) -> Self::Mask;
}

/// `impl Real` for a plain float, every op `#[inline]`: the instances
/// are reached from other crates' kernels, and a build without LTO
/// inlines across crates only what is marked.
macro_rules! plain_real {
    ($($t:ident),*) => {$(
        impl Real for $t {
            type Mask = bool;
            type Ctx = ();
            #[inline] fn splat(_: (), c: f64) -> $t { c as $t }
            #[inline] fn add(&self, o: &$t) -> $t { self + o }
            #[inline] fn sub(&self, o: &$t) -> $t { self - o }
            #[inline] fn mul(&self, o: &$t) -> $t { self * o }
            #[inline] fn div(&self, o: &$t) -> $t { self / o }
            #[inline] fn neg(&self) -> $t { -self }
            #[inline] fn add_c(&self, c: f64) -> $t { self + c as $t }
            #[inline] fn mul_c(&self, c: f64) -> $t { self * c as $t }
            #[inline] fn div_c(&self, c: f64) -> $t { self / c as $t }
            #[inline] fn fma(&self, b: &$t, c: &$t) -> $t { self * b + c }
            #[inline] fn sqrt(&self) -> $t { $t::sqrt(*self) }
            #[inline] fn rsqrt(&self) -> $t { 1.0 / $t::sqrt(*self) }
            #[inline] fn round(&self) -> $t { $t::round(*self) }
            #[inline] fn abs(&self) -> $t { $t::abs(*self) }
            #[inline] fn max(&self, o: &$t) -> $t { $t::max(*self, *o) }
            #[inline] fn min(&self, o: &$t) -> $t { $t::min(*self, *o) }
            #[inline] fn lt(&self, o: &$t) -> bool { self < o }
            #[inline] fn lt_c(&self, c: f64) -> bool { *self < c as $t }
            #[inline] fn gt_c(&self, c: f64) -> bool { *self > c as $t }
            #[inline] fn select(&self, m: &bool, o: &$t) -> $t { if *m { *self } else { *o } }
            #[inline] fn zero_unless(&self, m: &bool) -> $t { if *m { *self } else { 0.0 } }
            #[inline] fn and(m: &bool, o: &bool) -> bool { *m && *o }
            #[inline] fn not(m: &bool) -> bool { !*m }
        }
    )*};
}
plain_real!(f32, f64);
