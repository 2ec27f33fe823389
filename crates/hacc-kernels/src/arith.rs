//! The arithmetic the CRK-SPH math is written in: one small trait,
//! [`Real`], implemented for the metered sub-group register
//! `Lanes<'sg, f32>`, for the eight-lane block [`F32x8`] and, by one
//! macro, for plain `f32` and `f64`.
//!
//! [`crate::sphkernel`] and [`crate::physics`] are written once over
//! `T: Real` (one parametrised source, specialised per target). A
//! metered pair launch runs the first interaction group of each tile at
//! `Lanes<f32>`, where each trait op is exactly one `Lanes` op — one
//! meter charge, one register — so the instruction mix and register
//! pressure are those of the source as written. The fused block
//! executor of [`crate::pairkernel`] runs every other interaction of
//! the same source at [`F32x8`].
//! [`crate::reference`] instantiates it at `f64`. The `f32` instance is
//! the device math without the meter, lane for lane bit-identical to
//! `Lanes<f32>`, and `F32x8` is the `f32` instance applied lane by lane.
//!
//! Two rules keep those bit-identical: `fma` is unfused (`a·b + c`,
//! rounded twice, as `Lanes::fma` computes it) and `rsqrt` is `1/√x`.
//! Constants are `f64` and narrow to the instance's scalar (`c as f32`),
//! which gives the same bits as the `f32` literal for every constant the
//! math uses.

use sycl_sim::{Lanes, Sg};

/// The ops the CRK-SPH math uses. A `_c` op takes a constant operand.
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

macro_rules! plain_real {
    ($($t:ident),*) => {$(
        impl Real for $t {
            type Mask = bool;
            type Ctx = ();
            fn splat(_: (), c: f64) -> $t { c as $t }
            fn add(&self, o: &$t) -> $t { self + o }
            fn sub(&self, o: &$t) -> $t { self - o }
            fn mul(&self, o: &$t) -> $t { self * o }
            fn div(&self, o: &$t) -> $t { self / o }
            fn neg(&self) -> $t { -self }
            fn add_c(&self, c: f64) -> $t { self + c as $t }
            fn mul_c(&self, c: f64) -> $t { self * c as $t }
            fn div_c(&self, c: f64) -> $t { self / c as $t }
            fn fma(&self, b: &$t, c: &$t) -> $t { self * b + c }
            fn sqrt(&self) -> $t { $t::sqrt(*self) }
            fn rsqrt(&self) -> $t { 1.0 / $t::sqrt(*self) }
            fn round(&self) -> $t { $t::round(*self) }
            fn abs(&self) -> $t { $t::abs(*self) }
            fn max(&self, o: &$t) -> $t { $t::max(*self, *o) }
            fn lt(&self, o: &$t) -> bool { self < o }
            fn lt_c(&self, c: f64) -> bool { *self < c as $t }
            fn gt_c(&self, c: f64) -> bool { *self > c as $t }
            fn select(&self, m: &bool, o: &$t) -> $t { if *m { *self } else { *o } }
            fn zero_unless(&self, m: &bool) -> $t { if *m { *self } else { 0.0 } }
            fn and(m: &bool, o: &bool) -> bool { *m && *o }
            fn not(m: &bool) -> bool { !*m }
        }
    )*};
}
plain_real!(f32, f64);

/// Lanes per [`F32x8`] block: one AVX2 register of `f32`.
pub const BLOCK: usize = 8;

/// Eight `f32` lanes: the block the fused executor of
/// [`crate::pairkernel`] runs the pair physics on. Every op is the `f32`
/// instance applied lane by lane, written as a fixed-trip loop the
/// compiler turns into one eight-wide SIMD op wherever it inlines.
#[derive(Clone, Copy, Debug, Default)]
pub struct F32x8(pub [f32; BLOCK]);

/// `f(i)` for lanes `i = 0..BLOCK`, as a fixed-trip loop (which, unlike
/// `std::array::from_fn`, always inlines).
#[inline(always)]
pub(crate) fn lanes<U: Copy + Default>(f: impl Fn(usize) -> U) -> [U; BLOCK] {
    let mut out = [U::default(); BLOCK];
    for (i, o) in out.iter_mut().enumerate() {
        *o = f(i);
    }
    out
}

/// `impl Real for F32x8`, one line per op, every op `#[inline(always)]`.
macro_rules! block_real {
    ($(fn $name:ident($($param:tt)*) -> $ret:ty { $body:expr })*) => {
        impl Real for F32x8 {
            type Mask = [bool; BLOCK];
            type Ctx = ();
            $(#[inline(always)] fn $name($($param)*) -> $ret { $body })*
        }
    };
}
block_real! {
    fn splat(_: (), c: f64) -> Self { F32x8([c as f32; BLOCK]) }
    fn add(&self, o: &Self) -> Self { F32x8(lanes(|i| Real::add(&self.0[i], &o.0[i]))) }
    fn sub(&self, o: &Self) -> Self { F32x8(lanes(|i| Real::sub(&self.0[i], &o.0[i]))) }
    fn mul(&self, o: &Self) -> Self { F32x8(lanes(|i| Real::mul(&self.0[i], &o.0[i]))) }
    fn div(&self, o: &Self) -> Self { F32x8(lanes(|i| Real::div(&self.0[i], &o.0[i]))) }
    fn neg(&self) -> Self { F32x8(lanes(|i| Real::neg(&self.0[i]))) }
    fn add_c(&self, c: f64) -> Self { F32x8(lanes(|i| Real::add_c(&self.0[i], c))) }
    fn mul_c(&self, c: f64) -> Self { F32x8(lanes(|i| Real::mul_c(&self.0[i], c))) }
    fn div_c(&self, c: f64) -> Self { F32x8(lanes(|i| Real::div_c(&self.0[i], c))) }
    fn fma(&self, b: &Self, c: &Self) -> Self { F32x8(lanes(|i| self.0[i].fma(&b.0[i], &c.0[i]))) }
    fn sqrt(&self) -> Self { F32x8(lanes(|i| Real::sqrt(&self.0[i]))) }
    fn rsqrt(&self) -> Self { F32x8(lanes(|i| Real::rsqrt(&self.0[i]))) }
    fn round(&self) -> Self { F32x8(lanes(|i| Real::round(&self.0[i]))) }
    fn abs(&self) -> Self { F32x8(lanes(|i| Real::abs(&self.0[i]))) }
    fn max(&self, o: &Self) -> Self { F32x8(lanes(|i| Real::max(&self.0[i], &o.0[i]))) }
    fn lt(&self, o: &Self) -> [bool; BLOCK] { lanes(|i| Real::lt(&self.0[i], &o.0[i])) }
    fn lt_c(&self, c: f64) -> [bool; BLOCK] { lanes(|i| Real::lt_c(&self.0[i], c)) }
    fn gt_c(&self, c: f64) -> [bool; BLOCK] { lanes(|i| Real::gt_c(&self.0[i], c)) }
    fn select(&self, m: &[bool; BLOCK], o: &Self) -> Self { F32x8(lanes(|i| Real::select(&self.0[i], &m[i], &o.0[i]))) }
    fn zero_unless(&self, m: &[bool; BLOCK]) -> Self { F32x8(lanes(|i| Real::zero_unless(&self.0[i], &m[i]))) }
    fn and(m: &[bool; BLOCK], o: &[bool; BLOCK]) -> [bool; BLOCK] { lanes(|i| m[i] && o[i]) }
    fn not(m: &[bool; BLOCK]) -> [bool; BLOCK] { lanes(|i| !m[i]) }
}

impl<'sg> Real for Lanes<'sg, f32> {
    type Mask = Lanes<'sg, bool>;
    type Ctx = &'sg Sg;
    fn splat(sg: &'sg Sg, c: f64) -> Self {
        sg.splat_f32(c as f32)
    }
    fn add(&self, o: &Self) -> Self {
        self + o
    }
    fn sub(&self, o: &Self) -> Self {
        self - o
    }
    fn mul(&self, o: &Self) -> Self {
        self * o
    }
    fn div(&self, o: &Self) -> Self {
        self / o
    }
    fn neg(&self) -> Self {
        -self
    }
    fn add_c(&self, c: f64) -> Self {
        self + c as f32
    }
    fn mul_c(&self, c: f64) -> Self {
        self * c as f32
    }
    fn div_c(&self, c: f64) -> Self {
        self / c as f32
    }
    fn fma(&self, b: &Self, c: &Self) -> Self {
        Lanes::<f32>::fma(self, b, c)
    }
    fn sqrt(&self) -> Self {
        Lanes::<f32>::sqrt(self)
    }
    fn rsqrt(&self) -> Self {
        Lanes::<f32>::rsqrt(self)
    }
    fn round(&self) -> Self {
        Lanes::<f32>::round(self)
    }
    fn abs(&self) -> Self {
        Lanes::<f32>::abs(self)
    }
    fn max(&self, o: &Self) -> Self {
        Lanes::<f32>::max(self, o)
    }
    fn lt(&self, o: &Self) -> Self::Mask {
        Lanes::<f32>::lt(self, o)
    }
    fn lt_c(&self, c: f64) -> Self::Mask {
        self.lt_scalar(c as f32)
    }
    fn gt_c(&self, c: f64) -> Self::Mask {
        self.gt_scalar(c as f32)
    }
    fn select(&self, m: &Self::Mask, o: &Self) -> Self {
        Lanes::<f32>::select(self, m, o)
    }
    fn zero_unless(&self, m: &Self::Mask) -> Self {
        Lanes::<f32>::zero_unless(self, m)
    }
    fn and(m: &Self::Mask, o: &Self::Mask) -> Self::Mask {
        m.and(o)
    }
    fn not(m: &Self::Mask) -> Self::Mask {
        m.not()
    }
}
