//! The arithmetic the CRK-SPH math is written in: [`sycl_sim::Real`],
//! re-exported here, at the targets this crate runs it on.
//!
//! [`crate::sphkernel`] and [`crate::physics`] are written once over
//! `T: Real` (one parametrised source, specialised per target). A
//! metered pair launch runs the first interaction group of each tile at
//! `Lanes<f32>`, whose `Real` instance is the only arithmetic a register
//! has: each op is one meter charge and one register, so the instruction
//! mix and register pressure are those of the source as written. The
//! fused block executor of [`crate::pairkernel`] runs every other
//! interaction of the same source at `F32x8`, the `f32` instance
//! applied lane by lane, and [`crate::reference`] instantiates it at
//! `f64`. The trait's rules (unfused `fma`, `rsqrt` as `1/√x`, `f64`
//! constants narrowed to the scalar) keep `f32`, `Lanes<f32>` and
//! `F32x8` bit-identical.

pub use sycl_sim::Real;

/// Lanes per [`F32x8`] block: one AVX2 register of `f32`.
pub(crate) const BLOCK: usize = 8;

/// Eight `f32` lanes: the block the fused executor of
/// [`crate::pairkernel`] runs the pair physics on. Every op is the `f32`
/// instance applied lane by lane, written as a fixed-trip loop the
/// compiler turns into one eight-wide SIMD op wherever it inlines.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct F32x8(pub [f32; BLOCK]);

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
    fn min(&self, o: &Self) -> Self { F32x8(lanes(|i| Real::min(&self.0[i], &o.0[i]))) }
    fn lt(&self, o: &Self) -> [bool; BLOCK] { lanes(|i| Real::lt(&self.0[i], &o.0[i])) }
    fn lt_c(&self, c: f64) -> [bool; BLOCK] { lanes(|i| Real::lt_c(&self.0[i], c)) }
    fn gt_c(&self, c: f64) -> [bool; BLOCK] { lanes(|i| Real::gt_c(&self.0[i], c)) }
    fn select(&self, m: &[bool; BLOCK], o: &Self) -> Self { F32x8(lanes(|i| Real::select(&self.0[i], &m[i], &o.0[i]))) }
    fn zero_unless(&self, m: &[bool; BLOCK]) -> Self { F32x8(lanes(|i| Real::zero_unless(&self.0[i], &m[i]))) }
    fn and(m: &[bool; BLOCK], o: &[bool; BLOCK]) -> [bool; BLOCK] { lanes(|i| m[i] && o[i]) }
    fn not(m: &[bool; BLOCK]) -> [bool; BLOCK] { lanes(|i| !m[i]) }
}
