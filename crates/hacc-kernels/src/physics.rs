//! The CRK-SPH math, written once over [`Real`]: the pair geometry, the
//! corrected kernel and gradients, the viscosity, each pair kernel's
//! per-pair arithmetic (what `interact` computes between the loads and
//! the write-back, the gravity force law included) and the per-particle
//! closures of the finalize kernels.
//!
//! The device kernels instantiate it at `Lanes<f32>` on metered
//! launches and the pair math at `arith::F32x8` in the fused
//! block executor of unmetered ones (so the pair functions are
//! `#[inline(always)]`: they must inline into its AVX2-compiled loop);
//! [`crate::reference`] instantiates it at `f64` in its all-pairs loops.
//! What keeps one source honest is the oracles that share no formula
//! with it: the spline's literal values (`sphkernel`), the CRK
//! reproducing conditions (`reference`) and the conservation of momentum
//! and energy over every device bracket (`tests/conservation.rs`).
//!
//! Conventions: `eta = x_j − x_i` (minimum image), `h̄ = (h_i + h_j)/2`,
//! `W = W(r, h̄)`. The pair-antisymmetric corrected kernel gradient is
//!
//! ```text
//!   Ĝ_ij = −½ [A_i(1+B_i·η) + A_j(1−B_j·η)] (W′/r) η − ½ (A_i B_i − A_j B_j) W
//! ```
//!
//! which reduces to ∇ᵢW for A = 1, B = 0 and satisfies `Ĝ_ij = −Ĝ_ji`
//! (momentum conservation).
//!
//! The pair bodies read the particle objects the kernels exchange. Every
//! object starts `[weight, x, y, z]`, the weight being the partner's
//! validity, volume or mass (zero on padding lanes). The density kernels
//! (Geometry, Corrections, Extras) append `h`; the force kernels
//! (Acceleration, Energy) append `v, h, P/ρ², A, B, c, ρ`.

use crate::arith::Real;
use crate::particles::GAMMA;
use crate::sphkernel::{dw_dr, w};

/// Artificial-viscosity linear coefficient α.
pub const VISC_ALPHA: f64 = 1.0;
/// Artificial-viscosity quadratic coefficient β.
pub const VISC_BETA: f64 = 2.0;
/// CFL safety factor for the time-step condition.
pub const CFL: f64 = 0.25;
/// Softening of the viscosity denominator, in units of h̄².
pub const VISC_EPS: f64 = 0.01;

// Particle-object fields (see the module docs).
const WT: usize = 0;
const X: usize = 1;
const H: usize = 4;
const V: usize = 4;
pub(crate) const FORCE_H: usize = 7;
const PTERM: usize = 8;
const A: usize = 9;
const B: usize = 10;
pub(crate) const CS: usize = 13;
const RHO: usize = 14;

#[inline(always)]
fn vec3<T>(obj: &[T], at: usize) -> [&T; 3] {
    [&obj[at], &obj[at + 1], &obj[at + 2]]
}

/// Minimum-image displacement component `other − own` in a periodic box.
#[inline(always)]
pub fn min_image<T: Real>(own: &T, other: &T, box_size: f64) -> T {
    let d = other.sub(own);
    let wraps = d.div_c(box_size).round();
    d.sub(&wraps.mul_c(box_size))
}

/// Pair geometry computed once per interaction instance.
pub(crate) struct PairGeom<T> {
    /// Displacement `x_j − x_i`, minimum image.
    pub eta: [T; 3],
    /// Squared distance.
    pub r2: T,
    /// Symmetrized smoothing length.
    pub hbar: T,
    /// Kernel value `W(r, h̄)`.
    pub w: T,
    /// `W′(r, h̄)/r`, with the `r → 0` singularity masked to zero (the
    /// self-interaction term carries no force).
    pub dw_over_r: T,
}

/// Builds the pair geometry from own/other positions and smoothing
/// lengths.
#[inline(always)]
pub(crate) fn pair_geometry<T: Real>(
    cx: T::Ctx,
    own_pos: [&T; 3],
    own_h: &T,
    other_pos: [&T; 3],
    other_h: &T,
    box_size: f64,
) -> PairGeom<T> {
    let ex = min_image(own_pos[0], other_pos[0], box_size);
    let ey = min_image(own_pos[1], other_pos[1], box_size);
    let ez = min_image(own_pos[2], other_pos[2], box_size);
    let r2 = ex.mul(&ex).add(&ey.mul(&ey)).add(&ez.mul(&ez));
    let hbar = own_h.add(other_h).mul_c(0.5);
    // Distance with a floor to keep the division finite on the self
    // term; the force path is separately masked below.
    let tiny = hbar.mul(&hbar).mul_c(1e-12);
    let r2_safe = r2.max(&tiny);
    let r = r2_safe.sqrt();
    let w = w(cx, &r, &hbar);
    let dwdr = dw_dr(cx, &r, &hbar);
    let raw = dwdr.div(&r);
    // Mask the self/colocated term out of the force factor.
    let self_mask = r2.gt_c(1e-12);
    let dw_over_r = raw.zero_unless(&self_mask);
    PairGeom {
        eta: [ex, ey, ez],
        r2,
        hbar,
        w,
        dw_over_r,
    }
}

/// `B·η` for a correction vector.
#[inline(always)]
fn b_dot_eta<T: Real>(b: [&T; 3], eta: &[T; 3]) -> T {
    b[0].mul(&eta[0])
        .add(&b[1].mul(&eta[1]))
        .add(&b[2].mul(&eta[2]))
}

/// The pair-antisymmetric corrected gradient Ĝ_ij (three components).
///
/// `a_i, b_i` are the owner's CRK coefficients, `a_j, b_j` the partner's.
#[inline(always)]
fn corrected_gradient<T: Real>(
    g: &PairGeom<T>,
    a_i: &T,
    b_i: [&T; 3],
    a_j: &T,
    b_j: [&T; 3],
) -> [T; 3] {
    let bi_eta = b_dot_eta(b_i, &g.eta);
    let bj_eta = b_dot_eta(b_j, &g.eta);
    // bracket = A_i(1 + B_i·η) + A_j(1 − B_j·η)
    let bracket = a_i
        .mul(&bi_eta.add_c(1.0))
        .add(&a_j.mul(&bj_eta.neg().add_c(1.0)));
    let radial = bracket.mul(&g.dw_over_r).mul_c(-0.5);
    std::array::from_fn(|c| {
        let diff = a_i.mul(b_i[c]).sub(&a_j.mul(b_j[c]));
        radial.mul(&g.eta[c]).sub(&diff.mul(&g.w).mul_c(0.5))
    })
}

/// The owner-corrected kernel value `W^R = A_i (1 + B_i·η) W` used by the
/// density sums of *Extras*.
#[inline(always)]
fn corrected_kernel<T: Real>(g: &PairGeom<T>, a_i: &T, b_i: [&T; 3]) -> T {
    let bi_eta = b_dot_eta(b_i, &g.eta);
    a_i.mul(&bi_eta.add_c(1.0)).mul(&g.w)
}

/// The owner-corrected kernel gradient `∇ᵢW^R` (not antisymmetrized) used
/// by the gradient estimators of *Extras*:
/// `∇ᵢW^R = −A_i B_i W − A_i (1 + B_i·η)(W′/r) η`.
#[inline(always)]
fn corrected_gradient_own<T: Real>(g: &PairGeom<T>, a_i: &T, b_i: [&T; 3]) -> [T; 3] {
    let bi_eta = b_dot_eta(b_i, &g.eta);
    let radial = a_i.mul(&bi_eta.add_c(1.0)).mul(&g.dw_over_r).mul_c(-1.0);
    std::array::from_fn(|c| radial.mul(&g.eta[c]).sub(&a_i.mul(b_i[c]).mul(&g.w)))
}

/// Monaghan artificial viscosity Π_ij and the |μ| used by the CFL
/// condition. `v_ij = v_i − v_j` (owner minus partner); the pair is
/// approaching when `v_ij·η > 0` with our η convention.
struct Viscosity<T> {
    /// Π_ij (non-negative; zero for receding pairs).
    pub pi: T,
    /// |μ_ij| (the signal-velocity measure for the time step).
    pub mu_abs: T,
}

/// Computes the artificial viscosity between two force-kernel objects.
#[inline(always)]
fn viscosity<T: Real>(cx: T::Ctx, g: &PairGeom<T>, own: &[T], other: &[T]) -> Viscosity<T> {
    let vx = own[V].sub(&other[V]);
    let vy = own[V + 1].sub(&other[V + 1]);
    let vz = own[V + 2].sub(&other[V + 2]);
    let proj = vx
        .mul(&g.eta[0])
        .add(&vy.mul(&g.eta[1]))
        .add(&vz.mul(&g.eta[2]));
    let approaching = proj.max(&T::splat(cx, 0.0));
    let h2 = g.hbar.mul(&g.hbar);
    let denom = g.r2.add(&h2.mul_c(VISC_EPS));
    let mu = g.hbar.mul(&approaching).div(&denom);
    let cbar = own[CS].add(&other[CS]).mul_c(0.5);
    let rhobar = own[RHO].add(&other[RHO]).mul_c(0.5);
    let num = cbar.mul(&mu).mul_c(VISC_ALPHA);
    let num = num.add(&mu.mul(&mu).mul_c(VISC_BETA));
    // Guard against zero density on padding lanes.
    let rho_safe = rhobar.max(&T::splat(cx, 1e-30));
    let pi = num.div(&rho_safe);
    Viscosity { mu_abs: mu, pi }
}

/// The density kernels' pair geometry: position and `h` of both objects.
#[inline(always)]
fn density_geometry<T: Real>(cx: T::Ctx, own: &[T], other: &[T], box_size: f64) -> PairGeom<T> {
    let (own_x, other_x) = (vec3(own, X), vec3(other, X));
    pair_geometry(cx, own_x, &own[H], other_x, &other[H], box_size)
}

/// *Geometry* (`upGeo`): the number-density sum `n_i += W_ij`, weighted
/// by the partner's validity. One accumulator.
#[inline(always)]
pub(crate) fn geometry_pair<T: Real>(
    cx: T::Ctx,
    own: &[T],
    other: &[T],
    box_size: f64,
    acc: &mut [T],
) {
    let g = density_geometry(cx, own, other, box_size);
    acc[0] = acc[0].add(&g.w.mul(&other[WT]));
}

/// *Corrections* (`upCor`): the volume-weighted moments `m₀ += V_j W`,
/// `m₁ += V_j η W`, `m₂ += V_j η⊗η W` (xx, yy, zz, xy, xz, yz). Ten
/// accumulators.
#[inline(always)]
pub(crate) fn corrections_pair<T: Real>(
    cx: T::Ctx,
    own: &[T],
    other: &[T],
    box_size: f64,
    acc: &mut [T],
) {
    let g = density_geometry(cx, own, other, box_size);
    let vw = g.w.mul(&other[WT]);
    acc[0] = acc[0].add(&vw);
    for c in 0..3 {
        acc[1 + c] = acc[1 + c].add(&vw.mul(&g.eta[c]));
    }
    let pairs: [(usize, usize); 6] = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)];
    for (k, (a, b)) in pairs.iter().enumerate() {
        let prod = g.eta[*a].mul(&g.eta[*b]);
        acc[4 + k] = acc[4 + k].add(&vw.mul(&prod));
    }
}

/// *Extras* (`upBarEx`): `ρ_i += m_j W^R` and `∇ρ_i += m_j ∇ᵢW^R` with
/// the owner's coefficients `own_extra = [A, B]`, which are not
/// exchanged. Four accumulators.
#[inline(always)]
pub(crate) fn extras_pair<T: Real>(
    cx: T::Ctx,
    own: &[T],
    own_extra: &[T],
    other: &[T],
    box_size: f64,
    acc: &mut [T],
) {
    let g = density_geometry(cx, own, other, box_size);
    let a_i = &own_extra[0];
    let b_i = vec3(own_extra, 1);
    let wr = corrected_kernel(&g, a_i, b_i);
    acc[0] = acc[0].add(&wr.mul(&other[WT]));
    let grad = corrected_gradient_own(&g, a_i, b_i);
    for c in 0..3 {
        acc[1 + c] = acc[1 + c].add(&grad[c].mul(&other[WT]));
    }
}

/// The force kernels' shared terms: the pair geometry, Ĝ_ij and the
/// viscosity.
#[inline(always)]
fn force_terms<T: Real>(
    cx: T::Ctx,
    own: &[T],
    other: &[T],
    box_size: f64,
) -> (PairGeom<T>, [T; 3], Viscosity<T>) {
    let (own_x, other_x) = (vec3(own, X), vec3(other, X));
    let g = pair_geometry(cx, own_x, &own[FORCE_H], other_x, &other[FORCE_H], box_size);
    let grad = corrected_gradient(&g, &own[A], vec3(own, B), &other[A], vec3(other, B));
    let visc = viscosity(cx, &g, own, other);
    (g, grad, visc)
}

/// *Acceleration* (`upBarAc`): `a_i −= m_j (P_i/ρ_i² + P_j/ρ_j² + Π_ij)
/// Ĝ_ij`, and the largest |μ| for the CFL condition. Four accumulators.
#[inline(always)]
pub(crate) fn acceleration_pair<T: Real>(
    cx: T::Ctx,
    own: &[T],
    other: &[T],
    box_size: f64,
    acc: &mut [T],
) {
    // The geometry stays live to the end of the pair, as in the device
    // kernel's register schedule.
    let (_g, grad, visc) = force_terms(cx, own, other, box_size);
    let p = own[PTERM].add(&other[PTERM]).add(&visc.pi);
    let scale = p.mul(&other[WT]).mul_c(-1.0);
    for c in 0..3 {
        acc[c] = grad[c].fma(&scale, &acc[c]);
    }
    acc[3] = acc[3].max(&visc.mu_abs);
}

/// *Energy* (`upBarDu`): `du_i/dt += m_j (P_i/ρ_i² + ½ Π_ij) v_ij·Ĝ_ij`.
/// One accumulator.
#[inline(always)]
pub(crate) fn energy_pair<T: Real>(
    cx: T::Ctx,
    own: &[T],
    other: &[T],
    box_size: f64,
    acc: &mut [T],
) {
    let (_g, grad, visc) = force_terms(cx, own, other, box_size);
    let vx = own[V].sub(&other[V]);
    let vy = own[V + 1].sub(&other[V + 1]);
    let vz = own[V + 2].sub(&other[V + 2]);
    let vdotg = vx
        .mul(&grad[0])
        .add(&vy.mul(&grad[1]))
        .add(&vz.mul(&grad[2]));
    let p = own[PTERM].add(&visc.pi.mul_c(0.5));
    let contrib = p.mul(&other[WT]).mul(&vdotg);
    acc[0] = acc[0].add(&contrib);
}

/// Short-range *Gravity* (`upGrav`) on objects `[m, x, y, z]`:
/// `a_i += m_j [1/r³ − poly(r²)] η` for `r < r_cut`, with `r⁻³` softened
/// by `soft2` and `poly` the long-range complement, lowest order first.
/// Three accumulators.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn gravity_pair<T: Real>(
    cx: T::Ctx,
    own: &[T],
    other: &[T],
    box_size: f64,
    poly: &[f64; 6],
    r_cut2: f64,
    soft2: f64,
    acc: &mut [T],
) {
    let ex = min_image(&own[X], &other[X], box_size);
    let ey = min_image(&own[X + 1], &other[X + 1], box_size);
    let ez = min_image(&own[X + 2], &other[X + 2], box_size);
    let r2 = ex.mul(&ex).add(&ey.mul(&ey)).add(&ez.mul(&ez));
    // Newtonian part with softening: (r² + ε²)^(−3/2) via rsqrt.
    let r2_soft = r2.add_c(soft2);
    let inv_r = r2_soft.rsqrt();
    let inv_r3 = inv_r.mul(&inv_r).mul(&inv_r);
    // Long-range complement: Horner in r².
    let mut long = T::splat(cx, poly[5]);
    for k in (0..5).rev() {
        let c = T::splat(cx, poly[k]);
        long = long.fma(&r2, &c);
    }
    let f_over_r = inv_r3.sub(&long);
    // Cutoff and self-pair masks.
    let in_range = r2.lt_c(r_cut2);
    let not_self = r2.gt_c(1e-12);
    let active = T::and(&in_range, &not_self);
    let f = f_over_r.mul(&other[WT]).zero_unless(&active);
    acc[0] = ex.fma(&f, &acc[0]);
    acc[1] = ey.fma(&f, &acc[1]);
    acc[2] = ez.fma(&f, &acc[2]);
}

/// `V = 1/n`: the volume from the Geometry number-density sum.
pub fn volume<T: Real>(cx: T::Ctx, n_sum: &T) -> T {
    let safe = n_sum.max(&T::splat(cx, 1e-30));
    let one = T::splat(cx, 1.0);
    one.div(&safe)
}

/// Solves the first-order CRK system for `(A, B)` from the moments
/// `m₀`, `m₁` (3) and `m₂` (xx, yy, zz, xy, xz, yz):
///
/// ```text
///   B = −M₂⁻¹ m₁        A = 1/(m₀ + B·m₁)
/// ```
///
/// (equivalent to `A = 1/(m₀ − m₁ᵀM₂⁻¹m₁)`), by cofactor inversion of the
/// symmetric 3×3 `M₂`. Falls back to plain SPH (`A = 1/m₀`, `B = 0`)
/// when `M₂` is numerically singular (isolated particles).
pub(crate) fn crk_coefficients<T: Real>(cx: T::Ctx, m0: &T, m1: &[T], m2: &[T]) -> (T, [T; 3]) {
    let (xx, yy, zz, xy, xz, yz) = (&m2[0], &m2[1], &m2[2], &m2[3], &m2[4], &m2[5]);

    // Cofactors of the symmetric matrix.
    let c00 = yy.mul(zz).sub(&yz.mul(yz));
    let c01 = xz.mul(yz).sub(&xy.mul(zz));
    let c02 = xy.mul(yz).sub(&xz.mul(yy));
    let c11 = xx.mul(zz).sub(&xz.mul(xz));
    let c12 = xy.mul(xz).sub(&xx.mul(yz));
    let c22 = xx.mul(yy).sub(&xy.mul(xy));
    let det = xx.mul(&c00).add(&xy.mul(&c01)).add(&xz.mul(&c02));

    // Scale for the singularity test: det ~ (h²-scale)³; compare with
    // the cube of the trace as a dimensionally consistent yardstick.
    let trace = xx.add(yy).add(zz);
    let tr3 = trace.mul(&trace).mul(&trace).mul_c(1e-6);
    let ok = T::and(&det.abs().gt_c(0.0), &T::not(&det.abs().lt(&tr3)));

    let safe_det = det.select(&ok, &T::splat(cx, 1.0));
    let inv_det = T::splat(cx, 1.0).div(&safe_det);

    // B = −M₂⁻¹ m₁ (cofactor rows dotted with m₁).
    let row = |a: &T, b: &T, c: &T| {
        a.mul(&m1[0])
            .add(&b.mul(&m1[1]))
            .add(&c.mul(&m1[2]))
            .mul(&inv_det)
    };
    let bx_raw = row(&c00, &c01, &c02);
    let by_raw = row(&c01, &c11, &c12);
    let bz_raw = row(&c02, &c12, &c22);
    let zero = T::splat(cx, 0.0);
    let bx = bx_raw.neg().select(&ok, &zero);
    let by = by_raw.neg().select(&ok, &zero);
    let bz = bz_raw.neg().select(&ok, &zero);

    // A = 1/(m0 + B·m1).
    let denom = m0
        .add(&bx.mul(&m1[0]))
        .add(&by.mul(&m1[1]).add(&bz.mul(&m1[2])));
    let denom = denom.max(&T::splat(cx, 1e-30));
    let a = T::splat(cx, 1.0).div(&denom);
    (a, [bx, by, bz])
}

/// Ideal-gas closure from `ρ` and `u`: `(P, c, P/ρ²)` with
/// `P = (γ−1)ρu` and `c = √(γP/ρ)`.
pub(crate) fn eos<T: Real>(cx: T::Ctx, rho: &T, u: &T) -> (T, T, T) {
    let gamma = f64::from(GAMMA);
    let rho_safe = rho.max(&T::splat(cx, 1e-30));
    let p = rho_safe.mul(u).mul_c(gamma - 1.0);
    let cs = p.div(&rho_safe).mul_c(gamma).sqrt();
    let pterm = p.div(&rho_safe.mul(&rho_safe));
    (p, cs, pterm)
}

/// The CFL time step `C h / (c + 2 max|μ|)`.
pub(crate) fn cfl_time_step<T: Real>(cx: T::Ctx, h: &T, cs: &T, mu_max: &T) -> T {
    let denom = cs.add(&mu_max.mul_c(2.0));
    let denom = denom.max(&T::splat(cx, 1e-30));
    h.mul_c(CFL).div(&denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{F32x8, BLOCK};
    use sycl_sim::{GpuArch, Lanes, Sg, SgConfig};

    fn geom(pi: [f64; 3], hi: f64, pj: [f64; 3], hj: f64, box_size: f64) -> PairGeom<f64> {
        pair_geometry((), vec3(&pi, 0), &hi, vec3(&pj, 0), &hj, box_size)
    }

    #[test]
    fn min_image_wraps_displacements() {
        assert_eq!(min_image(&0.5, &9.5, 10.0), -1.0);
        assert_eq!(min_image(&9.5, &0.5, 10.0), 1.0);
        assert_eq!(min_image(&2.0, &4.5, 10.0), 2.5);
    }

    #[test]
    fn pair_geometry_basics() {
        let g = geom([1.0, 2.0, 3.0], 1.0, [1.5, 2.0, 3.0], 1.0, 100.0);
        assert_eq!(g.eta, [0.5, 0.0, 0.0]);
        assert_eq!(g.r2, 0.25);
        assert_eq!(g.w, w((), &0.5, &1.0));
        assert!(g.dw_over_r < 0.0);
    }

    #[test]
    fn self_pair_has_kernel_value_but_no_force() {
        let g = geom([5.0; 3], 0.8, [5.0; 3], 0.8, 10.0);
        assert!(g.w > 0.0, "self term contributes W(0)");
        assert_eq!(g.dw_over_r, 0.0, "self term must not produce force");
    }

    #[test]
    fn corrected_gradient_is_antisymmetric() {
        let (pi, pj) = ([0.0; 3], [0.7, -0.3, 0.4]);
        let (ai, aj) = (1.1, 0.9);
        let (bi, bj) = ([0.05, -0.02, 0.01], [-0.03, 0.04, 0.02]);
        let gij = geom(pi, 1.0, pj, 1.0, 50.0);
        let gji = geom(pj, 1.0, pi, 1.0, 50.0);
        let g1 = corrected_gradient(&gij, &ai, vec3(&bi, 0), &aj, vec3(&bj, 0));
        let g2 = corrected_gradient(&gji, &aj, vec3(&bj, 0), &ai, vec3(&bi, 0));
        for c in 0..3 {
            assert!(
                (g1[c] + g2[c]).abs() < 1e-15,
                "component {c}: {g1:?} vs {g2:?}"
            );
        }
    }

    #[test]
    fn corrected_gradient_reduces_to_plain_kernel_gradient() {
        let g = geom([0.0; 3], 1.0, [0.6, 0.0, 0.0], 1.0, 50.0);
        let zero = [0.0; 3];
        let grad = corrected_gradient(&g, &1.0, vec3(&zero, 0), &1.0, vec3(&zero, 0));
        // ∇ᵢW = −(W′/r)·η… with η = 0.6 x̂: component = −W′(0.6)·(0.6/0.6) = −W′.
        let want = -dw_dr((), &0.6, &1.0);
        assert!((grad[0] - want).abs() < 1e-15, "{} vs {want}", grad[0]);
        assert_eq!(grad[1], 0.0);
    }

    #[test]
    fn viscosity_vanishes_for_receding_pairs() {
        let g = geom([0.0; 3], 1.0, [1.0, 0.0, 0.0], 1.0, 50.0);
        let object = |vx: f64| {
            let mut o = [0.0; 15];
            (o[V], o[CS], o[RHO]) = (vx, 1.0, 1.0);
            o
        };
        let visc = |vx: f64| viscosity((), &g, &object(vx), &object(0.0));
        // Owner moving away from partner (−x): v_ij·η = −1 < 0 → receding.
        assert_eq!(visc(-1.0).pi, 0.0);
        // Owner moving toward partner (+x): approaching → Π > 0.
        let toward = visc(1.0);
        assert!(toward.pi > 0.0);
        assert!(toward.mu_abs > 0.0);
    }

    /// xorshift64*: a dependency-free stream of test inputs.
    struct Stream(u64);

    impl Stream {
        fn uniform(&mut self, (lo, hi): (f32, f32)) -> f32 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            let bits = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40;
            lo + (hi - lo) * (bits as f32 / (1u64 << 24) as f32)
        }
    }

    /// Input fields (one `Vec` of lane values per range) for a
    /// sub-group of `size`. Every eighth lane sets each field whose range
    /// holds zero to zero: a self pair at the origin, a padding
    /// partner's zero weight, a singular `M₂`.
    fn fields(ranges: &[(f32, f32)], size: usize) -> Vec<Vec<f32>> {
        let mut s = Stream(0x9e37_79b9_7f4a_7c15 ^ size as u64);
        ranges
            .iter()
            .map(|&(lo, hi)| {
                (0..size)
                    .map(|l| match l % 8 == 7 && lo <= 0.0 && 0.0 <= hi {
                        true => 0.0,
                        false => s.uniform((lo, hi)),
                    })
                    .collect()
            })
            .collect()
    }

    /// Evaluates `$body` (returning a `Vec` of outputs) at `Lanes<f32>`
    /// on sub-groups of 16, 32 and 64 lanes, at [`F32x8`] over the first
    /// `size − 3` of those lanes (so the last block is ragged, its
    /// padding lanes NaN), and at `f32` lane by lane, and requires every
    /// output lane to carry the same bits.
    macro_rules! same_bits {
        ($ranges:expr, |$cx:ident, $x:ident| $body:expr) => {
            for size in [16, 32, 64] {
                let inputs = fields(&$ranges, size);
                let want: Vec<Vec<f32>> = (0..size)
                    .map(|l| {
                        let scalar: Vec<f32> = inputs.iter().map(|v| v[l]).collect();
                        let ($cx, $x) = ((), &scalar[..]);
                        $body
                    })
                    .collect();
                let check = |how: &str, l: usize, got: Vec<f32>| {
                    assert_eq!(got.len(), want[l].len());
                    for (k, (g, w)) in got.iter().zip(&want[l]).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{how}: output {k}, lane {l} of {size}: {g} vs {w}"
                        );
                    }
                };
                let sg = Sg::new(
                    0,
                    size,
                    SgConfig::for_arch(&GpuArch::frontier(), true, false),
                );
                let lanes: Vec<Lanes<f32>> =
                    inputs.iter().map(|v| sg.from_fn_f32(|l| v[l])).collect();
                let got: Vec<Lanes<f32>> = {
                    let ($cx, $x) = (&sg, &lanes[..]);
                    $body
                };
                for l in 0..size {
                    check("Lanes", l, got.iter().map(|g| g.get(l)).collect());
                }
                let live = size - 3;
                for base in (0..live).step_by(BLOCK) {
                    let lane = |v: &Vec<f32>, i: usize| match base + i {
                        l if l < live => v[l],
                        _ => f32::NAN,
                    };
                    let blocks: Vec<F32x8> = inputs
                        .iter()
                        .map(|v| F32x8(std::array::from_fn(|i| lane(v, i))))
                        .collect();
                    let got: Vec<F32x8> = {
                        let ($cx, $x) = ((), &blocks[..]);
                        $body
                    };
                    for l in base..live.min(base + BLOCK) {
                        check("F32x8", l, got.iter().map(|g| g.0[l - base]).collect());
                    }
                }
            }
        };
    }

    const BOX: f64 = 4.0;
    const POS: (f32, f32) = (0.0, 4.0);
    const H_RANGE: (f32, f32) = (0.5, 1.5);
    const SIGNED: (f32, f32) = (-1.0, 1.0);
    const DENSITY_OBJECT: [(f32, f32); 5] = [(0.0, 2.0), POS, POS, POS, H_RANGE];
    const FORCE_OBJECT: [(f32, f32); 15] = [
        (0.0, 2.0),
        POS,
        POS,
        POS,
        SIGNED,
        SIGNED,
        SIGNED,
        H_RANGE,
        (0.1, 2.0),
        (0.5, 1.5),
        (-0.3, 0.3),
        (-0.3, 0.3),
        (-0.3, 0.3),
        (0.1, 2.0),
        (0.5, 2.0),
    ];

    fn cat(parts: &[&[(f32, f32)]]) -> Vec<(f32, f32)> {
        parts.concat()
    }

    #[test]
    fn lanes_instance_computes_plain_f32_in_the_spline_and_pair_terms() {
        same_bits!([(0.0, 3.5), H_RANGE], |cx, x| vec![
            w(cx, &x[0], &x[1]),
            dw_dr(cx, &x[0], &x[1])
        ]);
        same_bits!([POS, POS], |_cx, x| vec![min_image(&x[0], &x[1], BOX)]);
        same_bits!(cat(&[&FORCE_OBJECT, &FORCE_OBJECT]), |cx, x| {
            let (own, other) = (&x[..15], &x[15..]);
            let g = pair_geometry(
                cx,
                vec3(own, X),
                &own[FORCE_H],
                vec3(other, X),
                &other[FORCE_H],
                BOX,
            );
            let (ai, bi, aj, bj) = (&own[A], vec3(own, B), &other[A], vec3(other, B));
            let mut out = Vec::from(corrected_gradient(&g, ai, bi, aj, bj));
            out.push(corrected_kernel(&g, ai, bi));
            out.extend(corrected_gradient_own(&g, ai, bi));
            let v = viscosity(cx, &g, own, other);
            out.extend([v.pi, v.mu_abs]);
            out.extend(g.eta);
            out.extend([g.r2, g.hbar, g.w, g.dw_over_r]);
            out
        });
    }

    #[test]
    fn lanes_instance_computes_plain_f32_in_the_pair_kernels() {
        let density = cat(&[&DENSITY_OBJECT, &DENSITY_OBJECT, &[SIGNED; 10]]);
        same_bits!(density, |cx, x| {
            let mut acc = x[10..11].to_vec();
            geometry_pair(cx, &x[..5], &x[5..10], BOX, &mut acc);
            acc
        });
        same_bits!(density, |cx, x| {
            let mut acc = x[10..20].to_vec();
            corrections_pair(cx, &x[..5], &x[5..10], BOX, &mut acc);
            acc
        });
        let extras = cat(&[
            &density,
            &[(0.5, 1.5), (-0.3, 0.3), (-0.3, 0.3), (-0.3, 0.3)],
        ]);
        same_bits!(extras, |cx, x| {
            let mut acc = x[10..14].to_vec();
            extras_pair(cx, &x[..5], &x[20..24], &x[5..10], BOX, &mut acc);
            acc
        });
        let force = cat(&[
            &FORCE_OBJECT,
            &FORCE_OBJECT,
            &[SIGNED, SIGNED, SIGNED, (0.0, 1.0)],
        ]);
        same_bits!(force, |cx, x| {
            let mut acc = x[30..34].to_vec();
            acceleration_pair(cx, &x[..15], &x[15..30], BOX, &mut acc);
            acc
        });
        same_bits!(force, |cx, x| {
            let mut acc = x[30..31].to_vec();
            energy_pair(cx, &x[..15], &x[15..30], BOX, &mut acc);
            acc
        });
        let poly = [0.3, -0.05, 0.004, -2e-4, 5e-6, -6e-8];
        let gravity = cat(&[&DENSITY_OBJECT[..4], &DENSITY_OBJECT[..4], &[SIGNED; 3]]);
        same_bits!(gravity, |cx, x| {
            let mut acc = x[8..11].to_vec();
            gravity_pair(cx, &x[..4], &x[4..8], BOX, &poly, 4.0, 1e-4, &mut acc);
            acc
        });
    }

    /// The block instance keeps the `f32` bits on the inputs whose
    /// lowering differs most between a scalar and an eight-wide body —
    /// `round` at halves and at −0.0, `max` with a NaN operand,
    /// `rsqrt(±0)` — in a plain build and in an AVX2-compiled one, where
    /// `round` is an inline vector rounding instead of a libm call.
    /// (`max(−0.0, +0.0)` is left out: `f32::max` may return either
    /// zero, and an optimised build folds it differently from the
    /// instruction.)
    #[test]
    fn block_instance_keeps_the_f32_bits_on_edge_inputs() {
        let x = [0.5, -0.5, 1.5, -1.5, -0.0, 0.499_999_97, 8_388_607.5, 0.0];
        let y = [f32::NAN, 1.0, 2.0, f32::NAN, 1.0, -0.0, f32::NAN, -f32::NAN];
        #[inline(always)]
        fn ops(x: F32x8, y: F32x8) -> [F32x8; 5] {
            [
                x.round(),
                x.max(&y),
                y.max(&x),
                x.rsqrt(),
                x.div_c(0.5).round(),
            ]
        }
        let want = |k: usize, l: usize| {
            let (x, y) = (&x[l], &y[l]);
            let half = Real::div_c(x, 0.5);
            [
                x.round(),
                Real::max(x, y),
                Real::max(y, x),
                x.rsqrt(),
                half.round(),
            ][k]
        };
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn ops_avx2(x: F32x8, y: F32x8) -> [F32x8; 5] {
            ops(x, y)
        }
        let (bx, by) = (
            std::hint::black_box(F32x8(x)),
            std::hint::black_box(F32x8(y)),
        );
        let mut runs = vec![("plain", ops(bx, by))];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check.
            runs.push(("avx2", unsafe { ops_avx2(bx, by) }));
        }
        for (how, got) in runs {
            for (k, block) in got.iter().enumerate() {
                for l in 0..BLOCK {
                    let (g, w) = (block.0[l], want(k, l));
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{how} op {k}, lane {l}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_instance_computes_plain_f32_in_the_closures() {
        same_bits!([(0.0, 3.0)], |cx, x| vec![volume(cx, &x[0])]);
        let moments = [
            (0.5, 2.0),
            (-0.2, 0.2),
            (-0.2, 0.2),
            (-0.2, 0.2),
            (0.0, 1.0),
            (0.0, 1.0),
            (0.0, 1.0),
            (-0.05, 0.05),
            (-0.05, 0.05),
            (-0.05, 0.05),
        ];
        same_bits!(moments, |cx, x| {
            let (a, b) = crk_coefficients(cx, &x[0], &x[1..4], &x[4..10]);
            let mut out = vec![a];
            out.extend(b);
            out
        });
        same_bits!([(0.0, 2.0), (0.1, 2.0)], |cx, x| {
            let (p, cs, pterm) = eos(cx, &x[0], &x[1]);
            vec![p, cs, pterm]
        });
        same_bits!([H_RANGE, (0.0, 2.0), (0.0, 1.0)], |cx, x| vec![
            cfl_time_step(cx, &x[0], &x[1], &x[2])
        ]);
    }
}
