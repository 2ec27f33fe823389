//! Shared per-pair physics evaluated inside the device kernels.
//!
//! The same formulas exist twice in this crate: here in `Lanes<f32>` form
//! (metered device code) and in [`crate::reference`] in scalar f64 form
//! (ground truth). Tests require the two to agree per particle.
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

use crate::halfwarp::min_image_lanes;
use crate::sphkernel::{dw_dr_lanes, w_lanes};
use sycl_sim::{Lanes, Sg};

/// Artificial-viscosity linear coefficient α.
pub const VISC_ALPHA: f32 = 1.0;
/// Artificial-viscosity quadratic coefficient β.
pub const VISC_BETA: f32 = 2.0;
/// CFL safety factor for the time-step condition.
pub const CFL: f32 = 0.25;
/// Softening of the viscosity denominator, in units of h̄².
pub const VISC_EPS: f32 = 0.01;

/// Pair geometry computed once per interaction instance.
pub struct PairGeom<'sg> {
    /// Displacement `x_j − x_i`, minimum image.
    pub eta: [Lanes<'sg, f32>; 3],
    /// Squared distance.
    pub r2: Lanes<'sg, f32>,
    /// Symmetrized smoothing length.
    pub hbar: Lanes<'sg, f32>,
    /// Kernel value `W(r, h̄)`.
    pub w: Lanes<'sg, f32>,
    /// `W′(r, h̄)/r`, with the `r → 0` singularity masked to zero (the
    /// self-interaction term carries no force).
    pub dw_over_r: Lanes<'sg, f32>,
}

/// Builds the pair geometry from own/other positions and smoothing
/// lengths.
pub fn pair_geometry<'sg>(
    sg: &'sg Sg,
    own_pos: [&Lanes<'sg, f32>; 3],
    own_h: &Lanes<'sg, f32>,
    other_pos: [&Lanes<'sg, f32>; 3],
    other_h: &Lanes<'sg, f32>,
    box_size: f32,
) -> PairGeom<'sg> {
    let ex = min_image_lanes(own_pos[0], other_pos[0], box_size);
    let ey = min_image_lanes(own_pos[1], other_pos[1], box_size);
    let ez = min_image_lanes(own_pos[2], other_pos[2], box_size);
    let r2 = &(&(&ex * &ex) + &(&ey * &ey)) + &(&ez * &ez);
    let hbar = &(own_h + other_h) * 0.5;
    // Distance with a floor to keep rsqrt finite on the self term; the
    // force path is separately masked below.
    let tiny = &(&hbar * &hbar) * 1e-12;
    let r2_safe = r2.max(&tiny);
    let r = r2_safe.sqrt();
    let w = w_lanes(sg, &r, &hbar);
    let dwdr = dw_dr_lanes(sg, &r, &hbar);
    let raw = &dwdr / &r;
    // Mask the self/colocated term out of the force factor.
    let self_mask = r2.gt_scalar(1e-12);
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
pub fn b_dot_eta<'sg>(b: [&Lanes<'sg, f32>; 3], eta: &[Lanes<'sg, f32>; 3]) -> Lanes<'sg, f32> {
    &(&(b[0] * &eta[0]) + &(b[1] * &eta[1])) + &(b[2] * &eta[2])
}

/// The pair-antisymmetric corrected gradient Ĝ_ij (three components).
///
/// `a_i, b_i` are the owner's CRK coefficients, `a_j, b_j` the partner's.
pub fn corrected_gradient<'sg>(
    g: &PairGeom<'sg>,
    a_i: &Lanes<'sg, f32>,
    b_i: [&Lanes<'sg, f32>; 3],
    a_j: &Lanes<'sg, f32>,
    b_j: [&Lanes<'sg, f32>; 3],
) -> [Lanes<'sg, f32>; 3] {
    let bi_eta = b_dot_eta(b_i, &g.eta);
    let bj_eta = b_dot_eta(b_j, &g.eta);
    // bracket = A_i(1 + B_i·η) + A_j(1 − B_j·η)
    let bracket = &(a_i * &(&bi_eta + 1.0)) + &(a_j * &(&(-&bj_eta) + 1.0));
    let radial = &(&bracket * &g.dw_over_r) * -0.5;
    std::array::from_fn(|c| {
        let diff = &(a_i * b_i[c]) - &(a_j * b_j[c]);
        &(&radial * &g.eta[c]) - &(&(&diff * &g.w) * 0.5)
    })
}

/// The owner-corrected kernel value `W^R = A_i (1 + B_i·η) W` used by the
/// density sums of *Extras*.
pub fn corrected_kernel<'sg>(
    g: &PairGeom<'sg>,
    a_i: &Lanes<'sg, f32>,
    b_i: [&Lanes<'sg, f32>; 3],
) -> Lanes<'sg, f32> {
    let bi_eta = b_dot_eta(b_i, &g.eta);
    &(a_i * &(&bi_eta + 1.0)) * &g.w
}

/// The owner-corrected kernel gradient `∇ᵢW^R` (not antisymmetrized) used
/// by the gradient estimators of *Extras*:
/// `∇ᵢW^R = −A_i B_i W − A_i (1 + B_i·η)(W′/r) η`.
pub fn corrected_gradient_own<'sg>(
    g: &PairGeom<'sg>,
    a_i: &Lanes<'sg, f32>,
    b_i: [&Lanes<'sg, f32>; 3],
) -> [Lanes<'sg, f32>; 3] {
    let bi_eta = b_dot_eta(b_i, &g.eta);
    let radial = &(&(a_i * &(&bi_eta + 1.0)) * &g.dw_over_r) * -1.0;
    std::array::from_fn(|c| &(&radial * &g.eta[c]) - &(&(a_i * b_i[c]) * &g.w))
}

/// Monaghan artificial viscosity Π_ij and the |μ| used by the CFL
/// condition. `v_ij = v_i − v_j` (owner minus partner); the pair is
/// approaching when `v_ij·η > 0` with our η convention.
pub struct Viscosity<'sg> {
    /// Π_ij (non-negative; zero for receding pairs).
    pub pi: Lanes<'sg, f32>,
    /// |μ_ij| (the signal-velocity measure for the time step).
    pub mu_abs: Lanes<'sg, f32>,
}

/// Computes the artificial viscosity for a pair.
#[allow(clippy::too_many_arguments)]
pub fn viscosity<'sg>(
    sg: &'sg Sg,
    g: &PairGeom<'sg>,
    own_vel: [&Lanes<'sg, f32>; 3],
    other_vel: [&Lanes<'sg, f32>; 3],
    own_cs: &Lanes<'sg, f32>,
    other_cs: &Lanes<'sg, f32>,
    own_rho: &Lanes<'sg, f32>,
    other_rho: &Lanes<'sg, f32>,
) -> Viscosity<'sg> {
    let vx = own_vel[0] - other_vel[0];
    let vy = own_vel[1] - other_vel[1];
    let vz = own_vel[2] - other_vel[2];
    let proj = &(&(&vx * &g.eta[0]) + &(&vy * &g.eta[1])) + &(&vz * &g.eta[2]);
    let approaching = proj.max(&sg.splat_f32(0.0));
    let h2 = &g.hbar * &g.hbar;
    let denom = &g.r2 + &(&h2 * VISC_EPS);
    let mu = &(&g.hbar * &approaching) / &denom;
    let cbar = &(own_cs + other_cs) * 0.5;
    let rhobar = &(own_rho + other_rho) * 0.5;
    let num = &(&cbar * &mu) * VISC_ALPHA;
    let num = &num + &(&(&mu * &mu) * VISC_BETA);
    // Guard against zero density on padding lanes.
    let rho_safe = rhobar.max(&sg.splat_f32(1e-30));
    let pi = &num / &rho_safe;
    Viscosity { mu_abs: mu, pi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{GpuArch, SgConfig};

    fn sg() -> Sg {
        Sg::new(0, 32, SgConfig::for_arch(&GpuArch::frontier(), true, false))
    }

    fn splat3<'sg>(s: &'sg Sg, v: [f32; 3]) -> [Lanes<'sg, f32>; 3] {
        [s.splat_f32(v[0]), s.splat_f32(v[1]), s.splat_f32(v[2])]
    }

    #[test]
    fn pair_geometry_basics() {
        let s = sg();
        let pi = splat3(&s, [1.0, 2.0, 3.0]);
        let pj = splat3(&s, [1.5, 2.0, 3.0]);
        let h = s.splat_f32(1.0);
        let g = pair_geometry(
            &s,
            [&pi[0], &pi[1], &pi[2]],
            &h,
            [&pj[0], &pj[1], &pj[2]],
            &h,
            100.0,
        );
        assert!((g.eta[0].get(0) - 0.5).abs() < 1e-6);
        assert!((g.r2.get(0) - 0.25).abs() < 1e-6);
        let want_w = crate::sphkernel::w_scalar(0.5, 1.0) as f32;
        assert!((g.w.get(0) - want_w).abs() < 1e-5);
        assert!(g.dw_over_r.get(0) < 0.0);
    }

    #[test]
    fn self_pair_has_kernel_value_but_no_force() {
        let s = sg();
        let p = splat3(&s, [5.0, 5.0, 5.0]);
        let h = s.splat_f32(0.8);
        let g = pair_geometry(
            &s,
            [&p[0], &p[1], &p[2]],
            &h,
            [&p[0], &p[1], &p[2]],
            &h,
            10.0,
        );
        assert!(g.w.get(0) > 0.0, "self term contributes W(0)");
        assert_eq!(g.dw_over_r.get(0), 0.0, "self term must not produce force");
    }

    #[test]
    fn corrected_gradient_is_antisymmetric() {
        let s = sg();
        let pi = splat3(&s, [0.0, 0.0, 0.0]);
        let pj = splat3(&s, [0.7, -0.3, 0.4]);
        let h = s.splat_f32(1.0);
        let ai = s.splat_f32(1.1);
        let aj = s.splat_f32(0.9);
        let bi = splat3(&s, [0.05, -0.02, 0.01]);
        let bj = splat3(&s, [-0.03, 0.04, 0.02]);
        let gij = pair_geometry(
            &s,
            [&pi[0], &pi[1], &pi[2]],
            &h,
            [&pj[0], &pj[1], &pj[2]],
            &h,
            50.0,
        );
        let gji = pair_geometry(
            &s,
            [&pj[0], &pj[1], &pj[2]],
            &h,
            [&pi[0], &pi[1], &pi[2]],
            &h,
            50.0,
        );
        let g1 = corrected_gradient(
            &gij,
            &ai,
            [&bi[0], &bi[1], &bi[2]],
            &aj,
            [&bj[0], &bj[1], &bj[2]],
        );
        let g2 = corrected_gradient(
            &gji,
            &aj,
            [&bj[0], &bj[1], &bj[2]],
            &ai,
            [&bi[0], &bi[1], &bi[2]],
        );
        for c in 0..3 {
            assert!(
                (g1[c].get(0) + g2[c].get(0)).abs() < 1e-6,
                "component {c}: {} vs {}",
                g1[c].get(0),
                g2[c].get(0)
            );
        }
    }

    #[test]
    fn corrected_gradient_reduces_to_plain_kernel_gradient() {
        let s = sg();
        let pi = splat3(&s, [0.0, 0.0, 0.0]);
        let pj = splat3(&s, [0.6, 0.0, 0.0]);
        let h = s.splat_f32(1.0);
        let one = s.splat_f32(1.0);
        let zero = splat3(&s, [0.0, 0.0, 0.0]);
        let g = pair_geometry(
            &s,
            [&pi[0], &pi[1], &pi[2]],
            &h,
            [&pj[0], &pj[1], &pj[2]],
            &h,
            50.0,
        );
        let grad = corrected_gradient(
            &g,
            &one,
            [&zero[0], &zero[1], &zero[2]],
            &one,
            [&zero[0], &zero[1], &zero[2]],
        );
        // ∇ᵢW = −(W′/r)·η… with η = 0.6 x̂: component = −W′(0.6)·(0.6/0.6) = −W′.
        let want = -(crate::sphkernel::dw_dr_scalar(0.6, 1.0) as f32);
        assert!(
            (grad[0].get(0) - want).abs() < 1e-5,
            "{} vs {want}",
            grad[0].get(0)
        );
        assert!(grad[1].get(0).abs() < 1e-7);
    }

    #[test]
    fn viscosity_vanishes_for_receding_pairs() {
        let s = sg();
        let pi = splat3(&s, [0.0; 3]);
        let pj = splat3(&s, [1.0, 0.0, 0.0]);
        let h = s.splat_f32(1.0);
        let g = pair_geometry(
            &s,
            [&pi[0], &pi[1], &pi[2]],
            &h,
            [&pj[0], &pj[1], &pj[2]],
            &h,
            50.0,
        );
        let cs = s.splat_f32(1.0);
        let rho = s.splat_f32(1.0);
        // Owner moving away from partner (−x): v_ij·η = −1 < 0 → receding.
        let v_away = splat3(&s, [-1.0, 0.0, 0.0]);
        let vzero = splat3(&s, [0.0; 3]);
        let visc = viscosity(
            &s,
            &g,
            [&v_away[0], &v_away[1], &v_away[2]],
            [&vzero[0], &vzero[1], &vzero[2]],
            &cs,
            &cs,
            &rho,
            &rho,
        );
        assert_eq!(visc.pi.get(0), 0.0);
        // Owner moving toward partner (+x): approaching → Π > 0.
        let v_toward = splat3(&s, [1.0, 0.0, 0.0]);
        let visc = viscosity(
            &s,
            &g,
            [&v_toward[0], &v_toward[1], &v_toward[2]],
            [&vzero[0], &vzero[1], &vzero[2]],
            &cs,
            &cs,
            &rho,
            &rho,
        );
        assert!(visc.pi.get(0) > 0.0);
        assert!(visc.mu_abs.get(0) > 0.0);
    }
}
