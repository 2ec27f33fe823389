//! The SPH interpolation kernel (cubic B-spline) in scalar (f64 reference)
//! and device (`Lanes<f32>`) forms.
//!
//! CRK-SPH builds its reproducing-kernel corrections on top of a standard
//! spherical kernel; CRK-HACC uses the cubic spline. Conventions:
//! `q = r/h`, support radius `2h`,
//!
//! ```text
//!   W(q, h) = σ/h³ · { 1 − 3/2 q² + 3/4 q³   0 ≤ q ≤ 1
//!                    { 1/4 (2 − q)³          1 < q ≤ 2
//!                    { 0                     q > 2
//!   σ = 1/π
//! ```
//!
//! and `dW/dr` follows by differentiation. The device form charges the
//! meter through ordinary `Lanes` arithmetic, so kernel evaluations
//! contribute realistically to the instruction mix.

use sycl_sim::{Lanes, Sg};

/// Normalization σ = 1/π for the 3D cubic spline.
pub const SIGMA_3D: f64 = 1.0 / std::f64::consts::PI;

/// Scalar (f64) kernel value `W(r, h)`.
pub fn w_scalar(r: f64, h: f64) -> f64 {
    debug_assert!(h > 0.0);
    let q = r / h;
    let s = SIGMA_3D / (h * h * h);
    if q <= 1.0 {
        s * (1.0 - 1.5 * q * q + 0.75 * q * q * q)
    } else if q <= 2.0 {
        let t = 2.0 - q;
        s * 0.25 * t * t * t
    } else {
        0.0
    }
}

/// Scalar kernel radial derivative `dW/dr (r, h)`.
pub fn dw_dr_scalar(r: f64, h: f64) -> f64 {
    debug_assert!(h > 0.0);
    let q = r / h;
    let s = SIGMA_3D / (h * h * h * h);
    if q <= 1.0 {
        s * (-3.0 * q + 2.25 * q * q)
    } else if q <= 2.0 {
        let t = 2.0 - q;
        s * (-0.75) * t * t
    } else {
        0.0
    }
}

/// Device kernel value for a whole sub-group: `W(r[l], h[l])` per lane.
///
/// Branch-free (both polynomial pieces evaluated and blended with
/// predicated selects), as GPU kernels are compiled.
pub fn w_lanes<'sg>(sg: &'sg Sg, r: &Lanes<'sg, f32>, h: &Lanes<'sg, f32>) -> Lanes<'sg, f32> {
    let q = r / h;
    let h3 = &(h * h) * h;
    let s = &sg.splat_f32(SIGMA_3D as f32) / &h3;
    // Inner piece: 1 − 1.5 q² + 0.75 q³.
    let q2 = &q * &q;
    let inner = &(&(&q2 * -1.5) + &(&(&q2 * &q) * 0.75)) + 1.0;
    // Outer piece: 0.25 (2 − q)³.
    let t = &(-&q) + 2.0;
    let t = t.max(&sg.splat_f32(0.0));
    let outer = &(&(&t * &t) * &t) * 0.25;
    let use_inner = q.lt_scalar(1.0);
    let w = inner.select(&use_inner, &outer);
    &w * &s
}

/// Device kernel derivative `dW/dr` per lane (branch-free).
pub fn dw_dr_lanes<'sg>(sg: &'sg Sg, r: &Lanes<'sg, f32>, h: &Lanes<'sg, f32>) -> Lanes<'sg, f32> {
    let q = r / h;
    let h2 = h * h;
    let h4 = &h2 * &h2;
    let s = &sg.splat_f32(SIGMA_3D as f32) / &h4;
    // Inner: −3q + 2.25 q².
    let inner = &(&q * -3.0) + &(&(&q * &q) * 2.25);
    // Outer: −0.75 (2 − q)².
    let t = &(-&q) + 2.0;
    let t = t.max(&sg.splat_f32(0.0));
    let outer = &(&t * &t) * -0.75;
    let use_inner = q.lt_scalar(1.0);
    let dw = inner.select(&use_inner, &outer);
    &dw * &s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{GpuArch, SgConfig};

    fn sg() -> Sg {
        Sg::new(0, 32, SgConfig::for_arch(&GpuArch::frontier(), true, false))
    }

    #[test]
    fn kernel_is_normalized() {
        // ∫ W 4π r² dr = 1 over [0, 2h].
        let h = 1.3;
        let n = 4000;
        let dr = 2.0 * h / n as f64;
        let integral: f64 = (0..n)
            .map(|i| {
                let r = (i as f64 + 0.5) * dr;
                w_scalar(r, h) * 4.0 * std::f64::consts::PI * r * r * dr
            })
            .sum();
        assert!((integral - 1.0).abs() < 1e-4, "∫W = {integral}");
    }

    #[test]
    fn kernel_has_compact_support() {
        assert_eq!(w_scalar(2.001, 1.0), 0.0);
        assert_eq!(dw_dr_scalar(2.5, 1.0), 0.0);
        assert!(w_scalar(1.999, 1.0) > 0.0);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 0.9;
        for r in [0.1, 0.5, 0.95, 1.3, 1.9] {
            let eps = 1e-6;
            let fd = (w_scalar(r + eps, h) - w_scalar(r - eps, h)) / (2.0 * eps);
            let an = dw_dr_scalar(r, h);
            assert!(
                (fd - an).abs() < 1e-5 * an.abs().max(1.0),
                "r = {r}: {fd} vs {an}"
            );
        }
    }

    #[test]
    fn derivative_is_nonpositive() {
        for i in 0..100 {
            let r = i as f64 * 0.021;
            assert!(dw_dr_scalar(r, 1.0) <= 0.0, "monotone decreasing kernel");
        }
    }

    #[test]
    fn device_kernel_matches_scalar() {
        let sg = sg();
        let r = sg.from_fn_f32(|l| 0.07 * l as f32);
        let h = sg.from_fn_f32(|l| 0.8 + 0.01 * l as f32);
        let w = w_lanes(&sg, &r, &h);
        let dw = dw_dr_lanes(&sg, &r, &h);
        for l in 0..32 {
            let want_w = w_scalar(r.get(l) as f64, h.get(l) as f64) as f32;
            let want_dw = dw_dr_scalar(r.get(l) as f64, h.get(l) as f64) as f32;
            assert!(
                (w.get(l) - want_w).abs() < 1e-4 * want_w.abs().max(1.0),
                "lane {l}"
            );
            assert!(
                (dw.get(l) - want_dw).abs() < 1e-3 * want_dw.abs().max(1.0),
                "lane {l}"
            );
        }
    }

    #[test]
    fn device_kernel_is_branch_free_beyond_support() {
        // q > 2 lanes must produce exactly zero (clamped outer piece).
        let sg = sg();
        let r = sg.from_fn_f32(|l| 2.0 + l as f32);
        let h = sg.from_fn_f32(|_| 0.5);
        let w = w_lanes(&sg, &r, &h);
        let dw = dw_dr_lanes(&sg, &r, &h);
        for l in 0..32 {
            assert_eq!(w.get(l), 0.0);
            assert_eq!(dw.get(l), 0.0);
        }
    }
}
