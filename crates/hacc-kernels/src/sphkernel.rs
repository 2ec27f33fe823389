//! The SPH interpolation kernel (cubic B-spline), written once over
//! [`Real`]: the device kernels evaluate it at `Lanes<f32>`, the f64
//! reference at `f64`.
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
//! and `dW/dr` follows by differentiation. Both are branch-free, as GPU
//! kernels are compiled: the two polynomial pieces are evaluated and
//! blended with a predicated select, and the outer piece is clamped at
//! `q = 2`, so every `q ≥ 2` gives exactly zero. At `Lanes<f32>` each op
//! charges the meter, so kernel evaluations contribute realistically to
//! the instruction mix.

use crate::arith::Real;

/// Normalization σ = 1/π for the 3D cubic spline.
pub const SIGMA_3D: f64 = 1.0 / std::f64::consts::PI;

/// Kernel value `W(r, h)`.
#[inline(always)]
pub fn w<T: Real>(cx: T::Ctx, r: &T, h: &T) -> T {
    let q = r.div(h);
    let h3 = h.mul(h).mul(h);
    let s = T::splat(cx, SIGMA_3D).div(&h3);
    // Inner piece: 1 − 1.5 q² + 0.75 q³.
    let q2 = q.mul(&q);
    let inner = q2.mul_c(-1.5).add(&q2.mul(&q).mul_c(0.75)).add_c(1.0);
    // Outer piece: 0.25 (2 − q)³.
    let t = q.neg().add_c(2.0);
    let t = t.max(&T::splat(cx, 0.0));
    let outer = t.mul(&t).mul(&t).mul_c(0.25);
    let use_inner = q.lt_c(1.0);
    let w = inner.select(&use_inner, &outer);
    w.mul(&s)
}

/// Kernel radial derivative `dW/dr (r, h)`.
#[inline(always)]
pub(crate) fn dw_dr<T: Real>(cx: T::Ctx, r: &T, h: &T) -> T {
    let q = r.div(h);
    let h2 = h.mul(h);
    let h4 = h2.mul(&h2);
    let s = T::splat(cx, SIGMA_3D).div(&h4);
    // Inner: −3q + 2.25 q².
    let inner = q.mul_c(-3.0).add(&q.mul(&q).mul_c(2.25));
    // Outer: −0.75 (2 − q)².
    let t = q.neg().add_c(2.0);
    let t = t.max(&T::splat(cx, 0.0));
    let outer = t.mul(&t).mul_c(-0.75);
    let use_inner = q.lt_c(1.0);
    let dw = inner.select(&use_inner, &outer);
    dw.mul(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w64(r: f64, h: f64) -> f64 {
        w((), &r, &h)
    }

    fn dw64(r: f64, h: f64) -> f64 {
        dw_dr((), &r, &h)
    }

    /// Oracle: the spline against hard-coded values, not a second
    /// formula. Rows: `h`, `W(0, h) = 1/(πh³)`, `W(h, h) = 1/(4πh³)`,
    /// `dW/dr(h, h) = −3/(4πh⁴)`.
    #[test]
    #[allow(clippy::approx_constant)] // literals on purpose: no shared constant
    fn kernel_matches_literal_values() {
        let rows = [
            (
                1.0,
                0.3183098861837907,
                0.07957747154594767,
                -0.238732414637843,
            ),
            (
                2.0,
                0.039788735772973836,
                0.009947183943243459,
                -0.014920775914865188,
            ),
        ];
        let close = |got: f64, want: f64| (got / want - 1.0).abs() < 1e-15;
        for (h, w0, w1, dw1) in rows {
            assert!(close(w64(0.0, h), w0), "W(0, {h}) = {}", w64(0.0, h));
            assert!(close(w64(h, h), w1), "W({h}, {h}) = {}", w64(h, h));
            assert!(close(dw64(h, h), dw1), "dW/dr({h}, {h}) = {}", dw64(h, h));
            for q in [2.0, 2.001, 2.5, 40.0] {
                assert_eq!(w64(q * h, h), 0.0, "W at q = {q}");
                assert_eq!(dw64(q * h, h), 0.0, "dW/dr at q = {q}");
                let (r, h) = ((q * h) as f32, h as f32);
                assert_eq!(w((), &r, &h), 0.0, "f32 W at q = {q}");
                assert_eq!(dw_dr((), &r, &h), 0.0, "f32 dW/dr at q = {q}");
            }
        }
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
                w64(r, h) * 4.0 * std::f64::consts::PI * r * r * dr
            })
            .sum();
        assert!((integral - 1.0).abs() < 1e-4, "∫W = {integral}");
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 0.9;
        for r in [0.1, 0.5, 0.95, 1.3, 1.9] {
            let eps = 1e-6;
            let fd = (w64(r + eps, h) - w64(r - eps, h)) / (2.0 * eps);
            let an = dw64(r, h);
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
            assert!(dw64(r, 1.0) <= 0.0, "monotone decreasing kernel");
        }
    }
}
