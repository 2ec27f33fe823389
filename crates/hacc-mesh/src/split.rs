//! HACC-style gravitational force splitting.
//!
//! The total `1/r²` force is split into a long-range part handled by the
//! particle-mesh Poisson solver and a short-range part evaluated by direct
//! particle–particle interaction on the device:
//!
//! ```text
//!   F_total = F_LR (mesh, filtered by S(k) = e^{-k²r_s²/2})
//!           + F_SR (pairwise, erfc-screened Newtonian)
//! ```
//!
//! The GPU kernels do not evaluate the `erfc` directly; as in CRK-HACC,
//! the smooth long-range complement is pre-fit by a degree-5 polynomial in
//! `r²` (the `HACC_CUDA_POLY_ORDER=5` appendix flag), and the kernels
//! compute `1/r³ − poly(r²)` per pair.

use crate::math::{erf, solve_dense};
use std::f64::consts::PI;

/// Gaussian force-splitting parameters.
///
/// Lengths are in the same (arbitrary, usually grid-cell) units as the
/// pair distances fed to the evaluation methods.
#[derive(Clone, Copy, Debug)]
pub struct ForceSplit {
    /// Gaussian smoothing scale `r_s` of the density filter.
    pub r_s: f64,
    /// Short-range interaction cutoff; beyond this the pairwise force is
    /// treated as zero (the mesh carries everything).
    pub r_cut: f64,
}

impl ForceSplit {
    /// Creates a split. HACC production runs use `r_cut/r_s ≈ 3–4`, beyond
    /// which the residual short-range force is below float precision.
    pub fn new(r_s: f64, r_cut: f64) -> Self {
        assert!(r_s > 0.0 && r_cut > r_s, "need 0 < r_s < r_cut");
        Self { r_s, r_cut }
    }

    /// k-space filter applied to the density before the Poisson solve:
    /// `S(k) = exp(−k² r_s² / 2)` (a real-space Gaussian of width `r_s`).
    #[inline]
    pub(crate) fn filter_k(&self, k: f64) -> f64 {
        (-0.5 * k * k * self.r_s * self.r_s).exp()
    }

    /// Exact long-range force-over-distance `F_LR(r)/r` — the smooth part
    /// the polynomial approximates. Finite as `r → 0`.
    ///
    /// The two closed-form terms cancel catastrophically for `r ≪ r_s`
    /// (each diverges as `1/r²` while the difference stays O(1)), so small
    /// radii use the Taylor series of the difference instead.
    pub(crate) fn long_over_r(&self, r: f64) -> f64 {
        let s = std::f64::consts::SQRT_2 * self.r_s;
        let u = r / s;
        if u < 0.25 {
            // (2/(√π s³)) [2/3 − (2/5)u² + (1/7)u⁴ − (1/27)u⁶ + …]
            let u2 = u * u;
            return 2.0 / (PI.sqrt() * s * s * s)
                * (2.0 / 3.0
                    + u2 * (-2.0 / 5.0 + u2 * (1.0 / 7.0 + u2 * (-1.0 / 27.0 + u2 / 132.0))));
        }
        erf(u) / (r * r * r) - (2.0 / (s * PI.sqrt())) * (-u * u).exp() / (r * r)
    }
}

/// Degree-`order` polynomial in `r²` approximating the long-range
/// force-over-distance, as baked into the GPU gravity kernels.
#[derive(Clone, Debug)]
pub struct PolyShortRange {
    /// Polynomial coefficients, lowest order first: `Σ c_j (r²)^j`.
    pub coeffs: Vec<f64>,
    /// The split this polynomial was fit for.
    pub split: ForceSplit,
}

impl PolyShortRange {
    /// Fits the degree-`order` polynomial by least squares on a dense grid
    /// of radii in `(0, r_cut]`. `order = 5` matches CRK-HACC's
    /// `HACC_CUDA_POLY_ORDER=5`.
    pub fn fit(split: ForceSplit, order: usize) -> Self {
        assert!(
            (1..=7).contains(&order),
            "polynomial order out of supported range"
        );
        let n_samples = 256;
        let n = order + 1;
        // Normal equations A c = b with A_{jk} = Σ x^{j+k}, b_j = Σ x^j y,
        // where x = r² scaled to [0, 1] for conditioning.
        let r_cut2 = split.r_cut * split.r_cut;
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n];
        for i in 0..n_samples {
            // Chebyshev-distributed samples in x = r²/r_cut² concentrate
            // points near the domain endpoints, where a least-squares
            // polynomial fit otherwise develops its largest errors.
            let x = 0.5 * (1.0 - (PI * (i as f64 + 0.5) / n_samples as f64).cos());
            let r = (x * r_cut2).sqrt().max(1e-6 * split.r_cut);
            let y = split.long_over_r(r);
            // Weight by 1/y so the fit minimizes *relative* error — the
            // force law spans an order of magnitude over the fit domain and
            // the kernels need uniform relative accuracy.
            let w = 1.0 / (y * y);
            let mut xp = vec![1.0; 2 * n];
            for j in 1..2 * n {
                xp[j] = xp[j - 1] * x;
            }
            for j in 0..n {
                for k in 0..n {
                    a[j * n + k] += w * xp[j + k];
                }
                b[j] += w * xp[j] * y;
            }
        }
        let c_scaled = solve_dense(&mut a, &mut b);
        // Undo the x = r²/r_cut² scaling: c_j = c_scaled_j / r_cut^{2j}.
        let coeffs = c_scaled
            .into_iter()
            .enumerate()
            .map(|(j, c)| c / r_cut2.powi(j as i32))
            .collect();
        Self { coeffs, split }
    }
}

/// The exact forms the kernels' polynomial fit is tested against.
#[cfg(test)]
impl ForceSplit {
    /// Full Newtonian force-over-distance for a unit-mass pair: `1/r³`.
    pub(crate) fn newtonian_over_r(&self, r: f64) -> f64 {
        1.0 / (r * r * r)
    }

    /// Exact short-range force-over-distance `F_SR(r)/r` (erfc-screened).
    ///
    /// Derived from the point-mass long-range potential
    /// `φ_LR = −erf(r/(√2 r_s))/r` of the Gaussian-filtered density.
    pub(crate) fn short_over_r(&self, r: f64) -> f64 {
        assert!(r > 0.0);
        let s = std::f64::consts::SQRT_2 * self.r_s;
        let u = r / s;
        crate::math::erfc(u) / (r * r * r) + (2.0 / (s * PI.sqrt())) * (-u * u).exp() / (r * r)
    }
}

#[cfg(test)]
impl PolyShortRange {
    /// Evaluates the polynomial `Σ c_j (r²)^j` (the long-range model).
    pub(crate) fn poly(&self, r2: f64) -> f64 {
        // Horner in r².
        let mut acc = 0.0;
        for &c in self.coeffs.iter().rev() {
            acc = acc * r2 + c;
        }
        acc
    }

    /// The pairwise short-range force-over-distance the GPU kernel computes:
    /// `1/r³ − poly(r²)` inside the cutoff, zero outside (the f64 form of
    /// `hacc-kernels::gravity`).
    fn force_over_r(&self, r2: f64) -> f64 {
        let r_cut2 = self.split.r_cut * self.split.r_cut;
        if r2 >= r_cut2 || r2 <= 0.0 {
            return 0.0;
        }
        let r = r2.sqrt();
        1.0 / (r2 * r) - self.poly(r2)
    }

    /// Maximum relative error of the fit against the exact long-range form,
    /// sampled densely over `(0.05 r_cut, r_cut)`.
    pub(crate) fn fit_error(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..512 {
            let r = self.split.r_cut * (0.05 + 0.95 * i as f64 / 511.0);
            let exact = self.split.long_over_r(r);
            let approx = self.poly(r * r);
            worst = worst.max((approx - exact).abs() / exact.abs().max(1e-30));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split() -> ForceSplit {
        ForceSplit::new(1.0, 3.5)
    }

    #[test]
    fn short_plus_long_equals_newtonian() {
        let s = split();
        for r in [0.1, 0.5, 1.0, 2.0, 3.4] {
            let total = s.short_over_r(r) + s.long_over_r(r);
            let newton = s.newtonian_over_r(r);
            assert!(
                (total - newton).abs() < 1e-10 * newton,
                "r = {r}: {total} vs {newton}"
            );
        }
    }

    #[test]
    fn long_range_is_finite_and_smooth_at_origin() {
        let s = split();
        let at0 = s.long_over_r(0.0);
        let near0 = s.long_over_r(1e-4);
        assert!(at0.is_finite() && at0 > 0.0);
        assert!((near0 - at0).abs() < 1e-6 * at0);
    }

    #[test]
    fn short_range_decays_fast() {
        let s = split();
        // At r = 3.5 r_s the screened force is tiny vs Newtonian.
        let ratio = s.short_over_r(3.5) / s.newtonian_over_r(3.5);
        assert!(ratio < 0.05, "screening ratio {ratio}");
        // At small r it approaches full Newtonian.
        let ratio0 = s.short_over_r(0.05) / s.newtonian_over_r(0.05);
        assert!((ratio0 - 1.0).abs() < 1e-3);
    }

    #[test]
    fn filter_is_gaussian() {
        let s = split();
        assert!((s.filter_k(0.0) - 1.0).abs() < 1e-15);
        let k = 1.3;
        assert!((s.filter_k(k) - (-0.5f64 * k * k).exp()).abs() < 1e-12);
    }

    #[test]
    fn degree5_fit_is_accurate() {
        let p = PolyShortRange::fit(split(), 5);
        let err = p.fit_error();
        assert!(err < 3e-3, "degree-5 fit error {err}");
    }

    #[test]
    fn higher_order_fits_better() {
        let e3 = PolyShortRange::fit(split(), 3).fit_error();
        let e5 = PolyShortRange::fit(split(), 5).fit_error();
        assert!(e5 < e3, "order 5 ({e5}) should beat order 3 ({e3})");
    }

    #[test]
    fn kernel_force_matches_exact_short_range() {
        let s = split();
        let p = PolyShortRange::fit(s, 5);
        for r in [0.3, 0.9, 1.7, 2.8] {
            let got = p.force_over_r(r * r);
            let want = s.short_over_r(r);
            assert!(
                (got - want).abs() < 3e-3 * want.abs().max(s.long_over_r(r)),
                "r = {r}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn force_is_zero_beyond_cutoff() {
        let p = PolyShortRange::fit(split(), 5);
        assert_eq!(p.force_over_r(3.6 * 3.6), 0.0);
        assert_eq!(p.force_over_r(100.0), 0.0);
    }
}
