//! Linear matter power spectrum.
//!
//! Uses the Eisenstein & Hu (1998) "no-wiggle" fitting form for the transfer
//! function (the standard choice for N-body initial conditions when baryon
//! acoustic oscillations need not be resolved), with the amplitude fixed by
//! the σ₈ normalization at z = 0 and redshift scaling via the linear growth
//! factor.

use crate::growth::Growth;
use crate::params::CosmoParams;
use crate::quad::simpson_log;
use std::f64::consts::{E, PI};

/// Linear matter power spectrum `P(k, z)` with `k` in h/Mpc and `P` in
/// (Mpc/h)³.
#[derive(Clone, Copy, Debug)]
pub struct LinearPower {
    params: CosmoParams,
    growth: Growth,
    /// Sound-horizon-like scale `s` of the no-wiggle fit, in Mpc.
    s: f64,
    /// Shape suppression parameter α_Γ.
    alpha_gamma: f64,
    /// Amplitude A such that `P(k, 0) = A kⁿ T²(k)` satisfies σ₈.
    amplitude: f64,
}

impl LinearPower {
    /// Builds and normalizes the power spectrum for a parameter set.
    pub fn new(params: CosmoParams) -> Self {
        params.validate().expect("invalid cosmological parameters");
        let om_h2 = params.omega_m * params.h * params.h;
        let ob_h2 = params.omega_b * params.h * params.h;
        let fb = params.omega_b / params.omega_m;

        // Eisenstein & Hu (1998), Eqs. 26, 30-31 (no-wiggle form).
        let s = 44.5 * (9.83 / om_h2).ln() / (1.0 + 10.0 * ob_h2.powf(0.75)).sqrt();
        let alpha_gamma =
            1.0 - 0.328 * (431.0 * om_h2).ln() * fb + 0.38 * (22.3 * om_h2).ln() * fb * fb;

        let mut lp = Self {
            params,
            growth: Growth::new(params),
            s,
            alpha_gamma,
            amplitude: 1.0,
        };
        // Normalize so sigma_r(8 Mpc/h, z=0) = sigma8.
        let sig = lp.sigma_r(8.0);
        let target = params.sigma8;
        lp.amplitude = (target / sig) * (target / sig);
        lp
    }

    /// The growth model used for redshift scaling.
    #[inline]
    pub fn growth(&self) -> &Growth {
        &self.growth
    }

    /// No-wiggle transfer function `T(k)`, `k` in h/Mpc, normalized to
    /// `T → 1` as `k → 0`.
    pub fn transfer(&self, k: f64) -> f64 {
        assert!(k > 0.0, "wavenumber must be positive");
        let p = &self.params;
        let om_h2 = p.omega_m * p.h * p.h;
        // k in 1/Mpc for the (0.43 k s) term of the effective shape.
        let k_mpc = k * p.h;
        let gamma_eff = p.omega_m
            * p.h
            * (self.alpha_gamma
                + (1.0 - self.alpha_gamma) / (1.0 + (0.43 * k_mpc * self.s).powi(4)));
        let _ = om_h2;
        let q = k * p.theta_cmb * p.theta_cmb / gamma_eff;
        let l = (2.0 * E + 1.8 * q).ln();
        let c = 14.2 + 731.0 / (1.0 + 62.5 * q);
        l / (l + c * q * q)
    }

    /// Dimensionful linear power `P(k, z=0)` in (Mpc/h)³.
    pub fn power_z0(&self, k: f64) -> f64 {
        let t = self.transfer(k);
        self.amplitude * k.powf(self.params.n_s) * t * t
    }

    /// Linear power at redshift `z`: `P(k, z) = D²(z) P(k, 0)`.
    pub fn power(&self, k: f64, z: f64) -> f64 {
        let d = self.growth.d_of_z(z);
        d * d * self.power_z0(k)
    }

    /// RMS linear mass fluctuation in a top-hat sphere of radius `r` Mpc/h
    /// at z = 0 (so `sigma_r(8.0) == sigma8` after normalization).
    pub fn sigma_r(&self, r: f64) -> f64 {
        assert!(r > 0.0, "smoothing radius must be positive");
        let integrand = |k: f64| {
            let x = k * r;
            let w = tophat_window(x);
            self.power_z0(k) * w * w * k * k
        };
        let var = simpson_log(integrand, 1e-5, 1e3, 2048) / (2.0 * PI * PI);
        var.sqrt()
    }
}

/// Fourier transform of a real-space top-hat sphere,
/// `W(x) = 3 (sin x − x cos x)/x³`, with the small-x Taylor limit.
#[inline]
pub fn tophat_window(x: f64) -> f64 {
    if x < 1e-3 {
        1.0 - x * x / 10.0
    } else {
        3.0 * (x.sin() - x * x.cos()) / (x * x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_tends_to_unity_at_large_scales() {
        let p = LinearPower::new(CosmoParams::planck2018());
        assert!((p.transfer(1e-5) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn transfer_is_monotone_decreasing() {
        let p = LinearPower::new(CosmoParams::planck2018());
        let mut prev = f64::INFINITY;
        for i in 0..50 {
            let k = 10f64.powf(-4.0 + 6.0 * i as f64 / 49.0);
            let t = p.transfer(k);
            assert!(t < prev && t > 0.0);
            prev = t;
        }
    }

    #[test]
    fn sigma8_normalization_holds() {
        let params = CosmoParams::planck2018();
        let p = LinearPower::new(params);
        assert!((p.sigma_r(8.0) - params.sigma8).abs() < 1e-6);
    }

    #[test]
    fn sigma_decreases_with_radius() {
        let p = LinearPower::new(CosmoParams::planck2018());
        assert!(p.sigma_r(4.0) > p.sigma_r(8.0));
        assert!(p.sigma_r(8.0) > p.sigma_r(16.0));
    }

    #[test]
    fn power_scales_with_growth_squared() {
        let p = LinearPower::new(CosmoParams::planck2018());
        let k = 0.1;
        let z = 50.0;
        let d = p.growth().d_of_z(z);
        assert!((p.power(k, z) - d * d * p.power_z0(k)).abs() < 1e-12 * p.power_z0(k));
        assert!(p.power(k, z) < p.power(k, 0.0));
    }

    #[test]
    fn power_spectrum_peak_is_at_matter_radiation_scale() {
        // The BAO-free P(k) should peak around k ~ 0.01-0.03 h/Mpc.
        let p = LinearPower::new(CosmoParams::planck2018());
        let mut best_k = 0.0;
        let mut best = 0.0;
        for i in 0..400 {
            let k = 10f64.powf(-4.0 + 4.0 * i as f64 / 399.0);
            let v = p.power_z0(k);
            if v > best {
                best = v;
                best_k = k;
            }
        }
        assert!(best_k > 0.005 && best_k < 0.05, "peak at k = {best_k}");
    }

    #[test]
    fn tophat_window_limits() {
        assert!((tophat_window(1e-6) - 1.0).abs() < 1e-9);
        // First zero of W(x) is at x ≈ 4.493.
        assert!(tophat_window(4.0) > 0.0);
        assert!(tophat_window(5.0) < 0.0);
    }
}
