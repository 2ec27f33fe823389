//! Cosmological parameter sets.

use serde::{Deserialize, Serialize};

/// Flat ΛCDM (+ optional radiation) background parameters.
///
/// Units follow the HACC convention: lengths in comoving Mpc/h, masses in
/// Msun/h, and the Hubble parameter expressed through the dimensionless `h`
/// (`H0 = 100 h km/s/Mpc`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CosmoParams {
    /// Total matter density fraction today (CDM + baryons), Ωₘ.
    pub omega_m: f64,
    /// Baryon density fraction today, Ω_b.
    pub omega_b: f64,
    /// Dark-energy density fraction today, Ω_Λ.
    pub omega_l: f64,
    /// Radiation density fraction today, Ω_r (usually negligible but kept
    /// for early-universe accuracy; the test problem starts at z = 200).
    pub omega_r: f64,
    /// Dimensionless Hubble parameter h.
    pub h: f64,
    /// Scalar spectral index n_s of the primordial power spectrum.
    pub n_s: f64,
    /// σ₈ normalization of the linear matter power spectrum at z = 0.
    pub sigma8: f64,
    /// CMB temperature in units of 2.7 K (Eisenstein–Hu Θ₂.₇).
    pub theta_cmb: f64,
}

impl CosmoParams {
    /// The parameters used by HACC's ECP/ExaSky FOM configurations
    /// (Planck-2018-like flat ΛCDM).
    pub fn planck2018() -> Self {
        Self {
            omega_m: 0.31,
            omega_b: 0.049,
            omega_l: 0.69,
            omega_r: 8.6e-5,
            h: 0.6766,
            n_s: 0.9665,
            sigma8: 0.8102,
            theta_cmb: 2.7255 / 2.7,
        }
    }

    /// Curvature fraction Ω_k = 1 − Ωₘ − Ω_Λ − Ω_r.
    #[inline]
    pub(crate) fn omega_k(&self) -> f64 {
        1.0 - self.omega_m - self.omega_l - self.omega_r
    }

    /// Sanity-checks the parameter set, returning a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.omega_m > 0.0) {
            return Err(format!("omega_m must be positive, got {}", self.omega_m));
        }
        if self.omega_b < 0.0 || self.omega_b > self.omega_m {
            return Err(format!(
                "omega_b must lie in [0, omega_m], got {} (omega_m = {})",
                self.omega_b, self.omega_m
            ));
        }
        if self.omega_l < 0.0 || self.omega_r < 0.0 {
            return Err("density fractions must be non-negative".into());
        }
        if !(self.h > 0.2 && self.h < 1.5) {
            return Err(format!(
                "h = {} is outside the plausible range (0.2, 1.5)",
                self.h
            ));
        }
        if !(self.sigma8 > 0.0) {
            return Err("sigma8 must be positive".into());
        }
        Ok(())
    }
}

impl Default for CosmoParams {
    fn default() -> Self {
        Self::planck2018()
    }
}

/// Converts redshift to scale factor, `a = 1/(1+z)`.
#[inline]
pub fn z_to_a(z: f64) -> f64 {
    1.0 / (1.0 + z)
}

#[cfg(test)]
impl CosmoParams {
    /// An Einstein–de Sitter universe (Ωₘ = 1), the tests' analytic
    /// oracle: `E(a) = a^{-3/2}` and the growth factor is exactly `D(a) = a`.
    pub(crate) fn einstein_de_sitter() -> Self {
        Self {
            omega_m: 1.0,
            omega_b: 0.05,
            omega_l: 0.0,
            omega_r: 0.0,
            h: 0.7,
            n_s: 1.0,
            sigma8: 0.8,
            theta_cmb: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planck_parameters_are_flat_and_valid() {
        let p = CosmoParams::planck2018();
        p.validate().unwrap();
        assert!(p.omega_k().abs() < 1e-3);
    }

    #[test]
    fn eds_parameters_are_valid() {
        CosmoParams::einstein_de_sitter().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = CosmoParams::planck2018();
        p.omega_b = 0.5; // > omega_m
        assert!(p.validate().is_err());
        p = CosmoParams::planck2018();
        p.h = 3.0;
        assert!(p.validate().is_err());
        p = CosmoParams::planck2018();
        p.omega_m = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn redshift_scale_factor_round_trip() {
        for z in [0.0, 0.5, 1.0, 50.0, 200.0] {
            assert!((1.0 / z_to_a(z) - 1.0 - z).abs() < 1e-12);
        }
    }
}
