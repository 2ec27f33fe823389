//! Friedmann background expansion and the time-step integrals used by the
//! symplectic kick–drift–kick stepper.
//!
//! HACC integrates particle trajectories in comoving coordinates with the
//! scale factor `a` as the time variable. The drift and kick updates then
//! need the integrals
//!
//! ```text
//!   drift(a₁→a₂) = ∫ da / (a³ E(a))          (position update weight)
//!   kick (a₁→a₂) = ∫ da / (a² E(a))          (velocity update weight)
//! ```
//!
//! in units of `1/H0`, where `E(a) = H(a)/H0`.

use crate::params::CosmoParams;
use crate::quad::simpson_adaptive;

/// Background expansion model for a parameter set.
#[derive(Clone, Copy, Debug)]
pub struct Friedmann {
    params: CosmoParams,
}

impl Friedmann {
    /// Builds the expansion model, validating the parameters.
    pub fn new(params: CosmoParams) -> Self {
        params.validate().expect("invalid cosmological parameters");
        Self { params }
    }

    /// The underlying parameter set.
    #[inline]
    pub fn params(&self) -> &CosmoParams {
        &self.params
    }

    /// Dimensionless Hubble rate `E(a) = H(a)/H0`.
    #[inline]
    pub fn e_of_a(&self, a: f64) -> f64 {
        self.e2_of_a(a).sqrt()
    }

    /// `E²(a) = Ωᵣ a⁻⁴ + Ωₘ a⁻³ + Ω_k a⁻² + Ω_Λ`.
    #[inline]
    fn e2_of_a(&self, a: f64) -> f64 {
        debug_assert!(a > 0.0, "scale factor must be positive");
        let p = &self.params;
        let inv_a = 1.0 / a;
        let inv_a2 = inv_a * inv_a;
        p.omega_r * inv_a2 * inv_a2 + p.omega_m * inv_a2 * inv_a + p.omega_k() * inv_a2 + p.omega_l
    }

    /// Drift integral `∫_{a₁}^{a₂} da / (a³ E(a))` in units of `1/H0`.
    ///
    /// Weights the comoving position update `x += v · drift`.
    pub fn drift_factor(&self, a1: f64, a2: f64) -> f64 {
        assert!(a1 > 0.0 && a2 >= a1, "drift requires 0 < a1 <= a2");
        simpson_adaptive(|a| 1.0 / (a * a * a * self.e_of_a(a)), a1, a2, 1e-10)
    }

    /// Kick integral `∫_{a₁}^{a₂} da / (a² E(a))` in units of `1/H0`.
    ///
    /// Weights the velocity update `v += g · kick`.
    pub fn kick_factor(&self, a1: f64, a2: f64) -> f64 {
        assert!(a1 > 0.0 && a2 >= a1, "kick requires 0 < a1 <= a2");
        simpson_adaptive(|a| 1.0 / (a * a * self.e_of_a(a)), a1, a2, 1e-10)
    }

    /// Proper cosmic time between scale factors, `∫ da / (a E(a))`, in `1/H0`.
    pub fn time_between(&self, a1: f64, a2: f64) -> f64 {
        assert!(a1 > 0.0 && a2 >= a1);
        simpson_adaptive(|a| 1.0 / (a * self.e_of_a(a)), a1, a2, 1e-10)
    }

    /// A monotone schedule of `n` scale-factor steps from `a_initial` to
    /// `a_final`, uniform in `a` (HACC's default time-stepping variable).
    pub fn step_schedule(&self, a_initial: f64, a_final: f64, n: usize) -> Vec<f64> {
        assert!(a_initial > 0.0 && a_final > a_initial && n >= 1);
        let da = (a_final - a_initial) / n as f64;
        (0..=n).map(|i| a_initial + i as f64 * da).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::z_to_a;

    #[test]
    fn e_of_a_is_one_today() {
        // Flat model: E(1) = sqrt(Ωr + Ωm + Ωk + ΩΛ) = 1 by construction.
        let f = Friedmann::new(CosmoParams::planck2018());
        assert!((f.e_of_a(1.0) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn eds_expansion_is_analytic() {
        // EdS: E(a) = a^{-3/2}; drift = ∫ a^{-3/2} da = 2(√a₂ − √a₁)... check:
        // ∫ da / (a³ · a^{-3/2}) = ∫ a^{-3/2} da = −2 a^{-1/2} |.
        let f = Friedmann::new(CosmoParams::einstein_de_sitter());
        let (a1, a2) = (0.25, 1.0);
        let drift = f.drift_factor(a1, a2);
        let expect = 2.0 * (1.0 / a1.sqrt() - 1.0 / a2.sqrt());
        assert!((drift - expect).abs() < 1e-9, "drift {drift} vs {expect}");
        // kick: ∫ da / (a² a^{-3/2}) = ∫ a^{-1/2} da = 2(√a₂ − √a₁).
        let kick = f.kick_factor(a1, a2);
        let expect = 2.0 * (a2.sqrt() - a1.sqrt());
        assert!((kick - expect).abs() < 1e-9, "kick {kick} vs {expect}");
    }

    #[test]
    fn integrals_are_additive() {
        let f = Friedmann::new(CosmoParams::planck2018());
        let whole = f.kick_factor(0.1, 0.9);
        let split = f.kick_factor(0.1, 0.37) + f.kick_factor(0.37, 0.9);
        assert!((whole - split).abs() < 1e-9);
    }

    #[test]
    fn step_schedule_covers_range() {
        let f = Friedmann::new(CosmoParams::planck2018());
        let s = f.step_schedule(z_to_a(200.0), z_to_a(50.0), 5);
        assert_eq!(s.len(), 6);
        assert!((s[0] - z_to_a(200.0)).abs() < 1e-15);
        assert!((s[5] - z_to_a(50.0)).abs() < 1e-15);
        assert!(s.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn eds_age_of_universe() {
        // EdS: t(a=1) = 2/3 in 1/H0 units.
        let f = Friedmann::new(CosmoParams::einstein_de_sitter());
        let t = f.time_between(1e-6, 1.0);
        assert!((t - 2.0 / 3.0).abs() < 1e-3, "t = {t}");
    }
}
