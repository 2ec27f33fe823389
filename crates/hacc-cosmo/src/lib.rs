#![warn(missing_docs)]
//! # hacc-cosmo
//!
//! Background cosmology for the CRK-HACC reproduction: parameter sets,
//! Friedmann expansion and the kick/drift integrals used by the symplectic
//! stepper, the linear growth factor, the Eisenstein–Hu linear matter power
//! spectrum (for Zel'dovich initial conditions), and the HACC unit system.

pub mod friedmann;
pub mod growth;
pub mod params;
pub mod power;
pub mod quad;
pub mod units;

pub use friedmann::Friedmann;
pub use growth::Growth;
pub use params::{z_to_a, CosmoParams};
pub use power::LinearPower;
pub use units::{device_bytes_per_rank, BoxSpec};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// E(a) is positive and monotone decreasing in a for standard params.
        #[test]
        fn expansion_rate_decreases(a in 0.01f64..1.0) {
            let f = Friedmann::new(CosmoParams::planck2018());
            prop_assert!(f.e_of_a(a) > 0.0);
            prop_assert!(f.e_of_a(a) >= f.e_of_a((a + 0.001).min(1.0)) - 1e-12);
        }

        /// Drift and kick integrals are non-negative and additive.
        #[test]
        fn integrals_additive(a1 in 0.01f64..0.5, da in 0.01f64..0.4, split in 0.1f64..0.9) {
            let f = Friedmann::new(CosmoParams::planck2018());
            let a2 = a1 + da;
            let am = a1 + split * da;
            let whole = f.drift_factor(a1, a2);
            let parts = f.drift_factor(a1, am) + f.drift_factor(am, a2);
            prop_assert!(whole >= 0.0);
            prop_assert!((whole - parts).abs() < 1e-8 * whole.max(1.0));
        }

        /// The growth factor lies in (0, 1] for a ≤ 1 and is monotone.
        #[test]
        fn growth_bounds(a in 0.02f64..1.0) {
            let g = Growth::new(CosmoParams::planck2018());
            let d = g.d_of_a(a);
            prop_assert!(d > 0.0 && d <= 1.0 + 1e-12);
            prop_assert!(g.d_of_a((a + 0.01).min(1.0)) + 1e-12 >= d);
        }

        /// Transfer function is bounded in (0, 1] for all k.
        #[test]
        fn transfer_bounds(logk in -4.0f64..2.0) {
            let p = LinearPower::new(CosmoParams::planck2018());
            let t = p.transfer(10f64.powf(logk));
            prop_assert!(t > 0.0 && t <= 1.0 + 1e-6);
        }
    }
}
