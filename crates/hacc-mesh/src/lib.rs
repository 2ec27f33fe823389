#![warn(missing_docs)]
//! # hacc-mesh
//!
//! Particle-mesh machinery for the long-range gravity solve of the
//! CRK-HACC reproduction:
//!
//! * [`cic`] — cloud-in-cell deposit and interpolation (adjoint pair),
//! * [`poisson`] — spectral Poisson solver with CIC deconvolution and the
//!   force-splitting filter,
//! * [`split`] — HACC-style Gaussian force splitting, including the
//!   degree-5 polynomial fit baked into the GPU short-range kernels,
//! * [`zeldovich`] — Gaussian random fields and Zel'dovich initial
//!   conditions,
//! * [`lpt2`] — second-order Lagrangian perturbation theory displacements,
//! * [`spectrum`] — binned power-spectrum estimation,
//! * [`pm`] — the assembled PM solver used by the application driver.

pub mod cic;
pub mod lpt2;
pub mod math;
pub mod pm;
pub mod poisson;
pub mod spectrum;
pub mod split;
pub mod zeldovich;

pub use pm::PmSolver;
pub use poisson::{PoissonConfig, PoissonSolver};
pub use spectrum::{measure_power, SpectrumBin};
pub use split::{ForceSplit, PolyShortRange};
pub use zeldovich::{zeldovich_ics, InitialConditions};

#[cfg(test)]
mod proptests {
    use super::*;
    use hacc_fft::Dims;
    use proptest::prelude::*;

    proptest! {
        /// CIC deposit conserves total mass for arbitrary particle sets.
        #[test]
        fn cic_mass_conservation(
            pts in prop::collection::vec(
                (0.0f64..8.0, 0.0f64..8.0, 0.0f64..8.0, 0.1f64..10.0), 1..40)
        ) {
            let dims = Dims::cube(8);
            let pos: Vec<[f64; 3]> = pts.iter().map(|&(x, y, z, _)| [x, y, z]).collect();
            let m: Vec<f64> = pts.iter().map(|&(_, _, _, m)| m).collect();
            let mut grid = vec![0.0; dims.len()];
            cic::deposit(dims, &pos, &m, &mut grid);
            let total: f64 = grid.iter().sum();
            let want: f64 = m.iter().sum();
            prop_assert!((total - want).abs() < 1e-9 * want);
            prop_assert!(grid.iter().all(|&v| v >= -1e-15));
        }

        /// Short + long force split reconstructs Newtonian at any radius.
        #[test]
        fn split_reconstruction(r in 0.05f64..5.0, rs in 0.5f64..2.0) {
            let s = ForceSplit::new(rs, 4.0 * rs);
            let total = s.short_over_r(r) + s.long_over_r(r);
            let newton = s.newtonian_over_r(r);
            prop_assert!((total - newton).abs() < 1e-7 * newton);
        }

        /// The degree-5 kernel polynomial stays within tolerance of the
        /// exact screened force over the fit domain.
        #[test]
        fn poly_fit_quality(rs in 0.8f64..1.6) {
            let s = ForceSplit::new(rs, 3.5 * rs);
            let p = PolyShortRange::fit(s, 5);
            prop_assert!(p.fit_error() < 5e-3);
        }
    }
}
