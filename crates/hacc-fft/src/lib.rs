#![warn(missing_docs)]
//! # hacc-fft
//!
//! Self-contained FFT machinery for the CRK-HACC reproduction.
//!
//! HACC carries its own distributed FFT (SWFFT) for the long-range
//! particle-mesh Poisson solve; this crate is the single-node analogue.
//! It provides:
//!
//! * [`complex::Complex`] — a minimal double-precision complex type,
//! * `fft1d::Fft1d` — the 1D plans `Fft3d` runs along each axis (radix-2
//!   for powers of two, Bluestein for arbitrary lengths),
//! * [`fft3d::Fft3d`] — batched 3D transforms with rayon parallelism across
//!   independent pencils.
//!
//! All transforms follow the FFTW sign convention (`e^{-2πi jk/n}` forward)
//! and the inverse applies the `1/n` normalization.

pub mod complex;
pub mod fft1d;
pub mod fft3d;

pub use complex::Complex;
pub use fft1d::Direction;
pub use fft3d::{freq_index, Dims, Fft3d};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fft1d::{dft_naive, Fft1d};
    use proptest::prelude::*;

    fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<Complex>> {
        prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..max_len)
            .prop_map(|v| v.into_iter().map(|(r, i)| Complex::new(r, i)).collect())
    }

    proptest! {
        /// forward∘inverse is the identity for any length (radix-2 and Bluestein).
        #[test]
        fn round_trip_any_length(x in arb_signal(96)) {
            let plan = Fft1d::new(x.len());
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            plan.process(&mut y, Direction::Inverse);
            for (a, b) in x.iter().zip(&y) {
                prop_assert!((*a - *b).abs() < 1e-7);
            }
        }

        /// The fast transform agrees with the naive DFT for any length.
        #[test]
        fn agrees_with_naive(x in arb_signal(64)) {
            let plan = Fft1d::new(x.len());
            let fast = plan.transform(&x, Direction::Forward);
            let slow = dft_naive(&x, Direction::Forward);
            let scale = x.iter().map(|v| v.abs()).fold(1.0, f64::max) * x.len() as f64;
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert!((*a - *b).abs() < 1e-10 * scale);
            }
        }

        /// Parseval: energy is preserved up to the 1/n convention.
        #[test]
        fn parseval(x in arb_signal(80)) {
            let plan = Fft1d::new(x.len());
            let y = plan.transform(&x, Direction::Forward);
            let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
            let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64;
            prop_assert!((ex - ey).abs() < 1e-6 * ex.max(1.0));
        }

        /// DC bin of the forward transform equals the plain sum of the input.
        #[test]
        fn dc_bin_is_sum(x in arb_signal(64)) {
            let plan = Fft1d::new(x.len());
            let y = plan.transform(&x, Direction::Forward);
            let s: Complex = x.iter().copied().sum();
            prop_assert!((y[0] - s).abs() < 1e-9 * (1.0 + s.abs()) * x.len() as f64);
        }
    }
}
