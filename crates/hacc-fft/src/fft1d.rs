//! One-dimensional FFTs.
//!
//! Two algorithms are provided behind a single `Fft1d` plan type:
//!
//! * an iterative, in-place, decimation-in-time **radix-2 Cooley–Tukey**
//!   transform for power-of-two lengths, and
//! * **Bluestein's algorithm** (chirp-z) for arbitrary lengths, which reduces
//!   a length-`n` DFT to a cyclic convolution of a power-of-two length
//!   `m ≥ 2n-1` evaluated with the radix-2 transform.
//!
//! Plans pre-compute twiddle factors and (for Bluestein) the transformed
//! chirp, so repeated transforms of the same length do no trigonometry.

use crate::complex::{Complex, ZERO};
use std::f64::consts::PI;

/// Transform direction.
///
/// `Forward` uses the `e^{-2πi jk/n}` kernel (the physics/FFTW convention);
/// `Inverse` uses `e^{+2πi jk/n}` and applies the `1/n` normalization so that
/// `inverse(forward(x)) == x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Spectral analysis direction, no normalization.
    Forward,
    /// Synthesis direction, normalized by `1/n`.
    Inverse,
}

/// A reusable plan for 1D FFTs of a fixed length.
#[derive(Clone, Debug)]
pub(crate) struct Fft1d {
    n: usize,
    kind: PlanKind,
}

#[derive(Clone, Debug)]
enum PlanKind {
    /// Radix-2 plan: bit-reversal permutation table + forward twiddles.
    Radix2 {
        rev: Vec<u32>,
        /// Twiddles `e^{-2πi k/n}` for `k < n/2`, grouped per butterfly stage
        /// by striding; a single table of the finest granularity suffices.
        twiddle: Vec<Complex>,
    },
    /// Bluestein plan for arbitrary `n` via a length-`m` radix-2 convolution.
    Bluestein {
        m: usize,
        inner: Box<Fft1d>,
        /// `a_k = e^{-iπ k²/n}` chirp (forward direction).
        chirp: Vec<Complex>,
        /// Forward FFT of the zero-padded conjugate chirp, pre-scaled by `1/m`.
        chirp_hat: Vec<Complex>,
    },
}

impl Fft1d {
    /// Builds a plan for length `n` (any `n ≥ 1`).
    ///
    /// Power-of-two lengths use the fast in-place path; other lengths fall
    /// back to Bluestein. The particle-mesh solver always uses powers of two,
    /// but arbitrary-length support lets analysis code (e.g. power-spectrum
    /// binning on odd grids) reuse the same machinery.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FFT length must be at least 1");
        if n.is_power_of_two() {
            Self {
                n,
                kind: Self::plan_radix2(n),
            }
        } else {
            Self {
                n,
                kind: Self::plan_bluestein(n),
            }
        }
    }

    fn plan_radix2(n: usize) -> PlanKind {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .map(|r| if n == 1 { 0 } else { r })
            .collect();
        let twiddle = (0..n / 2)
            .map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        PlanKind::Radix2 { rev, twiddle }
    }

    fn plan_bluestein(n: usize) -> PlanKind {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Box::new(Fft1d::new(m));
        // Chirp a_k = e^{-iπ k²/n}; compute k² mod 2n to avoid precision loss
        // for large k (the chirp has period 2n in k²).
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex::cis(-PI * k2 as f64 / n as f64)
            })
            .collect();
        // b_k = conj(a_k) zero-padded into length m with wrap-around symmetry.
        let mut b = vec![ZERO; m];
        for (k, &c) in chirp.iter().enumerate() {
            b[k] = c.conj();
            if k != 0 {
                b[m - k] = c.conj();
            }
        }
        inner.process(&mut b, Direction::Forward);
        // Pre-scale by 1/m to fold the inner inverse normalization into the table.
        for v in &mut b {
            *v = v.scale(1.0 / m as f64);
        }
        PlanKind::Bluestein {
            m,
            inner,
            chirp,
            chirp_hat: b,
        }
    }

    /// Transforms `data` in place. `data.len()` must equal the plan length.
    pub fn process(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length does not match plan");
        match &self.kind {
            PlanKind::Radix2 { rev, twiddle } => {
                self.radix2(data, rev, twiddle, dir);
            }
            PlanKind::Bluestein {
                m,
                inner,
                chirp,
                chirp_hat,
            } => {
                self.bluestein(data, *m, inner, chirp, chirp_hat, dir);
            }
        }
    }

    fn radix2(&self, data: &mut [Complex], rev: &[u32], twiddle: &[Complex], dir: Direction) {
        let n = self.n;
        if n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative butterflies. `len` is the current transform size,
        // `half` the butterfly span; twiddle stride shrinks as `len` grows.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = twiddle[k * stride];
                    let w = match dir {
                        Direction::Forward => w,
                        Direction::Inverse => w.conj(),
                    };
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
        if dir == Direction::Inverse {
            let s = 1.0 / n as f64;
            for v in data.iter_mut() {
                *v = v.scale(s);
            }
        }
    }

    fn bluestein(
        &self,
        data: &mut [Complex],
        m: usize,
        inner: &Fft1d,
        chirp: &[Complex],
        chirp_hat: &[Complex],
        dir: Direction,
    ) {
        let n = self.n;
        // The inverse transform of length n is the conjugate of the forward
        // transform of the conjugated input, divided by n.
        let conjugate = dir == Direction::Inverse;
        if conjugate {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }
        // x_k · a_k, zero padded to m.
        let mut buf = vec![ZERO; m];
        for k in 0..n {
            buf[k] = data[k] * chirp[k];
        }
        inner.process(&mut buf, Direction::Forward);
        for (v, &h) in buf.iter_mut().zip(chirp_hat.iter()) {
            *v *= h;
        }
        // chirp_hat is pre-scaled by 1/m, so run the inner transform
        // unnormalized in the inverse direction by conjugation.
        for v in buf.iter_mut() {
            *v = v.conj();
        }
        inner.process(&mut buf, Direction::Forward);
        for k in 0..n {
            data[k] = buf[k].conj() * chirp[k];
        }
        if conjugate {
            let s = 1.0 / n as f64;
            for v in data.iter_mut() {
                *v = v.conj().scale(s);
            }
        }
    }
}

#[cfg(test)]
impl Fft1d {
    /// Transforms a copy of `data` and returns it.
    pub(crate) fn transform(&self, data: &[Complex], dir: Direction) -> Vec<Complex> {
        let mut out = data.to_vec();
        self.process(&mut out, dir);
        out
    }
}

/// A naive `O(n²)` DFT: the ground truth the fast transforms are tested
/// against.
#[cfg(test)]
pub(crate) fn dft_naive(data: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = data.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = ZERO;
        for (j, &x) in data.iter().enumerate() {
            // j*k mod n keeps the phase argument small for long inputs.
            let jk = (j * k) % n;
            acc += x * Complex::cis(sign * 2.0 * PI * jk as f64 / n as f64);
        }
        *o = if dir == Direction::Inverse {
            acc.scale(1.0 / n as f64)
        } else {
            acc
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.7 - 3.0, (i as f64).sin()))
            .collect()
    }

    #[test]
    fn radix2_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let x = ramp(n);
            let plan = Fft1d::new(n);
            let fast = plan.transform(&x, Direction::Forward);
            let slow = dft_naive(&x, Direction::Forward);
            assert!(max_err(&fast, &slow) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for n in [3usize, 5, 6, 7, 12, 15, 17, 100, 243] {
            let x = ramp(n);
            let plan = Fft1d::new(n);
            let fast = plan.transform(&x, Direction::Forward);
            let slow = dft_naive(&x, Direction::Forward);
            assert!(max_err(&fast, &slow) < 1e-8 * n as f64, "n={n}");
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [8usize, 13, 32, 60] {
            let x = ramp(n);
            let plan = Fft1d::new(n);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            plan.process(&mut y, Direction::Inverse);
            assert!(max_err(&x, &y) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 32;
        let mut x = vec![ZERO; n];
        x[0] = Complex::from_re(1.0);
        let plan = Fft1d::new(n);
        plan.process(&mut x, Direction::Forward);
        for v in x {
            assert!((v - Complex::from_re(1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn single_mode_lands_in_single_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * PI * (k0 * j) as f64 / n as f64))
            .collect();
        let plan = Fft1d::new(n);
        let y = plan.transform(&x, Direction::Forward);
        for (k, v) in y.iter().enumerate() {
            let expect = if k == k0 { n as f64 } else { 0.0 };
            assert!((v.abs() - expect).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let x = ramp(n);
        let plan = Fft1d::new(n);
        let y = plan.transform(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-8 * ex);
    }

    #[test]
    fn linearity() {
        let n = 48; // exercises Bluestein
        let a = ramp(n);
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.25))
            .collect();
        let plan = Fft1d::new(n);
        let fa = plan.transform(&a, Direction::Forward);
        let fb = plan.transform(&b, Direction::Forward);
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fsum = plan.transform(&sum, Direction::Forward);
        let expect: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &expect) < 1e-9);
    }
}
