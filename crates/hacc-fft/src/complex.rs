//! A minimal double-precision complex number.
//!
//! The FFT crate is deliberately self-contained (no `num-complex` dependency),
//! mirroring how HACC carries its own FFT infrastructure (SWFFT) rather than
//! depending on an external library at the lowest level.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` in double precision.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub(crate) const fn from_re(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub(crate) fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub(crate) fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Multiplication by `i` (a quarter-turn), cheaper than a full complex multiply.
    #[inline]
    pub fn mul_i(self) -> Self {
        Self {
            re: -self.im,
            im: self.re,
        }
    }

    /// Multiplication by `-i`.
    #[inline]
    pub fn mul_neg_i(self) -> Self {
        Self {
            re: self.im,
            im: -self.re,
        }
    }

    /// Multiplicative inverse. Returns NaNs for zero, like real division.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
impl Complex {
    /// Magnitude `|z|`.
    pub(crate) fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        let one = Complex::from_re(1.0);
        assert!(close(z + ZERO, z));
        assert!(close(z * one, z));
        assert!(close(z - z, ZERO));
        assert!(close(z * z.inv(), one));
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..32 {
            let z = Complex::cis(k as f64 * 0.39);
            assert!((z.abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn mul_i_matches_full_multiply() {
        let (z, i) = (Complex::new(1.5, -2.5), Complex::new(0.0, 1.0));
        assert!(close(z.mul_i(), z * i));
        assert!(close(z.mul_neg_i(), z * (-i)));
    }

    #[test]
    fn conjugate_properties() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 3.0);
        assert!(close((a * b).conj(), a.conj() * b.conj()));
        assert!((a * a.conj()).im.abs() < 1e-15);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-15);
    }

    #[test]
    fn division() {
        let a = Complex::new(4.0, 2.0);
        let b = Complex::new(1.0, -1.0);
        assert!(close(a / b * b, a));
        assert!(close(a / 2.0, Complex::new(2.0, 1.0)));
    }

    #[test]
    fn sum_over_roots_of_unity_is_zero() {
        let n = 16;
        let s: Complex = (0..n)
            .map(|k| Complex::cis(2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .sum();
        assert!(s.abs() < 1e-12);
    }
}
