//! Special functions not provided by `std`, needed by the force-splitting
//! machinery.

/// Complementary error function, via the Cody-style rational/asymptotic
/// blend of Numerical Recipes' `erfc` (max relative error ≈ 1.2e-7, ample
/// for a force law that is later refit by a polynomial).
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    // Chebyshev expansion coefficients (Numerical Recipes, 3rd ed.).
    const COF: [f64; 28] = [
        -1.3026537197817094,
        6.419_697_923_564_902e-1,
        1.9476473204185836e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x) = 1 − erfc(x)`.
#[inline]
pub(crate) fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Solves the dense linear system `A x = b` in place by Gaussian elimination
/// with partial pivoting. `a` is row-major `n × n`. Panics on a singular
/// matrix. Used by the small least-squares fits of the short-range force
/// polynomial; the systems are ≤ 8 × 8.
pub(crate) fn solve_dense(a: &mut [f64], b: &mut [f64]) -> Vec<f64> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "matrix shape mismatch");
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        for r in (col + 1)..n {
            if a[r * n + col].abs() > a[piv * n + col].abs() {
                piv = r;
            }
        }
        assert!(
            a[piv * n + col].abs() > 1e-14,
            "singular system in solve_dense"
        );
        if piv != col {
            for c in 0..n {
                a.swap(col * n + c, piv * n + c);
            }
            b.swap(col, piv);
        }
        // Eliminate below.
        let d = a[col * n + col];
        for r in (col + 1)..n {
            let f = a[r * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut s = b[r];
        for c in (r + 1)..n {
            s -= a[r * n + c] * x[c];
        }
        x[r] = s / a[r * n + r];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        // Abramowitz & Stegun table values.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001),
            (1.0, 0.1572992),
            (2.0, 0.0046777),
            (3.0, 2.209e-5),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!((got - want).abs() < 2e-6, "erfc({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfc_symmetry() {
        for x in [-2.0, -0.7, 0.3, 1.9] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erf_limits() {
        assert!(erf(0.0).abs() < 1e-15);
        assert!((erf(5.0) - 1.0).abs() < 1e-10);
        assert!((erf(-5.0) + 1.0).abs() < 1e-10);
    }

    #[test]
    fn dense_solver_roundtrip() {
        // A known 3x3 system.
        let mut a = vec![2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0];
        let mut b = vec![8.0, -11.0, -3.0];
        let x = solve_dense(&mut a, &mut b);
        let want = [2.0, 3.0, -1.0];
        for (g, w) in x.iter().zip(want) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn dense_solver_rejects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        solve_dense(&mut a, &mut b);
    }
}
