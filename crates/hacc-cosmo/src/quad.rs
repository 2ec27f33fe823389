//! Small numerical-integration helpers shared by the cosmology modules.
//!
//! These are deliberately simple (composite Simpson and an adaptive variant);
//! every integrand in this crate is smooth on the integration domain.

/// Composite Simpson's rule with `n` panels (`n` is rounded up to even).
fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> f64 {
    assert!(b >= a, "integration bounds must be ordered");
    if a == b {
        return 0.0;
    }
    let n = if n.is_multiple_of(2) { n.max(2) } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut acc = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        acc += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    acc * h / 3.0
}

/// Adaptive Simpson integration to a relative tolerance.
pub(crate) fn simpson_adaptive<F: Fn(f64) -> f64 + Copy>(
    f: F,
    a: f64,
    b: f64,
    rel_tol: f64,
) -> f64 {
    fn recurse<F: Fn(f64) -> f64 + Copy>(
        f: F,
        a: f64,
        b: f64,
        fa: f64,
        fm: f64,
        fb: f64,
        whole: f64,
        tol: f64,
        depth: u32,
    ) -> f64 {
        let m = 0.5 * (a + b);
        let lm = 0.5 * (a + m);
        let rm = 0.5 * (m + b);
        let flm = f(lm);
        let frm = f(rm);
        let left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
        let right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
        let delta = left + right - whole;
        if depth == 0 || delta.abs() <= 15.0 * tol {
            left + right + delta / 15.0
        } else {
            recurse(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
                + recurse(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
        }
    }
    if a == b {
        return 0.0;
    }
    let m = 0.5 * (a + b);
    let (fa, fm, fb) = (f(a), f(m), f(b));
    let whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
    let tol = rel_tol * whole.abs().max(1e-300);
    recurse(f, a, b, fa, fm, fb, whole, tol, 40)
}

/// Integrates `f` over `[a, b]` in log-space, i.e. `∫ f(x) dx` evaluated as
/// `∫ f(e^u) e^u du`. Appropriate for power-spectrum integrals spanning many
/// decades in `k`. Requires `0 < a < b`.
pub(crate) fn simpson_log<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> f64 {
    assert!(a > 0.0 && b > a, "log-space integration requires 0 < a < b");
    simpson(
        |u| {
            let x = u.exp();
            f(x) * x
        },
        a.ln(),
        b.ln(),
        n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn simpson_polynomial_is_exact() {
        // Simpson is exact for cubics.
        let got = simpson(|x| x * x * x - 2.0 * x + 1.0, -1.0, 3.0, 2);
        let expect = |x: f64| x.powi(4) / 4.0 - x * x + x;
        assert!((got - (expect(3.0) - expect(-1.0))).abs() < 1e-12);
    }

    #[test]
    fn simpson_sine() {
        let got = simpson(f64::sin, 0.0, PI, 200);
        assert!((got - 2.0).abs() < 1e-8);
    }

    #[test]
    fn adaptive_matches_closed_form() {
        let got = simpson_adaptive(|x| (-x).exp(), 0.0, 10.0, 1e-10);
        assert!((got - (1.0 - (-10.0f64).exp())).abs() < 1e-8);
    }

    #[test]
    fn log_space_power_law() {
        // ∫ x^-2 dx from 1 to 100 = 1 - 1/100.
        let got = simpson_log(|x| x.powi(-2), 1.0, 100.0, 400);
        assert!((got - 0.99).abs() < 1e-8);
    }

    #[test]
    fn zero_width_interval() {
        assert_eq!(simpson(|x| x, 2.0, 2.0, 10), 0.0);
        assert_eq!(simpson_adaptive(|x| x, 2.0, 2.0, 1e-9), 0.0);
    }
}
