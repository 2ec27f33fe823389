//! Second-order Lagrangian perturbation theory (2LPT) initial conditions.
//!
//! Zel'dovich (1LPT) starts carry transients that decay only as 1/a;
//! production N-body initial-condition generators (including those used
//! for HACC runs) add the second-order displacement
//!
//! ```text
//!   ∇²φ⁽²⁾ = − Σ_{i<j} [ φ⁽¹⁾,ii φ⁽¹⁾,jj − (φ⁽¹⁾,ij)² ]
//!   x = q + D₁ ∇φ⁽¹⁾ + D₂ ∇φ⁽²⁾,      D₂ ≈ −(3/7) D₁²
//! ```
//!
//! where `φ⁽¹⁾` is the first-order displacement potential
//! (`∇²φ⁽¹⁾ = −δ`). All derivatives are evaluated spectrally.

use crate::zeldovich::GaussianField;
use hacc_fft::{complex::ZERO, freq_index, Complex, Dims, Direction, Fft3d};
use std::f64::consts::PI;

/// Wavenumber of axis component `c` at grid index, in physical units.
fn k_of(dims: Dims, box_size: f64, idx: (usize, usize, usize), c: usize) -> f64 {
    let kf = 2.0 * PI / box_size;
    match c {
        0 => kf * freq_index(idx.0, dims.nx) as f64,
        1 => kf * freq_index(idx.1, dims.ny) as f64,
        _ => kf * freq_index(idx.2, dims.nz) as f64,
    }
}

/// Computes the spectral second derivative `φ,cd` of a potential whose
/// Laplacian is `src_spec` (i.e. `φ̂ = −ŝ/k²`), returned in real space.
fn potential_second_derivative(
    dims: Dims,
    box_size: f64,
    src_spec: &[Complex],
    c: usize,
    d: usize,
) -> Vec<f64> {
    let fft = Fft3d::new(dims);
    let mut spec = vec![ZERO; dims.len()];
    for f in 0..dims.len() {
        let idx = dims.coords(f);
        let kc = k_of(dims, box_size, idx, c);
        let kd = k_of(dims, box_size, idx, d);
        let k2 = (0..3)
            .map(|a| {
                let k = k_of(dims, box_size, idx, a);
                k * k
            })
            .sum::<f64>();
        if k2 == 0.0 {
            continue;
        }
        // φ̂ = −ŝ/k²; (φ,cd)^ = −k_c k_d φ̂ = k_c k_d ŝ / k².
        spec[f] = src_spec[f].scale(kc * kd / k2);
    }
    fft.inverse_to_real(&spec)
}

/// The 2LPT displacement fields: first- and second-order components per
/// axis, in the same length units as the box.
pub(crate) struct Lpt2Displacements {
    /// First-order (Zel'dovich) displacement ψ⁽¹⁾.
    pub psi1: [Vec<f64>; 3],
    /// Second-order displacement ψ⁽²⁾ (to be scaled by `−3/7 D₁²`).
    pub psi2: [Vec<f64>; 3],
}

/// Derives both displacement orders from a density realization.
pub(crate) fn lpt2_displacements(field: &GaussianField) -> Lpt2Displacements {
    let dims = field.dims;
    let box_size = field.box_size;
    let fft = Fft3d::new(dims);
    let delta_spec = fft.forward_real(&field.delta);

    // First order from the existing machinery.
    let psi1 = field.displacement();

    // Second-order source: Σ_{i<j} [φ,ii φ,jj − (φ,ij)²] with ∇²φ = −δ,
    // so the potential's Laplacian source is −δ.
    let neg_delta: Vec<Complex> = delta_spec.iter().map(|z| z.scale(-1.0)).collect();
    let dxx = potential_second_derivative(dims, box_size, &neg_delta, 0, 0);
    let dyy = potential_second_derivative(dims, box_size, &neg_delta, 1, 1);
    let dzz = potential_second_derivative(dims, box_size, &neg_delta, 2, 2);
    let dxy = potential_second_derivative(dims, box_size, &neg_delta, 0, 1);
    let dxz = potential_second_derivative(dims, box_size, &neg_delta, 0, 2);
    let dyz = potential_second_derivative(dims, box_size, &neg_delta, 1, 2);
    let mut src2 = vec![0.0; dims.len()];
    for f in 0..dims.len() {
        src2[f] = dxx[f] * dyy[f] + dxx[f] * dzz[f] + dyy[f] * dzz[f]
            - dxy[f] * dxy[f]
            - dxz[f] * dxz[f]
            - dyz[f] * dyz[f];
    }
    // ψ⁽²⁾ = ∇∇⁻² src2: same gradient-of-inverse-Laplacian as 1LPT.
    let src2_spec = fft.forward_real(&src2);
    let psi2 = std::array::from_fn(|axis| {
        let mut comp = src2_spec.clone();
        for f in 0..dims.len() {
            let idx = dims.coords(f);
            let kc = k_of(dims, box_size, idx, axis);
            let k2 = (0..3)
                .map(|a| {
                    let k = k_of(dims, box_size, idx, a);
                    k * k
                })
                .sum::<f64>();
            if k2 == 0.0 {
                comp[f] = ZERO;
                continue;
            }
            comp[f] = comp[f].mul_i().scale(kc / k2);
        }
        let mut grid = comp;
        fft.process(&mut grid, Direction::Inverse);
        grid.into_iter().map(|z| z.re).collect()
    });
    Lpt2Displacements { psi1, psi2 }
}

/// The standard ΛCDM approximation `D₂ ≈ −(3/7) D₁² Ωₘ(a)^{−1/143}`; the
/// tiny Ω correction is dropped (sub-percent at the starting epochs used
/// here).
pub(crate) fn d2_of_d1(d1: f64) -> f64 {
    -3.0 / 7.0 * d1 * d1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> GaussianField {
        GaussianField::generate(
            Dims::cube(16),
            32.0,
            |k| 50.0 * (-(k / 0.3) * (k / 0.3)).exp(),
            9,
        )
    }

    #[test]
    fn first_order_matches_zeldovich_machinery() {
        let f = field();
        let lpt = lpt2_displacements(&f);
        let direct = f.displacement();
        for c in 0..3 {
            for (a, b) in lpt.psi1[c].iter().zip(&direct[c]) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn second_order_is_quadratically_small() {
        // For a linear-amplitude field, |ψ²| ≪ |ψ¹| and the ratio scales
        // with the field amplitude.
        let f = field();
        let lpt = lpt2_displacements(&f);
        let rms = |v: &Vec<f64>| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        let r1 = rms(&lpt.psi1[0]);
        let r2 = rms(&lpt.psi2[0]);
        assert!(r1 > 0.0 && r2 > 0.0);
        assert!(r2 < r1, "second order must be subdominant: {r2} vs {r1}");
    }

    #[test]
    fn second_order_scales_quadratically_with_amplitude() {
        let f1 = GaussianField::generate(
            Dims::cube(16),
            32.0,
            |k| 10.0 * (-(k / 0.3) * (k / 0.3)).exp(),
            4,
        );
        let f2 = GaussianField::generate(
            Dims::cube(16),
            32.0,
            |k| 40.0 * (-(k / 0.3) * (k / 0.3)).exp(), // 4× power = 2× amplitude
            4,
        );
        let l1 = lpt2_displacements(&f1);
        let l2 = lpt2_displacements(&f2);
        let rms = |v: &Vec<f64>| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        let ratio1 = rms(&l2.psi1[0]) / rms(&l1.psi1[0]);
        let ratio2 = rms(&l2.psi2[0]) / rms(&l1.psi2[0]);
        assert!(
            (ratio1 - 2.0).abs() < 1e-6,
            "first order is linear: {ratio1}"
        );
        assert!(
            (ratio2 - 4.0).abs() < 1e-6,
            "second order is quadratic: {ratio2}"
        );
    }

    #[test]
    fn second_order_field_is_curl_free() {
        // ψ² = ∇(…) must have vanishing curl (checked spectrally through
        // central differences on the smooth field).
        let f = field();
        let lpt = lpt2_displacements(&f);
        let dims = Dims::cube(16);
        let h = 32.0 / 16.0;
        let n = 16usize;
        let mut worst = 0.0f64;
        let mut scale = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    // curl_z = ∂ψy/∂x − ∂ψx/∂y.
                    let ip = dims.idx((i + 1) % n, j, k);
                    let im = dims.idx((i + n - 1) % n, j, k);
                    let jp = dims.idx(i, (j + 1) % n, k);
                    let jm = dims.idx(i, (j + n - 1) % n, k);
                    let curl_z =
                        (lpt.psi2[1][ip] - lpt.psi2[1][im] - (lpt.psi2[0][jp] - lpt.psi2[0][jm]))
                            / (2.0 * h);
                    worst = worst.max(curl_z.abs());
                    let grad = (lpt.psi2[0][ip] - lpt.psi2[0][im]).abs() / (2.0 * h);
                    scale = scale.max(grad);
                }
            }
        }
        // ψ² is a product of first-order fields, so its spectrum reaches
        // 2× the input band; the O(h²) stencil therefore carries a few
        // percent of truncation error even though the construction is
        // exactly curl-free in spectral space.
        assert!(
            worst < 0.1 * scale.max(1e-12),
            "curl {worst} should vanish against gradient scale {scale}"
        );
    }

    #[test]
    fn d2_coefficient() {
        assert!((d2_of_d1(1.0) + 3.0 / 7.0).abs() < 1e-15);
        assert!((d2_of_d1(0.5) + 3.0 / 28.0).abs() < 1e-15);
    }
}
