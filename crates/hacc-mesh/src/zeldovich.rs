//! Zel'dovich initial conditions.
//!
//! Generates a Gaussian random density field with a prescribed linear power
//! spectrum, derives the first-order Lagrangian displacement field
//! `ψ̂ = (i k / k²) δ̂`, and places particles displaced from a uniform
//! lattice with consistent growing-mode peculiar velocities:
//!
//! ```text
//!   x(q) = q + D(z) ψ(q)
//!   dx/dt = f(a) E(a) D(z) ψ(q)        (comoving, in units of H0 = 1)
//! ```

use hacc_cosmo::{z_to_a, BoxSpec, LinearPower};
use hacc_fft::{complex::ZERO, freq_index, Complex, Dims, Direction, Fft3d};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// A realization of a Gaussian density field on a periodic grid.
pub(crate) struct GaussianField {
    /// Grid dimensions.
    pub dims: Dims,
    /// Box side in Mpc/h.
    pub box_size: f64,
    /// Real-space density contrast δ.
    pub delta: Vec<f64>,
    /// Spectral density contrast δ̂ (kept for displacement derivation).
    spectrum: Vec<Complex>,
}

impl GaussianField {
    /// Draws a realization with target power `power_fn(k)` (`k` in h/Mpc,
    /// `P` in (Mpc/h)³), deterministic in `seed`.
    ///
    /// White noise is drawn in real space so the spectrum is automatically
    /// Hermitian and the field exactly real.
    pub(crate) fn generate<F: Fn(f64) -> f64>(
        dims: Dims,
        box_size: f64,
        power_fn: F,
        seed: u64,
    ) -> Self {
        assert!(box_size > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = dims.len();
        // Box-Muller unit normals.
        let mut white = vec![0.0f64; n];
        for chunk in white.chunks_mut(2) {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            chunk[0] = r * (2.0 * PI * u2).cos();
            if chunk.len() > 1 {
                chunk[1] = r * (2.0 * PI * u2).sin();
            }
        }
        let fft = Fft3d::new(dims);
        let mut spec = fft.forward_real(&white);

        // Scale each mode: ⟨|ŵ|²⟩ = N, want ⟨|δ̂|²⟩ = P(k) N²/V.
        let volume = box_size.powi(3);
        let kf = 2.0 * PI / box_size;
        for f in 0..n {
            let (i, j, l) = dims.coords(f);
            let kx = kf * freq_index(i, dims.nx) as f64;
            let ky = kf * freq_index(j, dims.ny) as f64;
            let kz = kf * freq_index(l, dims.nz) as f64;
            let k = (kx * kx + ky * ky + kz * kz).sqrt();
            if k == 0.0 {
                spec[f] = ZERO; // zero-mean field
                continue;
            }
            let amp = (power_fn(k) * n as f64 / volume).sqrt();
            spec[f] = spec[f].scale(amp);
        }
        let delta = fft.inverse_to_real(&spec);
        Self {
            dims,
            box_size,
            delta,
            spectrum: spec,
        }
    }

    /// First-order Lagrangian displacement field `ψ = ∇ ∇⁻² δ` (so that
    /// `∇·ψ = −δ`... sign convention: `ψ̂ = i k δ̂ / k²` gives `∇·ψ = −δ`),
    /// one grid per component, in Mpc/h.
    pub fn displacement(&self) -> [Vec<f64>; 3] {
        let fft = Fft3d::new(self.dims);
        let kf = 2.0 * PI / self.box_size;
        let d = self.dims;
        std::array::from_fn(|axis| {
            let mut comp = self.spectrum.clone();
            for f in 0..d.len() {
                let (i, j, l) = d.coords(f);
                let kx = kf * freq_index(i, d.nx) as f64;
                let ky = kf * freq_index(j, d.ny) as f64;
                let kz = kf * freq_index(l, d.nz) as f64;
                let k2 = kx * kx + ky * ky + kz * kz;
                if k2 == 0.0 {
                    comp[f] = ZERO;
                    continue;
                }
                let kc = [kx, ky, kz][axis];
                // ψ̂ = i k δ̂ / k².
                comp[f] = comp[f].mul_i().scale(kc / k2);
            }
            let mut grid = comp;
            fft.process(&mut grid, Direction::Inverse);
            grid.into_iter().map(|z| z.re).collect()
        })
    }
}

/// Particle initial conditions: comoving positions (grid units, periodic in
/// `[0, ng)`) and comoving velocities `dx/dt` (grid units per `1/H0`).
pub struct InitialConditions {
    /// Particle positions in grid units.
    pub positions: Vec<[f64; 3]>,
    /// Particle velocities `dx/dt` in grid units per 1/H0.
    pub velocities: Vec<[f64; 3]>,
    /// Scale factor of the realization.
    pub a_init: f64,
    /// RMS displacement in units of the inter-particle spacing (diagnostic;
    /// should be ≪ 1 for a valid Zel'dovich start).
    pub rms_displacement: f64,
}

/// Generates Zel'dovich initial conditions for one particle species on a
/// uniform lattice of `spec.np³` particles at redshift `z_init`.
pub fn zeldovich_ics(
    spec: &BoxSpec,
    power: &LinearPower,
    z_init: f64,
    seed: u64,
) -> InitialConditions {
    ics_with_order(spec, power, z_init, seed, 1)
}

/// Generates 2LPT initial conditions (second-order displacements reduce
/// the Zel'dovich transients that otherwise decay only as 1/a).
///
/// Public although nothing calls it yet: it is the 2LPT input DESIGN's
/// feature table names for comparing initial-condition orders.
pub fn lpt2_ics(spec: &BoxSpec, power: &LinearPower, z_init: f64, seed: u64) -> InitialConditions {
    ics_with_order(spec, power, z_init, seed, 2)
}

/// Shared IC generator at Lagrangian order 1 or 2.
fn ics_with_order(
    spec: &BoxSpec,
    power: &LinearPower,
    z_init: f64,
    seed: u64,
    order: u8,
) -> InitialConditions {
    let dims = Dims::cube(spec.ng);
    let a = z_to_a(z_init);
    let growth = power.growth();
    let d_init = growth.d_of_z(z_init);
    let f_growth = growth.growth_rate(a);
    let e_of_a = growth.friedmann().e_of_a(a);

    // Field at z = 0 scaled by the growth factor when displacing.
    let field = GaussianField::generate(dims, spec.box_mpc_h, |k| power.power_z0(k), seed);
    let (psi, psi2) = if order >= 2 {
        let lpt = crate::lpt2::lpt2_displacements(&field);
        (lpt.psi1, Some(lpt.psi2))
    } else {
        (field.displacement(), None)
    };
    let d2 = crate::lpt2::d2_of_d1(d_init);

    let cell = spec.cell_size();
    let np = spec.np;
    let grid_per_particle = spec.ng as f64 / np as f64;
    let mut positions = Vec::with_capacity(np * np * np);
    let mut velocities = Vec::with_capacity(np * np * np);
    let mut sum_d2 = 0.0;

    for i in 0..np {
        for j in 0..np {
            for k in 0..np {
                // Lattice site in grid units, sampled at cell centers of the
                // particle lattice.
                let q = [
                    (i as f64 + 0.5) * grid_per_particle,
                    (j as f64 + 0.5) * grid_per_particle,
                    (k as f64 + 0.5) * grid_per_particle,
                ];
                // CIC-free nearest sampling of ψ at the lattice site is
                // adequate when ng == np (site centers coincide with cells).
                let gi = (q[0] as usize).min(dims.nx - 1);
                let gj = (q[1] as usize).min(dims.ny - 1);
                let gk = (q[2] as usize).min(dims.nz - 1);
                let idx = dims.idx(gi, gj, gk);
                let disp_mpc = [psi[0][idx], psi[1][idx], psi[2][idx]];
                let mut x = [0.0f64; 3];
                let mut v = [0.0f64; 3];
                let mut disp2 = 0.0;
                for c in 0..3 {
                    let mut dx_mpc = d_init * disp_mpc[c];
                    let mut v_mpc = f_growth * e_of_a * d_init * disp_mpc[c];
                    if let Some(p2) = &psi2 {
                        // x += D₂ ψ⁽²⁾; v gains the second-order growing
                        // mode with f₂ ≈ 2f₁ (ΛCDM approximation).
                        dx_mpc += d2 * p2[c][idx];
                        v_mpc += 2.0 * f_growth * e_of_a * d2 * p2[c][idx];
                    }
                    let dx_grid = dx_mpc / cell;
                    disp2 += dx_mpc * dx_mpc;
                    let ng = [dims.nx, dims.ny, dims.nz][c] as f64;
                    x[c] = (q[c] + dx_grid).rem_euclid(ng);
                    // Growing mode: dx/dt = f E(a) D ψ (comoving, H0 = 1).
                    v[c] = v_mpc / cell;
                }
                sum_d2 += disp2;
                positions.push(x);
                velocities.push(v);
            }
        }
    }
    let n = positions.len() as f64;
    let rms = (sum_d2 / n).sqrt() / spec.particle_spacing();
    InitialConditions {
        positions,
        velocities,
        a_init: a,
        rms_displacement: rms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::measure_power;
    use hacc_cosmo::CosmoParams;

    #[test]
    fn field_is_zero_mean() {
        let dims = Dims::cube(16);
        let f = GaussianField::generate(dims, 100.0, |k| 1e3 * (-k).exp(), 7);
        let mean: f64 = f.delta.iter().sum::<f64>() / dims.len() as f64;
        assert!(mean.abs() < 1e-10, "mean = {mean}");
    }

    #[test]
    fn field_is_deterministic_in_seed() {
        let dims = Dims::cube(8);
        let a = GaussianField::generate(dims, 50.0, |_| 10.0, 42);
        let b = GaussianField::generate(dims, 50.0, |_| 10.0, 42);
        let c = GaussianField::generate(dims, 50.0, |_| 10.0, 43);
        assert_eq!(a.delta, b.delta);
        assert!(a.delta != c.delta);
    }

    #[test]
    fn measured_spectrum_recovers_input_power() {
        // White spectrum P(k) = P0: every bin should measure ≈ P0.
        let dims = Dims::cube(32);
        let box_size = 128.0;
        let p0 = 500.0;
        let f = GaussianField::generate(dims, box_size, |_| p0, 11);
        let bins = measure_power(dims, &f.delta, box_size, 8);
        for b in bins.iter().filter(|b| b.modes > 100) {
            let ratio = b.power / p0;
            assert!(
                ratio > 0.7 && ratio < 1.3,
                "bin k = {}: ratio = {ratio} ({} modes)",
                b.k,
                b.modes
            );
        }
    }

    #[test]
    fn displacement_divergence_matches_minus_delta() {
        // ∇·ψ = −δ, checked with central differences. The field must be
        // band-limited well below the Nyquist frequency for the O(h²)
        // stencil to resolve it: kh ≤ 0.6 keeps the truncation error ≲ 6%.
        let dims = Dims::cube(16);
        let box_size = 32.0;
        let f = GaussianField::generate(
            dims,
            box_size,
            |k| 100.0 * (-(k / 0.25) * (k / 0.25)).exp(),
            3,
        );
        let psi = f.displacement();
        let h = box_size / 16.0;
        let mut worst = 0.0f64;
        let mut scale = 0.0f64;
        for ff in 0..dims.len() {
            let (i, j, k) = dims.coords(ff);
            let ip = dims.idx((i + 1) % 16, j, k);
            let im = dims.idx((i + 15) % 16, j, k);
            let jp = dims.idx(i, (j + 1) % 16, k);
            let jm = dims.idx(i, (j + 15) % 16, k);
            let kp = dims.idx(i, j, (k + 1) % 16);
            let km = dims.idx(i, j, (k + 15) % 16);
            let div = (psi[0][ip] - psi[0][im] + psi[1][jp] - psi[1][jm] + psi[2][kp] - psi[2][km])
                / (2.0 * h);
            worst = worst.max((div + f.delta[ff]).abs());
            scale = scale.max(f.delta[ff].abs());
        }
        // Central differences on a smooth (low-k) field: few-% accuracy.
        assert!(
            worst < 0.15 * scale,
            "max |∇·ψ + δ| = {worst}, scale = {scale}"
        );
    }

    #[test]
    fn ics_have_small_displacements_at_high_z() {
        let params = CosmoParams::planck2018();
        let power = LinearPower::new(params);
        let spec = BoxSpec::paper_problem(32); // 16³ particles
        let ics = zeldovich_ics(&spec, &power, 200.0, 1);
        assert_eq!(ics.positions.len(), 16 * 16 * 16);
        assert!(
            ics.rms_displacement < 0.3,
            "z=200 Zel'dovich displacements should be small: {}",
            ics.rms_displacement
        );
        for p in &ics.positions {
            for c in 0..3 {
                assert!(p[c] >= 0.0 && p[c] < spec.ng as f64);
            }
        }
    }

    #[test]
    fn lpt2_ics_are_a_small_correction_at_high_redshift() {
        // At z = 200 the second-order term is ~D₁ ≈ 0.005 of the first
        // order: 2LPT and Zel'dovich starts nearly coincide, and the 2LPT
        // correction is nonzero but tiny.
        let params = CosmoParams::planck2018();
        let power = LinearPower::new(params);
        let spec = BoxSpec::paper_problem(32); // 16³
        let z1 = zeldovich_ics(&spec, &power, 200.0, 3);
        let z2 = lpt2_ics(&spec, &power, 200.0, 3);
        let mut max_diff = 0.0f64;
        let mut any_diff = false;
        for (a, b) in z1.positions.iter().zip(&z2.positions) {
            for c in 0..3 {
                let mut d = (a[c] - b[c]).abs();
                if d > 8.0 {
                    d = 16.0 - d; // periodic wrap
                }
                if d > 0.0 {
                    any_diff = true;
                }
                max_diff = max_diff.max(d);
            }
        }
        assert!(any_diff, "2LPT must actually move particles");
        assert!(
            max_diff < 0.05 * z1.rms_displacement.max(1e-3) * spec.particle_spacing() + 1e-2,
            "second order must be a small correction: {max_diff}"
        );
    }

    #[test]
    fn velocities_follow_displacements() {
        // Growing mode: v ∝ displacement from the lattice (same direction).
        let params = CosmoParams::planck2018();
        let power = LinearPower::new(params);
        let spec = BoxSpec::paper_problem(64); // 8³ particles
        let ics = zeldovich_ics(&spec, &power, 100.0, 5);
        let gpp = spec.ng as f64 / spec.np as f64;
        let mut checked = 0;
        for (n, (p, v)) in ics.positions.iter().zip(&ics.velocities).enumerate() {
            let k = n % spec.np;
            let j = (n / spec.np) % spec.np;
            let i = n / (spec.np * spec.np);
            let q = [
                (i as f64 + 0.5) * gpp,
                (j as f64 + 0.5) * gpp,
                (k as f64 + 0.5) * gpp,
            ];
            for c in 0..3 {
                let mut dx = p[c] - q[c];
                let ng = spec.ng as f64;
                if dx > ng / 2.0 {
                    dx -= ng;
                }
                if dx < -ng / 2.0 {
                    dx += ng;
                }
                if dx.abs() > 1e-6 {
                    assert!(
                        (v[c] / dx) > 0.0,
                        "velocity must align with displacement (particle {n}, axis {c})"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "expected many non-trivial displacements");
    }
}
