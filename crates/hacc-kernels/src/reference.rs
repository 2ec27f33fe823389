//! The f64 reference pipeline: brute-force O(n²) sums over all particle
//! pairs, accumulated in f64, through the same CRK-SPH math the device
//! kernels run ([`crate::physics`] instantiated at `f64`). Integration
//! tests require every variant × architecture combination to agree with
//! it within FP32 accumulation tolerance.
//!
//! Agreement with this pipeline checks the device's structure — work
//! lists, exchanges, atomics, f32 accumulation — not the math it shares.
//! The math is checked by oracles that share no formula with it: the
//! spline's literal values (`sphkernel`), the CRK reproducing conditions
//! (this module's tests) and momentum and energy conservation over every
//! device bracket (`tests/conservation.rs`).
//!
//! Each loop builds the particle objects the device kernels exchange,
//! weight 1 for every real particle, and visits every pair, the self
//! pair included, as the device does; the SPH kernel's compact support
//! makes distant pairs contribute exactly zero.

use crate::particles::HostParticles;
use crate::physics;

/// Full per-particle hydro state computed by the reference pipeline.
#[derive(Clone, Debug, Default)]
pub struct ReferenceState {
    /// Volumes (Geometry).
    pub volume: Vec<f64>,
    /// CRK coefficients (Corrections).
    pub crk_a: Vec<f64>,
    /// CRK first-order coefficients.
    pub crk_b: Vec<[f64; 3]>,
    /// Densities (Extras).
    pub rho: Vec<f64>,
    /// Density gradients (Extras).
    pub grad_rho: Vec<[f64; 3]>,
    /// Pressures (EOS).
    pub pressure: Vec<f64>,
    /// Sound speeds.
    pub cs: Vec<f64>,
    /// Force terms P/ρ².
    pub pterm: Vec<f64>,
    /// Hydro accelerations (Acceleration).
    pub acc: Vec<[f64; 3]>,
    /// Energy derivatives (Energy).
    pub du_dt: Vec<f64>,
    /// Global CFL time step (Acceleration).
    pub dt_min: f64,
}

/// `[weight, x, y, z, h]` per particle: the density kernels' object,
/// whose first four fields are the gravity kernel's.
fn density_objects(hp: &HostParticles, weight: impl Fn(usize) -> f64) -> Vec<[f64; 5]> {
    let object = |i: usize| {
        let p = hp.pos[i];
        [weight(i), p[0], p[1], p[2], hp.h[i]]
    };
    (0..hp.len()).map(object).collect()
}

/// The force kernels' object: `[m, x, v, h, P/ρ², A, B, c, ρ]`.
fn force_objects(
    hp: &HostParticles,
    crk_a: &[f64],
    crk_b: &[[f64; 3]],
    rho: &[f64],
    cs: &[f64],
    pterm: &[f64],
) -> Vec<[f64; 15]> {
    let object = |i: usize| {
        let (p, v, b) = (hp.pos[i], hp.vel[i], crk_b[i]);
        [
            hp.mass[i], p[0], p[1], p[2], v[0], v[1], v[2], hp.h[i], pterm[i], crk_a[i], b[0],
            b[1], b[2], cs[i], rho[i],
        ]
    };
    (0..hp.len()).map(object).collect()
}

/// `N` f64 accumulators per particle `i`, summed by `pair(i, own, other,
/// acc)` over every partner.
fn all_pairs<const N: usize, const F: usize>(
    objects: &[[f64; F]],
    pair: impl Fn(usize, &[f64], &[f64], &mut [f64]),
) -> Vec<[f64; N]> {
    let sums = |i: usize| {
        let mut acc = [0.0; N];
        for other in objects {
            pair(i, &objects[i], other, &mut acc);
        }
        acc
    };
    (0..objects.len()).map(sums).collect()
}

/// Geometry: `V_i = 1 / Σ_j W_ij` (self term included).
pub fn geometry(hp: &HostParticles, box_size: f64) -> Vec<f64> {
    let objects = density_objects(hp, |_| 1.0);
    let sums = all_pairs::<1, 5>(&objects, |_, own, other, acc| {
        physics::geometry_pair((), own, other, box_size, acc)
    });
    sums.iter().map(|[n]| physics::volume((), n)).collect()
}

/// Corrections: first-order CRK coefficients from volume-weighted moments.
pub fn corrections(hp: &HostParticles, volume: &[f64], box_size: f64) -> (Vec<f64>, Vec<[f64; 3]>) {
    let objects = density_objects(hp, |j| volume[j]);
    let moments = all_pairs::<10, 5>(&objects, |_, own, other, acc| {
        physics::corrections_pair((), own, other, box_size, acc)
    });
    let solve = |m: &[f64; 10]| physics::crk_coefficients((), &m[0], &m[1..4], &m[4..]);
    moments.iter().map(solve).unzip()
}

/// Extras: density and density gradient with the owner-corrected kernel.
fn extras(
    hp: &HostParticles,
    crk_a: &[f64],
    crk_b: &[[f64; 3]],
    box_size: f64,
) -> (Vec<f64>, Vec<[f64; 3]>) {
    let objects = density_objects(hp, |j| hp.mass[j]);
    let sums = all_pairs::<4, 5>(&objects, |i, own, other, acc| {
        let b = crk_b[i];
        let own_extra = [crk_a[i], b[0], b[1], b[2]];
        physics::extras_pair((), own, &own_extra, other, box_size, acc)
    });
    sums.iter().map(|s| (s[0], [s[1], s[2], s[3]])).unzip()
}

/// EOS closure shared by the reference pipeline: `(P, c, P/ρ²)`.
pub(crate) fn eos(hp: &HostParticles, rho: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut p, mut cs, mut pt) = (vec![], vec![], vec![]);
    for (r, u) in rho.iter().zip(&hp.u) {
        let (pi, ci, ti) = physics::eos((), r, u);
        p.push(pi);
        cs.push(ci);
        pt.push(ti);
    }
    (p, cs, pt)
}

/// Acceleration + CFL time step.
#[allow(clippy::too_many_arguments)]
pub fn acceleration(
    hp: &HostParticles,
    crk_a: &[f64],
    crk_b: &[[f64; 3]],
    rho: &[f64],
    cs: &[f64],
    pterm: &[f64],
    box_size: f64,
) -> (Vec<[f64; 3]>, f64) {
    let objects = force_objects(hp, crk_a, crk_b, rho, cs, pterm);
    let sums = all_pairs::<4, 15>(&objects, |_, own, other, acc| {
        physics::acceleration_pair((), own, other, box_size, acc)
    });
    let dt = |i: usize| physics::cfl_time_step((), &hp.h[i], &cs[i], &sums[i][3]);
    let dt_min = (0..hp.len()).map(dt).fold(f64::MAX, f64::min);
    (sums.iter().map(|s| [s[0], s[1], s[2]]).collect(), dt_min)
}

/// Energy derivative.
pub fn energy(
    hp: &HostParticles,
    crk_a: &[f64],
    crk_b: &[[f64; 3]],
    rho: &[f64],
    cs: &[f64],
    pterm: &[f64],
    box_size: f64,
) -> Vec<f64> {
    let objects = force_objects(hp, crk_a, crk_b, rho, cs, pterm);
    let sums = all_pairs::<1, 15>(&objects, |_, own, other, acc| {
        physics::energy_pair((), own, other, box_size, acc)
    });
    sums.iter().map(|[du]| *du).collect()
}

/// Short-range gravity with the degree-5 polynomial force law.
pub fn gravity(
    hp: &HostParticles,
    poly: &[f64; 6],
    r_cut2: f64,
    soft2: f64,
    box_size: f64,
) -> Vec<[f64; 3]> {
    let objects = density_objects(hp, |j| hp.mass[j]);
    all_pairs::<3, 5>(&objects, |_, own, other, acc| {
        physics::gravity_pair((), own, other, box_size, poly, r_cut2, soft2, acc)
    })
}

/// Runs the full reference pipeline (Geometry → Corrections → Extras →
/// EOS → Acceleration → Energy).
pub fn full_pipeline(hp: &HostParticles, box_size: f64) -> ReferenceState {
    let volume = geometry(hp, box_size);
    let (crk_a, crk_b) = corrections(hp, &volume, box_size);
    let (rho, grad_rho) = extras(hp, &crk_a, &crk_b, box_size);
    let (pressure, cs, pterm) = eos(hp, &rho);
    let (acc, dt_min) = acceleration(hp, &crk_a, &crk_b, &rho, &cs, &pterm, box_size);
    let du_dt = energy(hp, &crk_a, &crk_b, &rho, &cs, &pterm, box_size);
    ReferenceState {
        volume,
        crk_a,
        crk_b,
        rho,
        grad_rho,
        pressure,
        cs,
        pterm,
        acc,
        du_dt,
        dt_min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pair geometry of particles `i` and `j`.
    fn pair(hp: &HostParticles, i: usize, j: usize, box_size: f64) -> physics::PairGeom<f64> {
        let (pi, pj) = (&hp.pos[i], &hp.pos[j]);
        let (hi, hj) = (&hp.h[i], &hp.h[j]);
        physics::pair_geometry(
            (),
            [&pi[0], &pi[1], &pi[2]],
            hi,
            [&pj[0], &pj[1], &pj[2]],
            hj,
            box_size,
        )
    }

    /// A glass-like random particle set with uniform h.
    fn sample(n_side: usize, box_size: f64, seed: u64) -> HostParticles {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let spacing = box_size / n_side as f64;
        let mut hp = HostParticles::default();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    let jig = 0.2 * spacing;
                    hp.pos.push([
                        (i as f64 + 0.5) * spacing + rng.gen_range(-jig..jig),
                        (j as f64 + 0.5) * spacing + rng.gen_range(-jig..jig),
                        (k as f64 + 0.5) * spacing + rng.gen_range(-jig..jig),
                    ]);
                    hp.vel.push([
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                    ]);
                    hp.mass.push(1.0);
                    hp.h.push(1.3 * spacing);
                    hp.u.push(1.0);
                }
            }
        }
        hp
    }

    #[test]
    fn volumes_are_near_lattice_cell_volume() {
        let box_size = 8.0;
        let hp = sample(8, box_size, 1);
        let v = geometry(&hp, box_size);
        let cell = (box_size / 8.0).powi(3);
        for (i, &vi) in v.iter().enumerate() {
            assert!(
                (vi / cell - 1.0).abs() < 0.3,
                "particle {i}: V = {vi}, cell = {cell}"
            );
        }
    }

    /// The defining property of CRK: constant fields are reproduced
    /// *exactly* (to round-off): Σ_j V_j W^R_ij = 1.
    #[test]
    fn crk_reproduces_constant_field() {
        let box_size = 6.0;
        let hp = sample(6, box_size, 2);
        let v = geometry(&hp, box_size);
        let (a, b) = corrections(&hp, &v, box_size);
        for i in 0..hp.len() {
            let mut sum = 0.0;
            for j in 0..hp.len() {
                let p = pair(&hp, i, j, box_size);
                let bi_eta = b[i][0] * p.eta[0] + b[i][1] * p.eta[1] + b[i][2] * p.eta[2];
                sum += v[j] * a[i] * (1.0 + bi_eta) * p.w;
            }
            assert!((sum - 1.0).abs() < 1e-10, "particle {i}: Σ V W^R = {sum}");
        }
    }

    /// First-order consistency: linear fields are reproduced exactly:
    /// Σ_j V_j η W^R_ij = 0 (the interpolated position equals x_i).
    #[test]
    fn crk_reproduces_linear_field() {
        let box_size = 6.0;
        let hp = sample(6, box_size, 3);
        let v = geometry(&hp, box_size);
        let (a, b) = corrections(&hp, &v, box_size);
        for i in (0..hp.len()).step_by(17) {
            let mut sum = [0.0f64; 3];
            for j in 0..hp.len() {
                let p = pair(&hp, i, j, box_size);
                let bi_eta = b[i][0] * p.eta[0] + b[i][1] * p.eta[1] + b[i][2] * p.eta[2];
                let wr = a[i] * (1.0 + bi_eta) * p.w;
                for c in 0..3 {
                    sum[c] += v[j] * p.eta[c] * wr;
                }
            }
            for c in 0..3 {
                assert!(sum[c].abs() < 1e-9, "particle {i}, axis {c}: {}", sum[c]);
            }
        }
    }

    /// Uniform lattice with equal masses: ρ ≈ m/V_cell everywhere and the
    /// momentum (pressure-gradient) accelerations are near zero.
    #[test]
    fn uniform_medium_is_in_equilibrium() {
        let box_size = 6.0;
        let mut hp = sample(6, box_size, 4);
        // Zero velocities: no viscosity.
        for v in hp.vel.iter_mut() {
            *v = [0.0; 3];
        }
        let st = full_pipeline(&hp, box_size);
        let cell = (box_size / 6.0).powi(3);
        let rho_expect = 1.0 / cell;
        for i in 0..hp.len() {
            assert!(
                (st.rho[i] / rho_expect - 1.0).abs() < 0.1,
                "rho[{i}] = {} vs {rho_expect}",
                st.rho[i]
            );
        }
        // Accelerations from a constant-pressure medium should be small
        // compared to the naive pressure-force scale P/(ρ h). The 20%
        // position jitter is not a relaxed glass, so residuals of a few
        // tens of percent of the naive scale are expected.
        let scale = st.pressure[0] / (st.rho[0] * hp.h[0]);
        for i in 0..hp.len() {
            for c in 0..3 {
                assert!(
                    st.acc[i][c].abs() < 0.3 * scale,
                    "acc[{i}][{c}] = {} vs scale {scale}",
                    st.acc[i][c]
                );
            }
        }
        assert!(st.dt_min > 0.0 && st.dt_min.is_finite());
    }

    /// Momentum conservation: Σ m a = 0 for the pairwise-antisymmetric
    /// force (with viscosity active).
    #[test]
    fn momentum_is_conserved() {
        let box_size = 5.0;
        let hp = sample(5, box_size, 5);
        let st = full_pipeline(&hp, box_size);
        let mut net = [0.0f64; 3];
        let mut scale = 0.0f64;
        for i in 0..hp.len() {
            for c in 0..3 {
                net[c] += hp.mass[i] * st.acc[i][c];
                scale = scale.max(st.acc[i][c].abs());
            }
        }
        for c in 0..3 {
            assert!(
                net[c].abs() < 1e-9 * scale.max(1.0) * hp.len() as f64,
                "net momentum drift: {net:?}"
            );
        }
    }

    /// Adiabatic consistency: for zero velocities du/dt = 0 (no PdV work,
    /// no viscous heating).
    #[test]
    fn static_medium_has_no_heating() {
        let box_size = 5.0;
        let mut hp = sample(5, box_size, 6);
        for v in hp.vel.iter_mut() {
            *v = [0.0; 3];
        }
        let st = full_pipeline(&hp, box_size);
        for i in 0..hp.len() {
            assert!(st.du_dt[i].abs() < 1e-12, "du_dt[{i}] = {}", st.du_dt[i]);
        }
    }

    /// Compression heats: a uniformly contracting velocity field gives
    /// du/dt > 0 for interior particles.
    #[test]
    fn compression_heats_gas() {
        let box_size = 6.0;
        let mut hp = sample(6, box_size, 7);
        let center = box_size / 2.0;
        for (p, v) in hp.pos.iter().zip(hp.vel.iter_mut()) {
            // Pure radial contraction toward the box center.
            *v = [
                -0.3 * (p[0] - center),
                -0.3 * (p[1] - center),
                -0.3 * (p[2] - center),
            ];
        }
        let st = full_pipeline(&hp, box_size);
        // Check a central particle (away from the periodic seam where the
        // contraction field is discontinuous).
        let i = hp
            .pos
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da: f64 = a.iter().map(|x| (x - center).powi(2)).sum();
                let db: f64 = b.iter().map(|x| (x - center).powi(2)).sum();
                da.partial_cmp(&db).unwrap()
            })
            .unwrap()
            .0;
        assert!(st.du_dt[i] > 0.0, "central du_dt = {}", st.du_dt[i]);
    }

    /// Gravity: a close pair attracts along the separation, antisymmetric.
    #[test]
    fn gravity_pair_attracts() {
        let hp = HostParticles {
            pos: vec![[4.0, 5.0, 5.0], [6.0, 5.0, 5.0]],
            vel: vec![[0.0; 3]; 2],
            mass: vec![1.0, 1.0],
            h: vec![0.5; 2],
            u: vec![1.0; 2],
        };
        // Pure Newtonian (zero polynomial, huge cutoff).
        let acc = gravity(&hp, &[0.0; 6], 100.0, 0.0, 10.0);
        assert!(acc[0][0] > 0.0 && acc[1][0] < 0.0);
        assert!((acc[0][0] + acc[1][0]).abs() < 1e-14);
        assert!((acc[0][0] - 0.25).abs() < 1e-12, "1/r² = 1/4 at r = 2");
    }
}
