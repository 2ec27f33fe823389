//! Conservation over the device brackets: an oracle for the CRK-SPH math
//! that shares no formula with it. The device kernels and the f64
//! reference run one source (`hacc_kernels::physics`), so a slip in one
//! of its terms passes every reference-agreement test; it cannot pass
//! here.
//!
//! On a jittered 8³ gas, one hydro step and one short-range gravity
//! launch of every legal variant on each architecture must conserve
//! - momentum, `Σ m a = 0`, for hydro and gravity alike: the corrected
//!   gradient and the gravity law are pair-antisymmetric;
//! - energy, `Σ m (v·a + du/dt) = 0`: the energy derivative is the
//!   compatible partner of the acceleration;
//!
//! to f32 rounding, measured against the sums' own scale.

use crk_hacc::kernels::{
    run_gravity, run_hydro_step, DeviceParticles, GravityParams, HostParticles, Offload,
    ALL_VARIANTS,
};
use crk_hacc::sycl::{Buffer, Device, GpuArch, LaunchConfig};
use crk_hacc::telemetry::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_SIDE: usize = 8;
const BOX: f64 = 8.0;
const H: f64 = 1.25;
/// Covers the hydro support `2h` and the gravity cutoff `√R_CUT2`.
const CUTOFF: f64 = 2.0 * H + 1e-9;
const GRAVITY: GravityParams = GravityParams {
    poly: [0.02, -0.01, 0.002, -0.0001, 0.0, 0.0],
    r_cut2: 4.0,
    soft2: 1e-4,
};

/// `|Σ m a| / Σ m |a|` bound for hydro and gravity. The worst residual
/// over every bracket below measured 2.7e-8 (hydro) and 1.5e-8
/// (gravity); the bound is ten times the larger.
const MOMENTUM_BOUND: f64 = 3e-7;
/// `|Σ m (v·a + du/dt)| / Σ m (|v·a| + |du/dt|)` bound. The worst
/// residual measured 8.8e-9; the bound is ten times that.
const ENERGY_BOUND: f64 = 1e-7;

/// A jittered lattice with random velocities, masses and energies.
fn gas() -> HostParticles {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let spacing = BOX / N_SIDE as f64;
    let mut hp = HostParticles::default();
    for i in 0..N_SIDE.pow(3) {
        let cell = [i / (N_SIDE * N_SIDE), (i / N_SIDE) % N_SIDE, i % N_SIDE];
        let jig = 0.25 * spacing;
        hp.pos
            .push(cell.map(|c| (c as f64 + 0.5) * spacing + rng.gen_range(-jig..jig)));
        hp.vel.push([(); 3].map(|_| rng.gen_range(-0.3..0.3)));
        hp.mass.push(rng.gen_range(0.5..1.5));
        hp.h.push(H * spacing);
        hp.u.push(rng.gen_range(0.5..1.5));
    }
    hp
}

fn column(buf: &Buffer) -> Vec<f64> {
    buf.to_f32_vec().into_iter().map(f64::from).collect()
}

/// `|Σ m a| / Σ m |a|`, over slots (the sums are order-free).
fn momentum_residual(data: &DeviceParticles, acc: &[Buffer; 3]) -> f64 {
    let m = column(&data.mass);
    let a = acc.each_ref().map(column);
    let (mut net, mut scale) = ([0.0f64; 3], 0.0);
    for i in 0..m.len() {
        for c in 0..3 {
            net[c] += m[i] * a[c][i];
        }
        scale += m[i] * (a[0][i].powi(2) + a[1][i].powi(2) + a[2][i].powi(2)).sqrt();
    }
    net.iter().map(|x| x * x).sum::<f64>().sqrt() / scale
}

/// `|Σ m (v·a + du/dt)| / Σ m (|v·a| + |du/dt|)` with the device's own
/// velocities.
fn energy_residual(data: &DeviceParticles) -> f64 {
    let (m, du) = (column(&data.mass), column(&data.du_dt));
    let v = data.vel.each_ref().map(column);
    let a = data.acc.each_ref().map(column);
    let (mut net, mut scale) = (0.0f64, 0.0f64);
    for i in 0..m.len() {
        let work = (0..3).map(|c| v[c][i] * a[c][i]).sum::<f64>();
        net += m[i] * (work + du[i]);
        scale += m[i] * (work.abs() + du[i].abs());
    }
    net.abs() / scale
}

#[test]
fn every_device_bracket_conserves_momentum_and_energy() {
    let hp = gas();
    let mut worst = [0.0f64; 3];
    let mut runs = 0;
    for arch in GpuArch::all() {
        for variant in ALL_VARIANTS {
            if variant.needs_visa() && !arch.supports_visa {
                continue;
            }
            let device = Device::new(arch.clone(), variant.toolchain()).unwrap();
            let cfg = LaunchConfig::defaults_for(&device.arch);
            let leaf_capacity = variant.preferred_leaf_capacity(cfg.sg_size);
            let offload = Offload::new(&hp, BOX, CUTOFF, leaf_capacity, cfg.sg_size).unwrap();
            let data = offload.upload();
            let (work, telemetry) = (&offload.work, &Recorder::new());
            run_hydro_step(&device, &data, work, variant, BOX as f32, cfg, telemetry).unwrap();
            run_gravity(
                &device, &data, work, variant, BOX as f32, GRAVITY, cfg, telemetry,
            )
            .unwrap();
            let residuals = [
                momentum_residual(&data, &data.acc),
                momentum_residual(&data, &data.acc_grav),
                energy_residual(&data),
            ];
            let bounds = [MOMENTUM_BOUND, MOMENTUM_BOUND, ENERGY_BOUND];
            for (k, what) in ["hydro momentum", "gravity momentum", "energy"]
                .iter()
                .enumerate()
            {
                assert!(
                    residuals[k] < bounds[k],
                    "{} {variant:?}: {what} residual {:e} over the bound {:e}",
                    arch.id,
                    residuals[k],
                    bounds[k]
                );
                worst[k] = worst[k].max(residuals[k]);
            }
            runs += 1;
        }
    }
    assert_eq!(runs, 13, "every legal variant on each architecture");
    eprintln!("worst residuals (hydro momentum, gravity momentum, energy): {worst:?}");
}
