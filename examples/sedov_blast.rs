//! Sedov–Taylor blast wave driven directly through the CRK hydro kernels
//! (the "standalone kernel" workflow of the paper's §7.2): a point energy
//! injection in a uniform gas, integrated with a simple leapfrog on the
//! host while the CRK-SPH sums run on the simulated device.
//!
//! The blast radius should grow roughly as the Sedov similarity solution
//! `R ∝ t^{2/5}`.
//!
//! ```text
//! cargo run --release --example sedov_blast
//! ```

use crk_hacc::kernels::{run_hydro_step, HostParticles, Offload, Variant};
use crk_hacc::sycl::{Device, GpuArch, LaunchConfig, Toolchain};
use crk_hacc::telemetry::{self, Recorder};

fn main() {
    // Uniform gas lattice.
    let n_side = 12usize;
    let box_size = n_side as f64;
    let spacing = 1.0;
    let h0 = 1.3 * spacing;
    let mut hp = HostParticles::default();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                hp.pos.push([
                    (i as f64 + 0.5) * spacing,
                    (j as f64 + 0.5) * spacing,
                    (k as f64 + 0.5) * spacing,
                ]);
                hp.vel.push([0.0; 3]);
                hp.mass.push(1.0);
                hp.h.push(h0);
                hp.u.push(1e-4); // cold background
            }
        }
    }
    // Inject energy at the particle nearest the center.
    let center = [box_size / 2.0; 3];
    let blast = hp
        .pos
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let da: f64 = a.iter().zip(&center).map(|(x, c)| (x - c) * (x - c)).sum();
            let db: f64 = b.iter().zip(&center).map(|(x, c)| (x - c) * (x - c)).sum();
            da.partial_cmp(&db).unwrap()
        })
        .unwrap()
        .0;
    hp.u[blast] = 100.0;
    println!(
        "Sedov blast: {n_side}³ gas particles, E = {} at particle {blast}",
        hp.u[blast]
    );

    let device = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
    let launch = LaunchConfig::defaults_for(&device.arch).with_sg_size(64);
    let variant = Variant::Select;
    let telemetry = Recorder::new();

    let mut t = 0.0f64;
    println!(
        "\n{:>8} {:>10} {:>14} {:>12}",
        "step", "time", "shock radius", "R/t^(2/5)"
    );
    for step in 0..24 {
        // Rebuild the decomposition (particles move).
        let cutoff = 2.0 * hp.h.iter().cloned().fold(0.0, f64::max) + 1e-9;
        let leaf_capacity = variant.preferred_leaf_capacity(launch.sg_size);
        let offload = Offload::new(&hp, box_size, cutoff, leaf_capacity, launch.sg_size)
            .expect("the blast stays a valid offload");
        let data = offload.upload();
        run_hydro_step(
            &device,
            &data,
            &offload.work,
            variant,
            box_size as f32,
            launch,
            &telemetry,
        )
        .expect("fault-free hydro step must succeed");

        // Host leapfrog with the device-computed derivatives and CFL dt.
        let (acc, du) = (data.download_vec3(&data.acc), data.du_dt.to_f32_vec());
        let (acc, du) = (offload.scatter(|s| acc[s]), offload.scatter(|s| du[s]));
        let dt = (data.dt_min.read_f32(0) as f64).min(0.05);
        for i in 0..hp.len() {
            for c in 0..3 {
                hp.vel[i][c] += acc[i][c] as f64 * dt;
                hp.pos[i][c] = (hp.pos[i][c] + hp.vel[i][c] * dt).rem_euclid(box_size);
            }
            hp.u[i] = (hp.u[i] + du[i] as f64 * dt).max(1e-6);
        }
        t += dt;

        if step % 4 == 3 {
            // Shock radius: energy-weighted rms distance of hot particles.
            let mut num = 0.0;
            let mut den = 0.0;
            for i in 0..hp.len() {
                if hp.u[i] > 10.0 * 1e-4 && i != blast {
                    let d = crk_hacc::tree::min_image(&center, &hp.pos[i], box_size);
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    num += hp.u[i] * r2.sqrt();
                    den += hp.u[i];
                }
            }
            let radius = if den > 0.0 { num / den } else { 0.0 };
            println!(
                "{:>8} {:>10.4} {:>14.4} {:>12.4}",
                step + 1,
                t,
                radius,
                radius / t.powf(0.4)
            );
        }
    }
    println!(
        "\n(the final column should plateau once the blast is established — \
         the Sedov R ∝ t^(2/5) scaling)"
    );
    println!();
    println!(
        "{}",
        telemetry::table::profile_table("sedov blast kernels (24 steps)", &telemetry.events())
    );
}
