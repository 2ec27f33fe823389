//! Beyond-adiabatic mode (§3.1): enable the sub-grid radiative-cooling
//! and star-formation kernels and watch the mechanism the paper
//! describes — the cooling criterion tightens the time step, forcing
//! "many more calls to the adiabatic kernels" per span of cosmological
//! time.
//!
//! ```text
//! cargo run --release --example subgrid_cooling
//! ```

use crk_hacc::core::{DeviceConfig, SimConfig, Simulation, Species};
use crk_hacc::kernels::{SubgridParams, Variant};
use crk_hacc::sycl::{GpuArch, GrfMode, Lang};

fn run(label: &str, subgrid: Option<SubgridParams>) {
    let config = SimConfig::smoke();
    let device = DeviceConfig {
        lang: Lang::Sycl,
        fast_math: None,
        variant: Variant::Select,
        sg_size: Some(64),
        grf: GrfMode::Default,
    };
    let mut sim = Simulation::new(config, device, GpuArch::frontier());
    if let Some(params) = subgrid {
        sim.enable_subgrid(params);
        // Warm gas so there is something to cool away.
        for i in 0..sim.n_particles() {
            if sim.species[i] == Species::Baryon {
                sim.u_int[i] = 1e-4;
            }
        }
    }
    let summary = sim.run();
    let timers = sim.timers();
    let geo = timers.get("upGeo");
    let sub = timers.get("upSub");
    println!(
        "{label:<22} adiabatic-kernel calls = {:<4} sub-grid calls = {:<4} \
         sub-cycles(final) = {:<3} stars formed = {:.3e}  GPU time = {:.3e} s",
        geo.calls,
        sub.calls,
        sim.adaptive_sub_cycles,
        sim.total_star_mass(),
        summary.gpu_seconds
    );
}

fn main() {
    println!("2×8³ particles, z = 200 → 50, Frontier device\n");
    run("adiabatic", None);
    run(
        "with cooling",
        Some(SubgridParams {
            lambda0: 1e3,
            ..Default::default()
        }),
    );
    run(
        "with cooling + SF",
        Some(SubgridParams {
            lambda0: 1e3,
            rho_star: 0.0,
            u_star: 1.0,
            sfr_efficiency: 0.3,
            ..Default::default()
        }),
    );
    println!(
        "\n(cooling tightens dt_min through the same atomic-min the CFL uses, \
         raising the sub-cycle count — §3.1's \"many more calls to the \
         adiabatic kernels\")"
    );
}
