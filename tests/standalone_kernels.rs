//! The §7.2 workflow end-to-end: capture an `HCK2` checkpoint from a
//! running simulation, replay its baryons into a standalone kernel, and
//! verify the result against the f64 reference — the "standalone
//! applications driven by checkpoint files" that accelerated the paper's
//! optimization work.

use crk_hacc::core::{DeviceConfig, FullCheckpoint, SimConfig, Simulation};
use crk_hacc::kernels::{
    reference, run_hydro_step, DeviceParticles, HostParticles, Offload, Variant,
};
use crk_hacc::sycl::{Device, ExecutionPolicy, GpuArch, LaunchConfig, Toolchain};
use crk_hacc::telemetry::Recorder;

fn device_cfg(variant: Variant) -> DeviceConfig {
    DeviceConfig {
        lang: crk_hacc::sycl::Lang::Sycl,
        fast_math: None,
        variant,
        sg_size: Some(32),
        grf: crk_hacc::sycl::GrfMode::Default,
    }
}

/// A smoke simulation one step in, so the scale factor has moved.
fn stepped_sim(arch: GpuArch) -> Simulation {
    let mut sim = Simulation::new(SimConfig::smoke(), device_cfg(Variant::Select), arch);
    sim.step();
    sim
}

/// Periodic box side of the smoke configuration, in grid units.
fn box_size() -> f64 {
    SimConfig::smoke().box_spec.ng as f64
}

/// Drives the seven hydro timers from checkpoint particles alone, with
/// no simulation behind them. Returns the device state and the
/// leaf-ordered input it ran on.
fn replay(
    hp: &HostParticles,
    device: &Device,
    variant: Variant,
) -> (DeviceParticles, HostParticles) {
    let sg = 32;
    let cfg = LaunchConfig::defaults_for(&device.arch)
        .with_sg_size(sg)
        .with_exec(ExecutionPolicy::Serial);
    let h_max = hp.h.iter().cloned().fold(0.0, f64::max);
    let leaf_capacity = variant.preferred_leaf_capacity(sg);
    let offload = Offload::new(hp, box_size(), 2.0 * h_max + 1e-9, leaf_capacity, sg).unwrap();
    let data = offload.upload();
    let timers = run_hydro_step(
        device,
        &data,
        &offload.work,
        variant,
        box_size() as f32,
        cfg,
        &Recorder::new(),
    )
    .expect("fault-free hydro step must succeed");
    assert_eq!(
        timers.len(),
        7,
        "the standalone replay runs all seven timers"
    );
    (data, offload.particles)
}

#[test]
fn checkpoint_replay_matches_reference() {
    // Run a step of the real simulation and capture its full state.
    let sim = stepped_sim(GpuArch::frontier());
    let cp = FullCheckpoint::capture(&sim);
    let replayed = FullCheckpoint::from_bytes(cp.to_bytes()).unwrap();
    assert_eq!(cp, replayed);

    // Standalone replay: drive the hydro kernels from the checkpoint
    // alone, on a *different* architecture and variant than the capture.
    let device = Device::new(GpuArch::aurora(), Toolchain::sycl_visa()).unwrap();
    let (data, ordered) = replay(&replayed.baryons().unwrap(), &device, Variant::Visa);

    // Verify against the reference pipeline on the same checkpoint.
    let r = reference::full_pipeline(&ordered, box_size());
    let rho = data.rho.to_f32_vec();
    let scale = r.rho.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
    for (i, (&got, want)) in rho.iter().zip(&r.rho).enumerate() {
        assert!(
            (got as f64 - want).abs() < 1e-3 * scale,
            "rho[{i}] = {got} vs reference {want}"
        );
    }
    let dt = data.dt_min.read_f32(0) as f64;
    assert!(
        (dt / r.dt_min - 1.0).abs() < 1e-2,
        "CFL dt {dt} vs reference {}",
        r.dt_min
    );
}

/// The same replay driven from a checkpoint *file*: written, read back
/// and replayed, it lands on the in-memory replay's densities bit for
/// bit.
#[test]
fn checkpoint_file_workflow() {
    let sim = stepped_sim(GpuArch::polaris());
    let cp = FullCheckpoint::capture(&sim);
    let path = std::env::temp_dir().join(format!("crk_hacc_step1_{}.hck2", std::process::id()));
    std::fs::write(&path, cp.to_bytes()).unwrap();
    let loaded = FullCheckpoint::from_bytes(std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    let loaded = loaded.unwrap();
    assert_eq!(loaded, cp);

    let device = Device::new(GpuArch::polaris(), Toolchain::sycl()).unwrap();
    let (from_file, _) = replay(&loaded.baryons().unwrap(), &device, Variant::Select);
    let (in_memory, _) = replay(&cp.baryons().unwrap(), &device, Variant::Select);
    let bits = |d: &DeviceParticles| d.rho.to_u32_vec();
    assert_eq!(bits(&from_file), bits(&in_memory));
}
