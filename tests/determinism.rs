//! Reproducibility: with deterministic launches, two simulations built
//! from the same configuration and seed must produce bitwise-identical
//! trajectories; different seeds must not.

use crk_hacc::core::{DeviceConfig, SimConfig, Simulation};
use crk_hacc::kernels::Variant;
use crk_hacc::sycl::{ExecutionPolicy, GpuArch, GrfMode, Lang};

fn build(seed: u64) -> Simulation {
    let mut config = SimConfig::smoke();
    config.seed = seed;
    let device = DeviceConfig {
        lang: Lang::Sycl,
        fast_math: None,
        variant: Variant::Select,
        sg_size: Some(32),
        grf: GrfMode::Default,
    };
    let mut sim = Simulation::new(config, device, GpuArch::polaris());
    sim.set_execution_policy(ExecutionPolicy::Serial);
    sim
}

#[test]
fn same_seed_is_bitwise_reproducible() {
    let mut a = build(1234);
    let mut b = build(1234);
    a.step();
    b.step();
    assert_eq!(a.pos, b.pos, "positions must match bitwise");
    assert_eq!(a.mom, b.mom, "momenta must match bitwise");
    assert_eq!(a.u_int, b.u_int, "internal energies must match bitwise");
}

#[test]
fn different_seeds_diverge() {
    let mut a = build(1);
    let mut b = build(2);
    a.step();
    b.step();
    assert_ne!(a.pos, b.pos, "different realizations must differ");
}

#[test]
fn initial_conditions_are_seed_deterministic() {
    let a = build(777);
    let b = build(777);
    assert_eq!(a.pos, b.pos);
    assert_eq!(a.mom, b.mom);
}
