//! End-to-end tests of the fault-tolerance stack: exact-restart
//! determinism of the full-state checkpoint, recovery of a
//! fault-injected run through retry/fallback/rollback, and the
//! zero-rate bit-identity guarantee (an attached injector with all
//! rates zero must change nothing).

use crk_hacc::core::{
    DeviceConfig, FullCheckpoint, RecoveryPolicy, SimConfig, Simulation, Species,
};
use crk_hacc::kernels::Variant;
use crk_hacc::sycl::{ExecutionPolicy, FaultConfig, GpuArch, GrfMode, Lang};
use crk_hacc::telemetry::counter_total;

fn smoke_sim() -> Simulation {
    let device = DeviceConfig {
        lang: Lang::Sycl,
        fast_math: None,
        variant: Variant::Select,
        sg_size: Some(32),
        grf: GrfMode::Default,
    };
    let mut sim = Simulation::new(SimConfig::smoke(), device, GpuArch::frontier());
    // The serial reference scheduler (the parallel one lands on the
    // same bits; this keeps the suite single-threaded).
    sim.set_execution_policy(ExecutionPolicy::Serial);
    sim
}

fn assert_states_bit_identical(a: &Simulation, b: &Simulation) {
    assert_eq!(a.a.to_bits(), b.a.to_bits(), "scale factor");
    assert_eq!(a.step_count, b.step_count, "step count");
    for i in 0..a.n_particles() {
        for c in 0..3 {
            assert_eq!(
                a.pos[i][c].to_bits(),
                b.pos[i][c].to_bits(),
                "pos[{i}][{c}]"
            );
            assert_eq!(
                a.mom[i][c].to_bits(),
                b.mom[i][c].to_bits(),
                "mom[{i}][{c}]"
            );
        }
        assert_eq!(a.u_int[i].to_bits(), b.u_int[i].to_bits(), "u_int[{i}]");
        assert_eq!(a.h[i].to_bits(), b.h[i].to_bits(), "h[{i}]");
        assert_eq!(
            a.star_mass[i].to_bits(),
            b.star_mass[i].to_bits(),
            "star_mass[{i}]"
        );
    }
}

/// Run K steps, checkpoint, run K more; separately restore the
/// checkpoint into a fresh simulation and run K — the final states
/// must match bit for bit (through a serialization round trip).
#[test]
fn checkpoint_restart_is_bit_identical() {
    let mut original = smoke_sim();
    original.step();
    let snapshot = FullCheckpoint::capture(&original);
    // Serialize → deserialize: the restart must survive the disk format.
    let snapshot = FullCheckpoint::from_bytes(snapshot.to_bytes()).unwrap();
    original.step();

    let mut restarted = smoke_sim();
    snapshot.restore_into(&mut restarted).unwrap();
    assert_eq!(restarted.step_count, 1);
    restarted.step();

    assert_states_bit_identical(&original, &restarted);
}

/// A fault-injected run must complete through retry/fallback/rollback,
/// conserve mass exactly, and emit telemetry counters that reconcile
/// with the injector's own fault log.
#[test]
fn faulty_run_recovers_and_reconciles() {
    let mut sim = smoke_sim();
    let mass0: f64 = sim.mass.iter().sum();
    sim.enable_fault_injection(FaultConfig {
        seed: 7,
        transient_rate: 0.02,
        corrupt_rate: 0.02,
        persistent_variants: vec![Variant::Select.label().to_string()],
        ..Default::default()
    });
    let summary = sim
        .try_run_guarded(&RecoveryPolicy::default())
        .expect("the fault drill must be recoverable");
    assert_eq!(summary.steps, sim.config.n_steps);

    // Mass conservation is exact, not approximate.
    let mass: f64 = sim.mass.iter().sum();
    assert_eq!(mass.to_bits(), mass0.to_bits());

    // Every fault the injector recorded appears exactly once in the
    // telemetry counter, and the drill actually exercised the stack.
    let events = sim.telemetry.events();
    let injected = counter_total(&events, "faults.injected");
    let logged = sim.fault_injector().unwrap().log().len() as f64;
    assert_eq!(injected, logged, "telemetry vs injector log");
    assert!(injected > 0.0, "the drill must inject something");
    assert!(
        counter_total(&events, "launch.fallbacks") > 0.0,
        "the blocked variant must force fallbacks"
    );

    // The final state passes the same audit the recovery loop applies.
    let guard = crk_hacc::core::StepGuard::new(&smoke_sim());
    guard.check(&sim).expect("recovered state must be healthy");
    let n_baryons = sim
        .species
        .iter()
        .filter(|&&s| s == Species::Baryon)
        .count();
    assert!(n_baryons > 0);
}

/// Attaching an injector with every rate zero must leave the physics
/// bit-identical to a run without one.
#[test]
fn zero_rate_injection_is_bit_identical_to_plain_run() {
    let mut plain = smoke_sim();
    plain.run();

    let mut injected = smoke_sim();
    injected.enable_fault_injection(FaultConfig::default());
    injected.run();

    assert_states_bit_identical(&plain, &injected);
    assert!(injected.fault_injector().unwrap().log().is_empty());
    let events = injected.telemetry.events();
    assert_eq!(counter_total(&events, "faults.injected"), 0.0);
    assert_eq!(counter_total(&events, "launch.retries"), 0.0);
    assert_eq!(events.len(), plain.telemetry.events().len());
}
