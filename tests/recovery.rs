//! End-to-end tests of the fault-tolerance stack: exact-restart
//! determinism of the full-state checkpoint, recovery of a
//! fault-injected run through retry/fallback/rollback, and the
//! zero-rate bit-identity guarantee (an attached injector with all
//! rates zero must change nothing).

use crk_hacc::core::{DeviceConfig, FullCheckpoint, SimConfig, Simulation, Species};
use crk_hacc::kernels::Variant;
use crk_hacc::sycl::{ExecutionPolicy, FaultConfig, GpuArch, GrfMode, Lang, LaunchError};
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
        .try_run_guarded()
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

/// Runs one good step, breaks the simulation with `poison`, and checks
/// that the guarded run gives up at step 1 holding the state it started
/// that step from — its count, its bits and its sub-cycling — not the
/// state of the step that kept failing.
fn assert_gives_up_at_the_last_good_step(poison: impl FnOnce(&mut Simulation)) {
    let mut sim = smoke_sim();
    sim.step();
    poison(&mut sim);
    let good_digest = sim.state_digest();
    let good_sub_cycles = sim.adaptive_sub_cycles;
    let err = sim.try_run_guarded().unwrap_err();
    assert_eq!(err.step, 1);
    assert_eq!(err.attempts, 3);
    assert_eq!(sim.step_count, err.step, "no step of the failed one counts");
    assert_eq!(
        sim.state_digest(),
        good_digest,
        "bits of the last good step"
    );
    assert_eq!(sim.adaptive_sub_cycles, good_sub_cycles, "no boost left");
    let events = sim.telemetry.events();
    assert_eq!(counter_total(&events, "rollbacks"), 3.0);
}

/// Every launch fails: the whole fallback chain is blocked.
#[test]
fn a_run_that_gives_up_on_launch_errors_keeps_the_last_good_step() {
    assert_gives_up_at_the_last_good_step(|sim| {
        sim.enable_fault_injection(FaultConfig {
            persistent_variants: Variant::Select
                .fallback_chain()
                .iter()
                .map(|v| v.label().to_string())
                .collect(),
            ..Default::default()
        });
    });
}

/// Every step completes and then fails the guard: a dark-matter
/// particle's negative internal energy, which no kernel reads or
/// rewrites, survives each rollback.
#[test]
fn a_run_that_gives_up_on_guard_violations_keeps_the_last_good_step() {
    assert_gives_up_at_the_last_good_step(|sim| {
        let dm = sim.species.iter().position(|&s| s == Species::DarkMatter);
        sim.u_int[dm.expect("the smoke problem has dark matter")] = -1.0;
    });
}

/// A particle no offload can run on — `h = 0` on a baryon, a negative
/// dark-matter mass, a NaN position — is the typed
/// `LaunchError::Config` that `try_step` promises, naming the field
/// and the particle's index in the offloaded subset, never a panic.
#[test]
fn an_invalid_particle_is_a_typed_offload_error() {
    // Dark matter comes first: particle 0 is dark matter, n/2 a baryon.
    let cases: [(&str, fn(&mut Simulation)); 3] = [
        (
            "particle 0 has a non-positive smoothing length h = 0",
            |sim| {
                let baryon = sim.n_particles() / 2;
                sim.h[baryon] = 0.0
            },
        ),
        ("particle 0 has a negative mass = -", |sim| {
            sim.mass[0] = -1.0
        }),
        ("particle 3 has a non-finite pos = ", |sim| {
            sim.pos[3][1] = f64::NAN
        }),
    ];
    for (named, corrupt) in cases {
        let mut sim = smoke_sim();
        assert_eq!(sim.species[sim.n_particles() / 2], Species::Baryon);
        corrupt(&mut sim);
        let err = sim.try_step().expect_err(named);
        let typed = matches!(&err, LaunchError::Config { message } if message.contains(named));
        assert!(typed, "want a Config error naming `{named}`, got {err}");
    }
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
