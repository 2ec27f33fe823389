#![warn(missing_docs)]
//! # hacc-core
//!
//! The CRK-HACC application driver: configuration and problem presets,
//! the two-species particle state, the KDK sub-cycled time stepper that
//! couples the host-side PM long-range solve with the offloaded
//! short-range gravity and CRK hydro kernels, HACC-style timers fed by
//! the device cost model, checkpoints for standalone-kernel work
//! (paper §7.2), and the rank-decomposition layer standing in for MPI.

pub mod analysis;
pub mod checkpoint;
pub mod config;
pub mod distckpt;
pub mod fom;
pub mod guard;
pub mod multirank;
pub mod rank;
pub mod recovery;
pub mod resilience;
pub mod sim;
pub mod timers;
mod wire;

pub use analysis::{density_moments, find_halos, mass_function, rms_velocity};
pub use checkpoint::{Checkpoint, CheckpointError, FullCheckpoint};
pub use config::{DeviceConfig, SimConfig};
pub use distckpt::{buddy_of, MultiRankCheckpoint};
pub use fom::{fom, FomProblem};
pub use guard::{GuardViolation, StepGuard};
pub use multirank::{MultiRankProblem, MultiRankSim, RankStepStats, StepStats};
pub use rank::{NodeMapping, RankLayout, UnknownArch};
pub use recovery::{RecoveryError, RecoveryPolicy};
pub use resilience::{
    RecoveryEvent, RecoveryMode, ResilienceConfig, ResilienceError, ResilienceReport,
};
pub use sim::{RunSummary, Simulation, Species};
pub use timers::{TimerValue, Timers};

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_kernels::Variant;
    use sycl_sim::{GpuArch, GrfMode, Lang};

    fn device_cfg(variant: Variant) -> DeviceConfig {
        DeviceConfig {
            lang: Lang::Sycl,
            fast_math: None,
            variant,
            sg_size: Some(32),
            grf: GrfMode::Default,
        }
    }

    fn smoke_sim(variant: Variant) -> Simulation {
        Simulation::new(SimConfig::smoke(), device_cfg(variant), GpuArch::frontier())
    }

    #[test]
    fn construction_sets_up_two_species() {
        let sim = smoke_sim(Variant::Select);
        let np3 = sim.config.box_spec.particles_per_species();
        assert_eq!(sim.n_particles(), 2 * np3);
        let n_dm = sim
            .species
            .iter()
            .filter(|&&s| s == Species::DarkMatter)
            .count();
        assert_eq!(n_dm, np3);
        // Baryons are lighter than dark matter.
        let m_dm = sim.mass[0];
        let m_b = sim.mass[np3];
        assert!(m_dm > m_b && m_b > 0.0);
        // Total mass = ng³ (mean density 1 per cell).
        let total: f64 = sim.mass.iter().sum();
        let ng3 = (sim.config.box_spec.ng as f64).powi(3);
        assert!((total / ng3 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_step_advances_scale_factor_and_fills_timers() {
        let mut sim = smoke_sim(Variant::Select);
        let a0 = sim.a;
        sim.step();
        assert!(sim.a > a0);
        assert_eq!(sim.step_count, 1);
        let timers = sim.timers();
        for timer in hacc_kernels::HYDRO_TIMERS {
            assert!(timers.get(timer).calls > 0, "timer {timer} never fired");
            assert!(timers.get(timer).seconds > 0.0);
        }
        assert!(timers.get("upGrav").calls > 0);
    }

    #[test]
    fn full_smoke_run_completes() {
        let mut sim = smoke_sim(Variant::Select);
        let summary = sim.run();
        assert_eq!(summary.steps, sim.config.n_steps);
        assert!((summary.a_final - hacc_cosmo::z_to_a(sim.config.z_final)).abs() < 1e-12);
        assert!(summary.gpu_seconds > 0.0);
        // Internal energies stay non-negative; positions stay in the box.
        let ng = sim.config.box_spec.ng as f64;
        for i in 0..sim.n_particles() {
            assert!(sim.u_int[i] >= 0.0);
            for c in 0..3 {
                assert!(sim.pos[i][c] >= 0.0 && sim.pos[i][c] < ng);
            }
        }
    }

    #[test]
    fn momentum_is_approximately_conserved() {
        let mut sim = smoke_sim(Variant::Select);
        sim.step();
        let p = sim.total_momentum();
        // Momentum scale: Σ m |u|.
        let scale: f64 = sim
            .mass
            .iter()
            .zip(&sim.mom)
            .map(|(m, u)| m * (u[0].abs() + u[1].abs() + u[2].abs()))
            .sum();
        for c in 0..3 {
            assert!(
                p[c].abs() < 1e-3 * scale.max(1e-30),
                "net momentum {p:?} vs scale {scale}"
            );
        }
    }

    #[test]
    fn gravity_only_mode_skips_hydro_timers() {
        let mut sim = smoke_sim(Variant::Select);
        sim.set_gravity_only();
        sim.step();
        let timers = sim.timers();
        assert_eq!(timers.get("upGeo").calls, 0);
        assert!(timers.get("upGrav").calls > 0);
    }

    #[test]
    fn particles_move_under_gravity() {
        let mut sim = smoke_sim(Variant::Select);
        let initial = sim.pos.clone();
        sim.set_gravity_only();
        sim.step();
        let rms = sim.rms_displacement_from(&initial);
        assert!(rms > 0.0, "particles must move");
        // At z≈200→170 over one step, displacements stay below a cell.
        assert!(
            rms < 1.0,
            "rms displacement {rms} too large for one early step"
        );
    }

    #[test]
    fn different_variants_produce_similar_trajectories() {
        // The physics must not depend on the communication variant.
        let mut a = smoke_sim(Variant::Select);
        let mut b = smoke_sim(Variant::Broadcast);
        a.step();
        b.step();
        let ng = a.config.box_spec.ng as f64;
        let mut worst = 0.0f64;
        for i in 0..a.n_particles() {
            let d = hacc_tree::min_image(&a.pos[i], &b.pos[i], ng);
            worst = worst.max((d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt());
        }
        assert!(
            worst < 1e-3,
            "variant trajectories diverged by {worst} cells"
        );
    }

    #[test]
    fn subgrid_mode_runs_and_forms_stars() {
        use hacc_kernels::SubgridParams;
        let mut sim = smoke_sim(Variant::Select);
        // Strong cooling + easy star formation so the smoke problem
        // exercises both paths.
        sim.enable_subgrid(SubgridParams {
            lambda0: 10.0,
            rho_star: 0.0,
            u_star: 1.0,
            sfr_efficiency: 0.5,
            ..Default::default()
        });
        // Give the baryons some internal energy to cool away.
        for (i, s) in sim.species.clone().iter().enumerate() {
            if *s == Species::Baryon {
                sim.u_int[i] = 1e-4;
            }
        }
        sim.step();
        assert!(
            sim.timers().get("upSub").calls > 0,
            "sub-grid timer must fire"
        );
        assert!(sim.total_star_mass() > 0.0, "stars should form");
        // Energies never fall below the floor.
        let floor = sim.subgrid.unwrap().u_floor as f64;
        for (i, s) in sim.species.iter().enumerate() {
            if *s == Species::Baryon {
                assert!(sim.u_int[i] >= floor - 1e-12);
            }
        }
    }

    #[test]
    fn subgrid_cooling_forces_more_sub_cycles() {
        use hacc_kernels::SubgridParams;
        // §3.1: sub-grid kernels tighten time-stepping and "lead to many
        // more calls to the adiabatic kernels".
        let mut adiabatic = smoke_sim(Variant::Select);
        adiabatic.step();
        let adiabatic_calls = adiabatic.timers().get("upGeo").calls;

        let mut cooling = smoke_sim(Variant::Select);
        cooling.enable_subgrid(SubgridParams {
            lambda0: 1e4,
            ..Default::default()
        });
        for (i, s) in cooling.species.clone().iter().enumerate() {
            if *s == Species::Baryon {
                cooling.u_int[i] = 1e-4;
            }
        }
        cooling.step(); // measures dt_min, adapts
        assert!(
            cooling.adaptive_sub_cycles > cooling.config.sub_cycles,
            "strong cooling must raise the sub-cycle count: {}",
            cooling.adaptive_sub_cycles
        );
        cooling.step(); // now runs more sub-cycles
        let cooling_calls = cooling.timers().get("upGeo").calls;
        assert!(
            cooling_calls > 2 * adiabatic_calls,
            "expected many more adiabatic kernel calls: {cooling_calls} vs {adiabatic_calls}"
        );
    }

    #[test]
    fn stepping_past_the_end_is_a_typed_error_that_changes_nothing() {
        let mut sim = smoke_sim(Variant::Select);
        sim.run();
        let (digest, steps, events) = (sim.state_digest(), sim.step_count, sim.telemetry.len());
        let err = sim.try_step().expect_err("the run is over");
        let sycl_sim::LaunchError::Config { message } = &err else {
            panic!("expected a Config error, got {err}");
        };
        let n_steps = sim.config.n_steps;
        assert!(
            message.contains(&format!("step {steps}")) && message.contains(&n_steps.to_string()),
            "error must name the step and config.n_steps: {message}"
        );
        assert_eq!(sim.state_digest(), digest);
        assert_eq!(sim.step_count, steps);
        assert_eq!(sim.telemetry.len(), events, "a refused step emits nothing");
    }

    #[test]
    fn checkpoint_captures_baryons() {
        let mut sim = smoke_sim(Variant::Select);
        sim.step();
        let cp = Checkpoint::capture(&sim);
        let np3 = sim.config.box_spec.particles_per_species();
        assert_eq!(cp.particles.len(), np3);
        cp.particles.validate().unwrap();
        let blob = cp.to_bytes();
        let back = Checkpoint::from_bytes(blob).unwrap();
        assert_eq!(cp, back);
    }
}
