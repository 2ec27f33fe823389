#![warn(missing_docs)]
//! # hacc-kernels
//!
//! The offloaded CRK-HACC kernels over the simulated device: the five
//! hydro hot spots of the paper (§5) — *Geometry*, *Corrections*,
//! *Extras*, *Acceleration*, *Energy* — plus the short-range *Gravity*
//! kernel, each runnable in every communication variant
//! ([`variant::Variant`]): Select, Memory (32-bit), Memory (Object),
//! Broadcast, and vISA.
//!
//! The physics is real (first-order conservative reproducing-kernel SPH,
//! Frontiere et al. 2017): kernels execute lane by lane and their outputs
//! are validated against the f64 [`mod@reference`] implementations — so the
//! performance comparison between variants is a comparison between
//! *working* codes, exactly as in the paper.

pub mod acceleration;
pub mod corrections;
pub mod energy;
pub mod extras;
pub mod finalize;
pub mod geometry;
pub mod gravity;
pub mod halfwarp;
pub mod launch;
pub mod pairkernel;
pub mod particles;
pub mod physics;
pub mod reference;
pub mod sphkernel;
pub mod subgrid;
pub mod tuning;
pub mod variant;
pub mod worklist;

pub use launch::{
    launch_resilient, run_gravity, run_gravity_with_policy, run_hydro_step, run_hydro_step_planned,
    GravityParams, LaunchPolicy, StepPlan, TimerReport, WorkLists, WorkSet, GRAVITY_TIMER,
    HYDRO_TIMERS,
};
pub use particles::{DeviceParticles, HostParticles, GAMMA};
pub use subgrid::{Subgrid, SubgridParams};
pub use tuning::TunedSelector;
pub use variant::{Variant, ALL_VARIANTS};
pub use worklist::{build_chunks, build_tiles, Chunk, ChunkWork, Tile};

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_telemetry::Recorder;
    use hacc_tree::{InteractionList, RcbTree};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sycl_sim::{Device, GpuArch, LaunchConfig, Toolchain};

    /// A small jittered-lattice gas in a periodic box.
    fn sample(n_side: usize, box_size: f64, seed: u64) -> HostParticles {
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
                        rng.gen_range(-0.2..0.2),
                        rng.gen_range(-0.2..0.2),
                        rng.gen_range(-0.2..0.2),
                    ]);
                    hp.mass.push(1.0);
                    hp.h.push(1.2 * spacing);
                    hp.u.push(1.0);
                }
            }
        }
        hp
    }

    struct Setup {
        ordered: HostParticles,
        data: DeviceParticles,
        work: WorkLists,
        box_size: f64,
    }

    fn setup(variant_sg: usize, seed: u64) -> Setup {
        let box_size = 6.0;
        let hp = sample(6, box_size, seed);
        let tree = RcbTree::build(&hp.pos, variant_sg / 2);
        // Cutoff must cover the kernel support 2·h̄_max.
        let cutoff = 2.0 * 1.2 * (box_size / 6.0) + 1e-9;
        let list = InteractionList::build(&tree, box_size, cutoff);
        let work = WorkLists::build(&tree, &list, variant_sg);
        let ordered = hp.permuted(&tree.order);
        let data = DeviceParticles::upload(&ordered);
        Setup {
            ordered,
            data,
            work,
            box_size,
        }
    }

    fn assert_close(name: &str, got: &[f32], want: &[f64], rel: f64) {
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g as f64 - w).abs() < rel * scale,
                "{name}[{i}]: device {g} vs reference {w} (scale {scale})"
            );
        }
    }

    /// Runs the full hydro step on a device and compares every output
    /// field against the f64 reference pipeline.
    fn check_variant(arch: GpuArch, variant: Variant, sg_size: usize) {
        let device = Device::new(arch, variant.toolchain()).unwrap();
        let s = setup(sg_size, 42);
        let cfg = LaunchConfig::defaults_for(&device.arch)
            .with_sg_size(sg_size)
            .deterministic();
        let timers = run_hydro_step(
            &device,
            &s.data,
            &s.work,
            variant,
            s.box_size as f32,
            cfg,
            &Recorder::new(),
        )
        .unwrap();
        assert_eq!(timers.len(), 7);

        let r = reference::full_pipeline(&s.ordered, s.box_size);
        assert_close("volume", &s.data.volume.to_f32_vec(), &r.volume, 2e-4);
        assert_close("crk_a", &s.data.crk_a.to_f32_vec(), &r.crk_a, 5e-4);
        for c in 0..3 {
            let want: Vec<f64> = r.crk_b.iter().map(|b| b[c]).collect();
            assert_close("crk_b", &s.data.crk_b[c].to_f32_vec(), &want, 2e-3);
        }
        assert_close("rho", &s.data.rho.to_f32_vec(), &r.rho, 5e-4);
        assert_close("pressure", &s.data.pressure.to_f32_vec(), &r.pressure, 5e-4);
        for c in 0..3 {
            let want: Vec<f64> = r.acc.iter().map(|a| a[c]).collect();
            assert_close("acc", &s.data.acc[c].to_f32_vec(), &want, 5e-3);
        }
        assert_close("du_dt", &s.data.du_dt.to_f32_vec(), &r.du_dt, 5e-3);
        let dt = s.data.dt_min.read_f32(0) as f64;
        assert!(
            (dt / r.dt_min - 1.0).abs() < 1e-3,
            "dt {dt} vs {}",
            r.dt_min
        );
    }

    #[test]
    fn select_matches_reference_on_frontier() {
        check_variant(GpuArch::frontier(), Variant::Select, 64);
    }

    #[test]
    fn select_matches_reference_on_polaris() {
        check_variant(GpuArch::polaris(), Variant::Select, 32);
    }

    #[test]
    fn memory32_matches_reference_on_aurora() {
        check_variant(GpuArch::aurora(), Variant::Memory32, 32);
    }

    #[test]
    fn memory_object_matches_reference_on_aurora() {
        check_variant(GpuArch::aurora(), Variant::MemoryObject, 16);
    }

    #[test]
    fn broadcast_matches_reference_on_polaris() {
        check_variant(GpuArch::polaris(), Variant::Broadcast, 32);
    }

    #[test]
    fn visa_matches_reference_on_aurora() {
        check_variant(GpuArch::aurora(), Variant::Visa, 32);
    }

    /// All variants must agree with each other (not just with the
    /// reference): same state in, same state out, within FP32 reordering.
    #[test]
    fn variants_agree_pairwise() {
        let device = Device::new(GpuArch::aurora(), Toolchain::sycl_visa()).unwrap();
        let cfg = LaunchConfig::defaults_for(&device.arch)
            .with_sg_size(32)
            .deterministic();
        let mut results: Vec<(Variant, Vec<f32>)> = Vec::new();
        for variant in ALL_VARIANTS {
            let s = setup(32, 7);
            run_hydro_step(
                &device,
                &s.data,
                &s.work,
                variant,
                s.box_size as f32,
                cfg,
                &Recorder::new(),
            )
            .unwrap();
            results.push((variant, s.data.acc[0].to_f32_vec()));
        }
        let (v0, base) = &results[0];
        let scale = base.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-30);
        for (v, r) in &results[1..] {
            for i in 0..base.len() {
                assert!(
                    (r[i] - base[i]).abs() < 1e-3 * scale,
                    "{v:?} vs {v0:?} at {i}: {} vs {}",
                    r[i],
                    base[i]
                );
            }
        }
    }

    /// Gravity kernel vs reference.
    #[test]
    fn gravity_matches_reference() {
        let device = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let s = setup(64, 11);
        let cfg = LaunchConfig::defaults_for(&device.arch)
            .with_sg_size(64)
            .deterministic();
        let poly = [0.02f32, -0.01, 0.002, -0.0001, 0.0, 0.0];
        let params = GravityParams {
            poly,
            r_cut2: 4.0,
            soft2: 1e-4,
        };
        run_gravity(
            &device,
            &s.data,
            &s.work,
            Variant::Select,
            s.box_size as f32,
            params,
            cfg,
            &Recorder::new(),
        )
        .unwrap();
        let polyd: [f64; 6] = std::array::from_fn(|i| poly[i] as f64);
        let want = reference::gravity(&s.ordered, &polyd, 4.0, 1e-4, s.box_size);
        for c in 0..3 {
            let w: Vec<f64> = want.iter().map(|a| a[c]).collect();
            assert_close("grav", &s.data.acc_grav[c].to_f32_vec(), &w, 5e-3);
        }
    }

    /// The register-pressure ordering the paper's §5 relies on: the
    /// Broadcast variant's peak register demand exceeds the half-warp
    /// variants', and the force kernels exceed Geometry.
    #[test]
    fn register_pressure_ordering() {
        let device = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let cfg = LaunchConfig::defaults_for(&device.arch)
            .with_sg_size(32)
            .deterministic();
        let s = setup(32, 13);
        let select = run_hydro_step(
            &device,
            &s.data,
            &s.work,
            Variant::Select,
            s.box_size as f32,
            cfg,
            &Recorder::new(),
        )
        .unwrap();
        let s2 = setup(32, 13);
        let broadcast = run_hydro_step(
            &device,
            &s2.data,
            &s2.work,
            Variant::Broadcast,
            s2.box_size as f32,
            cfg,
            &Recorder::new(),
        )
        .unwrap();
        let regs = |t: &[TimerReport], name: &str| {
            t.iter()
                .find(|r| r.timer == name)
                .unwrap()
                .report
                .stats
                .peak_regs
        };
        assert!(
            regs(&broadcast, "upBarAc") > regs(&select, "upBarAc"),
            "broadcast must be more register-hungry: {} vs {}",
            regs(&broadcast, "upBarAc"),
            regs(&select, "upBarAc")
        );
        assert!(
            regs(&select, "upBarAc") > regs(&select, "upGeo"),
            "force kernels carry more registers than Geometry"
        );
    }

    /// Atomic counts: the Broadcast variant issues far fewer atomics than
    /// the half-warp variants (§5.3.2), and Corrections is the most
    /// atomic-heavy kernel.
    #[test]
    fn atomic_counts_match_paper_structure() {
        use sycl_sim::InstrClass;
        let device = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let cfg = LaunchConfig::defaults_for(&device.arch)
            .with_sg_size(32)
            .deterministic();
        let s = setup(32, 17);
        let select = run_hydro_step(
            &device,
            &s.data,
            &s.work,
            Variant::Select,
            s.box_size as f32,
            cfg,
            &Recorder::new(),
        )
        .unwrap();
        let s2 = setup(32, 17);
        let broadcast = run_hydro_step(
            &device,
            &s2.data,
            &s2.work,
            Variant::Broadcast,
            s2.box_size as f32,
            cfg,
            &Recorder::new(),
        )
        .unwrap();
        let atomics = |t: &[TimerReport], name: &str| {
            let r = &t.iter().find(|r| r.timer == name).unwrap().report.stats;
            r.count(InstrClass::AtomicNative) + r.count(InstrClass::AtomicCas)
        };
        for timer in ["upGeo", "upCor", "upBarEx"] {
            assert!(
                atomics(&select, timer) > 5 * atomics(&broadcast, timer).max(1),
                "{timer}: select {} vs broadcast {}",
                atomics(&select, timer),
                atomics(&broadcast, timer)
            );
        }
        assert!(
            atomics(&select, "upCor") > atomics(&select, "upGeo"),
            "Corrections has 10 accumulators vs Geometry's 1"
        );
    }
}
