//! Edge-case and failure-injection tests for the kernel layer: degenerate
//! particle sets, extreme smoothing lengths, colocated particles, and
//! minimal work lists must neither crash nor poison results with NaNs.

use hacc_kernels::{reference, run_hydro_step, DeviceParticles, HostParticles, Offload, Variant};
use hacc_telemetry::Recorder;
use sycl_sim::{Device, ExecutionPolicy, GpuArch, LaunchConfig, LaunchError, Toolchain};

fn frontier() -> Device {
    Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap()
}

/// Aurora with the vISA toolchain, so variants that need inline vISA
/// can run too.
fn aurora_visa() -> Device {
    Device::new(GpuArch::aurora(), Toolchain::sycl_visa()).unwrap()
}

/// The offload of `hp` at `variant`'s leaf capacity, with a cutoff
/// covering the widest kernel support.
fn offload(
    hp: &HostParticles,
    box_size: f64,
    variant: Variant,
    sg: usize,
) -> Result<Offload, LaunchError> {
    let h_max = hp.h.iter().cloned().fold(0.0, f64::max);
    let cutoff = (2.0 * h_max + 1e-9).min(box_size * 0.49);
    let leaf_capacity = variant.preferred_leaf_capacity(sg);
    Offload::new(hp, box_size, cutoff, leaf_capacity, sg)
}

/// One serial hydro step of `variant` on `device`: the offload and the
/// device state the step leaves.
fn run(
    device: &Device,
    hp: &HostParticles,
    box_size: f64,
    variant: Variant,
    sg: usize,
) -> (Offload, DeviceParticles) {
    let offload = offload(hp, box_size, variant, sg).expect("a valid offload");
    let cfg = LaunchConfig::defaults_for(&device.arch).with_sg_size(sg);
    let (cfg, data) = (cfg.with_exec(ExecutionPolicy::Serial), offload.upload());
    run_hydro_step(
        device,
        &data,
        &offload.work,
        variant,
        box_size as f32,
        cfg,
        &Recorder::new(),
    )
    .expect("fault-free hydro step must succeed");
    (offload, data)
}

fn assert_all_finite(data: &DeviceParticles) {
    for (name, buf) in [
        ("volume", &data.volume),
        ("rho", &data.rho),
        ("du_dt", &data.du_dt),
        ("crk_a", &data.crk_a),
        ("pressure", &data.pressure),
    ] {
        for (i, v) in buf.to_f32_vec().into_iter().enumerate() {
            assert!(v.is_finite(), "{name}[{i}] = {v}");
        }
    }
    for c in 0..3 {
        for (i, v) in data.acc[c].to_f32_vec().into_iter().enumerate() {
            assert!(v.is_finite(), "acc[{c}][{i}] = {v}");
        }
    }
}

#[test]
fn single_particle_runs() {
    let hp = HostParticles {
        pos: vec![[5.0, 5.0, 5.0]],
        vel: vec![[0.1, -0.2, 0.3]],
        mass: vec![2.0],
        h: vec![1.0],
        u: vec![0.5],
    };
    for variant in [Variant::Select, Variant::Broadcast] {
        let (_, data) = run(&frontier(), &hp, 10.0, variant, 32);
        assert_all_finite(&data);
        // A lone particle sees only its self term: V = 1/W(0,h) = πh³.
        let want = std::f64::consts::PI;
        let got = data.volume.read_f32(0) as f64;
        assert!((got / want - 1.0).abs() < 1e-4, "V = {got} vs {want}");
        // No pair forces.
        assert_eq!(data.acc[0].read_f32(0), 0.0);
        assert_eq!(data.du_dt.read_f32(0), 0.0);
    }
}

#[test]
fn colocated_particles_produce_finite_results() {
    // Two particles at exactly the same position: the self-mask must keep
    // 1/r out of the force path while the kernel sums stay finite.
    let hp = HostParticles {
        pos: vec![[3.0, 3.0, 3.0], [3.0, 3.0, 3.0], [4.0, 3.0, 3.0]],
        vel: vec![[0.0; 3], [0.1, 0.0, 0.0], [0.0; 3]],
        mass: vec![1.0; 3],
        h: vec![1.0; 3],
        u: vec![1.0; 3],
    };
    for variant in [Variant::Select, Variant::MemoryObject, Variant::Broadcast] {
        let (_, data) = run(&frontier(), &hp, 10.0, variant, 32);
        assert_all_finite(&data);
    }
}

#[test]
fn tiny_smoothing_lengths_do_not_explode() {
    let hp = HostParticles {
        pos: (0..8).map(|i| [i as f64 + 0.5, 4.0, 4.0]).collect(),
        vel: vec![[0.0; 3]; 8],
        mass: vec![1.0; 8],
        h: vec![1e-3; 8], // kernels see almost no neighbors
        u: vec![1.0; 8],
    };
    let (_, data) = run(&frontier(), &hp, 8.0, Variant::Select, 32);
    assert_all_finite(&data);
    // Isolated particles: A falls back to plain SPH (B = 0).
    for i in 0..8 {
        assert_eq!(data.crk_b[0].read_f32(i), 0.0);
    }
}

#[test]
fn two_particle_system_matches_reference_under_all_variants() {
    let hp = HostParticles {
        pos: vec![[4.0, 5.0, 5.0], [5.2, 5.0, 5.0]],
        vel: vec![[0.2, 0.0, 0.0], [-0.2, 0.0, 0.0]],
        mass: vec![1.0, 1.5],
        h: vec![1.0, 1.1],
        u: vec![0.8, 1.2],
    };
    let r = reference::full_pipeline(&hp, 10.0);
    for variant in [
        Variant::Select,
        Variant::Memory32,
        Variant::MemoryObject,
        Variant::Broadcast,
    ] {
        let (offload, data) = run(&frontier(), &hp, 10.0, variant, 32);
        let rho = offload.scatter(|slot| data.rho.read_f32(slot) as f64);
        for (pi, got) in rho.into_iter().enumerate() {
            assert!(
                (got / r.rho[pi] - 1.0).abs() < 1e-4,
                "{variant:?}: rho[{pi}] {got} vs {}",
                r.rho[pi]
            );
        }
    }
}

#[test]
fn coincident_particles_finite_under_every_fallback_chain_variant() {
    // Every variant in the deepest fallback chain (vISA → Select →
    // Memory32 → MemoryObject) must yield finite output on an input
    // engineered to provoke 1/r singularities — so a mid-step variant
    // demotion can never turn a recoverable fault into NaN poisoning.
    let hp = HostParticles {
        pos: vec![
            [3.0, 3.0, 3.0],
            [3.0, 3.0, 3.0],
            [3.0, 3.0, 3.0],
            [4.2, 3.0, 3.0],
        ],
        vel: vec![[0.3, 0.0, 0.0], [-0.3, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0; 3]],
        mass: vec![1.0; 4],
        h: vec![1.0; 4],
        u: vec![1.0; 4],
    };
    let chain = Variant::Visa.fallback_chain();
    assert_eq!(chain.len(), 4, "deepest chain covers four variants");
    for variant in chain {
        let (_, data) = run(&aurora_visa(), &hp, 10.0, variant, 32);
        assert_all_finite(&data);
    }
    // The Broadcast chain's head too (its tail repeats the above).
    let (_, data) = run(&frontier(), &hp, 10.0, Variant::Broadcast, 32);
    assert_all_finite(&data);
}

#[test]
fn zero_smoothing_length_is_rejected_before_launch() {
    // h = 0 would divide by zero inside every kernel; the offload
    // (HostParticles::validate) must refuse it for each chain variant's
    // leaf capacity, naming the particle, rather than let the kernels
    // poison device state.
    let hp = HostParticles {
        pos: vec![[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]],
        vel: vec![[0.0; 3]; 2],
        mass: vec![1.0; 2],
        h: vec![1.0, 0.0],
        u: vec![1.0; 2],
    };
    let named = "particle 1 has a non-positive smoothing length h = 0";
    for variant in Variant::Visa.fallback_chain() {
        let err = offload(&hp, 4.0, variant, 32).err();
        let typed =
            matches!(&err, Some(LaunchError::Config { message }) if message.contains(named));
        assert!(
            typed,
            "{variant:?}: want a Config error naming `{named}`, got {err:?}"
        );
    }
    // No particles, no tree: the same typed error.
    let empty = offload(&HostParticles::default(), 4.0, Variant::Select, 32);
    assert!(matches!(empty, Err(LaunchError::Config { .. })));
}

#[test]
fn near_zero_smoothing_length_stays_finite_under_chain_variants() {
    // The smallest positive h the validator accepts must still produce
    // finite output under every variant of the deepest fallback chain.
    let hp = HostParticles {
        pos: (0..4).map(|i| [1.0 + i as f64, 2.0, 2.0]).collect(),
        vel: vec![[0.0; 3]; 4],
        mass: vec![1.0; 4],
        h: vec![1e-6; 4],
        u: vec![1.0; 4],
    };
    for variant in Variant::Visa.fallback_chain() {
        let (_, data) = run(&aurora_visa(), &hp, 8.0, variant, 32);
        assert_all_finite(&data);
    }
}

#[test]
fn sub_group_sixty_four_handles_small_problems() {
    // Fewer particles than one sub-group: padding lanes dominate.
    let hp = HostParticles {
        pos: (0..5).map(|i| [1.0 + i as f64, 2.0, 2.0]).collect(),
        vel: vec![[0.0; 3]; 5],
        mass: vec![1.0; 5],
        h: vec![0.8; 5],
        u: vec![1.0; 5],
    };
    let (offload, data) = run(&frontier(), &hp, 8.0, Variant::Select, 64);
    assert_all_finite(&data);
    let r = reference::full_pipeline(&hp, 8.0);
    let volume = offload.scatter(|slot| data.volume.read_f32(slot) as f64);
    for (pi, (got, want)) in volume.into_iter().zip(r.volume).enumerate() {
        assert!((got / want - 1.0).abs() < 1e-4, "V[{pi}] {got} vs {want}");
    }
}
