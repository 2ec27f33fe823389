//! Cross-crate equivalence: every communication variant, on every
//! architecture that supports it, at every legal sub-group size, must
//! produce the same physics — the paper's premise that the variants are
//! interchangeable implementations of identical kernels.

use crk_hacc::kernels::{
    reference, run_hydro_step, DeviceParticles, HostParticles, Variant, WorkLists, ALL_VARIANTS,
};
use crk_hacc::sycl::{Device, GpuArch, LaunchConfig, Toolchain};
use crk_hacc::telemetry::Recorder;
use crk_hacc::tree::{InteractionList, RcbTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gas(n_side: usize, box_size: f64, seed: u64) -> HostParticles {
    let mut rng = StdRng::seed_from_u64(seed);
    let spacing = box_size / n_side as f64;
    let mut hp = HostParticles::default();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                let jig = 0.25 * spacing;
                hp.pos.push([
                    (i as f64 + 0.5) * spacing + rng.gen_range(-jig..jig),
                    (j as f64 + 0.5) * spacing + rng.gen_range(-jig..jig),
                    (k as f64 + 0.5) * spacing + rng.gen_range(-jig..jig),
                ]);
                hp.vel.push([
                    rng.gen_range(-0.3..0.3),
                    rng.gen_range(-0.3..0.3),
                    rng.gen_range(-0.3..0.3),
                ]);
                hp.mass.push(rng.gen_range(0.5..1.5));
                hp.h.push(1.25 * spacing);
                hp.u.push(rng.gen_range(0.5..1.5));
            }
        }
    }
    hp
}

/// Runs one variant and returns (acc_x, du_dt, rho) in original particle
/// order.
fn run_one(
    arch: GpuArch,
    variant: Variant,
    sg_size: usize,
    hp: &HostParticles,
    box_size: f64,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let device = Device::new(arch, variant.toolchain()).unwrap();
    let cfg = LaunchConfig::defaults_for(&device.arch)
        .with_sg_size(sg_size)
        .deterministic();
    let tree = RcbTree::build(&hp.pos, variant.preferred_leaf_capacity(sg_size));
    let cutoff = 2.0 * 1.25 * (box_size / 6.0) + 1e-9;
    let list = InteractionList::build(&tree, box_size, cutoff);
    let work = WorkLists::build(&tree, &list, sg_size);
    let ordered = hp.permuted(&tree.order);
    let data = DeviceParticles::upload(&ordered);
    run_hydro_step(
        &device,
        &data,
        &work,
        variant,
        box_size as f32,
        cfg,
        &Recorder::new(),
    )
    .expect("fault-free hydro step must succeed");
    // Scatter back to original order.
    let n = hp.len();
    let (mut ax, mut du, mut rho) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for (slot, &pi) in tree.order.iter().enumerate() {
        ax[pi as usize] = data.acc[0].read_f32(slot);
        du[pi as usize] = data.du_dt.read_f32(slot);
        rho[pi as usize] = data.rho.read_f32(slot);
    }
    (ax, du, rho)
}

fn max_rel(a: &[f32], b: &[f32]) -> f64 {
    let scale = a.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-30) as f64;
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() as f64 / scale)
        .fold(0.0, f64::max)
}

#[test]
fn all_variant_arch_sg_combinations_agree() {
    let box_size = 6.0;
    let hp = gas(6, box_size, 99);
    // Reference from the f64 pipeline.
    let r = reference::full_pipeline(&hp, box_size);
    let r_ax: Vec<f32> = r.acc.iter().map(|a| a[0] as f32).collect();

    let combos: Vec<(GpuArch, Variant, usize)> = {
        let mut v = Vec::new();
        for arch in GpuArch::all() {
            for variant in ALL_VARIANTS {
                if variant.needs_visa() && !arch.supports_visa {
                    continue;
                }
                for &sg in arch.sg_sizes {
                    v.push((arch.clone(), variant, sg));
                }
            }
        }
        v
    };
    assert!(
        combos.len() >= 15,
        "expected a broad sweep, got {}",
        combos.len()
    );

    for (arch, variant, sg) in combos {
        let (ax, du, rho) = run_one(arch.clone(), variant, sg, &hp, box_size);
        assert!(
            max_rel(&ax, &r_ax) < 7e-3,
            "{}/{:?}/sg{} acceleration deviates from reference by {}",
            arch.id,
            variant,
            sg,
            max_rel(&ax, &r_ax)
        );
        // du and rho compared against the reference too.
        let r_du: Vec<f32> = r.du_dt.iter().map(|v| *v as f32).collect();
        let r_rho: Vec<f32> = r.rho.iter().map(|v| *v as f32).collect();
        assert!(
            max_rel(&du, &r_du) < 7e-3,
            "{}/{:?}/sg{} du_dt",
            arch.id,
            variant,
            sg
        );
        assert!(
            max_rel(&rho, &r_rho) < 2e-3,
            "{}/{:?}/sg{} rho",
            arch.id,
            variant,
            sg
        );
    }
}

#[test]
fn fast_math_flag_does_not_change_results_materially() {
    // Fast math changes instruction classification (and real codes accept
    // small numerical differences); the simulated math paths are
    // identical, so results must match exactly here.
    let box_size = 6.0;
    let hp = gas(5, box_size, 7);
    let arch = GpuArch::polaris();
    let run = |tc: Toolchain| {
        let device = Device::new(arch.clone(), tc).unwrap();
        let cfg = LaunchConfig::defaults_for(&device.arch).deterministic();
        let tree = RcbTree::build(&hp.pos, 16);
        let cutoff = 2.0 * 1.25 * (box_size / 5.0) + 1e-9;
        let list = InteractionList::build(&tree, box_size, cutoff);
        let work = WorkLists::build(&tree, &list, 32);
        let data = DeviceParticles::upload(&hp.permuted(&tree.order));
        run_hydro_step(
            &device,
            &data,
            &work,
            Variant::Select,
            box_size as f32,
            cfg,
            &Recorder::new(),
        )
        .expect("fault-free hydro step must succeed");
        data.acc[0].to_f32_vec()
    };
    let precise = run(Toolchain::cuda());
    let fast = run(Toolchain::cuda_fast_math());
    assert_eq!(precise, fast);
}
