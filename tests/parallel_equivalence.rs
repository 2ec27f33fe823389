//! Parallel ≡ serial: the multi-threaded work-group scheduler must be
//! *bit-identical* to the serial reference path — not merely close — for
//! every pair kernel, every communication variant, and every thread
//! count, with and without injected faults. This is the contract that
//! makes thread count a pure speed knob (DESIGN.md, "Deterministic
//! commit ordering").

use crk_hacc::kernels::{
    run_gravity, run_hydro_step, DeviceParticles, GravityParams, HostParticles, TimerReport,
    Variant, WorkLists, ALL_VARIANTS,
};
use crk_hacc::sycl::{
    Device, ExecutionPolicy, FaultConfig, FaultInjector, GpuArch, LaunchConfig, LaunchError,
    MeterPolicy,
};
use crk_hacc::telemetry::Recorder;
use crk_hacc::tree::{InteractionList, RcbTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Thread counts every equivalence check sweeps.
const THREADS: [usize; 4] = [1, 2, 4, 8];

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

/// Everything observable from one step: the bit image of every device
/// buffer, per-timer instruction histograms, and fault counts.
#[derive(Debug, PartialEq)]
struct StepImage {
    buffers: Vec<(&'static str, Vec<u32>)>,
    counts: Vec<(String, Vec<u64>, u32)>,
    outcome: Result<(), String>,
}

/// Runs one full step (hydro + gravity) of `variant` under `exec` and
/// `meter`, optionally with a seeded fault injector, and captures the
/// image.
fn run_step(
    variant: Variant,
    sg_size: usize,
    hp: &HostParticles,
    box_size: f64,
    exec: ExecutionPolicy,
    faults: Option<FaultConfig>,
    meter: MeterPolicy,
) -> (StepImage, usize) {
    let arch = GpuArch::aurora();
    let mut device = Device::new(arch.clone(), variant.toolchain()).unwrap();
    let injector = match faults {
        Some(cfg) => {
            let inj = Arc::new(FaultInjector::new(cfg));
            device = device.with_fault_injector(inj.clone());
            Some(inj)
        }
        None => None,
    };
    let cfg = LaunchConfig::defaults_for(&device.arch)
        .with_sg_size(sg_size)
        .with_exec(exec)
        .with_meter(meter);
    let tree = RcbTree::build(&hp.pos, variant.preferred_leaf_capacity(sg_size));
    let cutoff = 2.0 * 1.25 * (box_size / 4.0) + 1e-9;
    let list = InteractionList::build(&tree, box_size, cutoff);
    let work = WorkLists::build(&tree, &list, sg_size);
    let data = DeviceParticles::upload(&hp.permuted(&tree.order));

    let mut reports: Vec<TimerReport> = Vec::new();
    let outcome: Result<(), LaunchError> = run_hydro_step(
        &device,
        &data,
        &work,
        variant,
        box_size as f32,
        cfg,
        &Recorder::new(),
    )
    .and_then(|mut rs| {
        reports.append(&mut rs);
        run_gravity(
            &device,
            &data,
            &work,
            variant,
            box_size as f32,
            GravityParams {
                poly: [1.0, -0.5, 0.1, 0.0, 0.0, 0.0],
                r_cut2: (cutoff * cutoff) as f32,
                soft2: 1e-4,
            },
            cfg,
            &Recorder::new(),
        )
        .map(|r| reports.push(r))
    });

    let image = StepImage {
        buffers: data
            .all_buffers()
            .into_iter()
            .map(|(name, buf)| (name, buf.to_u32_vec()))
            .collect(),
        counts: reports
            .iter()
            .map(|r| {
                (
                    r.timer.clone(),
                    r.report.stats.counts.to_vec(),
                    r.report.injected_faults,
                )
            })
            .collect(),
        outcome: outcome.map_err(|e| e.to_string()),
    };
    let injected = injector.map_or(0, |inj| inj.log().len());
    (image, injected)
}

/// Asserts parallel == serial at every thread count for one setup.
fn assert_equivalent(
    variant: Variant,
    sg_size: usize,
    hp: &HostParticles,
    box_size: f64,
    faults: Option<FaultConfig>,
) {
    let (serial, serial_faults) = run_step(
        variant,
        sg_size,
        hp,
        box_size,
        ExecutionPolicy::Serial,
        faults.clone(),
        MeterPolicy::Full,
    );
    assert!(
        serial.outcome.is_ok() || faults.is_some(),
        "fault-free serial step must succeed: {:?}",
        serial.outcome
    );
    for threads in THREADS {
        let (parallel, parallel_faults) = run_step(
            variant,
            sg_size,
            hp,
            box_size,
            ExecutionPolicy::with_threads(threads),
            faults.clone(),
            MeterPolicy::Full,
        );
        assert_eq!(
            parallel_faults, serial_faults,
            "{variant:?}/sg{sg_size}/{threads}t: fault schedules diverged"
        );
        assert_eq!(
            parallel.outcome, serial.outcome,
            "{variant:?}/sg{sg_size}/{threads}t: outcomes diverged"
        );
        assert_eq!(
            parallel.counts, serial.counts,
            "{variant:?}/sg{sg_size}/{threads}t: instruction histograms diverged"
        );
        for ((name, s), (_, p)) in serial.buffers.iter().zip(&parallel.buffers) {
            assert_eq!(
                s, p,
                "{variant:?}/sg{sg_size}/{threads}t: buffer {name} is not bit-identical"
            );
        }
    }
}

/// All five communication variants, fault-free, at threads 1/2/4/8.
#[test]
fn every_variant_is_bit_identical_at_every_thread_count() {
    let box_size = 4.0;
    let hp = gas(4, box_size, 1234);
    for variant in ALL_VARIANTS {
        assert_equivalent(variant, 16, &hp, box_size, None);
    }
}

/// The large sub-group size exercises a different work-group shape.
#[test]
fn large_subgroups_are_bit_identical_too() {
    let box_size = 4.0;
    let hp = gas(4, box_size, 77);
    assert_equivalent(Variant::Select, 32, &hp, box_size, None);
}

/// With a nonzero fault rate the injector's schedule is claimed on the
/// launcher thread, so retries, corruptions, and final bits all match
/// the serial run at any thread count.
#[test]
fn fault_injection_stays_deterministic_under_parallel_execution() {
    let box_size = 4.0;
    let hp = gas(4, box_size, 4321);
    for (transient, corrupt) in [(0.3, 0.0), (0.0, 0.5), (0.2, 0.2)] {
        assert_equivalent(
            Variant::Select,
            16,
            &hp,
            box_size,
            Some(FaultConfig {
                seed: 99,
                transient_rate: transient,
                corrupt_rate: corrupt,
                ..FaultConfig::default()
            }),
        );
    }
}

/// Asserts an unmetered run reproduces the metered reference
/// bits: same buffer images, same outcome, same fault schedule, at every
/// thread count. Instruction histograms are the one permitted
/// difference — fast mode records zeros — and that too is asserted.
fn assert_fast_matches_metered(
    variant: Variant,
    sg_size: usize,
    hp: &HostParticles,
    box_size: f64,
    faults: Option<FaultConfig>,
) {
    let (metered, metered_faults) = run_step(
        variant,
        sg_size,
        hp,
        box_size,
        ExecutionPolicy::Serial,
        faults.clone(),
        MeterPolicy::Full,
    );
    for threads in THREADS {
        let exec = if threads == 1 {
            ExecutionPolicy::Serial
        } else {
            ExecutionPolicy::with_threads(threads)
        };
        let (fast, fast_faults) = run_step(
            variant,
            sg_size,
            hp,
            box_size,
            exec,
            faults.clone(),
            MeterPolicy::Off,
        );
        assert_eq!(
            fast_faults, metered_faults,
            "{variant:?}/sg{sg_size}/{threads}t fast: fault schedules diverged"
        );
        assert_eq!(
            fast.outcome, metered.outcome,
            "{variant:?}/sg{sg_size}/{threads}t fast: outcomes diverged"
        );
        for ((name, m), (_, f)) in metered.buffers.iter().zip(&fast.buffers) {
            assert_eq!(
                m, f,
                "{variant:?}/sg{sg_size}/{threads}t: fast-mode buffer {name} is not bit-identical"
            );
        }
        // Same launches in the same order, same injected-fault counts —
        // but zeroed instruction histograms (nothing was metered).
        assert_eq!(fast.counts.len(), metered.counts.len());
        for ((mt, mc, mf), (ft, fc, ff)) in metered.counts.iter().zip(&fast.counts) {
            assert_eq!(mt, ft, "launch order diverged");
            assert_eq!(mf, ff, "{mt}: per-launch fault counts diverged");
            assert!(
                fc.iter().all(|&c| c == 0),
                "{ft}: fast mode metered something"
            );
            assert!(
                faults.is_some() || mc.iter().any(|&c| c > 0),
                "{mt}: metered reference recorded nothing"
            );
        }
    }
}

/// The tentpole contract: fast mode is a pure speed knob. Every
/// communication variant must produce the metered reference bits at
/// every thread count with metering off.
#[test]
fn fast_mode_is_bit_identical_for_every_variant_and_thread_count() {
    let box_size = 4.0;
    let hp = gas(4, box_size, 1234);
    for variant in ALL_VARIANTS {
        assert_fast_matches_metered(variant, 16, &hp, box_size, None);
    }
}

/// Fault injection is orthogonal to metering: the injector's schedule is
/// claimed per launch, so turning metering off must not shift which
/// launches fault, how often they retry, or the recovered bits.
#[test]
fn fast_mode_preserves_fault_schedules() {
    let box_size = 4.0;
    let hp = gas(4, box_size, 4321);
    for (transient, corrupt) in [(0.3, 0.0), (0.2, 0.2)] {
        assert_fast_matches_metered(
            Variant::Select,
            16,
            &hp,
            box_size,
            Some(FaultConfig {
                seed: 99,
                transient_rate: transient,
                corrupt_rate: corrupt,
                ..FaultConfig::default()
            }),
        );
    }
}

/// The full-simulation axis: the only Tier-1 check that crosses a whole
/// `Simulation` (PM solve, both offloads, sub-cycling) with worker-
/// thread count × metering policy × fault schedule. Every combination
/// must land on the serial, fully metered reference bits — and claim
/// the identical fault schedule, since the device sees the same
/// launches in the same order either way.
mod simulation_axis {
    use crk_hacc::core::{DeviceConfig, SimConfig, Simulation};
    use crk_hacc::kernels::Variant;
    use crk_hacc::sycl::{ExecutionPolicy, FaultConfig, GpuArch, GrfMode, Lang, MeterPolicy};

    const STEPS: usize = 2;

    fn build() -> Simulation {
        let mut config = SimConfig::smoke();
        config.seed = 0xA51C;
        let device = DeviceConfig {
            lang: Lang::Sycl,
            fast_math: None,
            variant: Variant::Select,
            sg_size: Some(32),
            grf: GrfMode::Default,
        };
        Simulation::new(config, device, GpuArch::polaris())
    }

    /// Digest and fault-log length after `STEPS` steps of one config.
    fn run(threads: usize, meter: MeterPolicy, faults: Option<FaultConfig>) -> (u64, usize) {
        let mut sim = build();
        sim.set_execution_policy(if threads == 1 {
            ExecutionPolicy::Serial
        } else {
            ExecutionPolicy::with_threads(threads)
        });
        sim.set_meter_policy(meter);
        if let Some(config) = faults {
            sim.enable_fault_injection(config);
        }
        for _ in 0..STEPS {
            sim.step();
        }
        let log_len = sim.fault_injector().map_or(0, |inj| inj.log().len());
        (sim.state_digest(), log_len)
    }

    /// Every run ≡ the serial/`Full` reference over fault schedules ×
    /// thread counts × meter policies. Metering is bookkeeping on the
    /// one data path, so Tier-1 runs a pairwise-covering subset — each
    /// thread count once per fault schedule, alternating `Full`/`Off`,
    /// which still visits every (threads, meter), (threads, faults) and
    /// (faults, meter) pair — and the nightly run takes the full product.
    fn assert_matches_serial_reference(full_product: bool) {
        let faults = FaultConfig {
            seed: 0xFA_57,
            transient_rate: 0.2,
            ..FaultConfig::default()
        };
        let meters = [MeterPolicy::Full, MeterPolicy::Off];
        for (fi, fault_config) in [None, Some(faults)].into_iter().enumerate() {
            let (reference, ref_log) = run(1, MeterPolicy::Full, fault_config.clone());
            for (ti, threads) in super::THREADS.into_iter().enumerate() {
                for (mi, meter) in meters.into_iter().enumerate() {
                    if !full_product && mi != (fi + ti) % 2 {
                        continue;
                    }
                    let (digest, log_len) = run(threads, meter, fault_config.clone());
                    assert_eq!(
                        digest,
                        reference,
                        "diverged from the serial reference at {threads}t/{meter:?}/faults={}",
                        fault_config.is_some()
                    );
                    assert_eq!(
                        log_len, ref_log,
                        "the fault schedule shifted at {threads}t/{meter:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_is_bit_identical_across_threads_meters_faults() {
        assert_matches_serial_reference(false);
    }

    /// The full 2 faults × 4 threads × 2 meters product (nightly:
    /// `cargo test --release --test parallel_equivalence -- --ignored`).
    #[test]
    #[ignore = "full product; Tier-1 runs the pairwise-covering subset"]
    fn step_full_product_is_bit_identical() {
        assert_matches_serial_reference(true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random particle states, random variant, random fault seed: the
    /// parallel engine never drifts from the serial bits. A zero fault
    /// seed means "no injector"; everything else attaches one.
    #[test]
    fn random_states_are_bit_identical(
        seed in any::<u64>(),
        variant_ix in 0usize..ALL_VARIANTS.len(),
        fault_seed in any::<u64>(),
    ) {
        let box_size = 4.0;
        let hp = gas(3, box_size, seed);
        let faults = (fault_seed != 0).then(|| FaultConfig {
            seed: fault_seed,
            transient_rate: 0.15,
            corrupt_rate: 0.15,
            ..FaultConfig::default()
        });
        assert_equivalent(ALL_VARIANTS[variant_ix], 16, &hp, box_size, faults);
    }
}
