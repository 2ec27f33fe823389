//! Workload construction and kernel-timing measurements for the paper's
//! experiments.
//!
//! The measured object is one full hydro-step kernel sequence (the seven
//! timers of §5.4) plus the short-range gravity kernel, executed on a
//! Zel'dovich-displaced two-species snapshot — a scaled-down instance of
//! the paper's test problem (§3.4.2) whose per-particle interaction
//! structure matches production (the cost model's outputs are per-kernel
//! seconds; ratios between variants are resolution-independent once the
//! neighbor counts are realistic).

use hacc_cosmo::LinearPower;
use hacc_kernels::tuning::{hand_picked_knobs, variant_candidates};
use hacc_kernels::{
    run_gravity, run_hydro_step, DeviceParticles, GravityParams, HostParticles, Offload,
    TimerReport, Variant,
};
use hacc_mesh::{zeldovich_ics, ForceSplit, PolyShortRange};
use hacc_telemetry::Recorder;
use std::collections::BTreeMap;
use std::sync::Arc;
use sycl_sim::{
    Device, FaultConfig, FaultInjector, GpuArch, GrfMode, LaunchConfig, MeterPolicy, Toolchain,
    TunablePoint,
};

/// A benchmark problem instance: baryon snapshot + interaction geometry.
pub struct BenchProblem {
    /// Baryon particle state (grid units).
    pub particles: HostParticles,
    /// Periodic box side in grid units.
    pub box_size: f64,
    /// Interaction cutoff in grid units.
    pub r_cut: f64,
    /// Short-range force polynomial.
    pub poly: [f32; 6],
}

/// Builds the standard workload: an `n_side³` baryon snapshot displaced
/// by Zel'dovich initial conditions at z = 200 (the paper's starting
/// epoch), with SPH smoothing covering ~32 neighbors.
pub fn workload(n_side: usize, seed: u64) -> BenchProblem {
    // Scale the paper's 512³/177 Mpc/h problem down to n_side³ at fixed
    // mass resolution (box shrinks with the particle count).
    let spec = hacc_cosmo::BoxSpec::new(177.0 * n_side as f64 / 512.0, n_side, n_side);
    let power = LinearPower::new(hacc_cosmo::CosmoParams::planck2018());
    let ics = zeldovich_ics(&spec, &power, 200.0, seed);
    let ng = spec.ng as f64;
    let spacing = ng / spec.np as f64;
    let h0 = 1.3 * spacing;
    let a0 = ics.a_init;
    let particles = HostParticles {
        pos: ics.positions.clone(),
        vel: ics
            .velocities
            .iter()
            .map(|v| [v[0] * a0, v[1] * a0, v[2] * a0])
            .collect(),
        mass: vec![1.0; ics.positions.len()],
        h: vec![h0; ics.positions.len()],
        u: vec![1e-3; ics.positions.len()],
    };
    let r_cut = (2.0 * h0 * 1.25).max(4.0 * 1.2);
    let split = ForceSplit::new(1.2, r_cut);
    let poly_fit = PolyShortRange::fit(split, 5);
    BenchProblem {
        particles,
        box_size: ng,
        r_cut,
        poly: std::array::from_fn(|i| poly_fit.coeffs[i] as f32),
    }
}

/// One build to measure: variant + launch knobs — the workspace's one
/// pairing of a typed [`Variant`] with launch knobs (the tuning table's
/// `hacc_tune::TuneChoice` is its string-keyed wire form).
#[derive(Clone, Copy, Debug)]
pub struct VariantChoice {
    /// Communication variant.
    pub variant: Variant,
    /// Sub-group size.
    pub sg_size: usize,
    /// GRF mode.
    pub grf: GrfMode,
}

impl VariantChoice {
    /// The paper's launch configuration for a variant on an
    /// architecture — the Appendix-A table,
    /// [`hacc_kernels::tuning::hand_picked_knobs`]: sub-group 16 on
    /// Aurora via `HACC_SYCL_SG_SIZE` for the broadcast kernels
    /// (§5.3.2) and 32 otherwise, 32 on Polaris, 64 on Frontier, large
    /// GRF on Intel ("almost all results use 256 registers"), clamped
    /// to what the architecture supports anywhere else.
    pub fn paper_default(arch: &GpuArch, variant: Variant) -> Self {
        let (sg_size, grf) = hand_picked_knobs(arch, variant);
        Self {
            variant,
            sg_size,
            grf,
        }
    }

    /// The launch this build is measured with: the classic work-group
    /// rule and default bounds around its knobs, fully metered — the
    /// experiment sweeps exist to measure instruction mixes.
    pub fn launch(&self, arch: &GpuArch) -> LaunchConfig {
        TunablePoint::classic(self.sg_size, self.grf).apply_to(base_launch(arch, MeterPolicy::Full))
    }
}

/// The launch configuration every bench measurement starts from: the
/// default (auto-width parallel) execution policy — a speed knob only,
/// the bits do not depend on it — and the given metering mode.
pub(crate) fn base_launch(arch: &GpuArch, meter: MeterPolicy) -> LaunchConfig {
    LaunchConfig::defaults_for(arch).with_meter(meter)
}

/// The set-up of one measured build: the device, and the problem's
/// [`Offload`] at the variant's preferred leaf granularity for one
/// sub-group size. Built once; every run uploads a fresh particle
/// state, so repeated runs see bit-identical inputs.
pub(crate) struct Prepared {
    /// The device (with the fault injector, when one was asked for).
    pub device: Device,
    /// Communication variant the geometry was built for.
    pub variant: Variant,
    offload: Offload,
    gravity: GravityParams,
}

/// Builds the [`Prepared`] set-up for a (arch, toolchain, variant,
/// sub-group size) build, optionally installing a fault configuration
/// on the device.
pub(crate) fn prepare(
    arch: &GpuArch,
    toolchain: Toolchain,
    variant: Variant,
    sg_size: usize,
    problem: &BenchProblem,
    fault: Option<FaultConfig>,
) -> Prepared {
    let mut device = Device::new(arch.clone(), toolchain).expect("toolchain/arch mismatch");
    if let Some(cfg) = fault {
        device = device.with_fault_injector(Arc::new(FaultInjector::new(cfg)));
    }
    let offload = Offload::new(
        &problem.particles,
        problem.box_size,
        problem.r_cut,
        variant.preferred_leaf_capacity(sg_size),
        sg_size,
    )
    .expect("the benchmark problem is a valid offload");
    Prepared {
        device,
        variant,
        offload,
        gravity: GravityParams {
            poly: problem.poly,
            r_cut2: (problem.r_cut * problem.r_cut) as f32,
            soft2: 1e-4,
        },
    }
}

impl Prepared {
    /// A fresh device copy of the leaf-ordered particles.
    pub fn upload(&self) -> DeviceParticles {
        self.offload.upload()
    }

    /// The seven-timer hydro sequence on `data`. Panics when a launch
    /// fails beyond the retry/fallback budget — measured runs inject at
    /// most corruption and latency, which never fail a launch.
    pub fn hydro(
        &self,
        data: &DeviceParticles,
        launch: LaunchConfig,
        telemetry: &Recorder,
    ) -> Vec<TimerReport> {
        run_hydro_step(
            &self.device,
            data,
            &self.offload.work,
            self.variant,
            self.offload.box_size as f32,
            launch,
            telemetry,
        )
        .expect("measured hydro step must succeed")
    }

    /// The short-range gravity bracket on `data` (same contract as
    /// [`Prepared::hydro`]).
    pub fn gravity(
        &self,
        data: &DeviceParticles,
        launch: LaunchConfig,
        telemetry: &Recorder,
    ) -> TimerReport {
        run_gravity(
            &self.device,
            data,
            &self.offload.work,
            self.variant,
            self.offload.box_size as f32,
            self.gravity,
            launch,
            telemetry,
        )
        .expect("measured gravity launch must succeed")
    }
}

/// Executes one full measured kernel sequence (hydro step + gravity)
/// for a (arch, toolchain, variant, launch) build and returns its
/// telemetry: spans, per-launch kernel profiles, timer events. `fault`
/// optionally installs a fault configuration on the device — the
/// health report's slow-kernel check uses the injector's latency knob
/// to manufacture a known regression. Every bench measurement that
/// reads telemetry goes through here.
pub fn measure(
    arch: &GpuArch,
    toolchain: Toolchain,
    variant: Variant,
    launch: LaunchConfig,
    problem: &BenchProblem,
    fault: Option<FaultConfig>,
) -> Recorder {
    let prepared = prepare(arch, toolchain, variant, launch.sg_size, problem, fault);
    let data = prepared.upload();
    let telemetry = Recorder::new();
    {
        let _span = telemetry.span("measure");
        prepared.hydro(&data, launch, &telemetry);
        prepared.gravity(&data, launch, &telemetry);
    }
    telemetry
}

/// Captures the full telemetry of one measured kernel sequence at a
/// build's own launch configuration.
pub fn profile_run(
    arch: &GpuArch,
    toolchain: Toolchain,
    choice: VariantChoice,
    problem: &BenchProblem,
) -> Recorder {
    let launch = choice.launch(arch);
    measure(arch, toolchain, choice.variant, launch, problem, None)
}

/// Per-timer simulated seconds recorded in a measured run's telemetry.
pub(crate) fn timer_seconds(telemetry: &Recorder) -> BTreeMap<String, f64> {
    hacc_telemetry::timer_totals(&telemetry.events())
        .into_iter()
        .map(|(name, seconds, _calls)| (name, seconds))
        .collect()
}

/// Per-timer simulated seconds for one (arch, toolchain, choice) run.
pub(crate) fn kernel_seconds(
    arch: &GpuArch,
    toolchain: Toolchain,
    choice: VariantChoice,
    problem: &BenchProblem,
) -> BTreeMap<String, f64> {
    timer_seconds(&profile_run(arch, toolchain, choice, problem))
}

/// Runs every variant on one architecture and returns
/// `variant → timer → seconds`.
pub struct ArchRun {
    /// Architecture measured.
    pub arch: GpuArch,
    /// Per-variant timer seconds.
    pub by_variant: BTreeMap<&'static str, BTreeMap<String, f64>>,
}

/// Variants measurable on an architecture (vISA is Intel-only): the
/// legal-variant list with the vISA toolchain available.
pub fn variants_for(arch: &GpuArch) -> Vec<Variant> {
    variant_candidates(arch, true)
}

/// Measures all variants on one architecture with the paper's SYCL
/// toolchain defaults.
pub fn run_all_variants(arch: &GpuArch, problem: &BenchProblem) -> ArchRun {
    let mut by_variant = BTreeMap::new();
    for variant in variants_for(arch) {
        let choice = VariantChoice::paper_default(arch, variant);
        let secs = kernel_seconds(arch, variant.toolchain(), choice, problem);
        by_variant.insert(variant.label(), secs);
    }
    ArchRun {
        arch: arch.clone(),
        by_variant,
    }
}

/// Per-kernel best seconds over all variants (the "hypothetical
/// application" reference of Figure 12).
pub(crate) fn best_per_kernel(run: &ArchRun) -> BTreeMap<String, f64> {
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for timers in run.by_variant.values() {
        for (k, &v) in timers {
            best.entry(k.clone())
                .and_modify(|b| *b = b.min(v))
                .or_insert(v);
        }
    }
    best
}

/// Total seconds of a timer map (all kernels).
pub fn total_seconds(timers: &BTreeMap<String, f64>) -> f64 {
    timers.values().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::ExecutionPolicy;

    fn tiny() -> BenchProblem {
        workload(8, 1)
    }

    #[test]
    fn workload_is_well_formed() {
        let p = tiny();
        assert_eq!(p.particles.len(), 512);
        p.particles.validate().unwrap();
        assert!(p.r_cut > 2.0 * 1.3, "cutoff covers the kernel support");
    }

    #[test]
    fn kernel_seconds_reports_all_timers() {
        let p = tiny();
        let arch = GpuArch::frontier();
        let secs = kernel_seconds(
            &arch,
            Toolchain::sycl(),
            VariantChoice::paper_default(&arch, Variant::Select),
            &p,
        );
        for t in hacc_kernels::HYDRO_TIMERS {
            assert!(secs.get(t).copied().unwrap_or(0.0) > 0.0, "timer {t}");
        }
        assert!(secs["upGrav"] > 0.0);
    }

    #[test]
    fn kernel_seconds_matches_telemetry_timer_events() {
        let p = tiny();
        let arch = GpuArch::aurora();
        let choice = VariantChoice::paper_default(&arch, Variant::Memory32);
        let secs = kernel_seconds(&arch, Toolchain::sycl(), choice, &p);
        let telemetry = profile_run(&arch, Toolchain::sycl(), choice, &p);
        for (name, seconds, _calls) in hacc_telemetry::timer_totals(&telemetry.events()) {
            assert_eq!(secs[&name], seconds, "{name} diverged between paths");
        }
    }

    /// Conservation: the per-launch instruction histograms recorded as
    /// telemetry must partition the simulator's global meter totals —
    /// summing the `Kernel`-event histograms reproduces the merged
    /// `LaunchStats` of every timer bracket exactly. Checked under the
    /// serial reference path, under the parallel scheduler at several
    /// thread counts, and with a corrupting fault injector attached (the
    /// reports' injected-fault counts must reconcile with the injector
    /// log at every thread count).
    fn check_histograms_conserve(exec: ExecutionPolicy, corrupt_rate: f64) {
        use sycl_sim::FaultKind;
        let p = tiny();
        let arch = GpuArch::frontier();
        let choice = VariantChoice::paper_default(&arch, Variant::Select);
        let fault = (corrupt_rate > 0.0).then(|| FaultConfig {
            seed: 42,
            corrupt_rate,
            ..FaultConfig::default()
        });
        let prepared = prepare(
            &arch,
            Toolchain::sycl(),
            choice.variant,
            choice.sg_size,
            &p,
            fault,
        );
        let telemetry = Recorder::new();
        let reports = prepared.hydro(
            &prepared.upload(),
            choice.launch(&arch).with_exec(exec),
            &telemetry,
        );

        let mut meter_totals = [0u64; hacc_telemetry::N_INSTR_CLASSES];
        for r in &reports {
            for (slot, c) in meter_totals.iter_mut().zip(r.report.stats.counts.iter()) {
                *slot += c;
            }
        }
        let telemetry_totals = hacc_telemetry::kernel_instr_totals(&telemetry.events());
        assert_eq!(
            telemetry_totals, meter_totals,
            "histograms must conserve meter counts under {exec:?}"
        );

        // The per-bracket profiles attached to each report agree too.
        for r in &reports {
            let mut bracket = [0u64; hacc_telemetry::N_INSTR_CLASSES];
            for profile in &r.profiles {
                for (slot, c) in bracket.iter_mut().zip(profile.instr.iter()) {
                    *slot += c;
                }
            }
            assert_eq!(bracket, r.report.stats.counts, "bracket {}", r.timer);
        }

        // Fault reconciliation: corrupted words counted in the reports
        // match the injector's log exactly, regardless of thread count.
        if let Some(inj) = &prepared.device.fault {
            let reported: u32 = reports.iter().map(|r| r.report.injected_faults).sum();
            assert_eq!(
                reported as usize,
                inj.injected_of(FaultKind::Corruption),
                "report fault counts must reconcile with the injector log under {exec:?}"
            );
            assert!(reported > 0, "corrupt_rate 1.0 must inject");
        }
    }

    #[test]
    fn per_launch_histograms_sum_to_meter_totals() {
        check_histograms_conserve(ExecutionPolicy::Serial, 0.0);
        for threads in [1usize, 2, 4, 8] {
            check_histograms_conserve(ExecutionPolicy::Parallel { threads }, 0.0);
        }
    }

    #[test]
    fn per_launch_histograms_reconcile_with_fault_log_in_parallel() {
        check_histograms_conserve(ExecutionPolicy::Serial, 1.0);
        for threads in [1usize, 2, 4, 8] {
            check_histograms_conserve(ExecutionPolicy::Parallel { threads }, 1.0);
        }
    }

    #[test]
    fn paper_default_launches_on_every_arch_and_legal_variant() {
        // The CPU host included: its sub-group sizes stop at 16, and the
        // Appendix-A table must clamp to that rather than hand out 64.
        let p = workload(4, 3);
        for arch in GpuArch::all_with_cpu() {
            for variant in variants_for(&arch) {
                let choice = VariantChoice::paper_default(&arch, variant);
                let what = format!("{} / {}", arch.id, variant.label());
                assert!(
                    TunablePoint::classic(choice.sg_size, choice.grf).is_valid(&arch),
                    "{what}: sg {} / {:?} is not a legal point",
                    choice.sg_size,
                    choice.grf
                );
                let prepared = prepare(
                    &arch,
                    variant.toolchain(),
                    variant,
                    choice.sg_size,
                    &p,
                    None,
                );
                let launch = choice.launch(&arch).with_exec(ExecutionPolicy::Serial);
                let reports = prepared.hydro(&prepared.upload(), launch, &Recorder::new());
                assert_eq!(reports.len(), 7, "{what}");
                assert_eq!(reports[0].report.sg_size, choice.sg_size, "{what}");
            }
        }
    }

    #[test]
    fn visa_only_measured_on_intel() {
        assert!(variants_for(&GpuArch::aurora()).contains(&Variant::Visa));
        assert!(!variants_for(&GpuArch::polaris()).contains(&Variant::Visa));
    }

    #[test]
    fn best_per_kernel_is_lower_envelope() {
        let p = tiny();
        let run = run_all_variants(&GpuArch::polaris(), &p);
        let best = best_per_kernel(&run);
        for timers in run.by_variant.values() {
            for (k, &v) in timers {
                assert!(best[k] <= v + 1e-15);
            }
        }
    }
}
