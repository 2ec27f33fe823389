//! The simulated device and kernel-launch machinery.
//!
//! A [`Device`] pairs an architecture with a toolchain; `launch` executes
//! a kernel functor over an ND-range (mirroring the SYCL function-object
//! launch style the migration pipeline produces — paper Figure 1c),
//! merging each sub-group's metered statistics into a [`LaunchReport`].

use crate::arch::{GpuArch, GrfMode};
use crate::buffer::Buffer;
use crate::commit::{plan_commit, AtomicOp};
use crate::cost::CostModel;
use crate::exec::ExecutionPolicy;
use crate::fault::{FaultInjector, LaunchError};
use crate::meter::{InstrClass, LaunchStats, MeterPolicy};
use crate::subgroup::{Sg, SgConfig};
use crate::toolchain::Toolchain;
use crate::tunable::LaunchBounds;
use hacc_telemetry::KernelProfile;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A kernel function object (the analogue of the SYCL functor kernels the
/// migration tooling generates; §4.2).
pub trait SgKernel: Sync {
    /// Kernel name, as referenced by CRK-HACC's launch wrappers.
    fn name(&self) -> &str;

    /// Executes the kernel body for one sub-group.
    fn run(&self, sg: &mut Sg);

    /// The buffers this kernel writes — the corruption surface an attached
    /// [`FaultInjector`] may silently damage after a successful launch.
    /// Kernels that do not opt in are immune to injected corruption.
    fn output_buffers(&self) -> Vec<Buffer> {
        Vec::new()
    }
}

/// Sizes the launch thread pool: the requested width (`0` = auto, meaning
/// `rayon::current_num_threads()` — an installed pool, `RAYON_NUM_THREADS`,
/// or everything the host has) clamped to the host's available
/// parallelism and to the number of work items, never below 1.
///
/// The clamps are an oversubscription fix: asking for 8 workers on a
/// 2-core host used to *spawn* 8 threads, whose contention made
/// parallel(8) slower than parallel(2). Worker count also never exceeds
/// the work-group count — extra threads could only idle at the dispatch
/// barrier.
pub(crate) fn effective_workers(requested: usize, available: usize, work_items: usize) -> usize {
    let requested = if requested == 0 {
        rayon::current_num_threads()
    } else {
        requested
    };
    requested
        .min(available.max(1))
        .min(work_items.max(1))
        .max(1)
}

/// The host's available parallelism (1 when the query fails).
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker thread panicked".to_string()
    }
}

/// Blanket implementation so closures can be launched directly in tests.
impl<F: Fn(&mut Sg) + Sync> SgKernel for F {
    fn name(&self) -> &str {
        "<closure>"
    }
    fn run(&self, sg: &mut Sg) {
        self(sg)
    }
}

/// Launch geometry and tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Sub-group size (must be supported by the architecture; §4.3).
    pub sg_size: usize,
    /// Work-group size (CRK-HACC uses `HACC_CUDA_BLOCK_SIZE=128`).
    pub wg_size: usize,
    /// Register-file mode (§5.2).
    pub grf: GrfMode,
    /// Host-side execution policy: serial reference path or work-group
    /// fan-out over a thread pool with deterministic atomic commit. Both
    /// produce bit-identical results.
    pub exec: ExecutionPolicy,
    /// Metering policy: whether sub-group meters record. Bookkeeping
    /// only — both policies produce bit-identical buffer contents.
    pub meter: MeterPolicy,
    /// Per-work-item register cap (`__launch_bounds__`-style occupancy
    /// trade). [`LaunchBounds::Default`] leaves the cost model exactly
    /// as before; a cap is purely a cost-model knob — buffer contents
    /// are bit-identical either way.
    pub bounds: LaunchBounds,
}

impl LaunchConfig {
    /// The paper's default configuration for an architecture: work-group
    /// size 128 and the sub-group size used in Appendix A
    /// (16 on Aurora after optimization, 32 on Polaris, 64 on Frontier).
    pub fn defaults_for(arch: &GpuArch) -> Self {
        let sg_size = arch.max_sg_size();
        Self {
            sg_size,
            wg_size: 128,
            grf: GrfMode::Default,
            exec: ExecutionPolicy::default(),
            meter: MeterPolicy::default(),
            bounds: LaunchBounds::Default,
        }
    }

    /// Overrides the sub-group size.
    pub fn with_sg_size(mut self, sg: usize) -> Self {
        self.sg_size = sg;
        self
    }

    /// Overrides the GRF mode.
    pub fn with_grf(mut self, grf: GrfMode) -> Self {
        self.grf = grf;
        self
    }

    /// Overrides the execution policy.
    pub fn with_exec(mut self, exec: ExecutionPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Caps the parallel scheduler at `threads` workers (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.exec = ExecutionPolicy::Parallel { threads };
        self
    }

    /// Overrides the metering policy.
    pub fn with_meter(mut self, meter: MeterPolicy) -> Self {
        self.meter = meter;
        self
    }

    /// Overrides the launch-bounds register cap.
    pub fn with_bounds(mut self, bounds: LaunchBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Overrides the work-group size.
    pub fn with_wg_size(mut self, wg: usize) -> Self {
        self.wg_size = wg;
        self
    }

    /// Forces the serial reference path (bit-identical to parallel, but
    /// single-threaded — useful as the baseline in equivalence tests).
    pub fn deterministic(mut self) -> Self {
        self.exec = ExecutionPolicy::Serial;
        self
    }
}

/// Metered results of one kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// Aggregated instruction counts and register peaks.
    pub stats: LaunchStats,
    /// Sub-group size used.
    pub sg_size: usize,
    /// Work-group size used.
    pub wg_size: usize,
    /// GRF mode used.
    pub grf: GrfMode,
    /// Launch-bounds register cap used.
    pub bounds: LaunchBounds,
    /// Local-memory footprint per work-group, bytes (sub-group slabs are
    /// disjoint within the work-group; §5.3.1).
    pub local_bytes_per_wg: u32,
    /// Output-buffer words silently corrupted by an attached fault
    /// injector during this launch (0 without injection).
    pub injected_faults: u32,
    /// Scheduler statistics of the work-group dispatch (queue depth,
    /// steals, barrier wait) — `None` on the serial path, where no
    /// scheduling happens. Wall-clock-derived, so informational rather
    /// than part of the deterministic cost model.
    pub sched: Option<rayon::SchedStats>,
}

/// A simulated GPU: architecture + toolchain, plus an optional seeded
/// fault injector modelling the failure surface of a real exascale device.
#[derive(Clone, Debug)]
pub struct Device {
    /// The architecture model.
    pub arch: GpuArch,
    /// The build toolchain.
    pub toolchain: Toolchain,
    /// Deterministic fault injector; `None` (the default) makes `launch`
    /// infallible in practice and byte-identical to the pre-fault code.
    pub fault: Option<Arc<FaultInjector>>,
}

impl Device {
    /// Creates a device, validating toolchain/architecture compatibility.
    pub fn new(arch: GpuArch, toolchain: Toolchain) -> Result<Self, LaunchError> {
        if arch.sg_sizes.is_empty() {
            return Err(LaunchError::Config {
                message: format!("{} declares no sub-group sizes", arch.gpu_name),
            });
        }
        if !toolchain.supports(&arch) {
            return Err(LaunchError::Config {
                message: format!(
                    "{} does not target {} ({})",
                    toolchain.lang.name(),
                    arch.system,
                    arch.gpu_name
                ),
            });
        }
        Ok(Self {
            arch,
            toolchain,
            fault: None,
        })
    }

    /// Attaches a fault injector (builder style).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    /// Launches `kernel` over `n_subgroups` sub-group instances.
    ///
    /// CRK-HACC's leaf-pair kernels map one interaction pair per sub-group,
    /// so the launch count is the work-list length.
    ///
    /// Injected launch failures are fail-stop: they are raised *before*
    /// the kernel body runs, so a retry never double-applies atomic
    /// accumulations. Injected corruption happens after a successful run
    /// and is visible only in the report's `injected_faults` count (and,
    /// eventually, to a state guard downstream).
    pub fn launch<K: SgKernel>(
        &self,
        kernel: &K,
        n_subgroups: usize,
        cfg: LaunchConfig,
    ) -> Result<LaunchReport, LaunchError> {
        if !self.arch.supports_sg_size(cfg.sg_size) {
            return Err(LaunchError::Config {
                message: format!(
                    "{} does not support sub-group size {} (supported: {:?})",
                    self.arch.gpu_name, cfg.sg_size, self.arch.sg_sizes
                ),
            });
        }
        if !cfg.wg_size.is_multiple_of(cfg.sg_size) {
            return Err(LaunchError::Config {
                message: format!(
                    "work-group size {} must be a multiple of the sub-group size {}",
                    cfg.wg_size, cfg.sg_size
                ),
            });
        }
        let ordinal = self.fault.as_ref().map(|inj| {
            let ord = inj.next_ordinal(kernel.name());
            (inj, ord)
        });
        if let Some((inj, ord)) = &ordinal {
            if let Some(err) = inj.launch_fault(kernel.name(), *ord) {
                return Err(err);
            }
        }
        let sg_cfg = SgConfig::for_arch(
            &self.arch,
            self.toolchain.fast_math,
            self.toolchain.enable_visa,
        )
        .with_meter(cfg.meter);
        let (stats, sched) = match cfg.exec {
            ExecutionPolicy::Serial => {
                let mut acc = LaunchStats::default();
                for sg_id in 0..n_subgroups {
                    let mut sg = Sg::new(sg_id, cfg.sg_size, sg_cfg);
                    kernel.run(&mut sg);
                    debug_assert_eq!(
                        sg.meter().live_regs(),
                        0,
                        "kernel leaked Lanes registers (sub-group {sg_id})"
                    );
                    acc.merge(&sg.meter().snapshot());
                }
                (acc, None)
            }
            ExecutionPolicy::Parallel { threads } => {
                self.launch_parallel(kernel, n_subgroups, &cfg, sg_cfg, threads)?
            }
        };
        let injected_faults = match &ordinal {
            Some((inj, ord)) => inj.corrupt(kernel.name(), *ord, &kernel.output_buffers()),
            None => 0,
        };
        let sg_per_wg = (cfg.wg_size / cfg.sg_size) as u32;
        Ok(LaunchReport {
            kernel: kernel.name().to_string(),
            local_bytes_per_wg: stats.local_bytes_per_sg * sg_per_wg,
            stats,
            sg_size: cfg.sg_size,
            wg_size: cfg.wg_size,
            grf: cfg.grf,
            bounds: cfg.bounds,
            injected_faults,
            sched,
        })
    }

    /// The deterministic work-group scheduler behind
    /// [`ExecutionPolicy::Parallel`].
    ///
    /// Independent work-groups (`wg_size / sg_size` consecutive sub-groups
    /// each) fan out across a scoped thread pool. Every sub-group runs
    /// with a private meter and a *deferred* atomic log; once all
    /// work-groups finish, meters are merged and the logs replayed in
    /// (work-group id → sub-group id → instruction → lane) order — the
    /// exact sequence the serial path issues — so the launch result is
    /// bit-identical to [`ExecutionPolicy::Serial`] at any thread count.
    /// The replay itself is planned into per-cache-line buckets
    /// ([`plan_commit`]) drained concurrently by the pool, which preserves
    /// that sequence per cell (the only order FP32 accumulation can
    /// observe) while buckets proceed in parallel on disjoint lines.
    ///
    /// The pool width comes from [`effective_workers`]: the requested
    /// thread count clamped to the host's available parallelism and the
    /// work-group count.
    ///
    /// A worker panic (e.g. an out-of-bounds buffer index inside a kernel
    /// body) is caught per work-group and surfaced as
    /// [`LaunchError::Worker`]; no deferred atomics are committed in that
    /// case, keeping the failure fail-stop like injected launch faults.
    fn launch_parallel<K: SgKernel>(
        &self,
        kernel: &K,
        n_subgroups: usize,
        cfg: &LaunchConfig,
        sg_cfg: SgConfig,
        threads: usize,
    ) -> Result<(LaunchStats, Option<rayon::SchedStats>), LaunchError> {
        let sg_per_wg = cfg.wg_size / cfg.sg_size;
        let n_wgs = n_subgroups.div_ceil(sg_per_wg);
        let run_wg = |wg: usize| -> Result<(LaunchStats, Vec<AtomicOp>), LaunchError> {
            catch_unwind(AssertUnwindSafe(|| {
                let mut stats = LaunchStats::default();
                let mut ops: Vec<AtomicOp> = Vec::new();
                let lo = wg * sg_per_wg;
                let hi = (lo + sg_per_wg).min(n_subgroups);
                for sg_id in lo..hi {
                    let mut sg = Sg::new_deferred(sg_id, cfg.sg_size, sg_cfg);
                    kernel.run(&mut sg);
                    debug_assert_eq!(
                        sg.meter().live_regs(),
                        0,
                        "kernel leaked Lanes registers (sub-group {sg_id})"
                    );
                    stats.merge(&sg.meter().snapshot());
                    ops.extend(sg.take_pending());
                }
                (stats, ops)
            }))
            .map_err(|payload| LaunchError::Worker {
                kernel: kernel.name().to_string(),
                message: panic_message(payload.as_ref()),
            })
        };
        let workers = effective_workers(threads, host_parallelism(), n_wgs);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .map_err(|e| LaunchError::Config {
                message: format!("failed to build launch thread pool: {e}"),
            })?;
        let results: Vec<Result<(LaunchStats, Vec<AtomicOp>), LaunchError>> =
            pool.install(|| (0..n_wgs).into_par_iter().map(run_wg).collect());
        // The shim parks the dispatch's scheduler statistics on the
        // calling thread; read them before the commit phase's own
        // dispatch overwrites them. These describe the work-group
        // fan-out — the scheduling the launch layer wants to observe.
        let sched = rayon::last_sched_stats();
        // Fail-stop: if any work-group died, commit nothing.
        if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
            return Err(err.clone());
        }
        let mut acc = LaunchStats::default();
        let mut ops: Vec<AtomicOp> = Vec::new();
        for r in results {
            let (stats, wg_ops) = r.expect("errors handled above");
            acc.merge(&stats);
            ops.extend(wg_ops);
        }
        // Commit phase. The pairwise kernels are accumulation-heavy, so
        // the replay dominates atomic-bound launches. One planning pass
        // buckets the log by target (buffer, cache line) — preserving the
        // canonical per-cell order, the only order FP32 accumulation can
        // observe — and the pool's work-stealing block claiming drains
        // the independent buckets concurrently. Bit-identical to a serial
        // replay at any worker count or schedule.
        if workers <= 1 || ops.len() < 64 {
            for op in &ops {
                op.apply();
            }
        } else {
            let buckets = plan_commit(&ops);
            let buckets = &buckets;
            pool.install(|| {
                (0..buckets.len())
                    .into_par_iter()
                    .for_each(|b| buckets[b].apply());
            });
        }
        Ok((acc, sched))
    }

    /// Builds the telemetry [`KernelProfile`] for one launch report.
    ///
    /// The `timer` and `variant` fields are left empty here — the
    /// launch layer that knows which CRK-HACC bucket and communication
    /// variant produced the launch fills them in before emitting.
    /// `bytes_moved` assumes fully coalesced FP32 accesses: one global
    /// vector instruction touches `sg_size` 4-byte words.
    ///
    /// An attached fault injector's per-kernel latency multiplier
    /// (`FaultConfig::slow_kernels`) is applied here, scaling the time
    /// estimate deterministically — the hook the observability
    /// acceptance test uses to plant a known regression.
    pub fn profile(&self, report: &LaunchReport) -> KernelProfile {
        let mut est = CostModel::new(self.arch.clone()).estimate(report);
        if let Some(inj) = &self.fault {
            est.seconds *= inj.latency_multiplier(&report.kernel);
        }
        let stats = &report.stats;
        let global_ops = stats.count(InstrClass::GlobalLoad) + stats.count(InstrClass::GlobalStore);
        KernelProfile {
            kernel: report.kernel.clone(),
            timer: String::new(),
            variant: String::new(),
            arch: self.arch.id.to_string(),
            sg_size: report.sg_size as u64,
            wg_size: report.wg_size as u64,
            n_subgroups: stats.n_subgroups,
            instr: stats.counts,
            peak_regs: est.peak_regs as u64,
            spilled_regs: est.spilled_regs as u64,
            local_bytes_per_wg: report.local_bytes_per_wg as u64,
            bytes_moved: global_ops * report.sg_size as u64 * 4,
            est_seconds: est.seconds,
            stall_mult: est.stall_mult(),
            occupancy: est.occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::meter::InstrClass as C;
    use crate::toolchain::Toolchain;

    fn device() -> Device {
        Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap()
    }

    #[test]
    fn launch_aggregates_across_subgroups() {
        let dev = device();
        let out = Buffer::zeros(1);
        let out2 = out.clone();
        let kernel = move |sg: &mut Sg| {
            let v = sg.splat_f32(1.0);
            let idx = sg.splat_u32(0);
            let mask = sg.splat_bool(true);
            sg.atomic_add(&out2, &idx, &v, &mask);
        };
        let cfg = LaunchConfig::defaults_for(&dev.arch).with_sg_size(32);
        let report = dev.launch(&kernel, 10, cfg).unwrap();
        assert_eq!(report.stats.n_subgroups, 10);
        assert_eq!(report.injected_faults, 0);
        assert_eq!(report.stats.count(C::AtomicNative), 10 * 32);
        assert_eq!(out.read_f32(0), 320.0);
    }

    #[test]
    fn parallel_commit_is_bit_identical_to_serial() {
        // Colliding atomic adds with values spread over many magnitudes:
        // any change in accumulation order changes the FP32 result bits.
        let dev = device();
        let run = |exec: ExecutionPolicy| -> (Vec<u32>, LaunchStats) {
            let out = Buffer::zeros(8);
            let out2 = out.clone();
            let kernel = move |sg: &mut Sg| {
                let idx = sg.lane_id().mod_scalar(8);
                let v = sg.from_fn_f32(|l| {
                    let m = ((sg.sg_id * 31 + l * 7) % 23) as i32 - 11;
                    (1.0f32 + l as f32 / 64.0) * (2.0f32).powi(m)
                });
                let mask = sg.splat_bool(true);
                sg.atomic_add(&out2, &idx, &v, &mask);
                let low = sg.lane_id().lt_scalar(8);
                let small = sg.from_fn_f32(|l| -(l as f32) * 0.125);
                sg.atomic_min(&out2, &idx, &small, &low);
            };
            let cfg = LaunchConfig::defaults_for(&dev.arch)
                .with_sg_size(32)
                .with_exec(exec);
            let report = dev.launch(&kernel, 37, cfg).unwrap();
            (out.to_u32_vec(), report.stats)
        };
        let (serial_bits, serial_stats) = run(ExecutionPolicy::Serial);
        for threads in [1usize, 2, 4, 8] {
            let (bits, stats) = run(ExecutionPolicy::Parallel { threads });
            assert_eq!(bits, serial_bits, "bit divergence at {threads} threads");
            assert_eq!(stats, serial_stats, "meter divergence at {threads} threads");
        }
    }

    #[test]
    fn worker_panic_is_a_typed_fail_stop_error() {
        let dev = device();
        let out = Buffer::zeros(4);
        let out2 = out.clone();
        let kernel = move |sg: &mut Sg| {
            let idx = sg.splat_u32(0);
            let v = sg.splat_f32(1.0);
            let mask = sg.splat_bool(true);
            sg.atomic_add(&out2, &idx, &v, &mask);
            if sg.sg_id == 5 {
                panic!("injected worker failure");
            }
        };
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .with_threads(4);
        let err = dev.launch(&kernel, 8, cfg).unwrap_err();
        match &err {
            crate::fault::LaunchError::Worker { kernel, message } => {
                assert_eq!(kernel, "<closure>");
                assert!(message.contains("injected worker failure"), "{message}");
            }
            other => panic!("expected Worker error, got {other:?}"),
        }
        assert!(!err.is_retryable());
        // Fail-stop: no deferred atomics were committed.
        assert_eq!(out.read_f32(0), 0.0);
    }

    #[test]
    fn serial_and_parallel_launches_agree_on_counts() {
        let dev = device();
        let kernel = |sg: &mut Sg| {
            let a = sg.from_fn_f32(|l| l as f32);
            let b = sg.shuffle_xor(&a, 7);
            let _ = &a * &b;
        };
        let cfg = LaunchConfig::defaults_for(&dev.arch);
        let par = dev.launch(&kernel, 25, cfg).unwrap();
        let ser = dev.launch(&kernel, 25, cfg.deterministic()).unwrap();
        assert_eq!(par.stats, ser.stats);
    }

    #[test]
    fn incompatible_toolchain_is_rejected() {
        assert!(Device::new(GpuArch::aurora(), Toolchain::cuda()).is_err());
        assert!(Device::new(GpuArch::polaris(), Toolchain::hip()).is_err());
        assert!(Device::new(GpuArch::aurora(), Toolchain::sycl_visa()).is_ok());
        assert!(Device::new(GpuArch::frontier(), Toolchain::sycl_visa()).is_err());
    }

    #[test]
    fn unsupported_sg_size_is_a_config_error() {
        let dev = Device::new(GpuArch::polaris(), Toolchain::sycl()).unwrap();
        let kernel = |_: &mut Sg| {};
        let err = dev
            .launch(
                &kernel,
                1,
                LaunchConfig::defaults_for(&dev.arch).with_sg_size(16),
            )
            .unwrap_err();
        match err {
            crate::fault::LaunchError::Config { message } => {
                assert!(message.contains("sub-group size"), "{message}");
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        let bad_wg = LaunchConfig {
            sg_size: 32,
            wg_size: 100,
            grf: GrfMode::Default,
            exec: ExecutionPolicy::Serial,
            meter: MeterPolicy::Full,
            bounds: LaunchBounds::Default,
        };
        assert!(dev.launch(&kernel, 1, bad_wg).is_err());
    }

    #[test]
    fn local_memory_scales_to_work_group() {
        let dev = Device::new(GpuArch::aurora(), Toolchain::sycl()).unwrap();
        let kernel = |sg: &mut Sg| {
            let x = sg.from_fn_f32(|l| l as f32);
            let idx = sg.lane_id().xor_scalar(1);
            let _ = sg.local_exchange(&x, &idx);
        };
        let cfg = LaunchConfig {
            sg_size: 32,
            wg_size: 128,
            grf: GrfMode::Default,
            exec: ExecutionPolicy::Serial,
            meter: MeterPolicy::Full,
            bounds: LaunchBounds::Default,
        };
        let report = dev.launch(&kernel, 4, cfg).unwrap();
        // 4 sub-groups per work-group × 32 lanes × 4 bytes.
        assert_eq!(report.local_bytes_per_wg, 4 * 32 * 4);
    }

    #[test]
    fn fast_math_flag_reaches_the_meter() {
        let cuda = Device::new(GpuArch::polaris(), Toolchain::cuda()).unwrap();
        let cuda_fm = Device::new(GpuArch::polaris(), Toolchain::cuda_fast_math()).unwrap();
        let kernel = |sg: &mut Sg| {
            let x = sg.splat_f32(2.0);
            let _ = x.rsqrt();
        };
        let cfg = LaunchConfig::defaults_for(&cuda.arch);
        let precise = cuda.launch(&kernel, 1, cfg).unwrap();
        let fast = cuda_fm.launch(&kernel, 1, cfg).unwrap();
        assert_eq!(precise.stats.count(C::MathPrecise), 1);
        assert_eq!(precise.stats.count(C::MathFast), 0);
        assert_eq!(fast.stats.count(C::MathFast), 1);
    }

    #[test]
    fn telemetry_slot_order_matches_meter_classes() {
        // The telemetry crate is a leaf and re-declares the histogram
        // layout; this test pins the two together.
        assert_eq!(crate::meter::N_CLASSES, hacc_telemetry::N_INSTR_CLASSES);
        for (class, label) in crate::meter::ALL_CLASSES
            .iter()
            .zip(hacc_telemetry::INSTR_CLASS_LABELS.iter())
        {
            assert_eq!(class.label(), *label, "slot {} diverged", *class as usize);
        }
    }

    #[test]
    fn profile_mirrors_launch_report_and_cost_model() {
        let dev = device();
        let kernel = |sg: &mut Sg| {
            let a = sg.from_fn_f32(|l| l as f32);
            let b = sg.shuffle_xor(&a, 1);
            let _ = &a * &b;
        };
        let cfg = LaunchConfig::defaults_for(&dev.arch).deterministic();
        let report = dev.launch(&kernel, 8, cfg).unwrap();
        let profile = dev.profile(&report);
        let est = CostModel::new(dev.arch.clone()).estimate(&report);

        assert_eq!(profile.arch, dev.arch.id);
        assert_eq!(profile.instr, report.stats.counts);
        assert_eq!(profile.n_subgroups, 8);
        assert_eq!(profile.sg_size, report.sg_size as u64);
        assert_eq!(profile.est_seconds, est.seconds);
        assert_eq!(profile.stall_mult, est.stall_mult());
        assert_eq!(profile.peak_regs, est.peak_regs as u64);
        let global = report.stats.count(C::GlobalLoad) + report.stats.count(C::GlobalStore);
        assert_eq!(profile.bytes_moved, global * report.sg_size as u64 * 4);
        assert!(profile.timer.is_empty() && profile.variant.is_empty());
    }

    #[test]
    fn parallel_launch_reports_scheduler_stats() {
        let dev = device();
        let kernel = |sg: &mut Sg| {
            let a = sg.from_fn_f32(|l| l as f32);
            let _ = &a * &a;
        };
        let par = dev
            .launch(
                &kernel,
                640,
                LaunchConfig::defaults_for(&dev.arch).with_threads(4),
            )
            .unwrap();
        let sched = par.sched.expect("parallel launches record sched stats");
        // 640 sub-groups at wg 128 / sg 64 = 2 sg per wg → 320 items.
        assert_eq!(sched.items, 320);
        // Pool width: the request clamped by host cores and work-groups.
        assert_eq!(sched.workers, effective_workers(4, host_parallelism(), 320));
        assert!(sched.queue_depth >= 1);
        assert!(sched.elapsed_ns > 0);

        let ser = dev
            .launch(
                &kernel,
                640,
                LaunchConfig::defaults_for(&dev.arch).deterministic(),
            )
            .unwrap();
        assert!(ser.sched.is_none(), "serial path has no scheduler");
        assert_eq!(ser.stats, par.stats, "stats stay bit-identical");
    }

    #[test]
    fn latency_knob_scales_the_profile_deterministically() {
        use crate::fault::{FaultConfig, FaultInjector};
        let kernel = |sg: &mut Sg| {
            let a = sg.from_fn_f32(|l| l as f32);
            let b = sg.shuffle_xor(&a, 1);
            let _ = &a * &b;
        };
        let cfg = LaunchConfig::defaults_for(&device().arch).deterministic();
        let clean = device();
        let slow =
            device().with_fault_injector(std::sync::Arc::new(FaultInjector::new(FaultConfig {
                slow_kernels: vec![("<closure>".to_string(), 4.0)],
                ..FaultConfig::default()
            })));
        let clean_profile = clean.profile(&clean.launch(&kernel, 16, cfg).unwrap());
        let slow_profile = slow.profile(&slow.launch(&kernel, 16, cfg).unwrap());
        assert_eq!(slow_profile.est_seconds, clean_profile.est_seconds * 4.0);
        assert_eq!(
            slow_profile.instr, clean_profile.instr,
            "only the time estimate degrades; the metered work is identical"
        );
    }

    #[test]
    fn injected_transient_failure_is_fail_stop() {
        use crate::fault::{FaultConfig, FaultInjector, LaunchError};
        let inj = std::sync::Arc::new(FaultInjector::new(FaultConfig {
            transient_rate: 1.0,
            ..FaultConfig::default()
        }));
        let dev = device().with_fault_injector(inj.clone());
        let out = Buffer::zeros(1);
        let out2 = out.clone();
        let kernel = move |sg: &mut Sg| {
            let v = sg.splat_f32(1.0);
            let idx = sg.splat_u32(0);
            let mask = sg.splat_bool(true);
            sg.atomic_add(&out2, &idx, &v, &mask);
        };
        let cfg = LaunchConfig::defaults_for(&dev.arch).with_sg_size(32);
        let err = dev.launch(&kernel, 4, cfg).unwrap_err();
        assert!(matches!(err, LaunchError::Transient { .. }));
        // Fail-stop: the kernel body never ran, so a retry is safe.
        assert_eq!(out.read_f32(0), 0.0);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn injected_corruption_is_counted_in_the_report() {
        use crate::fault::{FaultConfig, FaultInjector};
        struct Writer {
            out: Buffer,
        }
        impl SgKernel for Writer {
            fn name(&self) -> &str {
                "writer"
            }
            fn run(&self, sg: &mut Sg) {
                let v = sg.splat_f32(1.0);
                let idx = sg.lane_id();
                let mask = sg.splat_bool(true);
                sg.store_f32(&self.out, &idx, &v, &mask);
            }
            fn output_buffers(&self) -> Vec<Buffer> {
                vec![self.out.clone()]
            }
        }
        let inj = std::sync::Arc::new(FaultInjector::new(FaultConfig {
            seed: 11,
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        }));
        let dev = device().with_fault_injector(inj.clone());
        let out = Buffer::zeros(32);
        let kernel = Writer { out: out.clone() };
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .deterministic();
        let report = dev.launch(&kernel, 1, cfg).unwrap();
        assert_eq!(report.injected_faults, 1);
        let clean = 1.0f32.to_bits();
        let damaged = out.to_u32_vec().iter().filter(|&&w| w != clean).count();
        assert_eq!(damaged, 1, "exactly one output word corrupted");
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn pool_sizing_clamps_oversubscription_and_idle_threads() {
        // On a 2-core host, parallel(8) must not run slower than
        // parallel(2). With the clamp both requests get the same
        // 2-worker pool, so their modeled throughput is identical —
        // oversubscription is impossible by construction (workers never
        // exceed cores).
        assert_eq!(effective_workers(8, 2, 1000), 2);
        assert_eq!(effective_workers(2, 2, 1000), 2);
        for req in [2usize, 4, 8, 64] {
            assert!(
                effective_workers(req, 2, 1000) <= 2,
                "request {req} oversubscribed a 2-core host"
            );
        }
        // Never more threads than work-groups…
        assert_eq!(effective_workers(8, 16, 3), 3);
        // …never below one, even with degenerate inputs.
        assert_eq!(effective_workers(0, 0, 0), 1);
        // Explicit requests below the host width are honored.
        assert_eq!(effective_workers(2, 16, 1000), 2);
    }

    #[test]
    fn fast_mode_is_bit_identical_and_unmetered() {
        let dev = device();
        let run = |meter: MeterPolicy, exec: ExecutionPolicy| {
            let out = Buffer::zeros(8);
            let out2 = out.clone();
            let kernel = move |sg: &mut Sg| {
                let idx = sg.lane_id().mod_scalar(8);
                let v = sg.from_fn_f32(|l| {
                    let m = ((sg.sg_id * 31 + l * 7) % 23) as i32 - 11;
                    (1.0f32 + l as f32 / 64.0) * (2.0f32).powi(m)
                });
                let w = sg.shuffle_xor(&v, 5);
                let s = &v + &w.rsqrt();
                let mask = sg.splat_bool(true);
                sg.atomic_add(&out2, &idx, &s, &mask);
            };
            let cfg = LaunchConfig::defaults_for(&dev.arch)
                .with_sg_size(32)
                .with_exec(exec)
                .with_meter(meter);
            let report = dev.launch(&kernel, 37, cfg).unwrap();
            (out.to_u32_vec(), report)
        };
        let (full_bits, full) = run(MeterPolicy::Full, ExecutionPolicy::Serial);
        assert!(full.stats.total() > 0);
        for exec in [
            ExecutionPolicy::Serial,
            ExecutionPolicy::Parallel { threads: 1 },
            ExecutionPolicy::Parallel { threads: 4 },
        ] {
            let (fast_bits, fast) = run(MeterPolicy::Off, exec);
            assert_eq!(fast_bits, full_bits, "fast mode diverged under {exec:?}");
            assert_eq!(fast.stats.total(), 0, "fast mode must not meter");
            assert_eq!(fast.stats.n_subgroups, 37);
        }
    }

    #[test]
    fn attached_injector_with_zero_rates_changes_nothing() {
        use crate::fault::{FaultConfig, FaultInjector};
        let plain = device();
        let faulty = device().with_fault_injector(std::sync::Arc::new(FaultInjector::new(
            FaultConfig::default(),
        )));
        let kernel = |sg: &mut Sg| {
            let a = sg.from_fn_f32(|l| l as f32);
            let b = sg.shuffle_xor(&a, 3);
            let _ = &a * &b;
        };
        let cfg = LaunchConfig::defaults_for(&plain.arch).deterministic();
        let a = plain.launch(&kernel, 6, cfg).unwrap();
        let b = faulty.launch(&kernel, 6, cfg).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.injected_faults, b.injected_faults);
    }
}
