//! The architecture cost model: metered instruction counts → time.
//!
//! The model charges each instruction class a reciprocal-throughput cost in
//! *issue cycles per sub-group instruction*, converts to lane-cycles
//! (`cost × sg_size`, since an instruction occupies the SIMD pipe for
//! `cost` cycles), normalizes against the architecture's FP32 peak
//! (2 FLOP per lane-cycle), and applies three multiplicative stall terms:
//!
//! 1. **Occupancy** — when register demand limits resident work-items below
//!    the architecture's latency-hiding knee (§5.2's threads-per-EU trade).
//! 2. **Spills** — when peak live registers exceed the per-work-item
//!    budget (the Broadcast variant's failure mode on A100; §5.4).
//! 3. **Local-memory/L1 trade** — on NVIDIA, local-memory-hungry kernels
//!    lose L1 capacity, which hurts register-heavy kernels most (§5.4).
//!
//! The model is *mechanistic*: every input is measured from the executed
//! kernel. The per-class costs are ordinary micro-architecture numbers, not
//! fitted to the paper's curves; EXPERIMENTS.md records how well the
//! resulting shapes match.

use crate::arch::{GpuArch, GrfMode};
use crate::device::LaunchReport;
use crate::meter::{InstrClass, ALL_CLASSES, N_CLASSES};
use serde::Serialize;

/// Issue cycles per sub-group instruction for one class.
///
/// `sg_size` is needed because indirect-register-access shuffles walk the
/// register file one element per cycle (Figure 5).
fn issue_cycles(class: InstrClass, sg_size: usize) -> f64 {
    match class {
        InstrClass::Alu => 1.0,
        InstrClass::Div => 8.0,
        InstrClass::MathFast => 4.0,
        InstrClass::MathPrecise => 32.0,
        InstrClass::GlobalLoad => 6.0,
        InstrClass::GlobalStore => 6.0,
        InstrClass::LocalLoad => 2.0,
        InstrClass::LocalStore => 2.0,
        InstrClass::ShuffleIndirect => sg_size as f64,
        InstrClass::ShuffleDedicated => 2.0,
        InstrClass::ShuffleRegioned => 0.5,
        InstrClass::ShuffleVisa => 4.0,
        // Atomics are counted per active lane; their cost below is per
        // lane-op, so they are not multiplied by sg_size again.
        InstrClass::AtomicNative => 16.0,
        InstrClass::AtomicCas => 64.0,
        InstrClass::Barrier => 8.0,
    }
}

/// True for classes whose counts are per active lane rather than per
/// sub-group instruction.
fn per_lane(class: InstrClass) -> bool {
    matches!(class, InstrClass::AtomicNative | InstrClass::AtomicCas)
}

/// Timing estimate for one kernel launch on one architecture.
#[derive(Clone, Debug, Serialize)]
pub struct TimeEstimate {
    /// Total estimated device time in seconds.
    pub seconds: f64,
    /// Lane-cycles per class (before stall multipliers).
    pub lane_cycles: [f64; N_CLASSES],
    /// Fraction of `max_workitems_per_cu` resident.
    pub occupancy: f64,
    /// Stall multiplier from low occupancy (≥ 1).
    pub occupancy_mult: f64,
    /// Spilled registers per work-item.
    pub spilled_regs: u32,
    /// Stall multiplier from spills (≥ 1).
    pub spill_mult: f64,
    /// Stall multiplier from the SLM/L1 trade (≥ 1).
    pub l1_mult: f64,
    /// Peak live registers per work-item (words).
    pub peak_regs: u32,
    /// Register budget per work-item (words).
    pub reg_budget: u32,
}

impl TimeEstimate {
    /// Total lane-cycles across classes (pre-multiplier).
    pub fn total_lane_cycles(&self) -> f64 {
        self.lane_cycles.iter().sum()
    }

    /// Combined stall multiplier.
    pub fn stall_mult(&self) -> f64 {
        self.occupancy_mult * self.spill_mult * self.l1_mult
    }
}

/// Cost model for one architecture.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// The architecture being modeled.
    pub arch: GpuArch,
}

impl CostModel {
    /// Builds the model.
    pub fn new(arch: GpuArch) -> Self {
        Self { arch }
    }

    /// Estimates device time for a launch report.
    pub fn estimate(&self, report: &LaunchReport) -> TimeEstimate {
        let sg = report.sg_size;
        let stats = &report.stats;

        // 1. Lane-cycles per class.
        let mut lane_cycles = [0.0f64; N_CLASSES];
        for class in ALL_CLASSES {
            let count = stats.count(class) as f64;
            let cycles = issue_cycles(class, sg);
            lane_cycles[class as usize] = if per_lane(class) {
                count * cycles
            } else {
                count * cycles * sg as f64
            };
        }
        let total: f64 = lane_cycles.iter().sum();

        // 2. Register budget, spills, occupancy. A launch-bounds cap
        // shrinks the budget below the architectural one: more spills,
        // but more resident work-items (the §5.4 A100 trade, exposed as
        // a tunable knob).
        let budget = report.bounds.apply(self.arch.reg_budget(sg, report.grf));
        let peak = stats.peak_regs;
        let spilled = peak.saturating_sub(budget);
        let spill_ratio = spilled as f64 / budget as f64;
        let spill_mult = 1.0 + spill_ratio * self.arch.spill_penalty;

        // Occupancy: resident work-items under the *allocated* register
        // demand (spilled kernels still allocate the full budget).
        let alloc_regs = peak.min(budget).max(1);
        let resident = self.arch.resident_workitems(alloc_regs, report.grf, sg);
        let max_items = self
            .arch
            .resident_workitems(0, GrfMode::Default, self.arch.max_sg_size());
        let occupancy = resident as f64 / max_items as f64;
        let occupancy_mult = (self.arch.occupancy_knee / occupancy).max(1.0);

        // 3. SLM/L1 trade (NVIDIA): kernels that both use local memory and
        // carry high register pressure lose L1-resident working set.
        let l1_mult = if self.arch.local_l1_tradeoff && report.local_bytes_per_wg > 0 {
            let slm_frac = (report.local_bytes_per_wg as f64 / 65536.0).min(1.0);
            let reg_frac = (peak as f64 / self.arch.max_regs_per_workitem as f64).min(1.0);
            1.0 + 2.0 * slm_frac.sqrt() * reg_frac
        } else {
            1.0
        };

        // 4. Seconds: peak FP32 does 2 FLOP per lane-cycle.
        let peak_lane_cycles_per_sec = self.arch.fp32_peak_tflops * 1e12 / 2.0;
        let seconds = total * occupancy_mult * spill_mult * l1_mult / peak_lane_cycles_per_sec;

        TimeEstimate {
            seconds,
            lane_cycles,
            occupancy,
            occupancy_mult,
            spilled_regs: spilled,
            spill_mult,
            l1_mult,
            peak_regs: peak,
            reg_budget: budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, LaunchConfig};
    use crate::exec::ExecutionPolicy;
    use crate::real::Real;
    use crate::subgroup::Sg;
    use crate::toolchain::Toolchain;

    fn run_on(
        arch: GpuArch,
        tc: Toolchain,
        sg_size: usize,
        n: usize,
        kernel: impl Fn(&mut Sg) + Sync,
    ) -> (LaunchReport, TimeEstimate) {
        let dev = Device::new(arch.clone(), tc).unwrap();
        let cfg = LaunchConfig {
            sg_size,
            wg_size: 128,
            grf: GrfMode::Default,
            exec: crate::exec::ExecutionPolicy::Serial,
            meter: crate::meter::MeterPolicy::Full,
            bounds: crate::tunable::LaunchBounds::Default,
        };
        let report = dev.launch(&kernel, n, cfg).unwrap();
        let est = CostModel::new(arch).estimate(&report);
        (report, est)
    }

    /// A shuffle-heavy kernel is far slower on the indirect-register
    /// architecture than on dedicated-cross-lane hardware.
    #[test]
    fn indirect_shuffles_dominate_on_intel() {
        let kernel = |sg: &mut Sg| {
            let mut x = sg.from_fn_f32(|l| l as f32);
            for i in 0..16 {
                x = sg.shuffle_xor(&x, 16 | i);
            }
        };
        let (_, intel) = run_on(GpuArch::aurora(), Toolchain::sycl(), 32, 100, kernel);
        let (_, amd) = run_on(GpuArch::frontier(), Toolchain::sycl(), 32, 100, kernel);
        // Same work; indirect access costs sg/2 = 16× per shuffle. Compare
        // lane-cycles (peaks differ).
        let ri = intel.total_lane_cycles();
        let ra = amd.total_lane_cycles();
        assert!(ri > 5.0 * ra, "intel {ri} vs amd {ra}");
    }

    /// Broadcasts are cheap on Intel (register regioning).
    #[test]
    fn broadcasts_are_cheap_on_intel() {
        let shuffles = |sg: &mut Sg| {
            let x = sg.from_fn_f32(|l| l as f32);
            for i in 0..16 {
                let _ = sg.shuffle_xor(&x, 16 | i);
            }
        };
        let broadcasts = |sg: &mut Sg| {
            let x = sg.from_fn_f32(|l| l as f32);
            for i in 0..16 {
                let _ = sg.broadcast(&x, i);
            }
        };
        let (_, s) = run_on(GpuArch::aurora(), Toolchain::sycl(), 32, 10, shuffles);
        let (_, b) = run_on(GpuArch::aurora(), Toolchain::sycl(), 32, 10, broadcasts);
        assert!(
            s.total_lane_cycles() > 10.0 * b.total_lane_cycles(),
            "shuffle {} vs broadcast {}",
            s.total_lane_cycles(),
            b.total_lane_cycles()
        );
    }

    /// Register-hungry kernels spill on architectures with small budgets.
    #[test]
    fn register_pressure_spills() {
        // Hold ~80 live registers.
        let kernel = |sg: &mut Sg| {
            let mut regs = Vec::new();
            for i in 0..80 {
                regs.push(sg.splat_f32(i as f64 as f32));
            }
            let mut acc = sg.splat_f32(0.0);
            for r in &regs {
                acc = acc.add(r);
            }
        };
        // PVC at sg32 default GRF: budget 64 → spills.
        let (_, intel) = run_on(GpuArch::aurora(), Toolchain::sycl(), 32, 4, kernel);
        assert!(intel.spilled_regs > 0, "expected spills on PVC/sg32");
        // PVC at sg16: budget 128 → no spills (the §5.2 lever).
        let (_, intel16) = run_on(GpuArch::aurora(), Toolchain::sycl(), 16, 4, kernel);
        assert_eq!(intel16.spilled_regs, 0);
        // A100: under the launch-bounds cap of 96 → no spills, but
        // occupancy drops below 1.
        let (_, nv) = run_on(GpuArch::polaris(), Toolchain::sycl(), 32, 4, kernel);
        assert_eq!(nv.spilled_regs, 0);
        assert!(nv.occupancy < 1.0);
    }

    /// Large GRF removes spills but halves the occupancy ceiling on PVC.
    #[test]
    fn large_grf_tradeoff() {
        let kernel = |sg: &mut Sg| {
            let mut regs = Vec::new();
            for i in 0..100 {
                regs.push(sg.splat_f32(i as f32));
            }
            let mut acc = sg.splat_f32(0.0);
            for r in &regs {
                acc = acc.add(r);
            }
        };
        let dev = Device::new(GpuArch::aurora(), Toolchain::sycl()).unwrap();
        let base = LaunchConfig {
            sg_size: 32,
            wg_size: 128,
            grf: GrfMode::Default,
            exec: crate::exec::ExecutionPolicy::Serial,
            meter: crate::meter::MeterPolicy::Full,
            bounds: crate::tunable::LaunchBounds::Default,
        };
        let model = CostModel::new(GpuArch::aurora());
        let small = model.estimate(&dev.launch(&kernel, 4, base).unwrap());
        let large = model.estimate(
            &dev.launch(&kernel, 4, base.with_grf(GrfMode::Large))
                .unwrap(),
        );
        assert!(small.spilled_regs > 0);
        assert_eq!(large.spilled_regs, 0);
        assert!(large.occupancy <= small.occupancy + 1e-12);
    }

    /// A launch-bounds cap trades spills for occupancy — the knob the
    /// autotuner explores; `Default` leaves the model untouched.
    #[test]
    fn launch_bounds_cap_trades_spills_for_occupancy() {
        use crate::tunable::LaunchBounds;
        let kernel = |sg: &mut Sg| {
            let mut regs = Vec::new();
            for i in 0..120 {
                regs.push(sg.splat_f32(i as f32));
            }
            let mut acc = sg.splat_f32(0.0);
            for r in &regs {
                acc = acc.add(r);
            }
        };
        let dev = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let base = LaunchConfig::defaults_for(&dev.arch).with_exec(ExecutionPolicy::Serial);
        let model = CostModel::new(GpuArch::frontier());
        let free = model.estimate(&dev.launch(&kernel, 4, base).unwrap());
        let capped = model.estimate(
            &dev.launch(&kernel, 4, base.with_bounds(LaunchBounds::Capped(96)))
                .unwrap(),
        );
        // MI250X budget is 256: no spills uncapped; the 96-word cap
        // spills the excess but keeps more work-items resident.
        assert_eq!(free.spilled_regs, 0);
        assert!(capped.spilled_regs > 0);
        assert!(capped.occupancy > free.occupancy);
        assert_eq!(capped.reg_budget, 96);
        // An inert cap (at/above peak demand and budget) changes nothing.
        let inert = model.estimate(
            &dev.launch(&kernel, 4, base.with_bounds(LaunchBounds::Capped(512)))
                .unwrap(),
        );
        assert_eq!(inert.seconds, free.seconds);
    }

    /// Precise math costs more than fast math (the Figure 2 effect).
    #[test]
    fn fast_math_is_faster() {
        let kernel = |sg: &mut Sg| {
            let x = sg.splat_f32(2.0);
            for _ in 0..10 {
                let _ = x.rsqrt();
            }
        };
        let (_, precise) = run_on(GpuArch::polaris(), Toolchain::cuda(), 32, 10, kernel);
        let (_, fast) = run_on(
            GpuArch::polaris(),
            Toolchain::cuda_fast_math(),
            32,
            10,
            kernel,
        );
        assert!(precise.seconds > 2.0 * fast.seconds);
    }

    /// The SLM/L1 trade only hurts on NVIDIA, and only for kernels that
    /// combine local memory with register pressure.
    #[test]
    fn slm_l1_trade_is_nvidia_specific() {
        let kernel = |sg: &mut Sg| {
            // Local-memory exchange plus a fat register working set.
            let mut regs = Vec::new();
            for i in 0..120 {
                regs.push(sg.splat_f32(i as f32));
            }
            let idx = sg.lane_id().xor_scalar(1);
            let _ = sg.local_exchange(&regs[0], &idx);
        };
        let (_, nv) = run_on(GpuArch::polaris(), Toolchain::sycl(), 32, 4, kernel);
        let (_, amd) = run_on(GpuArch::frontier(), Toolchain::sycl(), 32, 4, kernel);
        assert!(nv.l1_mult > 1.05, "NVIDIA l1_mult = {}", nv.l1_mult);
        assert!((amd.l1_mult - 1.0).abs() < 1e-12);
    }

    /// Time normalization: identical per-lane work runs faster on the GPU
    /// with the higher FP32 peak (at each architecture's native sub-group
    /// size and full occupancy).
    #[test]
    fn peak_normalization() {
        let kernel = |sg: &mut Sg| {
            let x = sg.splat_f32(1.0);
            for _ in 0..100 {
                let _ = x.mul(&x);
            }
        };
        // Same lane count: 16 sub-groups of 32 vs 8 of 64.
        let (_, nv) = run_on(GpuArch::polaris(), Toolchain::sycl(), 32, 16, kernel);
        let (_, amd) = run_on(GpuArch::frontier(), Toolchain::sycl(), 64, 8, kernel);
        let ratio = nv.seconds / amd.seconds;
        let want = 53.0 / 19.5;
        assert!((ratio / want - 1.0).abs() < 0.05, "ratio {ratio} vs {want}");
    }
}
