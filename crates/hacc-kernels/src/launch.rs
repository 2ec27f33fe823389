//! Orchestration of a full hydro step's kernel launches — the seven
//! GPU timers of Figures 9–11 (`upGeo`, `upCor`, `upBarEx`, `upBarAc`,
//! `upBarAcF`, `upBarDu`, `upBarDuF`) plus the short-range gravity kernel.
//!
//! *Acceleration* and *Energy* are launched twice per time step, as in
//! CRK-HACC's predictor/corrector stepping (which is why they carry two
//! timers each in the paper's figures).

use crate::acceleration::Acceleration;
use crate::corrections::Corrections;
use crate::energy::Energy;
use crate::extras::Extras;
use crate::finalize::{
    lane_parallel_instances, FinalizeCorrections, FinalizeEos, FinalizeGeometry,
};
use crate::geometry::Geometry;
use crate::gravity::Gravity;
use crate::pairkernel::{PairKernel, PairPhysics};
use crate::particles::DeviceParticles;
use crate::variant::Variant;
use crate::worklist::{build_chunks, build_tiles, ChunkWork, Tile};
use hacc_telemetry::{FaultInfo, KernelProfile, Recorder};
use hacc_tree::{InteractionList, RcbTree};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use sycl_sim::{Device, LaunchConfig, LaunchError, LaunchReport, SgKernel};

/// Work lists for one (tree, cutoff, sub-group size) combination.
#[derive(Clone)]
pub struct WorkLists {
    /// Half-warp tiles.
    pub tiles: Arc<Vec<Tile>>,
    /// Broadcast chunks.
    pub chunks: Arc<ChunkWork>,
}

impl WorkLists {
    /// Builds both work lists.
    pub fn build(tree: &RcbTree, list: &InteractionList, sg_size: usize) -> Self {
        Self {
            tiles: Arc::new(build_tiles(tree, list, sg_size)),
            chunks: Arc::new(build_chunks(tree, list, sg_size)),
        }
    }
}

/// Gravity-kernel parameters (host-fit polynomial force law).
#[derive(Clone, Copy, Debug)]
pub struct GravityParams {
    /// Polynomial coefficients of the long-range complement.
    pub poly: [f32; 6],
    /// Squared cutoff.
    pub r_cut2: f32,
    /// Squared softening.
    pub soft2: f32,
}

/// One timer's launch result.
#[derive(Clone, Debug)]
pub struct TimerReport {
    /// Timer name (upGeo, upCor, …).
    pub timer: String,
    /// Merged launch report (pairwise kernel + its finalize pass).
    pub report: LaunchReport,
    /// Telemetry profile of each individual launch in the bracket.
    pub profiles: Vec<KernelProfile>,
}

fn merge(mut a: LaunchReport, b: LaunchReport) -> LaunchReport {
    a.stats.merge(&b.stats);
    a.local_bytes_per_wg = a.local_bytes_per_wg.max(b.local_bytes_per_wg);
    a.injected_faults += b.injected_faults;
    a
}

/// Retry and fallback policy for resilient kernel launches.
#[derive(Clone, Copy, Debug)]
pub struct LaunchPolicy {
    /// Maximum retries of one launch after a transient failure.
    pub max_retries: u32,
    /// Simulated seconds charged (to the `upRetry` timer) for the first
    /// backoff; doubles per retry.
    pub backoff_base_s: f64,
    /// Whether a persistently faulting variant may fall back along
    /// [`Variant::fallback`] instead of aborting the step.
    pub allow_fallback: bool,
}

impl Default for LaunchPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_s: 1e-6,
            allow_fallback: true,
        }
    }
}

fn fault_info(kind: &str, kernel: &str, variant: &str, detail: String) -> FaultInfo {
    FaultInfo {
        kind: kind.to_string(),
        kernel: kernel.to_string(),
        variant: variant.to_string(),
        detail,
    }
}

/// Launches `kernel` with bounded retry-with-backoff on transient
/// failures. Every injected fault observed here (transient failure,
/// device loss, silent corruption) is surfaced as a `faults.injected`
/// counter increment plus a `Fault` telemetry event, so the counters
/// reconcile one-to-one with the injector's log. Retries charge
/// exponentially growing simulated seconds to the `upRetry` timer and
/// count on `launch.retries`.
pub fn launch_resilient<K: SgKernel>(
    device: &Device,
    kernel: &K,
    n_subgroups: usize,
    cfg: LaunchConfig,
    policy: &LaunchPolicy,
    telemetry: &Recorder,
    variant_label: &str,
) -> Result<LaunchReport, LaunchError> {
    let mut attempt: u32 = 0;
    loop {
        match device.launch(kernel, n_subgroups, cfg) {
            Ok(report) => {
                // Scheduler observability: one sample per parallel
                // launch. Counters, not timers — barrier wait is
                // wall-clock-derived, and the timer stream must stay
                // bit-reproducible across runs. The metrics registry
                // folds these into log-bucketed histograms.
                if let Some(s) = &report.sched {
                    telemetry.counter("sched.queue_depth", s.queue_depth as f64);
                    telemetry.counter("sched.steals", s.steals as f64);
                    telemetry.counter("sched.barrier_wait_ns", s.barrier_wait_ns as f64);
                }
                if report.injected_faults > 0 {
                    telemetry.counter("faults.injected", report.injected_faults as f64);
                    telemetry.fault(
                        "fault.injected",
                        fault_info(
                            "corruption",
                            kernel.name(),
                            variant_label,
                            format!("{} output word(s) corrupted", report.injected_faults),
                        ),
                        report.injected_faults as f64,
                    );
                }
                return Ok(report);
            }
            Err(err @ LaunchError::Transient { .. }) => {
                telemetry.counter("faults.injected", 1.0);
                telemetry.fault(
                    "fault.injected",
                    fault_info(
                        "transient",
                        kernel.name(),
                        variant_label,
                        format!("attempt {attempt}: {err}"),
                    ),
                    1.0,
                );
                if attempt >= policy.max_retries {
                    return Err(err);
                }
                // Simulated backoff: charge the retry budget to its own
                // timer instead of sleeping.
                telemetry.timer("upRetry", policy.backoff_base_s * f64::from(1 << attempt));
                telemetry.counter("launch.retries", 1.0);
                telemetry.fault(
                    "fault.retry",
                    fault_info(
                        "retry",
                        kernel.name(),
                        variant_label,
                        format!("retry {} of {}", attempt + 1, policy.max_retries),
                    ),
                    1.0,
                );
                attempt += 1;
            }
            Err(err @ LaunchError::DeviceLost { .. }) => {
                telemetry.counter("faults.injected", 1.0);
                telemetry.fault(
                    "fault.injected",
                    fault_info("device-lost", kernel.name(), variant_label, err.to_string()),
                    1.0,
                );
                return Err(err);
            }
            // Config errors are programmer mistakes, not injected faults:
            // no fault accounting, just propagate.
            Err(err) => return Err(err),
        }
    }
}

/// Launches one pairwise kernel resiliently, walking the variant
/// fallback chain when the active variant persistently faults on this
/// device. On success `variant` holds the variant that actually ran, so
/// the rest of the step keeps using it.
fn launch_pair_resilient<P: PairPhysics + Clone>(
    device: &Device,
    physics: P,
    work: &WorkLists,
    variant: &mut Variant,
    cfg: LaunchConfig,
    policy: &LaunchPolicy,
    telemetry: &Recorder,
) -> Result<LaunchReport, LaunchError> {
    loop {
        let blocked = device
            .fault
            .as_ref()
            .is_some_and(|inj| inj.variant_blocked(physics.name(), variant.label()));
        if blocked {
            telemetry.counter("faults.injected", 1.0);
            telemetry.fault(
                "fault.injected",
                fault_info(
                    "persistent-variant",
                    physics.name(),
                    variant.label(),
                    format!("variant {} persistently faults", variant.label()),
                ),
                1.0,
            );
            let next = if policy.allow_fallback {
                variant.fallback()
            } else {
                None
            };
            match next {
                Some(fb) => {
                    telemetry.counter("launch.fallbacks", 1.0);
                    telemetry.fault(
                        "fault.fallback",
                        fault_info(
                            "fallback",
                            physics.name(),
                            variant.label(),
                            format!("falling back {} -> {}", variant.label(), fb.label()),
                        ),
                        1.0,
                    );
                    *variant = fb;
                    continue;
                }
                None => {
                    return Err(LaunchError::PersistentVariant {
                        kernel: physics.name().to_string(),
                        variant: variant.label().to_string(),
                    });
                }
            }
        }
        let kernel = PairKernel {
            physics: physics.clone(),
            tiles: work.tiles.clone(),
            chunks: work.chunks.clone(),
            variant: *variant,
        };
        let n = kernel.n_instances();
        return launch_resilient(device, &kernel, n, cfg, policy, telemetry, variant.label());
    }
}

/// Closes one timer bracket: emits a `Kernel` telemetry event per
/// launch (tagged with timer bucket and variant), charges the bracket's
/// merged cost-model estimate as a `Timer` event, and returns the
/// combined report. The merged estimate — not the per-launch sum — is
/// the value every timer table is folded from (`timer_totals`).
fn finish_bracket(
    device: &Device,
    telemetry: &Recorder,
    variant: Variant,
    timer: &str,
    launches: Vec<LaunchReport>,
) -> TimerReport {
    let mut profiles = Vec::with_capacity(launches.len());
    for report in &launches {
        let mut profile = device.profile(report);
        profile.timer = timer.to_string();
        profile.variant = variant.label().to_string();
        telemetry.kernel(profile.clone());
        profiles.push(profile);
    }
    let report = launches
        .into_iter()
        .reduce(merge)
        .expect("bracket has at least one launch");
    telemetry.timer(timer, device.profile(&report).est_seconds);
    TimerReport {
        timer: timer.to_string(),
        report,
        profiles,
    }
}

/// The paper's seven hydro timer names, in presentation order.
pub const HYDRO_TIMERS: [&str; 7] = [
    "upGeo", "upCor", "upBarEx", "upBarAc", "upBarAcF", "upBarDu", "upBarDuF",
];

/// The gravity timer name (outside the seven hydro hot spots).
pub const GRAVITY_TIMER: &str = "upGrav";

/// A per-timer launch plan: which (variant, launch config) each kernel
/// bracket runs with. The untuned step is the uniform plan; the
/// autotuner overrides timers from cached winners.
#[derive(Clone, Debug)]
pub struct StepPlan {
    default: (Variant, LaunchConfig),
    per_timer: BTreeMap<String, (Variant, LaunchConfig)>,
}

impl StepPlan {
    /// A plan that uses one (variant, config) for every bracket.
    pub fn uniform(variant: Variant, cfg: LaunchConfig) -> Self {
        Self {
            default: (variant, cfg),
            per_timer: BTreeMap::new(),
        }
    }

    /// Overrides the choice for one timer.
    pub fn set(&mut self, timer: &str, variant: Variant, cfg: LaunchConfig) {
        self.per_timer.insert(timer.to_string(), (variant, cfg));
    }

    /// The choice for a timer (the default when not overridden).
    pub fn choice(&self, timer: &str) -> (Variant, LaunchConfig) {
        self.per_timer.get(timer).copied().unwrap_or(self.default)
    }

    /// Every distinct sub-group size the plan launches with — the sizes
    /// a [`WorkSet`] must cover.
    pub fn sg_sizes(&self) -> BTreeSet<usize> {
        let mut s = BTreeSet::from([self.default.1.sg_size]);
        s.extend(self.per_timer.values().map(|(_, cfg)| cfg.sg_size));
        s
    }
}

/// Work lists keyed by sub-group size, for plans that tune the
/// sub-group size per kernel. All sizes share one tree (the tree is
/// built once per step; re-partitioning per kernel is not a real
/// option), so per-size lists only re-pack the same leaves into tiles
/// and chunks.
#[derive(Clone, Default)]
pub struct WorkSet {
    by_sg: BTreeMap<usize, WorkLists>,
}

impl WorkSet {
    /// Builds work lists for every requested sub-group size.
    pub fn build<I: IntoIterator<Item = usize>>(
        tree: &RcbTree,
        list: &InteractionList,
        sg_sizes: I,
    ) -> Self {
        let mut by_sg = BTreeMap::new();
        for sg in sg_sizes {
            by_sg
                .entry(sg)
                .or_insert_with(|| WorkLists::build(tree, list, sg));
        }
        Self { by_sg }
    }

    /// Wraps an already-built list for a single sub-group size.
    pub fn single(sg_size: usize, work: WorkLists) -> Self {
        Self {
            by_sg: BTreeMap::from([(sg_size, work)]),
        }
    }

    /// The work lists for a sub-group size, if built.
    pub fn get(&self, sg_size: usize) -> Option<&WorkLists> {
        self.by_sg.get(&sg_size)
    }
}

/// What every bracket of one kernel sequence shares.
struct Sequence<'a> {
    device: &'a Device,
    data: &'a DeviceParticles,
    box_size: f32,
    telemetry: &'a Recorder,
    policy: &'a LaunchPolicy,
}

impl Sequence<'_> {
    /// Runs one timer bracket — the only one there is: the pairwise
    /// kernel under (`variant`, `cfg`) plus an optional lane-parallel
    /// finalize pass, closed by [`finish_bracket`]. `variant` comes back
    /// as the variant that actually ran (a fallback demotion of the one
    /// passed in when that persistently faults).
    fn bracket<P: PairPhysics + Clone, F: SgKernel>(
        &self,
        timer: &str,
        work: &WorkLists,
        variant: &mut Variant,
        cfg: LaunchConfig,
        physics: P,
        finalize: Option<&F>,
    ) -> Result<TimerReport, LaunchError> {
        if variant.needs_visa() && !self.device.toolchain.enable_visa {
            return Err(LaunchError::Config {
                message: format!(
                    "timer {timer}: the vISA variant requires the SYCL(vISA) toolchain"
                ),
            });
        }
        let Self {
            device,
            telemetry,
            policy,
            ..
        } = *self;
        let _span = telemetry.span(timer);
        let main = launch_pair_resilient(device, physics, work, variant, cfg, policy, telemetry)?;
        let mut launches = vec![main];
        if let Some(fin) = finalize {
            launches.push(launch_resilient(
                device,
                fin,
                lane_parallel_instances(self.data.n, cfg.sg_size),
                cfg,
                policy,
                telemetry,
                variant.label(),
            )?);
        }
        Ok(finish_bracket(device, telemetry, *variant, timer, launches))
    }
}

/// Launches one hydro timer's bracket through [`Sequence::bracket`].
type HydroBracket = fn(
    &Sequence<'_>,
    &str,
    &WorkLists,
    &mut Variant,
    LaunchConfig,
) -> Result<TimerReport, LaunchError>;

/// For the brackets that have no finalize pass.
const NO_FINALIZE: Option<&FinalizeGeometry> = None;

/// One row of [`HYDRO_SEQUENCE`]: the bracket of the named pairwise
/// physics, closed by the named finalize kernel when there is one.
macro_rules! hydro_bracket {
    ($physics:ident) => {
        |s, timer, work, variant, cfg| {
            let (data, box_size) = (s.data.clone(), s.box_size);
            let physics = $physics { data, box_size };
            s.bracket(timer, work, variant, cfg, physics, NO_FINALIZE)
        }
    };
    ($physics:ident, $finalize:ident) => {
        |s, timer, work, variant, cfg| {
            let (data, box_size) = (s.data.clone(), s.box_size);
            let finalize = $finalize { data: data.clone() };
            let physics = $physics { data, box_size };
            s.bracket(timer, work, variant, cfg, physics, Some(&finalize))
        }
    };
}

/// The hydro kernel sequence in launch order: timer name → bracket.
/// The corrector pass (the second *Acceleration* / *Energy* pair) opens
/// at `upBarAcF`.
const HYDRO_SEQUENCE: [(&str, HydroBracket); 7] = [
    ("upGeo", hydro_bracket!(Geometry, FinalizeGeometry)),
    ("upCor", hydro_bracket!(Corrections, FinalizeCorrections)),
    ("upBarEx", hydro_bracket!(Extras, FinalizeEos)),
    ("upBarAc", hydro_bracket!(Acceleration)),
    ("upBarDu", hydro_bracket!(Energy)),
    ("upBarAcF", hydro_bracket!(Acceleration)),
    ("upBarDuF", hydro_bracket!(Energy)),
];

/// Runs the complete hydro kernel sequence for one time step under a
/// per-timer [`StepPlan`] and returns the seven timer reports in launch
/// order, leaving the outputs in the device buffers. This is the only
/// hydro sequence: the untuned step ([`run_hydro_step`]) is a uniform
/// plan through it.
///
/// A variant that persistently faults in a bracket is demoted along its
/// fallback chain, and stays demoted for every later bracket of the step
/// that planned the same variant — a known-broken variant is probed
/// once, and under a uniform plan all seven brackets stay mutually
/// consistent. Brackets that planned a different variant are untouched.
pub fn run_hydro_step_planned(
    device: &Device,
    data: &DeviceParticles,
    works: &WorkSet,
    plan: &StepPlan,
    box_size: f32,
    telemetry: &Recorder,
    policy: &LaunchPolicy,
) -> Result<Vec<TimerReport>, LaunchError> {
    data.clear_accumulators();
    let seq = Sequence {
        device,
        data,
        box_size,
        telemetry,
        policy,
    };
    // Planned variant -> the variant it ran as earlier in this step.
    let mut ran_as: HashMap<Variant, Variant> = HashMap::new();
    let mut timers = Vec::with_capacity(HYDRO_SEQUENCE.len());
    for (timer, bracket) in HYDRO_SEQUENCE {
        if timer == "upBarAcF" {
            // Corrector pass: CRK-HACC re-evaluates the momentum and
            // energy derivatives after the half-step update. The state
            // here is the same (the driver owns the half-step push), so
            // clear and re-accumulate.
            for c in 0..3 {
                data.acc[c].fill_f32(0.0);
            }
            data.du_dt.fill_f32(0.0);
            data.dt_min.fill_f32(f32::MAX);
        }
        let (planned, cfg) = plan.choice(timer);
        let work = works.get(cfg.sg_size).ok_or_else(|| LaunchError::Config {
            message: format!(
                "timer {timer}: no work lists built for sub-group size {}",
                cfg.sg_size
            ),
        })?;
        let mut active = *ran_as.get(&planned).unwrap_or(&planned);
        timers.push(bracket(&seq, timer, work, &mut active, cfg)?);
        ran_as.insert(planned, active);
    }
    Ok(timers)
}

/// [`run_hydro_step_planned`] with one (variant, config) for every
/// bracket, one set of work lists and the default [`LaunchPolicy`].
pub fn run_hydro_step(
    device: &Device,
    data: &DeviceParticles,
    work: &WorkLists,
    variant: Variant,
    box_size: f32,
    cfg: LaunchConfig,
    telemetry: &Recorder,
) -> Result<Vec<TimerReport>, LaunchError> {
    run_hydro_step_planned(
        device,
        data,
        &WorkSet::single(cfg.sg_size, work.clone()),
        &StepPlan::uniform(variant, cfg),
        box_size,
        telemetry,
        &LaunchPolicy::default(),
    )
}

/// Launches the short-range gravity kernel (its own timer, outside the
/// five hydro hot spots) under the default [`LaunchPolicy`].
pub fn run_gravity(
    device: &Device,
    data: &DeviceParticles,
    work: &WorkLists,
    variant: Variant,
    box_size: f32,
    params: GravityParams,
    cfg: LaunchConfig,
    telemetry: &Recorder,
) -> Result<TimerReport, LaunchError> {
    let policy = LaunchPolicy::default();
    run_gravity_with_policy(
        device, data, work, variant, box_size, params, cfg, telemetry, &policy,
    )
}

/// [`run_gravity`] with an explicit retry/fallback policy: the
/// [`GRAVITY_TIMER`] bracket, a sequence of one.
#[allow(clippy::too_many_arguments)]
pub fn run_gravity_with_policy(
    device: &Device,
    data: &DeviceParticles,
    work: &WorkLists,
    variant: Variant,
    box_size: f32,
    params: GravityParams,
    cfg: LaunchConfig,
    telemetry: &Recorder,
    policy: &LaunchPolicy,
) -> Result<TimerReport, LaunchError> {
    for c in 0..3 {
        data.acc_grav[c].fill_f32(0.0);
    }
    let seq = Sequence {
        device,
        data,
        box_size,
        telemetry,
        policy,
    };
    let physics = Gravity {
        data: data.clone(),
        box_size,
        poly: params.poly,
        r_cut2: params.r_cut2,
        soft2: params.soft2,
    };
    let mut active = variant;
    seq.bracket(GRAVITY_TIMER, work, &mut active, cfg, physics, NO_FINALIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_telemetry::{counter_total, EventKind};
    use std::sync::Arc as StdArc;
    use sycl_sim::{FaultConfig, FaultInjector, GpuArch, Sg, Toolchain};

    fn faulty_device(cfg: FaultConfig) -> (Device, StdArc<FaultInjector>) {
        let inj = StdArc::new(FaultInjector::new(cfg));
        let dev = Device::new(GpuArch::frontier(), Toolchain::sycl())
            .unwrap()
            .with_fault_injector(inj.clone());
        (dev, inj)
    }

    #[test]
    fn parallel_launches_emit_scheduler_counters() {
        let dev = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let kernel = |sg: &mut Sg| {
            let x = sg.splat_f32(2.0);
            let _ = x.rsqrt();
        };
        let policy = LaunchPolicy::default();

        let rec = Recorder::new();
        let cfg = LaunchConfig::defaults_for(&dev.arch).with_threads(4);
        launch_resilient(&dev, &kernel, 256, cfg, &policy, &rec, "Select").unwrap();
        let events = rec.events();
        assert!(
            counter_total(&events, "sched.queue_depth") >= 1.0,
            "parallel launch samples the claim-queue depth"
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "sched.barrier_wait_ns")
                .count(),
            1,
            "one barrier-wait sample per launch"
        );

        // The serial reference path has no scheduler and must emit no
        // sched metrics at all.
        let rec2 = Recorder::new();
        let ser = LaunchConfig::defaults_for(&dev.arch).deterministic();
        launch_resilient(&dev, &kernel, 256, ser, &policy, &rec2, "Select").unwrap();
        assert!(rec2.events().iter().all(|e| !e.name.starts_with("sched.")));
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        // Sweep seeds: at rate 0.5 with generous retries, every seed must
        // eventually succeed, counters must reconcile with the injector's
        // log, and at least one seed must actually exercise the retry path.
        let mut total_retries = 0.0;
        for seed in 0..16 {
            let (dev, inj) = faulty_device(FaultConfig {
                seed,
                transient_rate: 0.5,
                ..FaultConfig::default()
            });
            let rec = Recorder::new();
            let policy = LaunchPolicy {
                max_retries: 16,
                ..LaunchPolicy::default()
            };
            let kernel = |sg: &mut Sg| {
                let x = sg.splat_f32(2.0);
                let _ = x.rsqrt();
            };
            let cfg = LaunchConfig::defaults_for(&dev.arch).deterministic();
            let report =
                launch_resilient(&dev, &kernel, 4, cfg, &policy, &rec, "Select").expect("recovers");
            assert_eq!(report.stats.n_subgroups, 4);
            let events = rec.events();
            let injected = counter_total(&events, "faults.injected");
            let retries = counter_total(&events, "launch.retries");
            assert_eq!(injected as usize, inj.injected(), "counters reconcile");
            assert_eq!(retries, injected, "every transient was retried");
            total_retries += retries;
        }
        assert!(
            total_retries >= 1.0,
            "rate 0.5 over 16 seeds must fault at least once"
        );
    }

    #[test]
    fn retries_are_bounded() {
        let (dev, inj) = faulty_device(FaultConfig {
            transient_rate: 1.0,
            ..FaultConfig::default()
        });
        let rec = Recorder::new();
        let policy = LaunchPolicy {
            max_retries: 2,
            ..LaunchPolicy::default()
        };
        let kernel = |_: &mut Sg| {};
        let cfg = LaunchConfig::defaults_for(&dev.arch).deterministic();
        let err = launch_resilient(&dev, &kernel, 1, cfg, &policy, &rec, "Select").unwrap_err();
        assert!(matches!(err, LaunchError::Transient { .. }));
        // Initial attempt + 2 retries = 3 injected faults, 2 retries.
        assert_eq!(inj.injected(), 3);
        let events = rec.events();
        assert_eq!(counter_total(&events, "faults.injected"), 3.0);
        assert_eq!(counter_total(&events, "launch.retries"), 2.0);
    }

    fn hydro_setup(sg: usize) -> (DeviceParticles, WorkLists) {
        let pos: Vec<[f64; 3]> = (0..16)
            .map(|i| {
                [
                    1.0 + (i % 4) as f64,
                    1.0 + ((i / 4) % 4) as f64,
                    1.0 + (i / 16) as f64,
                ]
            })
            .collect();
        let hp = crate::particles::HostParticles {
            pos: pos.clone(),
            vel: vec![[0.1, 0.0, 0.0]; 16],
            mass: vec![1.0; 16],
            h: vec![1.2; 16],
            u: vec![1.0; 16],
        };
        let tree = RcbTree::build(&hp.pos, sg / 2);
        let list = InteractionList::build(&tree, 6.0, 2.5);
        let work = WorkLists::build(&tree, &list, sg);
        let data = DeviceParticles::upload(&hp.permuted(&tree.order));
        (data, work)
    }

    #[test]
    fn persistent_variant_falls_back_down_the_chain() {
        let (dev, inj) = faulty_device(FaultConfig {
            persistent_variants: vec!["Select".to_string(), "Memory, 32-bit".to_string()],
            ..FaultConfig::default()
        });
        let rec = Recorder::new();
        let (data, work) = hydro_setup(32);
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .deterministic();
        let timers = run_hydro_step(&dev, &data, &work, Variant::Select, 6.0, cfg, &rec)
            .expect("fallback chain absorbs the persistent fault");
        assert_eq!(timers.len(), 7);
        // Select and Memory32 are both blocked, so everything ran as
        // MemoryObject — including the brackets after the first demotion.
        for t in &timers {
            for p in &t.profiles {
                assert_eq!(p.variant, "Memory, Object", "timer {}", t.timer);
            }
        }
        let events = rec.events();
        // Two demotions (Select -> Memory32 -> MemoryObject), consulted
        // and recorded once each at the first bracket.
        assert_eq!(counter_total(&events, "launch.fallbacks"), 2.0);
        assert_eq!(
            counter_total(&events, "faults.injected") as usize,
            inj.injected()
        );
    }

    #[test]
    fn fallback_disabled_fails_with_a_structured_error() {
        let (dev, _inj) = faulty_device(FaultConfig {
            persistent_variants: vec!["Select".to_string()],
            ..FaultConfig::default()
        });
        let rec = Recorder::new();
        let (data, work) = hydro_setup(32);
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .deterministic();
        let policy = LaunchPolicy {
            allow_fallback: false,
            ..LaunchPolicy::default()
        };
        let err = run_hydro_step_planned(
            &dev,
            &data,
            &WorkSet::single(32, work),
            &StepPlan::uniform(Variant::Select, cfg),
            6.0,
            &rec,
            &policy,
        )
        .unwrap_err();
        match err {
            LaunchError::PersistentVariant { kernel, variant } => {
                assert_eq!(kernel, "upGeo");
                assert_eq!(variant, "Select");
            }
            other => panic!("expected PersistentVariant, got {other:?}"),
        }
    }

    #[test]
    fn zero_rate_injector_emits_no_fault_events() {
        let (dev, inj) = faulty_device(FaultConfig::default());
        let plain = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .deterministic();
        let rec_faulty = Recorder::new();
        let rec_plain = Recorder::new();
        let (data, work) = hydro_setup(32);
        let a = run_hydro_step(&dev, &data, &work, Variant::Select, 6.0, cfg, &rec_faulty).unwrap();
        let (data2, work2) = hydro_setup(32);
        let b = run_hydro_step(
            &plain,
            &data2,
            &work2,
            Variant::Select,
            6.0,
            cfg,
            &rec_plain,
        )
        .unwrap();
        assert_eq!(inj.injected(), 0);
        // Event streams are structurally identical: same kinds, names,
        // and values in the same order (timestamps excepted).
        let ea = rec_faulty.events();
        let eb = rec_plain.events();
        assert_eq!(ea.len(), eb.len());
        for (x, y) in ea.iter().zip(eb.iter()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.name, y.name);
            assert_eq!(x.value, y.value);
            assert!(x.kind != EventKind::Fault);
        }
        // And the physics is bit-identical.
        assert_eq!(data.rho.to_u32_vec(), data2.rho.to_u32_vec());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn a_demotion_is_shared_by_the_brackets_that_planned_the_same_variant() {
        // Select persistently faults; upGeo, upCor (and the rest of the
        // uniform default) planned it, upBarAc planned Broadcast.
        let (dev, inj) = faulty_device(FaultConfig {
            persistent_variants: vec!["Select".to_string()],
            ..FaultConfig::default()
        });
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .deterministic();
        let (data, work) = hydro_setup(32);
        let mut plan = StepPlan::uniform(Variant::Select, cfg);
        plan.set("upBarAc", Variant::Broadcast, cfg);
        let rec = Recorder::new();
        let timers = run_hydro_step_planned(
            &dev,
            &data,
            &WorkSet::single(32, work),
            &plan,
            6.0,
            &rec,
            &LaunchPolicy::default(),
        )
        .expect("the fallback chain absorbs the persistent fault");

        // The block is met once, at upGeo; every later bracket that
        // planned Select starts from the demoted variant without
        // re-probing, and the Broadcast bracket is untouched.
        let events = rec.events();
        assert_eq!(counter_total(&events, "launch.fallbacks"), 1.0);
        let blocked: Vec<_> = events
            .iter()
            .filter_map(|e| e.fault.as_deref())
            .filter(|f| f.kind == "persistent-variant")
            .collect();
        assert_eq!(blocked.len(), 1, "one persistent-variant fault event");
        assert_eq!(blocked[0].kernel, "upGeo");
        assert_eq!(inj.injected(), 1);
        for t in &timers {
            let want = if t.timer == "upBarAc" {
                "Broadcast"
            } else {
                "Memory, 32-bit"
            };
            for p in &t.profiles {
                assert_eq!(p.variant, want, "timer {}", t.timer);
            }
        }
    }

    #[test]
    fn mixed_plan_launches_each_timer_with_its_own_knobs() {
        let dev = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let base = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(64)
            .deterministic();
        let policy = LaunchPolicy::default();
        let pos: Vec<[f64; 3]> = (0..16)
            .map(|i| {
                [
                    1.0 + (i % 4) as f64,
                    1.0 + ((i / 4) % 4) as f64,
                    1.0 + (i / 16) as f64,
                ]
            })
            .collect();
        let hp = crate::particles::HostParticles {
            pos: pos.clone(),
            vel: vec![[0.1, 0.0, 0.0]; 16],
            mass: vec![1.0; 16],
            h: vec![1.2; 16],
            u: vec![1.0; 16],
        };
        let tree = RcbTree::build(&hp.pos, 32);
        let list = InteractionList::build(&tree, 6.0, 2.5);
        let data = DeviceParticles::upload(&hp.permuted(&tree.order));

        let mut plan = StepPlan::uniform(Variant::Select, base);
        plan.set(
            "upBarAc",
            Variant::Broadcast,
            base.with_sg_size(32).with_wg_size(256),
        );
        plan.set("upBarAcF", Variant::Memory32, base.with_sg_size(32));
        assert_eq!(
            plan.sg_sizes().into_iter().collect::<Vec<_>>(),
            vec![32, 64]
        );
        let works = WorkSet::build(&tree, &list, plan.sg_sizes());
        let rec = Recorder::new();
        let timers =
            run_hydro_step_planned(&dev, &data, &works, &plan, 6.0, &rec, &policy).unwrap();
        // The launch-order table names exactly the seven paper timers.
        let mut launched: Vec<&str> = timers.iter().map(|t| t.timer.as_str()).collect();
        launched.sort_unstable();
        let mut paper = HYDRO_TIMERS;
        paper.sort_unstable();
        assert_eq!(launched, paper);
        for t in &timers {
            let (want_variant, want_cfg) = plan.choice(&t.timer);
            assert_eq!(t.report.sg_size, want_cfg.sg_size, "timer {}", t.timer);
            for p in &t.profiles {
                assert_eq!(p.variant, want_variant.label(), "timer {}", t.timer);
            }
        }
        assert_eq!(timers[3].report.wg_size, 256);
    }

    #[test]
    fn planned_step_without_worklists_for_a_size_is_a_config_error() {
        let dev = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .deterministic();
        let (data, work) = hydro_setup(32);
        let mut plan = StepPlan::uniform(Variant::Select, cfg);
        plan.set("upCor", Variant::Select, cfg.with_sg_size(64));
        let works = WorkSet::single(32, work);
        let err = run_hydro_step_planned(
            &dev,
            &data,
            &works,
            &plan,
            6.0,
            &Recorder::new(),
            &LaunchPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LaunchError::Config { .. }));
    }

    #[test]
    fn corruption_is_counted_and_reconciles() {
        let (dev, inj) = faulty_device(FaultConfig {
            seed: 5,
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        });
        let rec = Recorder::new();
        let (data, work) = hydro_setup(32);
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .deterministic();
        run_hydro_step(&dev, &data, &work, Variant::Select, 6.0, cfg, &rec).unwrap();
        let events = rec.events();
        let injected = counter_total(&events, "faults.injected");
        assert!(injected >= 7.0, "every pair kernel corrupts at rate 1");
        assert_eq!(injected as usize, inj.injected());
        assert_eq!(
            inj.injected_of(sycl_sim::FaultKind::Corruption),
            inj.injected()
        );
    }
}
