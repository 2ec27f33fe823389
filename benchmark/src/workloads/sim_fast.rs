//! `sim_fast` — the fast path a user waits on, and the plain
//! single-threaded baseline: one op is one `Simulation::step` on the
//! paper's test problem scaled to 2×8³ particles (Frontier, Select,
//! sub-group 64, unmetered, serial). Kernel interpretation is nearly
//! all of the op, so this is where a kernel or interpreter optimisation
//! shows and where FFT, tree or transport work must read "no change".
//!
//! A round is the paper's whole five-step run on a fresh simulation, so
//! every round times the same five steps however many rounds fit.

use super::{build_work, check, probe_ms, probe_pair_ms, timed, Samples, Workload};
use crate::expected::Expected;
use crate::metrics::{LayerValues, KERNEL_TIMERS};
use crate::native;
use crate::stats::median;
use crate::trace::{self_times_ns, Tracer, PROBE_OP};
use crk_hacc::core::{DeviceConfig, FullCheckpoint, SimConfig, Simulation, Species, StepGuard};
use crk_hacc::cosmo::{z_to_a, Friedmann};
use crk_hacc::kernels::{
    run_gravity, run_hydro_step, DeviceParticles, GravityParams, HostParticles, TimerReport,
    WorkLists,
};
use crk_hacc::mesh::{ForceSplit, PmSolver, PolyShortRange};
use crk_hacc::sycl::{Device, ExecutionPolicy, GpuArch, LaunchConfig, MeterPolicy, Sg};
use crk_hacc::telemetry::{Event, EventKind, Recorder, Sink};
use crk_hacc::tree::{InteractionList, RcbTree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Steps whose digest the metered-serial reference pins (and the
/// warm-up ops of set-up).
const CHECK_STEPS: usize = 3;

pub struct SimFast {
    cfg: SimConfig,
    arch: GpuArch,
    dev_cfg: DeviceConfig,
    guard: StepGuard,
    expected: Expected,
    /// Digest of the metered-serial reference after [`CHECK_STEPS`].
    digest_check: u64,
    /// Digest after a whole round; every round must reproduce it.
    digest_final: Option<u64>,
    /// Modeled device seconds per step of the metered reference.
    modeled_device_s: f64,
}

impl SimFast {
    pub fn setup(seed: u64, smoke: bool, samples: &mut Samples) -> Self {
        let mut cfg = SimConfig::paper_test_problem(64);
        cfg.seed = seed;
        if smoke {
            cfg.n_steps = 3;
        }
        let arch = GpuArch::frontier();
        let dev_cfg = DeviceConfig::sycl_optimized(&arch);
        let check_steps = CHECK_STEPS.min(cfg.n_steps);

        // Reference: the fully metered serial interpreter.
        let mut reference = Simulation::new(cfg.clone(), dev_cfg, arch.clone());
        reference.set_meter_policy(MeterPolicy::Full);
        reference.set_execution_policy(ExecutionPolicy::Serial);
        let guard = StepGuard::new(&reference);
        for _ in 0..check_steps {
            reference.step();
        }
        let this = Self {
            cfg,
            arch,
            dev_cfg,
            guard,
            expected: Expected::load("sim_fast", seed, smoke),
            digest_check: reference.state_digest(),
            digest_final: None,
            modeled_device_s: reference.summary().gpu_seconds / check_steps as f64,
        };
        // Warm-up: the fast path must land on the reference's bits.
        let mut sim = this.fresh();
        for step in 1..=check_steps {
            sim.step();
            let fails = this.check_step(&sim, step);
            samples.record(None, fails);
        }
        this
    }

    /// A new simulation on the fast path: unmetered, serial.
    fn fresh(&self) -> Simulation {
        let mut sim = Simulation::new(self.cfg.clone(), self.dev_cfg, self.arch.clone());
        sim.set_meter_policy(MeterPolicy::Off);
        sim.set_execution_policy(ExecutionPolicy::Serial);
        sim
    }

    fn check_step(&self, sim: &Simulation, step: usize) -> Vec<String> {
        let mut fails = Vec::new();
        if let Err(v) = self.guard.check(sim) {
            fails.push(format!("step {step}: {v}"));
        }
        if step == CHECK_STEPS.min(self.cfg.n_steps) {
            let d = sim.state_digest();
            check(&mut fails, d == self.digest_check, || {
                format!(
                    "step {step}: fast digest {d:#x} != metered-serial {:#x}",
                    self.digest_check
                )
            });
            self.expected.exact(&mut fails, "digest_check", d);
            self.expected
                .modeled(&mut fails, "modeled_device_s", self.modeled_device_s);
        }
        fails
    }
}

impl Workload for SimFast {
    fn particle_steps_per_op(&self) -> f64 {
        2.0 * self.cfg.box_spec.particles_per_species() as f64
    }

    fn round(&mut self, t: &mut Tracer, samples: &mut Samples) {
        let mut sim = self.fresh();
        let mut ops = Vec::new();
        for step in 1..=self.cfg.n_steps {
            let idx = t.spans().len();
            let start_ns = t.now_ns();
            t.set_op(samples.attempted);
            let ((), ms) = timed(|| t.span("op", |_| sim.step()));
            ops.push((idx, start_ns));
            let mut fails = self.check_step(&sim, step);
            if step == self.cfg.n_steps {
                let d = sim.state_digest();
                let first = *self.digest_final.get_or_insert(d);
                check(&mut fails, d == first, || {
                    format!("round digest {d:#x} != first round's {first:#x}")
                });
                self.expected.exact(&mut fails, "digest_final", d);
            }
            samples.record(Some(ms), fails);
        }
        if t.enabled() {
            import_step_timers(t, &sim.telemetry.events(), &ops);
        }
    }

    fn layers(&mut self, t: &mut Tracer, samples: &mut Samples, out: &mut LayerValues) {
        out.set("modeled.device_s", self.modeled_device_s);

        // State at the start of the step after the checked ones.
        let mut sim = self.fresh();
        for _ in 0..CHECK_STEPS.min(self.cfg.n_steps - 1) {
            sim.step();
        }
        let state = FullCheckpoint::capture(&sim);

        let step_events = {
            let before = sim.telemetry.len();
            sim.step();
            sim.telemetry.len() - before
        };
        out.set("hacc-telemetry.events_per_step", step_events as f64);

        // The real step from that state (rewound between samples)
        // against the same pipeline through the public calls, under
        // spans.
        const REPLAYS: usize = 7;
        let mut replay = Replay::new(&self.cfg, &sim, &state);
        let first_replay_span = t.spans().len();
        let mut attributed = Vec::new();
        t.set_op(PROBE_OP);
        let (step_ms, _) = probe_pair_ms(
            REPLAYS,
            || {
                state.restore_into(&mut sim).expect("same configuration");
                sim.step();
            },
            || {
                let idx = t.spans().len();
                t.span("replay", |t| replay.step(t));
                let spans = t.spans();
                attributed.push((spans[idx].dur_ns() - self_times_ns(spans)[idx]) as f64 * 1e-6);
            },
        );
        // The untimed first call of the pair is a replay like the others.
        let replays = attributed.len() as f64;
        let attributed_ms = median(&attributed);
        println!("real step {step_ms:.3} ms; replayed layer spans {attributed:.3?} ms");
        // Host-layer busy time per step; the kernel timers keep the
        // values the real steps gave them.
        let replay_spans = t.spans()[first_replay_span..].to_vec();
        out.set_from_spans(&replay_spans, replays);
        out.set(
            "core.step_unattributed_share",
            (step_ms - attributed_ms) / step_ms,
        );
        out.set("harness.op_attributed_share", attributed_ms / step_ms);

        replay.metered(out);
        let kernel_ms: f64 = KERNEL_TIMERS
            .iter()
            .map(|k| out.get(&format!("hacc-kernels.wall_ms.{k}")))
            .sum();
        out.set(
            "hacc-kernels.ns_per_op",
            kernel_ms * 1e6 / out.get("hacc-kernels.ops_per_step"),
        );
        let interp_ms = replay.native_gravity(samples, out);
        out.set(
            "hacc-kernels.upGrav_interp_overhead_x",
            interp_ms / out.get("hacc-kernels.upGrav_native_ms"),
        );

        // core: construction, guard, HCK2 codec.
        out.set("core.sim_new_ms", probe_ms(5, || self.fresh()));
        out.set(
            "core.guard_check_us",
            1e3 * probe_ms(21, || self.guard.check(&sim).is_ok()),
        );
        let bytes = state.to_bytes();
        let mb = bytes.len() as f64 / 1e6;
        out.set(
            "core.hck2_encode_mb_per_s",
            mb / (1e-3 * probe_ms(21, || state.to_bytes())),
        );
        out.set(
            "core.hck2_decode_mb_per_s",
            mb / (1e-3
                * probe_ms(21, || {
                    FullCheckpoint::from_bytes(bytes.clone()).expect("round trip")
                })),
        );

        // sycl-sim: the fixed cost of the smallest launchable kernel.
        let device = &sim.device;
        let cfg = sim.launch;
        let noop = |_: &mut Sg| {};
        out.set(
            "sycl-sim.launch_fixed_us",
            1e3 * probe_ms(101, || device.launch(&noop, 1, cfg).expect("no-op launch")),
        );

        // hacc-telemetry: emit cost, exporters, and what a sink costs a step.
        let events = sim.telemetry.events();
        let rec = Recorder::new();
        const EMITS: usize = 100_000;
        let ((), emit_ms) = timed(|| {
            for _ in 0..EMITS {
                rec.counter("probe", 1.0);
            }
        });
        out.set(
            "hacc-telemetry.emit_ns_per_event",
            emit_ms * 1e6 / EMITS as f64,
        );
        let jsonl_len = crk_hacc::telemetry::jsonl::to_jsonl(&events).len();
        out.set(
            "hacc-telemetry.jsonl_mb_per_s",
            jsonl_len as f64
                / 1e6
                / (1e-3 * probe_ms(5, || crk_hacc::telemetry::jsonl::to_jsonl(&events))),
        );
        out.set(
            "hacc-telemetry.chrome_export_ms",
            probe_ms(5, || crk_hacc::telemetry::chrome::chrome_trace(&events)),
        );
        let sunk = Arc::new(AtomicUsize::new(0));
        let mut sinking = self.fresh();
        sinking
            .telemetry
            .add_sink(Box::new(JsonlSink(sunk.clone())));
        let (plain_ms, sink_ms) = probe_pair_ms(
            5,
            || {
                state.restore_into(&mut sim).expect("same configuration");
                sim.step();
            },
            || {
                state
                    .restore_into(&mut sinking)
                    .expect("same configuration");
                sinking.step();
            },
        );
        std::hint::black_box(sunk.load(Ordering::Relaxed));
        out.set(
            "hacc-telemetry.sink_overhead_share",
            sink_ms / plain_ms - 1.0,
        );
    }

    fn pins(&self) -> Vec<(String, String)> {
        vec![
            ("digest_check".into(), format!("{:#x}", self.digest_check)),
            (
                "digest_final".into(),
                format!("{:#x}", self.digest_final.unwrap_or(0)),
            ),
            (
                "modeled_device_s".into(),
                format!("{:?}", self.modeled_device_s),
            ),
        ]
    }
}

/// A sink that serializes every event to one JSON line, as an attached
/// JSONL exporter would, keeping only the byte count.
struct JsonlSink(Arc<AtomicUsize>);

impl Sink for JsonlSink {
    fn on_event(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("event serializes");
        self.0.fetch_add(line.len() + 1, Ordering::Relaxed);
    }
}

/// Copies the program's own kernel-timer spans (`upGeo` … `upGrav` in
/// a recorder's event stream) under harness span `parent`. The
/// recorder's epoch is private, so the events are shifted to put the
/// first of them at `start_ns`, where the harness span began.
fn import_timers(t: &mut Tracer, events: &[Event], start_ns: u64, parent: usize) {
    let Some(first) = events.first() else {
        return;
    };
    let at = |ns: u64| start_ns + (ns - first.t_ns);
    let mut open: Vec<(u64, u64)> = Vec::new(); // (span id, begin t_ns)
    for ev in events {
        match ev.kind {
            EventKind::SpanBegin if KERNEL_TIMERS.contains(&ev.name.as_str()) => {
                open.push((ev.id, ev.t_ns));
            }
            EventKind::SpanEnd => {
                if let Some(pos) = open.iter().position(|o| o.0 == ev.parent) {
                    let (_, begin) = open.swap_remove(pos);
                    let name = format!("hacc-kernels.wall_ms.{}", ev.name);
                    t.import(&name, at(begin), at(ev.t_ns), parent);
                }
            }
            _ => {}
        }
    }
}

/// [`import_timers`] for a simulation's stream: its k-th `step` span
/// belongs to the k-th `(op span, start_ns)` of `ops`.
fn import_step_timers(t: &mut Tracer, events: &[Event], ops: &[(usize, u64)]) {
    let starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::SpanBegin && e.name == "step")
        .map(|(i, _)| i)
        .collect();
    for (k, (&(parent, start_ns), &from)) in ops.iter().zip(&starts).enumerate() {
        let to = starts.get(k + 1).copied().unwrap_or(events.len());
        import_timers(t, &events[from..to], start_ns, parent);
    }
}

/// One step's pipeline through the same public calls `Simulation::step`
/// makes, in the same order, on a captured state. The state is not
/// advanced between sub-cycles: the calls and their sizes are the
/// step's, the inputs of the second sub-cycle are the first's.
struct Replay<'a> {
    cfg: &'a SimConfig,
    state: &'a FullCheckpoint,
    device: Device,
    launch: LaunchConfig,
    variant: crk_hacc::kernels::Variant,
    pm: PmSolver,
    gravity_params: GravityParams,
    friedmann: Friedmann,
    box_size: f64,
    max_leaf: usize,
    baryons: Vec<usize>,
    baryon_pos: Vec<[f64; 3]>,
}

impl<'a> Replay<'a> {
    fn new(cfg: &'a SimConfig, sim: &Simulation, state: &'a FullCheckpoint) -> Self {
        let split = ForceSplit::new(cfg.r_split_cells, cfg.r_cut_cells);
        let poly = PolyShortRange::fit(split, 5);
        let baryons: Vec<usize> = (0..state.len())
            .filter(|&i| state.species[i] == Species::Baryon)
            .collect();
        Self {
            cfg,
            state,
            device: sim.device.clone(),
            launch: sim.launch,
            variant: sim.variant,
            pm: PmSolver::new(cfg.box_spec.ng, Some(split)),
            gravity_params: GravityParams {
                poly: std::array::from_fn(|i| poly.coeffs[i] as f32),
                r_cut2: (cfg.r_cut_cells * cfg.r_cut_cells) as f32,
                soft2: 1e-4,
            },
            friedmann: Friedmann::new(cfg.cosmo),
            box_size: cfg.box_spec.ng as f64,
            max_leaf: cfg
                .max_leaf
                .unwrap_or(sim.variant.preferred_leaf_capacity(sim.launch.sg_size)),
            baryon_pos: baryons.iter().map(|&i| state.pos[i]).collect(),
            baryons,
        }
    }

    fn pm(&mut self, t: &mut Tracer) {
        t.span("hacc-mesh.pm_accel_ms", |_| {
            let mut out = Vec::new();
            self.pm
                .accelerations(&self.state.pos, &self.state.mass, &mut out);
            std::hint::black_box(out);
        });
    }

    /// Tree, leaf pairs and work lists of one offload over `pos`.
    fn geometry(&self, t: &mut Tracer, pos: &[[f64; 3]]) -> (RcbTree, InteractionList, WorkLists) {
        build_work(
            t,
            pos,
            self.box_size,
            self.cfg.r_cut_cells,
            self.max_leaf,
            self.launch.sg_size,
        )
    }

    /// Leaf-ordered host particles of the gravity offload.
    fn gravity_particles(&self, order: &[u32]) -> HostParticles {
        let prefactor = 1.0 / (4.0 * std::f64::consts::PI);
        let n = self.state.len();
        HostParticles {
            pos: self.state.pos.clone(),
            vel: vec![[0.0; 3]; n],
            mass: self.state.mass.iter().map(|m| m * prefactor).collect(),
            h: vec![1.0; n],
            u: vec![0.0; n],
        }
        .permuted(order)
    }

    /// Leaf-ordered host particles of the hydro offload.
    fn hydro_particles(&self, order: &[u32]) -> HostParticles {
        let s = self.state;
        let a2 = s.a * s.a;
        let idx = &self.baryons;
        HostParticles {
            pos: self.baryon_pos.clone(),
            vel: idx
                .iter()
                .map(|&i| [s.mom[i][0] / a2, s.mom[i][1] / a2, s.mom[i][2] / a2])
                .collect(),
            mass: idx.iter().map(|&i| s.mass[i]).collect(),
            h: idx.iter().map(|&i| s.h[i]).collect(),
            u: idx.iter().map(|&i| s.u_int[i].max(1e-12)).collect(),
        }
        .permuted(order)
    }

    fn gravity(
        &self,
        data: &DeviceParticles,
        work: &WorkLists,
        launch: LaunchConfig,
        rec: &Recorder,
    ) -> TimerReport {
        run_gravity(
            &self.device,
            data,
            work,
            self.variant,
            self.box_size as f32,
            self.gravity_params,
            launch,
            rec,
        )
        .expect("fault-free gravity launch")
    }

    fn hydro(
        &self,
        data: &DeviceParticles,
        work: &WorkLists,
        launch: LaunchConfig,
        rec: &Recorder,
    ) -> Vec<TimerReport> {
        run_hydro_step(
            &self.device,
            data,
            work,
            self.variant,
            self.box_size as f32,
            launch,
            rec,
        )
        .expect("fault-free hydro step")
    }

    fn step(&mut self, t: &mut Tracer) {
        let a0 = z_to_a(self.cfg.z_init);
        let a1 = z_to_a(self.cfg.z_final);
        self.pm(t);
        for _ in 0..self.cfg.sub_cycles {
            t.span("hacc-cosmo.kdk_factors_us", |_| {
                std::hint::black_box((
                    self.friedmann.kick_factor(a0, a1),
                    self.friedmann.drift_factor(a0, a1),
                    self.friedmann.time_between(a0, a1),
                ))
            });
            // Short-range gravity on every particle.
            let (tree, _, work) = self.geometry(t, &self.state.pos);
            let data = t.span("hacc-kernels.upload_ms", |_| {
                DeviceParticles::upload(&self.gravity_particles(&tree.order))
            });
            let rec = Recorder::new();
            t.span("hacc-kernels.wall_ms.upGrav", |_| {
                self.gravity(&data, &work, self.launch, &rec)
            });
            t.span("hacc-kernels.download_ms", |_| {
                std::hint::black_box(scatter(&data.download_vec3(&data.acc_grav), &tree.order))
            });

            // CRK hydro on the baryons.
            let (tree, _, work) = self.geometry(t, &self.baryon_pos);
            let data = t.span("hacc-kernels.upload_ms", |_| {
                DeviceParticles::upload(&self.hydro_particles(&tree.order))
            });
            let rec = Recorder::new();
            let idx = t.spans().len();
            let start_ns = t.now_ns();
            t.span("hydro_step", |_| {
                self.hydro(&data, &work, self.launch, &rec)
            });
            if t.enabled() {
                import_timers(t, &rec.events(), start_ns, idx);
            }
            t.span("hacc-kernels.download_ms", |_| {
                std::hint::black_box((
                    scatter(&data.download_vec3(&data.acc), &tree.order),
                    data.volume.to_f32_vec(),
                    data.du_dt.to_f32_vec(),
                ))
            });
        }
        self.pm(t);
    }

    /// One metered sub-cycle: exact instruction counts, computed bytes
    /// and modeled seconds per kernel timer, scaled to the step.
    fn metered(&self, out: &mut LayerValues) {
        let launch = LaunchConfig {
            meter: MeterPolicy::Full,
            ..self.launch
        };
        let mut t = Tracer::new(false);
        let rec = Recorder::new();
        let (tree, list, work) = self.geometry(&mut t, &self.state.pos);
        out.set("hacc-tree.rcb_leaves", tree.n_leaves() as f64);
        out.set("hacc-tree.ilist_pairs", list.len() as f64);
        out.set("hacc-kernels.worklist_tiles", work.tiles.len() as f64);
        let data = DeviceParticles::upload(&self.gravity_particles(&tree.order));
        let mut reports = vec![self.gravity(&data, &work, launch, &rec)];
        let (tree, _, work) = self.geometry(&mut t, &self.baryon_pos);
        let data = DeviceParticles::upload(&self.hydro_particles(&tree.order));
        reports.extend(self.hydro(&data, &work, launch, &rec));
        let cycles = self.cfg.sub_cycles as f64;
        let (mut ops, mut bytes) = (0.0, 0.0);
        for r in &reports {
            let timer_ops: u64 = r.profiles.iter().map(|p| p.total_instr()).sum();
            let timer_bytes: u64 = r.profiles.iter().map(|p| p.bytes_moved).sum();
            ops += cycles * timer_ops as f64;
            bytes += cycles * timer_bytes as f64;
            out.set(
                &format!("hacc-kernels.ops.{}", r.timer),
                cycles * timer_ops as f64,
            );
            out.set(
                &format!("hacc-kernels.modeled_s.{}", r.timer),
                cycles * self.device.profile(&r.report).est_seconds,
            );
        }
        out.set("hacc-kernels.ops_per_step", ops);
        out.set("hacc-kernels.bytes_moved_per_step", bytes);
    }

    /// The native `upGrav` loop against the interpreter on the same
    /// tiles; returns the interpreter's wall and records a failed op if
    /// the two disagree beyond f32 summation-order tolerance.
    fn native_gravity(&self, samples: &mut Samples, out: &mut LayerValues) -> f64 {
        let (tree, _, work) = self.geometry(&mut Tracer::new(false), &self.state.pos);
        let hp = self.gravity_particles(&tree.order);
        let data = DeviceParticles::upload(&hp);
        let rec = Recorder::new();
        let cols = native::Columns::from_host(&hp.pos, &hp.mass);
        let (box_size, params) = (self.box_size as f32, &self.gravity_params);
        let (interp_ms, native_ms) = probe_pair_ms(
            7,
            || self.gravity(&data, &work, self.launch, &rec),
            || native::gravity(&cols, &work.tiles, box_size, params),
        );
        out.set("hacc-kernels.upGrav_native_ms", native_ms);
        let err = native::max_rel_error(
            &native::gravity(&cols, &work.tiles, box_size, params),
            &data.download_vec3(&data.acc_grav),
        );
        let mut fails = Vec::new();
        check(&mut fails, err < 1e-3, || {
            format!("native upGrav differs from the interpreter by {err:e} of the peak")
        });
        samples.record(None, fails);
        interp_ms
    }
}

/// Leaf order back to subset order, widening as the driver does.
fn scatter(leaf_ordered: &[[f32; 3]], order: &[u32]) -> Vec<[f64; 3]> {
    let mut out = vec![[0.0f64; 3]; order.len()];
    for (slot, &pi) in order.iter().enumerate() {
        out[pi as usize] = leaf_ordered[slot].map(f64::from);
    }
    out
}
