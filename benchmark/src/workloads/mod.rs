//! The four workloads. Each builds its inputs from the seed, runs
//! rounds of fixed work (so every round's op population is identical
//! however fast the host is), checks every op's output, and — in the
//! traced run — measures its home layers.

use crate::metrics::LayerValues;
use crate::trace::Tracer;
use std::time::Instant;

pub mod host_mesh;
pub mod pp_sweep;
pub mod ranks8_async;
pub mod sim_fast;

/// Workload names, in report order. Later issues cite them.
pub const NAMES: [&str; 4] = ["sim_fast", "pp_sweep", "host_mesh", "ranks8_async"];

/// Seed the pinned expectations in `expected.json` belong to.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Timed-op wall samples plus the failure ledger.
#[derive(Default)]
pub struct Samples {
    /// Wall milliseconds of each timed op.
    pub op_ms: Vec<f64>,
    /// Operations attempted (warm-up and timed).
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// First few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Samples {
    /// Counts one op; `checks` holds the messages of its failed checks.
    pub fn record(&mut self, timed_ms: Option<f64>, checks: Vec<String>) {
        self.attempted += 1;
        if let Some(ms) = timed_ms {
            self.op_ms.push(ms);
        }
        if !checks.is_empty() {
            self.failed += 1;
            for m in checks {
                if self.messages.len() < 8 {
                    self.messages.push(m);
                }
            }
        }
    }
}

/// Pushes `msg` onto `fails` unless `ok`.
pub fn check(fails: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        fails.push(msg());
    }
}

/// Times `f` in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median wall milliseconds of `reps` calls of `f` (after one untimed
/// call) — the micro-probes' timer.
pub fn probe_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, ms) = timed(&mut f);
            std::hint::black_box(out);
            ms
        })
        .collect();
    crate::stats::median(&samples)
}

/// Median wall milliseconds of `a` and of `b`, alternated `reps` times
/// (after one untimed call of each) so that slow drift of the host hits
/// both alike — the timer behind every ratio metric.
pub fn probe_pair_ms<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    std::hint::black_box((a(), b()));
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (out, ms) = timed(&mut a);
        std::hint::black_box(out);
        ta.push(ms);
        let (out, ms) = timed(&mut b);
        std::hint::black_box(out);
        tb.push(ms);
    }
    (crate::stats::median(&ta), crate::stats::median(&tb))
}

/// A workload after set-up.
pub trait Workload {
    /// Particle-steps one timed op advances (the throughput numerator).
    fn particle_steps_per_op(&self) -> f64;

    /// One round of fixed work: runs and checks its ops, pushing each
    /// timed op's wall into `samples`.
    fn round(&mut self, tracer: &mut Tracer, samples: &mut Samples);

    /// Traced run only: checks made once outside the timed region, the
    /// counts and modeled-clock values of this workload, and the probes
    /// of its home layers.
    fn layers(&mut self, tracer: &mut Tracer, samples: &mut Samples, out: &mut LayerValues);

    /// `name = value` lines of everything the checks compare, printed
    /// in the report (and the source of `expected.json`).
    fn pins(&self) -> Vec<(String, String)>;
}

/// Builds a workload: construction, reference runs and warm-up ops —
/// everything `setup_s` times.
pub fn setup(name: &str, seed: u64, smoke: bool, samples: &mut Samples) -> Box<dyn Workload> {
    match name {
        "sim_fast" => Box::new(sim_fast::SimFast::setup(seed, smoke, samples)),
        "pp_sweep" => Box::new(pp_sweep::PpSweep::setup(seed, smoke, samples)),
        "host_mesh" => Box::new(host_mesh::HostMesh::setup(seed, smoke, samples)),
        "ranks8_async" => Box::new(ranks8_async::Ranks8Async::setup(seed, smoke, samples)),
        other => unreachable!("workload `{other}` was validated by the CLI"),
    }
}

/// Host threads every workload runs on (`RAYON_NUM_THREADS`). One:
/// on the shared two-core host this was sized on, the two-thread
/// workloads drifted three to four times as widely as the one-thread
/// one (18 % against 4 % in the same noisy hour), because any other
/// process costs a two-thread op a core. The parallel scheduler, the
/// deferred-atomic commit replay and the task graph still run — on one
/// worker — and `sycl-sim.par_speedup_x` measures what a second thread
/// buys.
pub const THREADS: usize = 1;

/// The host side of one offload — `RcbTree::build` →
/// `InteractionList::build` → `WorkLists::build` — under the spans the
/// layer metrics of the same names are read from.
pub fn build_work(
    t: &mut Tracer,
    pos: &[[f64; 3]],
    box_size: f64,
    r_cut: f64,
    max_leaf: usize,
    sg_size: usize,
) -> (
    crk_hacc::tree::RcbTree,
    crk_hacc::tree::InteractionList,
    crk_hacc::kernels::WorkLists,
) {
    use crk_hacc::kernels::WorkLists;
    use crk_hacc::tree::{InteractionList, RcbTree};
    let tree = t.span("hacc-tree.rcb_build_ms", |_| RcbTree::build(pos, max_leaf));
    let list = t.span("hacc-tree.ilist_build_ms", |_| {
        InteractionList::build(&tree, box_size, r_cut)
    });
    let work = t.span("hacc-kernels.worklist_build_ms", |_| {
        WorkLists::build(&tree, &list, sg_size)
    });
    (tree, list, work)
}
