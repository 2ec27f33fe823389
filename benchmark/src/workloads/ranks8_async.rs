//! `ranks8_async` — the distributed path: one op is a 64-step segment
//! of a fresh eight-rank `MultiRankSim` on the task-graph executor,
//! then a coordinated checkpoint pushed through the HCK3 codec and
//! restored. The work is `hacc-comm` transport traffic,
//! `sycl_sim::taskgraph` scheduling and the checkpoint codec; no CRK
//! kernel and no mesh is touched, so their optimisations must read "no
//! change" here. This is the baseline for ROADMAP items 1 and 2; when
//! item 2 removes `MultiRankSim`, re-pointing this workload is its own
//! benchmark issue.

use super::{check, probe_ms, timed, Samples, Workload};
use crate::expected::Expected;
use crate::metrics::LayerValues;
use crate::trace::Tracer;
use crk_hacc::comm::{Interconnect, ParticleBatch, Tag, Transport};
use crk_hacc::core::{MultiRankCheckpoint, MultiRankProblem, MultiRankSim, StepStats};
use crk_hacc::sycl::{GpuArch, ResourceId, TaskGraph};
use std::collections::BTreeSet;

const RANKS: usize = 8;
/// Warm-up segments in set-up.
const WARM_UP: usize = 2;

/// What one segment produced, for the identical-every-op check.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Outcome {
    digest: u64,
    /// Σ `node_seconds` over the segment (modeled clock).
    modeled_device_s: f64,
    /// Σ `wait_seconds` ÷ (ranks × Σ `node_seconds`).
    wait_share: f64,
}

pub struct Ranks8Async {
    problem: MultiRankProblem,
    steps: u64,
    expected: Expected,
    /// Digest of the one-rank barriered run of the same segment.
    digest_serial: u64,
    first: Option<Outcome>,
}

fn outcome(sim: &MultiRankSim, stats: &[StepStats]) -> Outcome {
    let node: f64 = stats.iter().map(|s| s.node_seconds).sum();
    let wait: f64 = stats
        .iter()
        .flat_map(|s| &s.per_rank)
        .map(|r| r.wait_seconds)
        .sum();
    Outcome {
        digest: sim.state_digest(),
        modeled_device_s: node,
        wait_share: wait / (RANKS as f64 * node),
    }
}

impl Ranks8Async {
    pub fn setup(seed: u64, smoke: bool, samples: &mut Samples) -> Self {
        let (n, steps) = if smoke { (256, 16) } else { (1024, 64) };
        let problem = MultiRankProblem::small(n, seed);
        let mut serial = MultiRankSim::new(1, GpuArch::frontier(), problem);
        serial.set_async(false);
        serial
            .run(steps)
            .expect("the one-rank reference runs without fault injection");
        let mut this = Self {
            problem,
            steps,
            expected: Expected::load("ranks8_async", seed, smoke),
            digest_serial: serial.state_digest(),
            first: None,
        };
        for _ in 0..WARM_UP {
            let (fails, _) = this.op(&mut Tracer::new(false));
            samples.record(None, fails);
        }
        this
    }

    fn fresh(&self) -> MultiRankSim {
        let mut sim = MultiRankSim::new(RANKS, GpuArch::frontier(), self.problem);
        sim.set_async(true);
        sim
    }

    /// One segment + checkpoint round trip; returns the failed checks
    /// and the wall milliseconds.
    fn op(&mut self, t: &mut Tracer) -> (Vec<String>, f64) {
        let mut fails = Vec::new();
        let steps = self.steps;
        let ((sim, stats, restored), ms) = timed(|| {
            t.span("op", |t| {
                let mut sim = t.span("core.multirank_new", |_| self.fresh());
                let stats: Result<Vec<StepStats>, _> = (0..steps)
                    .map(|_| t.span("core.multirank_step_ms", |_| sim.step()))
                    .collect();
                let ckpt = t.span("core.checkpoint", |_| sim.checkpoint());
                let bytes = t.span("core.hck3_encode", |_| ckpt.to_bytes());
                let back = t.span("core.hck3_decode", |_| {
                    MultiRankCheckpoint::from_bytes(bytes)
                });
                let restored = back.map_err(|e| e.to_string()).and_then(|b| {
                    t.span("core.restore_ms", |_| sim.restore(&b))
                        .map_err(|e| e.to_string())
                });
                (sim, stats, restored)
            })
        });
        if let Err(e) = restored {
            fails.push(format!("HCK3 round trip: {e}"));
        }
        match stats {
            Err(e) => fails.push(format!("segment failed: {e}")),
            Ok(stats) => {
                let got = outcome(&sim, &stats);
                let first = *self.first.get_or_insert(got);
                check(&mut fails, got.digest == self.digest_serial, || {
                    format!(
                        "8-rank async digest {:#x} != 1-rank barriered {:#x} (or the HCK3 round trip moved it)",
                        got.digest, self.digest_serial
                    )
                });
                check(
                    &mut fails,
                    got.modeled_device_s.to_bits() == first.modeled_device_s.to_bits(),
                    || {
                        format!(
                            "modeled node seconds {:e} != first segment's {:e}",
                            got.modeled_device_s, first.modeled_device_s
                        )
                    },
                );
                check(
                    &mut fails,
                    got.wait_share.to_bits() == first.wait_share.to_bits(),
                    || {
                        format!(
                            "modeled wait share {:e} != first segment's {:e}",
                            got.wait_share, first.wait_share
                        )
                    },
                );
                self.expected.exact(&mut fails, "digest", got.digest);
                self.expected
                    .modeled(&mut fails, "modeled_device_s", got.modeled_device_s);
                self.expected
                    .modeled(&mut fails, "modeled_wait_share", got.wait_share);
            }
        }
        (fails, ms)
    }
}

impl Workload for Ranks8Async {
    fn particle_steps_per_op(&self) -> f64 {
        self.problem.n_particles as f64 * self.steps as f64
    }

    fn round(&mut self, t: &mut Tracer, samples: &mut Samples) {
        t.set_op(samples.attempted);
        let (fails, ms) = self.op(t);
        samples.record(Some(ms), fails);
    }

    fn layers(&mut self, _t: &mut Tracer, _samples: &mut Samples, out: &mut LayerValues) {
        let steps = self.steps as f64;
        let first = self.first.expect("set-up ran the warm-up segments");
        out.set("modeled.device_s", first.modeled_device_s);
        out.set("modeled.wait_share", first.wait_share);
        out.set(
            "core.modeled_wait_s_per_step",
            first.wait_share * RANKS as f64 * first.modeled_device_s / steps,
        );
        // The generic per-op rule summed a segment's steps; per step:
        out.set(
            "core.multirank_step_ms",
            out.get("core.multirank_step_ms") / steps,
        );

        // Transport volume of a segment, and whether its float
        // accounting repeats bit for bit across identical segments. The
        // hole is a completion-order one, so these run on two threads.
        std::env::set_var("RAYON_NUM_THREADS", "2");
        let mut seconds_bits = BTreeSet::new();
        let sim = (0..5)
            .map(|_| {
                let mut sim = self.fresh();
                sim.run(self.steps).expect("fault-free segment");
                seconds_bits.insert(sim.comm_stats().seconds.to_bits());
                sim
            })
            .last()
            .expect("five segments ran");
        std::env::set_var("RAYON_NUM_THREADS", super::THREADS.to_string());
        let stats = sim.comm_stats();
        out.set("hacc-comm.msgs_per_step", stats.messages as f64 / steps);
        out.set("hacc-comm.bytes_per_step", stats.bytes as f64 / steps);
        out.set(
            "hacc-comm.stats_seconds_variants",
            seconds_bits.len() as f64,
        );

        // HCK3 codec on the segment's final state.
        let ckpt = sim.checkpoint();
        let bytes = ckpt.to_bytes();
        let mb = bytes.len() as f64 / 1e6;
        out.set("core.hck3_bytes", bytes.len() as f64);
        out.set(
            "core.hck3_encode_mb_per_s",
            mb / (1e-3 * probe_ms(21, || ckpt.to_bytes())),
        );
        out.set(
            "core.hck3_decode_mb_per_s",
            mb / (1e-3
                * probe_ms(21, || {
                    MultiRankCheckpoint::from_bytes(bytes.clone()).expect("own bytes decode")
                })),
        );

        // hacc-comm driven directly: every rank sends 64 particles to
        // every other rank (56 messages), one exchange, inboxes drained.
        let transport = Transport::new(RANKS, Interconnect::for_arch(&GpuArch::frontier()));
        let mut batch = ParticleBatch::new();
        for id in 0..64u64 {
            let x = id as f64 * 0.25;
            batch.push(id, [x, x, x], [0.0; 3], 1.0, 1.0, 0.0);
        }
        let exchange_ms = probe_ms(21, || {
            for src in 0..RANKS {
                for dst in (0..RANKS).filter(|&d| d != src) {
                    transport.send(src, dst, Tag::Halo, batch.clone());
                }
            }
            transport.exchange().expect("fault-free exchange");
            (0..RANKS)
                .map(|r| transport.take_inbox_tagged(r, Tag::Halo).len())
                .sum::<usize>()
        });
        out.set(
            "hacc-comm.exchange_us_per_msg",
            exchange_ms * 1e3 / (RANKS * (RANKS - 1)) as f64,
        );
        let contributions = [1.0; RANKS];
        out.set(
            "hacc-comm.allreduce_us",
            1e3 * probe_ms(101, || transport.allreduce_sum(&contributions)),
        );

        // sycl-sim: scheduling cost of a thousand independent no-ops.
        const TASKS: usize = 1000;
        let graph_ms = probe_ms(11, || {
            let mut graph: TaskGraph<'_, ()> = TaskGraph::new();
            for i in 0..TASKS {
                graph.add_task("noop", &[], &[ResourceId::indexed("probe", i)], || Ok(()));
            }
            graph
                .run(super::THREADS, None, None)
                .expect("no-op tasks cannot fail")
        });
        out.set(
            "sycl-sim.taskgraph_us_per_task",
            graph_ms * 1e3 / TASKS as f64,
        );
    }

    fn pins(&self) -> Vec<(String, String)> {
        let f = self.first.expect("set-up ran the warm-up segments");
        vec![
            ("digest".into(), format!("{:#x}", f.digest)),
            ("digest_serial".into(), format!("{:#x}", self.digest_serial)),
            (
                "modeled_device_s".into(),
                format!("{:?}", f.modeled_device_s),
            ),
            ("modeled_wait_share".into(), format!("{:?}", f.wait_share)),
        ]
    }
}
