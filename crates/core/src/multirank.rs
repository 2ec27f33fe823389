//! The distributed multi-rank execution engine.
//!
//! CRK-HACC's node-level structure — 8 ranks per node, each owning a
//! rectangular subdomain plus an *overload* (ghost) zone one kernel
//! support radius deep — reproduced over the in-process transport.
//! Every step runs the production communication schedule:
//!
//! 1. **migrate** — particles that drifted across a domain face are
//!    shipped to their new owner;
//! 2. **post** — each rank posts halo copies of its boundary particles
//!    to every neighbor whose expanded domain reaches them;
//! 3. **compute interior** — particles at least `r_cut` from every
//!    face need no ghosts, so their forces run while the halo
//!    exchange is in flight (this is the comm/compute overlap the
//!    sweep measures);
//! 4. **wait + compute boundary** — the exchange barrier delivers
//!    ghosts and the remaining particles finish against them;
//! 5. **kick/drift + allreduce** — local update, then a deterministic
//!    global reduction for diagnostics.
//!
//! Determinism is bit-exact by construction at *any* rank count and
//! any thread count: rank state is kept sorted by global particle id,
//! ghost inboxes are delivered `(src, seq)`-sorted and re-sorted by
//! id, and every force accumulates in `f64` over neighbors in
//! ascending-id order. A particle's neighbor set within `r_cut` is
//! identical whether its neighbors are owned or ghosts, so the
//! 8-rank run reproduces the single-rank bits exactly — the
//! distributed analogue of the PR 3 parallel-commit replay rule.
//!
//! Wall-clock per rank comes from a mechanistic cost model (pair count
//! × per-pair cost at the architecture's de-rated fp32 peak, plus the
//! interconnect's α–β message costs), so scaling sweeps are both
//! reproducible and architecture-differentiated.

use crate::checkpoint::CheckpointError;
use crate::distckpt::MultiRankCheckpoint;
use crate::rank::{NodeMapping, RankLayout};
use hacc_comm::{
    CommError, ExchangeReport, Interconnect, ParticleBatch, Tag, Transport, TransportStats,
};
use hacc_telemetry::Recorder;
use hacc_tree::min_image;
use rayon::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;
use sycl_sim::{FaultConfig, GpuArch, ResourceId, RunError, TaskGraph};

/// Modeled flops per neighbor-pair interaction (distance, softened
/// inverse-cube, accumulate).
const PAIR_FLOPS: f64 = 38.0;
/// Modeled flops per particle per step outside the pair loop (kick,
/// drift, wrap).
const PARTICLE_FLOPS: f64 = 24.0;
/// Fraction of fp32 peak a memory-bound short-range kernel sustains.
const PAIR_EFFICIENCY: f64 = 0.12;

/// Problem definition for the multi-rank engine.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MultiRankProblem {
    /// Periodic box side in grid units.
    pub ng: usize,
    /// Total particle count across all ranks.
    pub n_particles: usize,
    /// Seed for the deterministic initial conditions.
    pub seed: u64,
    /// Interaction cutoff = ghost-zone depth, in grid units. Must not
    /// exceed the narrowest rank domain (the 27-neighborhood rule).
    pub r_cut: f64,
    /// Step size in internal time units.
    pub dt: f64,
    /// Plummer softening length.
    pub eps: f64,
    /// Cost-model work multiplier: each sweep particle stands in for
    /// this many production particles' worth of pair work. Production
    /// ranks hold millions of particles where compute dominates the
    /// interconnect latency; CI problems hold hundreds, which would be
    /// pure-latency-bound and make every scaling curve degenerate.
    /// Scaling the modeled (not executed) flops restores the paper's
    /// regime without inflating test runtimes. Physics is unaffected.
    pub work_scale: f64,
}

impl MultiRankProblem {
    /// A small pinned problem for tests and the CI sweep.
    pub fn small(n_particles: usize, seed: u64) -> Self {
        Self {
            ng: 16,
            n_particles,
            seed,
            r_cut: 2.0,
            dt: 0.05,
            eps: 0.05,
            work_scale: 16384.0,
        }
    }

    /// Rescales the periodic box (weak-scaling sweeps grow the box
    /// with the rank count to hold density constant).
    pub fn with_ng(mut self, ng: usize) -> Self {
        self.ng = ng;
        self
    }
}

/// One step's accounting for one rank.
#[derive(Clone, Debug, Serialize)]
pub struct RankStepStats {
    /// Rank id.
    pub rank: usize,
    /// Particles owned after migration.
    pub owned: usize,
    /// Ghost particles received this step.
    pub ghosts: usize,
    /// In-cutoff pairs evaluated in the interior (overlappable) phase.
    pub interior_pairs: u64,
    /// In-cutoff pairs evaluated in the boundary phase.
    pub boundary_pairs: u64,
    /// Modeled seconds of interior compute.
    pub interior_seconds: f64,
    /// Modeled seconds of boundary compute.
    pub boundary_seconds: f64,
    /// Modeled seconds of halo communication incident on this rank.
    pub halo_seconds: f64,
    /// Modeled seconds of migration communication incident on this rank.
    pub migrate_seconds: f64,
    /// Wire bytes this rank sent (halo + migration).
    pub bytes_sent: u64,
    /// Halo seconds hidden behind interior compute.
    pub overlap_seconds: f64,
    /// Modeled step wall-clock for this rank:
    /// `migrate + max(halo, interior) + boundary`.
    pub step_seconds: f64,
    /// Idle seconds this rank's processor spends waiting on other
    /// ranks. Under the barriered schedule this is barrier idle —
    /// node seconds minus this rank's step, the time pinned at the
    /// global join. Under the async schedule no such join exists (the
    /// scheduler feeds an early-finishing rank its next ready task),
    /// so this is the in-step message stall instead: idle before the
    /// migrate absorb plus idle before boundary compute while ghosts
    /// are still in flight.
    pub wait_seconds: f64,
}

impl RankStepStats {
    /// Prices the step on a schedule's timeline: the halo seconds
    /// interior compute covers are overlap, and the critical path is
    /// `migrate + max(halo, interior) + boundary`.
    fn set_timeline(&mut self, migrate: f64, halo: f64, bytes_sent: u64, wait: f64) {
        self.migrate_seconds = migrate;
        self.halo_seconds = halo;
        self.bytes_sent = bytes_sent;
        self.wait_seconds = wait;
        self.overlap_seconds = halo.min(self.interior_seconds);
        self.step_seconds = migrate + halo.max(self.interior_seconds) + self.boundary_seconds;
    }
}

/// What the interior phase hands the boundary phase.
struct InteriorForces {
    /// Accelerations so far (zero for boundary particles).
    acc: Vec<[f64; 3]>,
    /// Which particles keep their whole interaction ball in-domain.
    interior: Vec<bool>,
    /// In-cutoff pairs evaluated.
    pairs: u64,
}

/// One step's accounting across all ranks.
#[derive(Clone, Debug, Serialize)]
pub struct StepStats {
    /// Step index (1-based, after the step completed).
    pub step: u64,
    /// Per-rank breakdown.
    pub per_rank: Vec<RankStepStats>,
    /// Modeled node step time: the slowest rank.
    pub node_seconds: f64,
    /// Total wire bytes moved this step.
    pub bytes: u64,
    /// Particles that changed owner this step.
    pub migrated: u64,
    /// Fraction of halo seconds hidden behind interior compute,
    /// aggregated over ranks (0 when no halo traffic).
    pub overlap_fraction: f64,
    /// Total kinetic energy after the step (deterministic rank-order
    /// allreduce; diagnostic, not part of the state digest).
    pub kinetic_energy: f64,
}

/// The distributed engine: `ranks` domains advancing concurrently on
/// the rayon pool, communicating through the transport.
pub struct MultiRankSim {
    /// Domain decomposition.
    pub layout: RankLayout,
    /// Architecture whose device and interconnect are modeled.
    pub arch: GpuArch,
    problem: MultiRankProblem,
    transport: Transport,
    recorder: Option<Recorder>,
    /// The injector configuration, kept so a rebuilt transport (shrink
    /// recovery re-sizes the communicator) re-attaches the same faults.
    fault_config: Option<FaultConfig>,
    /// Per-rank particle stores, each sorted by global id.
    states: Vec<ParticleBatch>,
    step_count: u64,
    /// When true, [`Self::step`] runs on the task-graph executor
    /// instead of the barriered reference schedule.
    async_step: bool,
    /// Seconds per in-cutoff pair on this architecture.
    pair_seconds: f64,
    /// Seconds per particle per step outside the pair loop.
    particle_seconds: f64,
}

/// splitmix64: the deterministic IC hash.
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from a hash stream.
fn unit(seed: u64, id: u64, channel: u64) -> f64 {
    (hash64(seed ^ hash64(id ^ hash64(channel))) >> 11) as f64 / (1u64 << 53) as f64
}

impl MultiRankSim {
    /// Builds the engine: deterministic initial conditions (identical
    /// for every rank count), partitioned over a 3D [`RankLayout`],
    /// with the architecture's interconnect behind the transport.
    pub fn new(ranks: usize, arch: GpuArch, problem: MultiRankProblem) -> Self {
        let layout = RankLayout::new(ranks, problem.ng);
        assert!(
            problem.r_cut <= layout.min_domain_width() + 1e-12,
            "r_cut {} exceeds the narrowest rank domain {} — the 27-neighborhood \
             halo cannot serve it",
            problem.r_cut,
            layout.min_domain_width()
        );
        let mapping = NodeMapping::for_arch(&arch).expect("paper architectures all have mappings");
        let peak = arch.fp32_peak_tflops * 1e12 * PAIR_EFFICIENCY
            / (mapping.sharing_penalty() * problem.work_scale.max(1.0));
        let transport = Transport::new(ranks, Interconnect::for_arch(&arch));

        let mut states = vec![ParticleBatch::new(); ranks];
        let ng = problem.ng as f64;
        for id in 0..problem.n_particles as u64 {
            let pos = [
                unit(problem.seed, id, 0) * ng,
                unit(problem.seed, id, 1) * ng,
                unit(problem.seed, id, 2) * ng,
            ];
            let mom = [
                (unit(problem.seed, id, 3) - 0.5) * 0.2,
                (unit(problem.seed, id, 4) - 0.5) * 0.2,
                (unit(problem.seed, id, 5) - 0.5) * 0.2,
            ];
            let mass = 0.5 + unit(problem.seed, id, 6);
            let h = 0.5 * problem.r_cut;
            let u = unit(problem.seed, id, 7) * 1e-3;
            states[layout.rank_of(&pos)].push(id, pos, mom, mass, h, u);
        }
        // Generation order is id order, so each state is already sorted.

        Self {
            layout,
            arch,
            problem,
            transport,
            recorder: None,
            fault_config: None,
            states,
            step_count: 0,
            async_step: std::env::var("HACC_ASYNC")
                .map(|v| v == "1")
                .unwrap_or(false),
            pair_seconds: PAIR_FLOPS / peak,
            particle_seconds: PARTICLE_FLOPS / peak,
        }
    }

    /// Switches between the barriered reference schedule and the
    /// asynchronous task-graph schedule (also selectable at
    /// construction with `HACC_ASYNC=1`). Both schedules produce
    /// bit-identical particle state; only the modeled timeline and
    /// the `task.*` telemetry differ.
    pub fn set_async(&mut self, on: bool) {
        self.async_step = on;
    }

    /// Routes link faults through a seeded injector.
    pub fn enable_fault_injection(&mut self, config: FaultConfig) {
        self.fault_config = Some(config.clone());
        self.transport.enable_fault_injection(config);
    }

    /// The injector configuration, if fault injection is enabled.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault_config.as_ref()
    }

    /// The problem definition the engine was built with.
    pub fn problem(&self) -> &MultiRankProblem {
        &self.problem
    }

    /// Emits telemetry into the recorder: per-message comm charges from
    /// the transport, plus one `step` span per step holding a `rank.{r}`
    /// span per rank with the four modeled `phase.*` timers the
    /// analysis plane's critical-path pass consumes.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder.clone());
        self.transport.set_recorder(recorder);
    }

    /// The underlying transport (stats, injector log).
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// The attached recorder, if any.
    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Cumulative transport statistics.
    pub fn comm_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Total particles across ranks.
    pub fn n_particles(&self) -> usize {
        self.states.iter().map(ParticleBatch::len).sum()
    }

    /// Steps completed.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Particles owned by each rank.
    pub fn rank_populations(&self) -> Vec<usize> {
        self.states.iter().map(ParticleBatch::len).collect()
    }

    /// FNV-1a digest over the full particle state in ascending-id
    /// order — decomposition-invariant, so any rank count must produce
    /// the same value after the same number of steps.
    pub fn state_digest(&self) -> u64 {
        let mut refs: Vec<(&ParticleBatch, usize)> = Vec::new();
        for s in &self.states {
            for k in 0..s.len() {
                refs.push((s, k));
            }
        }
        refs.sort_by_key(|(s, k)| s.ids[*k]);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (s, k) in refs {
            eat(s.ids[k]);
            for c in 0..3 {
                eat(s.pos[k][c].to_bits());
                eat(s.mom[k][c].to_bits());
            }
            eat(s.mass[k].to_bits());
            eat(s.u[k].to_bits());
        }
        hash
    }

    /// Advances one step through the full communication schedule,
    /// dispatching to the barriered reference schedule or the
    /// asynchronous task-graph schedule per [`Self::set_async`].
    pub fn step(&mut self) -> Result<StepStats, CommError> {
        // Opened before any drain so every link span this step emits
        // nests under it; closed when the method returns.
        let _step_span = self.recorder.as_ref().map(|r| r.span("step"));
        if self.async_step {
            self.step_async()
        } else {
            self.step_barriered()
        }
    }

    // ------ Phase bodies. Each exists once; a schedule decides only
    // when a body runs and how the transport is drained around it.

    /// Posts one batch per destination, ascending.
    fn post(&self, rank: usize, tag: Tag, outgoing: BTreeMap<usize, ParticleBatch>) {
        for (dst, batch) in outgoing {
            self.transport.send(rank, dst, tag, batch);
        }
    }

    /// Migration, sending side: splits off the particles whose drifted
    /// position now falls in another domain and posts them to their
    /// new owners. Returns how many left.
    fn post_emigrants(&self, rank: usize, state: &mut ParticleBatch) -> u64 {
        let mut keep = ParticleBatch::new();
        let mut outgoing: BTreeMap<usize, ParticleBatch> = BTreeMap::new();
        for k in 0..state.len() {
            let owner = self.layout.rank_of(&state.pos[k]);
            let home = if owner == rank {
                &mut keep
            } else {
                outgoing.entry(owner).or_default()
            };
            home.push_from(state, k);
        }
        let moved = (state.len() - keep.len()) as u64;
        *state = keep;
        self.post(rank, Tag::Migrate, outgoing);
        moved
    }

    /// Migration, receiving side: absorbs the delivered immigrants and
    /// restores ascending-id order. Takes only `Migrate` traffic — a
    /// fast neighbor's halos may already share the inbox.
    fn absorb_immigrants(&self, rank: usize, state: &mut ParticleBatch) {
        let msgs = self.transport.take_inbox_tagged(rank, Tag::Migrate);
        for msg in &msgs {
            state.extend_from(&msg.batch);
        }
        if !msgs.is_empty() {
            state.sort_by_id();
        }
    }

    /// Posts halo copies of every particle to each neighbor whose
    /// expanded domain reaches it.
    fn post_halos(&self, rank: usize, state: &ParticleBatch) {
        let mut outgoing: BTreeMap<usize, ParticleBatch> = BTreeMap::new();
        for k in 0..state.len() {
            for dst in self.layout.ghost_targets(&state.pos[k], self.problem.r_cut) {
                outgoing.entry(dst).or_default().push_from(state, k);
            }
        }
        self.post(rank, Tag::Halo, outgoing);
    }

    /// Forces on interior particles. A particle is interior when every
    /// split dimension keeps it ≥ `r_cut` from both domain faces; its
    /// whole interaction ball is then owned, so this needs no ghosts
    /// and can run while the halo exchange is in flight.
    fn interior_forces(&self, rank: usize, state: &ParticleBatch) -> InteriorForces {
        let r_cut = self.problem.r_cut;
        let (lo, hi) = self.layout.domain(rank);
        let interior: Vec<bool> = (0..state.len())
            .map(|k| {
                (0..3).all(|d| {
                    self.layout.dims[d] == 1
                        || (state.pos[k][d] - lo[d] >= r_cut && hi[d] - state.pos[k][d] >= r_cut)
                })
            })
            .collect();
        let mut acc = vec![[0.0f64; 3]; state.len()];
        let mut pairs = 0u64;
        for k in 0..state.len() {
            if interior[k] {
                pairs += self.accumulate(&mut acc[k], state.ids[k], &state.pos[k], state);
            }
        }
        InteriorForces {
            acc,
            interior,
            pairs,
        }
    }

    /// Takes the delivered ghosts, finishes the boundary particles
    /// against owned + ghost neighbors, then kicks and drifts
    /// everything. Returns the rank's schedule-independent accounting;
    /// the schedule prices its timeline afterwards.
    fn finish_boundary(
        &self,
        rank: usize,
        state: &mut ParticleBatch,
        forces: InteriorForces,
    ) -> RankStepStats {
        let InteriorForces {
            mut acc,
            interior,
            pairs: interior_pairs,
        } = forces;
        // Candidates in ascending id, the canonical accumulation order
        // (owned and ghost sets are disjoint by construction).
        let mut cand = state.clone();
        for msg in self.transport.take_inbox_tagged(rank, Tag::Halo) {
            cand.extend_from(&msg.batch);
        }
        cand.sort_by_id();

        let mut boundary_pairs = 0u64;
        for k in 0..state.len() {
            if !interior[k] {
                boundary_pairs += self.accumulate(&mut acc[k], state.ids[k], &state.pos[k], &cand);
            }
        }

        let (ng, dt) = (self.problem.ng as f64, self.problem.dt);
        for k in 0..state.len() {
            for c in 0..3 {
                state.mom[k][c] += state.mass[k] * acc[k][c] * dt;
                let mut x = state.pos[k][c] + state.mom[k][c] / state.mass[k] * dt;
                x = x.rem_euclid(ng);
                if x >= ng {
                    x = 0.0;
                }
                state.pos[k][c] = x;
            }
        }
        RankStepStats {
            rank,
            owned: state.len(),
            ghosts: cand.len() - state.len(),
            interior_pairs,
            boundary_pairs,
            interior_seconds: interior_pairs as f64 * self.pair_seconds
                + state.len() as f64 * self.particle_seconds,
            boundary_seconds: boundary_pairs as f64 * self.pair_seconds,
            halo_seconds: 0.0,
            migrate_seconds: 0.0,
            bytes_sent: 0,
            overlap_seconds: 0.0,
            step_seconds: 0.0,
            wait_seconds: 0.0,
        }
    }

    /// Accumulates softened-gravity acceleration on one particle over
    /// a candidate batch in its given (ascending-id) order; returns the
    /// number of in-cutoff pairs. `f64` throughout — the order and
    /// width are the determinism contract.
    fn accumulate(
        &self,
        acc: &mut [f64; 3],
        own_id: u64,
        own_pos: &[f64; 3],
        cand: &ParticleBatch,
    ) -> u64 {
        let (ng, eps) = (self.problem.ng as f64, self.problem.eps);
        let r_cut2 = self.problem.r_cut * self.problem.r_cut;
        let mut pairs = 0;
        for ((&id, pos), &mass) in cand.ids.iter().zip(&cand.pos).zip(&cand.mass) {
            if id == own_id {
                continue;
            }
            let d = min_image(own_pos, pos, ng);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 < r_cut2 {
                pairs += 1;
                let w = mass / (r2 + eps * eps).powf(1.5);
                for c in 0..3 {
                    acc[c] += w * d[c];
                }
            }
        }
        pairs
    }

    /// The barriered reference schedule described in the module docs:
    /// every phase runs on all ranks, then drains at a global exchange
    /// barrier.
    fn step_barriered(&mut self) -> Result<StepStats, CommError> {
        let ranks = self.layout.ranks;
        let mut states = std::mem::take(&mut self.states);
        let this = &*self;

        let migrated: u64 = states
            .par_iter_mut()
            .zip(0..ranks)
            .map(|(state, rank)| this.post_emigrants(rank, state))
            .sum();
        let migrate_report = this.transport.exchange()?;
        states
            .par_iter_mut()
            .zip(0..ranks)
            .for_each(|(state, rank)| this.absorb_immigrants(rank, state));

        // Interior forces run while the halo exchange is notionally in
        // flight.
        let forces: Vec<InteriorForces> = states
            .par_iter()
            .zip(0..ranks)
            .map(|(state, rank)| {
                this.post_halos(rank, state);
                this.interior_forces(rank, state)
            })
            .collect();
        let halo_report = this.transport.exchange()?;

        let mut per_rank: Vec<RankStepStats> = states
            .par_iter_mut()
            .zip(forces)
            .zip(0..ranks)
            .map(|((state, forces), rank)| this.finish_boundary(rank, state, forces))
            .collect();

        // Barriered timeline: a rank is busy for every link incident
        // on it, and idles at the global join until the slowest rank
        // arrives.
        for r in &mut per_rank {
            r.set_timeline(
                migrate_report.rank_seconds(r.rank),
                halo_report.rank_seconds(r.rank),
                halo_report.rank_bytes_sent(r.rank) + migrate_report.rank_bytes_sent(r.rank),
                0.0,
            );
        }
        let node_seconds = per_rank.iter().map(|r| r.step_seconds).fold(0.0, f64::max);
        for r in &mut per_rank {
            r.wait_seconds = (node_seconds - r.step_seconds).max(0.0);
        }
        self.states = states;
        Ok(self.emit_step_stats(per_rank, migrated))
    }

    /// The asynchronous task-graph schedule: the same phase bodies,
    /// but per-rank migrate flushes, absorbs, halo posts, interior
    /// compute, and boundary compute are task nodes scheduled as their
    /// dependencies resolve — a rank whose 27-neighborhood has flushed
    /// starts its boundary compute while other ranks are still
    /// exchanging, and no global join exists anywhere in the step.
    ///
    /// Bit-identical to the barriered reference by construction: the
    /// bodies are shared, [`Transport::flush_source`] is the drain the
    /// exchange barrier runs per source, and tagged inbox takes sort
    /// canonically — interleavings change nothing.
    fn step_async(&mut self) -> Result<StepStats, CommError> {
        fn slots<T>(n: usize) -> Vec<Mutex<Option<T>>> {
            (0..n).map(|_| Mutex::new(None)).collect()
        }
        let ranks = self.layout.ranks;
        let states: Vec<Mutex<ParticleBatch>> = std::mem::take(&mut self.states)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let this = &*self;
        // Per-rank task outputs; each slot is written by exactly one
        // task, the locks never contend.
        let mig_out = slots::<(ExchangeReport, u64)>(ranks);
        let halo_out = slots::<ExchangeReport>(ranks);
        let int_out = slots::<InteriorForces>(ranks);
        let bnd_out = slots::<RankStepStats>(ranks);

        let mut graph: TaskGraph<'_, CommError> = TaskGraph::new();
        let state_res: Vec<ResourceId> = (0..ranks)
            .map(|r| ResourceId::indexed("rank.state", r))
            .collect();
        let acc_res: Vec<ResourceId> = (0..ranks)
            .map(|r| ResourceId::indexed("rank.acc", r))
            .collect();

        // mig.r — post emigrants, flush this source's wire. Writes
        // state.r.
        let mut mig_ids = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let (states, mig_out) = (&states, &mig_out);
            mig_ids.push(graph.add_task(
                format!("mig.{rank}"),
                &[],
                &[state_res[rank]],
                move || {
                    let moved = this.post_emigrants(rank, &mut states[rank].lock().unwrap());
                    let report = this.transport.flush_source(rank)?;
                    *mig_out[rank].lock().unwrap() = Some((report, moved));
                    Ok(())
                },
            ));
        }

        // abs.r — absorb immigrants once every source has flushed.
        // Message arrival is a hazard the resource sets cannot see, so
        // the edges are explicit (migration may cross any face, so any
        // source is a potential sender). Writes state.r.
        for rank in 0..ranks {
            let states = &states;
            let id = graph.add_task(format!("abs.{rank}"), &[], &[state_res[rank]], move || {
                this.absorb_immigrants(rank, &mut states[rank].lock().unwrap());
                Ok(())
            });
            for &m in &mig_ids {
                graph
                    .add_dep(id, m)
                    .expect("migrate flushes precede absorbs in canonical order");
            }
        }

        // post.r — post halos and flush this source's wire. Reads
        // state.r.
        let mut post_ids = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let (states, halo_out) = (&states, &halo_out);
            post_ids.push(graph.add_task(
                format!("post.{rank}"),
                &[state_res[rank]],
                &[],
                move || {
                    this.post_halos(rank, &states[rank].lock().unwrap());
                    let report = this.transport.flush_source(rank)?;
                    *halo_out[rank].lock().unwrap() = Some(report);
                    Ok(())
                },
            ));
        }

        // int.r — interior forces, overlapping the halo wire. Reads
        // state.r, writes acc.r.
        for rank in 0..ranks {
            let (states, int_out) = (&states, &int_out);
            graph.add_task(
                format!("int.{rank}"),
                &[state_res[rank]],
                &[acc_res[rank]],
                move || {
                    let forces = this.interior_forces(rank, &states[rank].lock().unwrap());
                    *int_out[rank].lock().unwrap() = Some(forces);
                    Ok(())
                },
            );
        }

        // bnd.r — once the 27-neighborhood has flushed its halos,
        // finish the boundary. Reads acc.r, writes state.r and acc.r
        // (the WAR edges on post.r and int.r come from the state.r
        // read set).
        for rank in 0..ranks {
            let (states, int_out, bnd_out) = (&states, &int_out, &bnd_out);
            let id = graph.add_task(
                format!("bnd.{rank}"),
                &[acc_res[rank]],
                &[state_res[rank], acc_res[rank]],
                move || {
                    let forces = int_out[rank]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("int.r precedes bnd.r");
                    let stats =
                        this.finish_boundary(rank, &mut states[rank].lock().unwrap(), forces);
                    *bnd_out[rank].lock().unwrap() = Some(stats);
                    Ok(())
                },
            );
            for &s in &this.layout.neighbors(rank) {
                graph
                    .add_dep(id, post_ids[s])
                    .expect("halo posts precede boundary compute in canonical order");
            }
        }

        if let Err(e) = graph.run(0, None, this.recorder.as_ref()) {
            return Err(match e {
                RunError::Task { error, .. } => error,
                RunError::Watchdog { .. } => unreachable!("step graph runs without a watchdog"),
            });
        }

        let mut mig_rep = Vec::with_capacity(ranks);
        let mut migrated = 0u64;
        for slot in mig_out {
            let (rep, moved) = slot.into_inner().unwrap().expect("mig.r ran");
            migrated += moved;
            mig_rep.push(rep);
        }
        let halo_rep: Vec<ExchangeReport> = halo_out
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("post.r ran"))
            .collect();

        // Modeled async timeline. Each source's flush costs its own
        // wire seconds; a message is available once its sender's flush
        // completes. So a rank may absorb at
        //   absorb_start_r = max(own flush, slowest migrate sender),
        // its halo flush completes at absorb_start_r + halo flush, and
        // its ghosts are ready once every halo sender's flush is done —
        // maxes over the neighborhood instead of the barriered model's
        // sums over every incident link, which is exactly the wait the
        // task graph removes from the critical path.
        let sends_to = |rep: &ExchangeReport, r: usize| rep.links.iter().any(|l| l.dst == r);
        let mig_done: Vec<f64> = mig_rep.iter().map(|r| r.seconds).collect();
        let absorb_start: Vec<f64> = (0..ranks)
            .map(|r| {
                (0..ranks)
                    .filter(|&s| s != r && sends_to(&mig_rep[s], r))
                    .fold(mig_done[r], |t, s| t.max(mig_done[s]))
            })
            .collect();
        let post_done: Vec<f64> = (0..ranks)
            .map(|r| absorb_start[r] + halo_rep[r].seconds)
            .collect();

        let mut per_rank = Vec::with_capacity(ranks);
        for (rank, slot) in bnd_out.into_iter().enumerate() {
            let mut r: RankStepStats = slot.into_inner().unwrap().expect("bnd.r ran");
            let ghosts_from_others = (0..ranks)
                .filter(|&s| s != rank && sends_to(&halo_rep[s], rank))
                .fold(0.0, |t, s| post_done[s].max(t));
            // Own post gates the boundary write too (the WAR edge).
            let ghost_ready = post_done[rank].max(ghosts_from_others);
            // The ghost-wait window after absorb; the part interior
            // compute does not cover is the exposed exchange.
            let halo_window = (ghost_ready - absorb_start[rank]).max(0.0);
            // In-step stalls attributable to *other* ranks: idle
            // waiting on slower migrate senders, plus idle before
            // boundary compute while neighbors' ghosts are still in
            // flight beyond this rank's own busy timeline (own wire
            // exposure is exchange, not wait — matching the barriered
            // attribution). The end-of-step tail is not wait here —
            // the scheduler feeds the rank its next ready task.
            let own_busy_until = (absorb_start[rank] + r.interior_seconds).max(post_done[rank]);
            let wait = (absorb_start[rank] - mig_done[rank])
                + (ghosts_from_others - own_busy_until).max(0.0);
            r.set_timeline(
                absorb_start[rank],
                halo_window,
                mig_rep[rank].bytes + halo_rep[rank].bytes,
                wait,
            );
            per_rank.push(r);
        }
        self.states = states
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        Ok(self.emit_step_stats(per_rank, migrated))
    }

    /// Shared step epilogue: deterministic diagnostics allreduce,
    /// node time, and the per-rank telemetry spans the analysis
    /// plane's critical-path pass consumes.
    fn emit_step_stats(&mut self, per_rank: Vec<RankStepStats>, migrated: u64) -> StepStats {
        let ke_parts: Vec<f64> = self.states.iter().map(kinetic_energy).collect();
        let kinetic_energy = self.transport.allreduce_sum(&ke_parts);
        self.step_count += 1;
        let node_seconds = per_rank.iter().map(|r| r.step_seconds).fold(0.0, f64::max);
        let halo_total: f64 = per_rank.iter().map(|r| r.halo_seconds).sum();
        let overlap_total: f64 = per_rank.iter().map(|r| r.overlap_seconds).sum();
        let overlap_fraction = if halo_total > 0.0 {
            overlap_total / halo_total
        } else {
            0.0
        };
        if let Some(rec) = self.recorder.as_ref() {
            // One span per rank under the step span, carrying the four
            // modeled phase timers. Values are pure cost-model output,
            // so the timer stream stays bit-reproducible across runs.
            for r in &per_rank {
                let _rank_span = rec.span(&format!("rank.{}", r.rank));
                rec.timer("phase.migrate", r.migrate_seconds);
                rec.timer("phase.interior", r.interior_seconds);
                rec.timer("phase.halo", r.halo_seconds);
                rec.timer("phase.boundary", r.boundary_seconds);
            }
            rec.counter("multirank.overlap_fraction", overlap_fraction);
            rec.counter("multirank.migrated", migrated as f64);
        }
        StepStats {
            step: self.step_count,
            node_seconds,
            bytes: per_rank.iter().map(|r| r.bytes_sent).sum(),
            migrated,
            overlap_fraction,
            kinetic_energy,
            per_rank,
        }
    }

    /// Advances `steps` steps, returning each step's accounting.
    pub fn run(&mut self, steps: u64) -> Result<Vec<StepStats>, CommError> {
        (0..steps).map(|_| self.step()).collect()
    }

    /// Captures a coordinated [`MultiRankCheckpoint`] of every rank at
    /// the current step boundary. Legal only between steps, when no
    /// message is in flight — which is the only time the caller can
    /// hold `&self`.
    pub fn checkpoint(&self) -> MultiRankCheckpoint {
        MultiRankCheckpoint {
            step: self.step_count,
            ng: self.problem.ng,
            dims: self.layout.dims,
            per_rank: self.states.clone(),
        }
    }

    /// What any restore needs whatever the decomposition: the same box
    /// and the same particle population as this engine's problem.
    fn check_restorable(&self, ckpt: &MultiRankCheckpoint) -> Result<(), CheckpointError> {
        if ckpt.ng != self.problem.ng {
            return Err(CheckpointError::Invalid {
                detail: format!(
                    "checkpoint box ng={} does not match the engine's ng={}",
                    ckpt.ng, self.problem.ng
                ),
            });
        }
        if ckpt.n_particles() != self.problem.n_particles {
            return Err(CheckpointError::SizeMismatch {
                checkpoint: ckpt.n_particles(),
                simulation: self.problem.n_particles,
            });
        }
        Ok(())
    }

    /// Restores every rank from a checkpoint taken under the *same*
    /// decomposition (respawn recovery: the communicator keeps its
    /// size). Queued messages from the abandoned timeline are purged.
    pub fn restore(&mut self, ckpt: &MultiRankCheckpoint) -> Result<(), CheckpointError> {
        if ckpt.ranks() != self.layout.ranks || ckpt.dims != self.layout.dims {
            return Err(CheckpointError::Invalid {
                detail: format!(
                    "checkpoint rank grid {:?} ({} ranks) does not match the engine's {:?}",
                    ckpt.dims,
                    ckpt.ranks(),
                    self.layout.dims
                ),
            });
        }
        self.check_restorable(ckpt)?;
        self.states = ckpt.per_rank.clone();
        self.step_count = ckpt.step;
        self.transport.purge();
        Ok(())
    }

    /// Rebuilds the engine with `ranks` ranks and restores the particle
    /// state from a checkpoint taken under *any* decomposition of the
    /// same box, re-partitioning every particle by position (shrink
    /// recovery: survivors absorb a lost rank's domain). The transport
    /// is rebuilt for the new communicator size with the same
    /// interconnect, fault configuration, and recorder.
    pub fn restore_resized(
        &mut self,
        ranks: usize,
        ckpt: &MultiRankCheckpoint,
    ) -> Result<(), CheckpointError> {
        self.check_restorable(ckpt)?;
        let layout = RankLayout::new(ranks, self.problem.ng);
        if self.problem.r_cut > layout.min_domain_width() + 1e-12 {
            return Err(CheckpointError::Invalid {
                detail: format!(
                    "r_cut {} exceeds the narrowest domain {} of a {ranks}-rank layout",
                    self.problem.r_cut,
                    layout.min_domain_width()
                ),
            });
        }
        let mut transport = Transport::new(ranks, self.transport.fabric().clone());
        if let Some(config) = self.fault_config.clone() {
            transport.enable_fault_injection(config);
        }
        if let Some(recorder) = self.recorder.clone() {
            transport.set_recorder(recorder);
        }
        let mut states = vec![ParticleBatch::new(); ranks];
        for snap in &ckpt.per_rank {
            for k in 0..snap.len() {
                states[layout.rank_of(&snap.pos[k])].push_from(snap, k);
            }
        }
        for state in &mut states {
            state.sort_by_id();
        }
        self.layout = layout;
        self.transport = transport;
        self.states = states;
        self.step_count = ckpt.step;
        Ok(())
    }
}

/// One rank's kinetic energy, summed in ascending-id order.
fn kinetic_energy(state: &ParticleBatch) -> f64 {
    let mut ke = 0.0f64;
    for k in 0..state.len() {
        let p2: f64 = state.mom[k].iter().map(|p| p * p).sum();
        ke += 0.5 * p2 / state.mass[k];
    }
    ke
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> MultiRankProblem {
        MultiRankProblem::small(256, 42)
    }

    #[test]
    fn particles_conserved_across_migration() {
        let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
        assert_eq!(sim.n_particles(), 256);
        let stats = sim.run(4).unwrap();
        assert_eq!(sim.n_particles(), 256);
        // With a 0.05 dt something should eventually cross a face.
        let moved: u64 = stats.iter().map(|s| s.migrated).sum();
        assert!(moved > 0, "no particle ever migrated in 4 steps");
    }

    #[test]
    fn restore_names_a_rank_grid_mismatch_as_one() {
        let mut eight = MultiRankSim::new(8, GpuArch::frontier(), problem());
        let four = MultiRankSim::new(4, GpuArch::frontier(), problem()).checkpoint();
        let before = eight.state_digest();
        // Not `SizeMismatch`, whose message counts *particles*.
        let expected = format!(
            "checkpoint rank grid {:?} (4 ranks) does not match the engine's [2, 2, 2]",
            four.dims
        );
        assert_eq!(
            eight.restore(&four),
            Err(CheckpointError::Invalid { detail: expected })
        );
        assert_eq!(eight.state_digest(), before);
    }

    #[test]
    fn restores_count_particles() {
        let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
        let before = sim.state_digest();
        // Same box, same rank grid — one particle short.
        let mut short = sim.checkpoint();
        let holder = short.per_rank.iter().position(|b| !b.is_empty()).unwrap();
        let mut kept = ParticleBatch::new();
        for k in 1..short.per_rank[holder].len() {
            kept.push_from(&short.per_rank[holder], k);
        }
        short.per_rank[holder] = kept;
        let mismatch = CheckpointError::SizeMismatch {
            checkpoint: 255,
            simulation: 256,
        };
        assert_eq!(sim.restore(&short), Err(mismatch.clone()));
        assert_eq!(sim.restore_resized(2, &short), Err(mismatch));
        assert_eq!(sim.layout.ranks, 4, "a refused resize keeps the layout");
        assert_eq!(sim.state_digest(), before);
    }

    #[test]
    fn any_rank_count_reproduces_single_rank_bits() {
        let digest_of = |ranks: usize| {
            let mut sim = MultiRankSim::new(ranks, GpuArch::aurora(), problem());
            sim.run(3).unwrap();
            sim.state_digest()
        };
        let single = digest_of(1);
        for ranks in [2, 4, 8] {
            assert_eq!(
                digest_of(ranks),
                single,
                "{ranks}-rank run diverged from the single-rank bits"
            );
        }
    }

    #[test]
    fn overlap_and_traffic_are_reported() {
        let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
        let stats = sim.step().unwrap();
        assert_eq!(stats.per_rank.len(), 8);
        assert!(stats.bytes > 0, "8 ranks must exchange halos");
        assert!(stats.node_seconds > 0.0);
        assert!((0.0..=1.0).contains(&stats.overlap_fraction));
        let ghosts: usize = stats.per_rank.iter().map(|r| r.ghosts).sum();
        assert!(ghosts > 0, "ghost zones must populate");
        assert_eq!(sim.comm_stats().exchanges, 2, "migrate + halo barriers");
    }

    #[test]
    fn single_rank_has_no_traffic() {
        let mut sim = MultiRankSim::new(1, GpuArch::polaris(), problem());
        let stats = sim.step().unwrap();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.overlap_fraction, 0.0);
        assert_eq!(stats.per_rank[0].ghosts, 0);
        assert!(stats.per_rank[0].step_seconds > 0.0);
    }

    #[test]
    fn phase_telemetry_feeds_the_critical_path_pass() {
        let mut sim = MultiRankSim::new(4, GpuArch::aurora(), problem());
        let rec = Recorder::new();
        sim.set_recorder(rec.clone());
        let stats = sim.run(2).unwrap();

        let paths = hacc_telemetry::analysis::critical_paths(&rec.events());
        assert_eq!(paths.len(), 2, "one critical path per step");
        for (path, step) in paths.iter().zip(&stats) {
            assert_eq!(path.per_rank.len(), 4);
            assert!(
                (path.node_seconds - step.node_seconds).abs() < 1e-12,
                "span-tree node time must match the engine's accounting"
            );
            for r in &path.per_rank {
                let total = r.frac_compute_interior
                    + r.frac_compute_boundary
                    + r.frac_exchange
                    + r.frac_wait;
                assert!((total - 1.0).abs() < 1e-9, "fractions partition node time");
            }
            assert_eq!(path.critical_rank, {
                let mut best = 0;
                for r in &step.per_rank {
                    if r.step_seconds > step.per_rank[best].step_seconds {
                        best = r.rank;
                    }
                }
                best
            });
        }
    }

    #[test]
    fn phase_timer_stream_is_bit_reproducible() {
        let run = || {
            let mut sim = MultiRankSim::new(4, GpuArch::frontier(), problem());
            let rec = Recorder::new();
            sim.set_recorder(rec.clone());
            sim.run(2).unwrap();
            let mut timers: Vec<(String, u64)> = rec
                .events()
                .iter()
                .filter(|e| e.name.starts_with("phase."))
                .map(|e| (e.name.clone(), e.value.to_bits()))
                .collect();
            timers.sort();
            timers
        };
        assert_eq!(run(), run(), "modeled phase timers must not wobble");
    }

    #[test]
    fn async_schedule_matches_barriered_bits() {
        for ranks in [1, 2, 8] {
            let mut reference = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
            reference.run(3).unwrap();
            let mut tasked = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
            tasked.set_async(true);
            tasked.run(3).unwrap();
            assert_eq!(
                tasked.state_digest(),
                reference.state_digest(),
                "{ranks}-rank async run diverged from the barriered bits"
            );
            assert_eq!(tasked.step_count(), 3);
        }
    }

    #[test]
    fn async_schedule_exports_task_telemetry() {
        let mut sim = MultiRankSim::new(4, GpuArch::aurora(), problem());
        sim.set_async(true);
        let rec = Recorder::new();
        sim.set_recorder(rec.clone());
        let stats = sim.step().unwrap();
        let events = rec.events();
        // 5 task kinds × 4 ranks, one graph per step.
        assert_eq!(
            hacc_telemetry::counter_total(&events, "task.nodes"),
            20.0,
            "mig/abs/post/int/bnd per rank"
        );
        assert!(hacc_telemetry::counter_total(&events, "task.edges") > 0.0);
        assert_eq!(
            hacc_telemetry::counter_total(&events, "task.executed"),
            20.0
        );
        // The critical-path pass still reproduces the engine's modeled
        // node time from the emitted phase timers.
        let paths = hacc_telemetry::analysis::critical_paths(&events);
        assert_eq!(paths.len(), 1);
        assert!((paths[0].node_seconds - stats.node_seconds).abs() < 1e-12);
        // Per-source flushes replace the two global barriers.
        assert_eq!(
            sim.comm_stats().exchanges,
            8,
            "one flush per rank per phase"
        );
    }

    #[test]
    fn async_wait_share_is_below_the_barriered_share() {
        let run = |async_on: bool| {
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            sim.set_async(async_on);
            let stats = sim.run(3).unwrap();
            let wait: f64 = stats
                .iter()
                .flat_map(|s| s.per_rank.iter().map(|r| r.wait_seconds))
                .sum();
            let node: f64 = stats.iter().map(|s| s.node_seconds * 8.0).sum();
            wait / node
        };
        let (barriered, tasked) = (run(false), run(true));
        assert!(
            tasked < barriered,
            "async wait share {tasked} must undercut barriered {barriered}"
        );
    }

    #[test]
    fn link_faults_retry_and_still_match_bits() {
        let clean = {
            let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
            sim.run(2).unwrap();
            sim.state_digest()
        };
        let mut sim = MultiRankSim::new(8, GpuArch::frontier(), problem());
        sim.enable_fault_injection(FaultConfig {
            seed: 5,
            transient_rate: 0.02,
            ..FaultConfig::default()
        });
        sim.run(2).unwrap();
        assert!(
            sim.transport().injector().unwrap().injected() > 0,
            "2% over hundreds of messages must inject"
        );
        assert_eq!(sim.state_digest(), clean, "retries must not change physics");
    }
}
