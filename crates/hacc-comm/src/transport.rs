//! Typed point-to-point transport with deterministic delivery.
//!
//! The in-process stand-in for MPI: ranks running concurrently post
//! [`ParticleBatch`] messages into per-source outboxes (each rank
//! writes only its own, so posting is contention-free and
//! each source's message order is its own sequential program order).
//! Posted messages reach their inboxes through one drain per source:
//! each message is costed on the [`Interconnect`], passed through the
//! fault injector on that source's own channel (`<tag>.s<src>`), and
//! delivered in the source's program order. [`Transport::flush_source`]
//! drains one source, and may run concurrently for distinct sources
//! (the multi-rank step's flush tasks); [`Transport::exchange`] drains
//! every source in ascending order on the calling thread. Either way a
//! source's ordinals, sequence numbers and accounting are claimed only
//! by whoever drains that source, so the fault schedule, every delivery
//! order and every statistic are identical at any thread count and
//! whichever drain delivers them. That is the message-ordering
//! determinism rule: *rank code may post concurrently, but nothing a
//! source owns is ever touched by two tasks, and consumers only observe
//! `(src, seq)` order.*
//!
//! Accounting follows the same rule. [`TransportStats`] is kept in one
//! slot per source plus one for the serial caller, each written only
//! by its owner, and reduced in ascending slot order on read — no
//! float is ever summed in completion order. So does telemetry: each
//! drain queues its events in its source's slot, and
//! [`Transport::publish_telemetry`] emits the slots in drain-round
//! order, so the event stream never follows completion order either.

use crate::fabric::Interconnect;
use hacc_telemetry::{EventKind, FaultInfo, Recorder};
use parking_lot::Mutex;
use std::fmt;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use sycl_sim::{FaultConfig, FaultInjector, LaunchError, BACKOFF_BASE_S, MAX_RETRIES};

/// What a message carries, selecting its fault-injection channel and
/// telemetry labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// Ghost-zone refresh: copies of boundary particles.
    Halo,
    /// Ownership transfer: particles that drifted across a domain face.
    Migrate,
}

impl Tag {
    /// Stable label, used as the injector kernel name and in telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            Tag::Halo => "comm.halo",
            Tag::Migrate => "comm.migrate",
        }
    }
}

/// A structure-of-arrays batch of particles on the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParticleBatch {
    /// Global particle ids.
    pub ids: Vec<u64>,
    /// Positions in grid units.
    pub pos: Vec<[f64; 3]>,
    /// Momenta (comoving).
    pub mom: Vec<[f64; 3]>,
    /// Masses.
    pub mass: Vec<f64>,
    /// SPH smoothing lengths.
    pub h: Vec<f64>,
    /// Specific internal energies.
    pub u: Vec<f64>,
}

/// Wire size of one particle: id + pos + mom + mass + h + u.
const PARTICLE_WIRE_BYTES: u64 = 8 + 24 + 24 + 8 + 8 + 8;

/// Fixed per-message envelope (src, dst, tag, seq, count).
const MESSAGE_HEADER_BYTES: u64 = 32;

impl ParticleBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `n` particles.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ids: Vec::with_capacity(n),
            pos: Vec::with_capacity(n),
            mom: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            h: Vec::with_capacity(n),
            u: Vec::with_capacity(n),
        }
    }

    /// Number of particles in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the batch carries no particles.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends one particle.
    pub fn push(&mut self, id: u64, pos: [f64; 3], mom: [f64; 3], mass: f64, h: f64, u: f64) {
        self.ids.push(id);
        self.pos.push(pos);
        self.mom.push(mom);
        self.mass.push(mass);
        self.h.push(h);
        self.u.push(u);
    }

    /// Appends particle `k` of `other`.
    pub fn push_from(&mut self, other: &ParticleBatch, k: usize) {
        self.push(
            other.ids[k],
            other.pos[k],
            other.mom[k],
            other.mass[k],
            other.h[k],
            other.u[k],
        );
    }

    /// Appends every particle of `other`, in its order.
    pub fn extend_from(&mut self, other: &ParticleBatch) {
        self.ids.extend_from_slice(&other.ids);
        self.pos.extend_from_slice(&other.pos);
        self.mom.extend_from_slice(&other.mom);
        self.mass.extend_from_slice(&other.mass);
        self.h.extend_from_slice(&other.h);
        self.u.extend_from_slice(&other.u);
    }

    /// Reorders the batch by ascending global id (stable).
    pub fn sort_by_id(&mut self) {
        fn permuted<T: Copy>(column: &[T], order: &[usize]) -> Vec<T> {
            order.iter().map(|&k| column[k]).collect()
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&k| self.ids[k]);
        *self = Self {
            ids: permuted(&self.ids, &order),
            pos: permuted(&self.pos, &order),
            mom: permuted(&self.mom, &order),
            mass: permuted(&self.mass, &order),
            h: permuted(&self.h, &order),
            u: permuted(&self.u, &order),
        };
    }

    /// Serialized size on the wire, header included.
    pub fn wire_bytes(&self) -> u64 {
        MESSAGE_HEADER_BYTES + self.len() as u64 * PARTICLE_WIRE_BYTES
    }
}

/// One delivered message.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message class.
    pub tag: Tag,
    /// Per-source sequence number (program order at the sender).
    pub seq: u64,
    /// Payload.
    pub batch: ParticleBatch,
}

/// Typed failure of a drain ([`Transport::exchange`] or
/// [`Transport::flush_source`]).
#[derive(Clone, Debug)]
pub enum CommError {
    /// A link failure that survived the retry budget: the injector
    /// returned a non-retryable verdict, or all [`MAX_RETRIES`] retries
    /// faulted too.
    LinkFailed {
        /// Sending rank of the failed message.
        src: usize,
        /// Receiving rank of the failed message.
        dst: usize,
        /// Message class that failed.
        tag: Tag,
        /// Attempts made (1 initial + retries).
        attempts: u32,
        /// The final injector verdict.
        last: LaunchError,
    },
    /// A peer rank is dead: a message addressed to it can never be
    /// delivered, no matter the retry budget. Carries the step at which
    /// the rank was marked dead so recovery knows how far to roll back.
    RankDead {
        /// The dead rank.
        rank: usize,
        /// Step boundary at which it died.
        step: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::LinkFailed {
                src,
                dst,
                tag,
                attempts,
                last,
            } => write!(
                f,
                "link {src}->{dst} failed after {attempts} attempts ({}): {last}",
                tag.label()
            ),
            CommError::RankDead { rank, step } => {
                write!(f, "rank {rank} is dead (lost at step {step})")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Traffic over one directed link during an exchange.
#[derive(Clone, Debug, Default)]
pub struct LinkTraffic {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Messages delivered.
    pub messages: u64,
    /// Wire bytes delivered.
    pub bytes: u64,
    /// Modeled seconds on the link.
    pub seconds: f64,
    /// Transient retries absorbed.
    pub retries: u64,
}

/// Summary of one [`Transport::exchange`] or
/// [`Transport::flush_source`].
#[derive(Clone, Debug, Default)]
pub struct ExchangeReport {
    /// Per-directed-link traffic, ascending `(src, dst)`.
    pub links: Vec<LinkTraffic>,
    /// Total messages delivered.
    pub messages: u64,
    /// Total wire bytes.
    pub bytes: u64,
    /// Sum of per-message link seconds.
    pub seconds: f64,
    /// Total transient retries.
    pub retries: u64,
}

impl ExchangeReport {
    /// Books one delivered message. A drain walks one source, so its
    /// report's links are keyed by destination.
    fn record(&mut self, src: usize, dst: usize, bytes: u64, seconds: f64, retries: u64) {
        let known = self.links.iter().position(|l| l.dst == dst);
        let at = known.unwrap_or_else(|| {
            self.links.push(LinkTraffic {
                src,
                dst,
                ..LinkTraffic::default()
            });
            self.links.len() - 1
        });
        let link = &mut self.links[at];
        link.messages += 1;
        link.bytes += bytes;
        link.seconds += seconds;
        link.retries += retries;
        self.messages += 1;
        self.bytes += bytes;
        self.seconds += seconds;
        self.retries += retries;
    }
}

/// Cumulative transport statistics since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransportStats {
    /// Messages delivered.
    pub messages: u64,
    /// Wire bytes delivered.
    pub bytes: u64,
    /// Modeled link seconds.
    pub seconds: f64,
    /// Transient retries absorbed.
    pub retries: u64,
    /// `exchange` and `flush_source` calls completed.
    pub exchanges: u64,
}

/// One telemetry emission a drain produced, held for
/// [`Transport::publish_telemetry`].
type Emit = Box<dyn FnOnce(&Recorder) + Send>;

/// The in-process point-to-point transport for one set of ranks.
pub struct Transport {
    ranks: usize,
    fabric: Interconnect,
    outboxes: Vec<Mutex<Vec<(usize, Tag, ParticleBatch)>>>,
    inboxes: Vec<Mutex<Vec<Message>>>,
    seqs: Vec<Mutex<u64>>,
    injector: Option<FaultInjector>,
    recorder: Option<Recorder>,
    /// Telemetry slots, by the same rule as `slots`: slot `src` holds
    /// one list of queued emissions per drain of source `src`, written
    /// only by that drain and emitted by
    /// [`Transport::publish_telemetry`].
    pending: Vec<Mutex<Vec<Vec<Emit>>>>,
    /// Accounting slots: slot `src` is written only by whoever drains
    /// source `src`; the last slot belongs to the serial caller of
    /// [`Transport::exchange`] and [`Transport::allreduce_sum`].
    /// [`Transport::stats`] reduces them in ascending order, so no sum
    /// depends on which drain finished first.
    slots: Vec<Mutex<TransportStats>>,
    /// Per-rank death step: `Some(step)` once a rank has been lost.
    /// Written between steps, read (shared) for the length of a drain.
    dead: RwLock<Vec<Option<u64>>>,
}

impl fmt::Debug for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transport")
            .field("ranks", &self.ranks)
            .field("fabric", &self.fabric.arch)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Transport {
    /// Creates a transport for `ranks` ranks over the given interconnect.
    pub fn new(ranks: usize, fabric: Interconnect) -> Self {
        assert!(ranks >= 1, "a communicator needs at least one rank");
        Self {
            ranks,
            fabric,
            outboxes: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
            inboxes: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
            seqs: (0..ranks).map(|_| Mutex::new(0)).collect(),
            injector: None,
            recorder: None,
            pending: (0..ranks).map(|_| Mutex::default()).collect(),
            slots: (0..=ranks).map(|_| Mutex::default()).collect(),
            dead: RwLock::new(vec![None; ranks]),
        }
    }

    /// Number of ranks in the communicator.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The interconnect cost model in use.
    pub fn fabric(&self) -> &Interconnect {
        &self.fabric
    }

    /// Routes link faults through a seeded injector, one channel per
    /// `(tag, source)`: `comm.halo.s<src>` / `comm.migrate.s<src>`.
    pub fn enable_fault_injection(&mut self, config: FaultConfig) {
        self.injector = Some(FaultInjector::new(config));
    }

    /// The attached fault injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Emits comm telemetry (bytes counters, per-link spans, retry
    /// events) into the given recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Queues one telemetry emission of source `src`'s current drain.
    fn emit(&self, src: usize, f: impl FnOnce(&Recorder) + Send + 'static) {
        if self.recorder.is_some() {
            if let Some(drain) = self.pending[src].lock().last_mut() {
                drain.push(Box::new(f));
            }
        }
    }

    /// Emits the telemetry the drains queued, drain round by drain
    /// round: every source's first drain in ascending source order,
    /// then every source's second, and so on. That is the order
    /// [`Transport::exchange`] emits in, whatever order concurrent
    /// [`Transport::flush_source`] calls completed in, so the event
    /// stream — and every float folded over it — is schedule
    /// independent. Call it from one thread once the flushes joined.
    pub fn publish_telemetry(&self) {
        let Some(rec) = self.recorder.as_ref() else {
            return;
        };
        let mut queued: Vec<_> = self
            .pending
            .iter()
            .map(|p| std::mem::take(&mut *p.lock()).into_iter())
            .collect();
        loop {
            let mut drained = false;
            for drains in &mut queued {
                if let Some(drain) = drains.next() {
                    drained = true;
                    drain.into_iter().for_each(|f| f(rec));
                }
            }
            if !drained {
                break;
            }
        }
    }

    /// Cumulative statistics since construction: the accounting slots
    /// reduced in ascending order.
    pub fn stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for slot in &self.slots {
            let s = slot.lock();
            total.messages += s.messages;
            total.bytes += s.bytes;
            total.seconds += s.seconds;
            total.retries += s.retries;
            total.exchanges += s.exchanges;
        }
        total
    }

    /// The death table, shared. A poisoned lock means a thread panicked
    /// mid-`mark_dead`/`revive`; each is a single store, so the table
    /// is still valid.
    fn dead(&self) -> RwLockReadGuard<'_, Vec<Option<u64>>> {
        self.dead.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_dead(&self, rank: usize, step: Option<u64>) {
        assert!(rank < self.ranks, "rank out of range");
        self.dead.write().unwrap_or_else(PoisonError::into_inner)[rank] = step;
    }

    /// Marks a rank dead as of the given step. Its pending and future
    /// messages are dropped, and any message addressed *to* it makes
    /// the next [`Transport::exchange`] fail with
    /// [`CommError::RankDead`] — that failure is the detection event
    /// recovery reacts to.
    pub fn mark_dead(&self, rank: usize, step: u64) {
        self.set_dead(rank, Some(step));
    }

    /// Brings a dead rank back (respawn recovery: a replacement process
    /// rejoins the communicator on the same slot).
    pub fn revive(&self, rank: usize) {
        self.set_dead(rank, None);
    }

    /// Ranks currently marked dead, ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.dead()
            .iter()
            .enumerate()
            .filter_map(|(r, d)| d.map(|_| r))
            .collect()
    }

    /// Discards every queued message — outboxes and undelivered
    /// inboxes. Recovery calls this before replaying from a checkpoint
    /// so no message from the abandoned timeline leaks into the rerun.
    pub fn purge(&self) {
        for outbox in &self.outboxes {
            outbox.lock().clear();
        }
        for inbox in &self.inboxes {
            inbox.lock().clear();
        }
    }

    /// Posts a message. Safe to call concurrently from distinct source
    /// ranks; each source's messages keep its program order. Delivery
    /// happens when the source is next drained.
    pub fn send(&self, src: usize, dst: usize, tag: Tag, batch: ParticleBatch) {
        assert!(src < self.ranks && dst < self.ranks, "rank out of range");
        assert_ne!(src, dst, "self-sends are a decomposition bug");
        self.outboxes[src].lock().push((dst, tag, batch));
    }

    /// Drives every posted message to its inbox: a barrier over every
    /// source.
    ///
    /// Must be called from one thread with no concurrent [`Self::send`]s
    /// in flight. Drains every source in ascending rank order, so
    /// telemetry order is independent of how the posting ranks were
    /// scheduled; counts as one exchange.
    pub fn exchange(&self) -> Result<ExchangeReport, CommError> {
        let _span = self.recorder.as_ref().map(|r| r.span("comm.exchange"));
        let mut report = ExchangeReport::default();
        let drained = (0..self.ranks).try_for_each(|src| {
            let part = self.drain_source(src)?;
            report.links.extend(part.links);
            report.messages += part.messages;
            report.bytes += part.bytes;
            report.seconds += part.seconds;
            report.retries += part.retries;
            Ok(())
        });
        self.publish_telemetry();
        drained?;
        self.slots[self.ranks].lock().exchanges += 1;
        Ok(report)
    }

    /// Drains *one* source rank's outbox to the destination inboxes —
    /// the delivery primitive behind the multi-rank task graph; counts
    /// as one exchange.
    ///
    /// Safe to call concurrently for **distinct** sources: each source
    /// owns its outbox, its sequence counter, its injector channels and
    /// its accounting slot, so flush tasks never race on an ordinal
    /// stream or a sum. Dead-rank and link-failure semantics are
    /// [`Transport::exchange`]'s — it is the same drain. Its telemetry
    /// waits for [`Transport::publish_telemetry`].
    pub fn flush_source(&self, src: usize) -> Result<ExchangeReport, CommError> {
        assert!(src < self.ranks, "rank out of range");
        let report = self.drain_source(src)?;
        self.slots[src].lock().exchanges += 1;
        Ok(report)
    }

    /// The one drain: clears, costs and delivers everything `src` has
    /// posted, in program order, and books the traffic to `src`'s
    /// accounting slot. Links in the report ascend by destination.
    fn drain_source(&self, src: usize) -> Result<ExchangeReport, CommError> {
        if self.recorder.is_some() {
            self.pending[src].lock().push(Vec::new());
        }
        let posted = std::mem::take(&mut *self.outboxes[src].lock());
        let dead = self.dead();
        let mut report = ExchangeReport::default();
        if dead[src].is_some() {
            // A dead sender's posted messages never left the node:
            // drop them without costing the fabric.
            return Ok(report);
        }
        let mut seq = self.seqs[src].lock();
        for (dst, tag, batch) in posted {
            if let Some(step) = dead[dst] {
                // A message to a dead peer is how survivors detect the
                // loss: the matching receive never completes.
                self.emit(src, move |rec| {
                    rec.fault(
                        "fault.rank_dead",
                        FaultInfo {
                            kind: "rank-dead".to_string(),
                            kernel: tag.label().to_string(),
                            variant: String::new(),
                            detail: format!("link {src}->{dst}: peer {dst} dead since step {step}"),
                        },
                        1.0,
                    );
                });
                return Err(CommError::RankDead { rank: dst, step });
            }
            let retries = self.clear_link(src, dst, tag)?;
            let bytes = batch.wire_bytes();
            let seconds = self.fabric.cost(src, dst, bytes);
            self.charge(src, dst, bytes, seconds);
            report.record(src, dst, bytes, seconds, retries);
            self.deliver(Message {
                src,
                dst,
                tag,
                seq: *seq,
                batch,
            });
            *seq += 1;
        }
        report.links.sort_by_key(|l| l.dst);
        let mut slot = self.slots[src].lock();
        slot.messages += report.messages;
        slot.bytes += report.bytes;
        slot.seconds += report.seconds;
        slot.retries += report.retries;
        Ok(report)
    }

    /// Appends one message to its destination inbox, in arrival order.
    fn deliver(&self, msg: Message) {
        self.inboxes[msg.dst].lock().push(msg);
    }

    /// Runs one message through the fault injector with up to
    /// [`MAX_RETRIES`] retries; returns the number of transient retries
    /// absorbed. Each retry charges its simulated backoff to the
    /// `comm.retry` timer instead of sleeping. Ordinals come from the
    /// source's own channel (`<tag>.s<src>`): a source's ordinal stream
    /// is its program order, whichever thread drains it and whenever.
    fn clear_link(&self, src: usize, dst: usize, tag: Tag) -> Result<u64, CommError> {
        let Some(injector) = self.injector.as_ref() else {
            return Ok(0);
        };
        let kernel = &format!("{}.s{src}", tag.label());
        let mut attempts = 0u32;
        loop {
            let ordinal = injector.next_ordinal(kernel);
            attempts += 1;
            match injector.launch_fault(kernel, ordinal) {
                None => return Ok(u64::from(attempts - 1)),
                Some(err) if err.is_retryable() && attempts <= MAX_RETRIES => {
                    let kernel = kernel.to_string();
                    self.emit(src, move |rec| {
                        let backoff = BACKOFF_BASE_S * f64::from(1u32 << (attempts - 1));
                        rec.timer("comm.retry", backoff);
                        rec.counter("comm.retries", 1.0);
                        rec.fault(
                            "fault.retry",
                            FaultInfo {
                                kind: "retry".to_string(),
                                kernel,
                                variant: String::new(),
                                detail: format!("link {src}->{dst} attempt {attempts}"),
                            },
                            1.0,
                        );
                    });
                }
                Some(err) => {
                    return Err(CommError::LinkFailed {
                        src,
                        dst,
                        tag,
                        attempts,
                        last: err,
                    })
                }
            }
        }
    }

    /// Charges one delivered message to telemetry, decomposed against
    /// the α–β model: the latency and serialization terms separately,
    /// plus the bandwidth-utilization fraction `n·β / (α + n·β)` so the
    /// analysis plane can tell latency-bound links from saturated ones.
    fn charge(&self, src: usize, dst: usize, bytes: u64, seconds: f64) {
        if self.recorder.is_none() {
            return;
        }
        let link = self.fabric.link(src, dst);
        let (alpha, beta, utilization) = (
            link.alpha_seconds(),
            link.beta_seconds(bytes),
            link.utilization(bytes),
        );
        // One batched span per message: the transport is the
        // highest-frequency emitter in the plane, and the batch path
        // keeps its cost to one lock per delivery.
        self.emit(src, move |rec| {
            rec.span_batch(
                &format!("link.{src}->{dst}"),
                &[
                    (EventKind::Counter, "comm.bytes_sent", bytes as f64),
                    (EventKind::Counter, "comm.bytes_recv", bytes as f64),
                    (EventKind::Counter, "comm.link.alpha_s", alpha),
                    (EventKind::Counter, "comm.link.beta_s", beta),
                    (EventKind::Counter, "comm.link.utilization", utilization),
                    (EventKind::Timer, "comm.link", seconds),
                ],
            );
        });
    }

    /// Drains the messages of one tag from a rank's inbox, sorted by
    /// `(src, seq)` — the only order rank code is allowed to observe,
    /// whatever order the flushes delivered in. Other tags stay
    /// queued: no phase barrier keeps
    /// migrate and halo traffic apart in the multi-rank step: a fast
    /// neighbor's halos may arrive while this rank is still absorbing
    /// migrants, and must not be consumed as migrants.
    pub fn take_inbox_tagged(&self, rank: usize, tag: Tag) -> Vec<Message> {
        let mut inbox = self.inboxes[rank].lock();
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(inbox.len());
        for msg in inbox.drain(..) {
            if msg.tag == tag {
                taken.push(msg);
            } else {
                kept.push(msg);
            }
        }
        *inbox = kept;
        drop(inbox);
        taken.sort_by_key(|m| (m.src, m.seq));
        taken
    }

    /// Global reduction: sums one contribution per rank in ascending
    /// rank order (the deterministic reduction order every backend must
    /// reproduce) and charges the tree-allreduce cost.
    pub fn allreduce_sum(&self, per_rank: &[f64]) -> f64 {
        assert_eq!(per_rank.len(), self.ranks, "one contribution per rank");
        let seconds = self.fabric.allreduce_cost(self.ranks, 8);
        if let Some(rec) = self.recorder.as_ref() {
            rec.timer("comm.allreduce", seconds);
        }
        self.slots[self.ranks].lock().seconds += seconds;
        per_rank.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::GpuArch;

    fn transport(ranks: usize) -> Transport {
        Transport::new(ranks, Interconnect::for_arch(&GpuArch::frontier()))
    }

    fn batch(n: usize) -> ParticleBatch {
        let mut b = ParticleBatch::new();
        for i in 0..n {
            b.push(i as u64, [0.0; 3], [0.0; 3], 1.0, 0.1, 0.0);
        }
        b
    }

    #[test]
    fn delivery_is_src_seq_sorted() {
        let t = transport(4);
        t.send(2, 0, Tag::Halo, batch(1));
        t.send(1, 0, Tag::Halo, batch(2));
        t.send(1, 0, Tag::Halo, batch(3));
        let report = t.exchange().unwrap();
        assert_eq!(report.messages, 3);
        let inbox = t.take_inbox_tagged(0, Tag::Halo);
        let order: Vec<(usize, u64, usize)> = inbox
            .iter()
            .map(|m| (m.src, m.seq, m.batch.len()))
            .collect();
        assert_eq!(order, vec![(1, 0, 2), (1, 1, 3), (2, 0, 1)]);
        assert!(
            t.take_inbox_tagged(0, Tag::Halo).is_empty(),
            "inbox drained"
        );
    }

    #[test]
    fn wire_bytes_and_costs_accumulate() {
        let t = transport(2);
        t.send(0, 1, Tag::Halo, batch(10));
        let report = t.exchange().unwrap();
        assert_eq!(
            report.bytes,
            MESSAGE_HEADER_BYTES + 10 * PARTICLE_WIRE_BYTES
        );
        assert!(report.seconds > 0.0);
        assert_eq!(report.links.len(), 1);
        let link = &report.links[0];
        assert_eq!((link.src, link.dst, link.bytes), (0, 1, report.bytes));
        assert_eq!(link.seconds, report.seconds);
        assert_eq!(t.stats().exchanges, 1);
    }

    #[test]
    fn transient_link_faults_retry_to_success() {
        let mut t = transport(2);
        t.enable_fault_injection(FaultConfig {
            seed: 11,
            transient_rate: 0.1,
            ..FaultConfig::default()
        });
        let mut retries = 0;
        for _ in 0..50 {
            t.send(0, 1, Tag::Halo, batch(1));
            let report = t.exchange().unwrap();
            retries += report.retries;
            assert_eq!(t.take_inbox_tagged(1, Tag::Halo).len(), 1);
        }
        assert!(
            retries > 0,
            "a 10% rate over 50 sends must trip at least once"
        );
        assert_eq!(t.stats().retries, retries);
    }

    #[test]
    fn device_loss_surfaces_as_comm_error() {
        let mut t = transport(2);
        t.enable_fault_injection(FaultConfig {
            seed: 3,
            device_loss_rate: 1.0,
            ..FaultConfig::default()
        });
        t.send(0, 1, Tag::Migrate, batch(1));
        let err = t.exchange().unwrap_err();
        assert!(
            matches!(
                err,
                CommError::LinkFailed {
                    src: 0,
                    dst: 1,
                    attempts: 1,
                    ..
                }
            ),
            "device loss is not retryable: {err:?}"
        );
        assert!(err.to_string().contains("comm.migrate"));
    }

    #[test]
    fn exhausted_retries_surface_as_link_failed() {
        let mut t = transport(2);
        t.enable_fault_injection(FaultConfig {
            seed: 7,
            transient_rate: 1.0,
            ..FaultConfig::default()
        });
        let rec = Recorder::new();
        t.set_recorder(rec.clone());
        // Every attempt faults transiently: the first attempt plus all
        // MAX_RETRIES retries, then a typed failure naming the link.
        t.send(0, 1, Tag::Halo, batch(1));
        let err = t.exchange().unwrap_err();
        match err {
            CommError::LinkFailed {
                src,
                dst,
                tag,
                attempts,
                ref last,
            } => {
                assert_eq!((src, dst), (0, 1));
                assert_eq!(tag, Tag::Halo);
                assert_eq!(attempts, 4);
                assert!(last.is_retryable(), "the budget ran out, not the kind");
            }
            other => panic!("expected a link failure, got {other:?}"),
        }
        let events = rec.events();
        assert_eq!(hacc_telemetry::counter_total(&events, "comm.retries"), 3.0);
        let waited: f64 = events
            .iter()
            .filter(|e| e.name == "comm.retry")
            .map(|e| e.value)
            .sum();
        assert!(
            (waited - 7e-6).abs() < 1e-15,
            "backoff 1 + 2 + 4 µs: {waited}"
        );
    }

    #[test]
    fn messages_to_a_dead_rank_fail_with_rank_dead() {
        let t = transport(3);
        t.mark_dead(1, 4);
        assert_eq!(t.dead_ranks(), vec![1]);
        t.send(0, 1, Tag::Halo, batch(1));
        let err = t.exchange().unwrap_err();
        assert!(
            matches!(err, CommError::RankDead { rank: 1, step: 4 }),
            "got {err:?}"
        );
        // Recovery revives the slot; traffic flows again.
        t.purge();
        t.revive(1);
        assert!(t.dead_ranks().is_empty());
        t.send(0, 1, Tag::Halo, batch(1));
        t.exchange().unwrap();
        assert_eq!(t.take_inbox_tagged(1, Tag::Halo).len(), 1);
    }

    #[test]
    fn messages_from_a_dead_rank_are_dropped() {
        let t = transport(3);
        // Rank 1 posted before dying: its messages vanish with it.
        t.send(1, 0, Tag::Halo, batch(2));
        t.mark_dead(1, 0);
        t.send(2, 0, Tag::Halo, batch(3));
        let report = t.exchange().unwrap();
        assert_eq!(report.messages, 1, "only the live sender delivers");
        let inbox = t.take_inbox_tagged(0, Tag::Halo);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].src, 2);
    }

    #[test]
    fn purge_discards_queued_messages() {
        let t = transport(2);
        t.send(0, 1, Tag::Halo, batch(1));
        t.exchange().unwrap();
        t.send(0, 1, Tag::Migrate, batch(2));
        t.purge();
        let report = t.exchange().unwrap();
        assert_eq!(report.messages, 0, "outboxes were purged");
        for tag in [Tag::Halo, Tag::Migrate] {
            assert!(
                t.take_inbox_tagged(1, tag).is_empty(),
                "inboxes were purged"
            );
        }
    }

    #[test]
    fn allreduce_sums_in_rank_order() {
        let t = transport(4);
        assert_eq!(t.allreduce_sum(&[1.0, 2.0, 3.0, 4.0]), 10.0);
    }

    #[test]
    fn flushed_telemetry_publishes_in_drain_round_order() {
        let stream = |flush_order: [usize; 3]| {
            let mut t = transport(3);
            let rec = Recorder::new();
            t.set_recorder(rec.clone());
            for round in 0..2 {
                for src in 0..3 {
                    t.send(src, (src + 1) % 3, Tag::Halo, batch(1 + round + src));
                }
                for src in flush_order {
                    t.flush_source(src).unwrap();
                }
            }
            assert!(rec.is_empty(), "flushes queue their telemetry");
            t.publish_telemetry();
            rec.events()
                .iter()
                .map(|e| (e.name.clone(), e.value.to_bits()))
                .collect::<Vec<_>>()
        };
        let canonical = stream([0, 1, 2]);
        assert_eq!(canonical[0].0, "link.0->1", "round 0 opens with source 0");
        assert_eq!(stream([2, 0, 1]), canonical);
    }

    #[test]
    fn flush_source_delivers_only_that_source() {
        let t = transport(4);
        t.send(1, 0, Tag::Halo, batch(2));
        t.send(2, 0, Tag::Halo, batch(3));
        let report = t.flush_source(1).unwrap();
        assert_eq!(report.messages, 1);
        assert!(report.links.iter().all(|l| l.src == 1));
        let inbox = t.take_inbox_tagged(0, Tag::Halo);
        assert_eq!(inbox.len(), 1, "rank 2's post is still queued");
        assert_eq!(inbox[0].src, 1);
        // The remaining source flushes independently.
        t.flush_source(2).unwrap();
        assert_eq!(t.take_inbox_tagged(0, Tag::Halo).len(), 1);
        // An empty flush is a no-op that still counts as an exchange.
        assert_eq!(t.flush_source(3).unwrap().messages, 0);
    }

    #[test]
    fn flush_sequences_match_the_barriered_exchange() {
        // Same sends; one transport drains at the barrier, the other
        // flushes per source in arbitrary source order. Consumers must
        // see identical (src, seq, payload) streams.
        let run = |barriered: bool| {
            let t = transport(4);
            t.send(2, 0, Tag::Migrate, batch(1));
            t.send(1, 0, Tag::Migrate, batch(2));
            if barriered {
                t.exchange().unwrap();
            } else {
                // Flush in non-ascending source order on purpose.
                t.flush_source(2).unwrap();
                t.flush_source(1).unwrap();
            }
            t.send(1, 0, Tag::Halo, batch(4));
            t.send(3, 0, Tag::Halo, batch(5));
            if barriered {
                t.exchange().unwrap();
            } else {
                t.flush_source(3).unwrap();
                t.flush_source(1).unwrap();
            }
            [Tag::Migrate, Tag::Halo]
                .into_iter()
                .flat_map(|tag| t.take_inbox_tagged(0, tag))
                .map(|m| (m.src, m.seq, m.batch.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn exchange_is_the_ascending_flush_of_every_source() {
        // Same posts under the same transient-fault schedule: one
        // transport drains at the barrier, the other flushes source by
        // source. Everything but the exchange count agrees to the bit.
        let run = |barriered: bool| {
            let mut t = transport(4);
            t.enable_fault_injection(FaultConfig {
                seed: 21,
                transient_rate: 0.1,
                ..FaultConfig::default()
            });
            let mut links = Vec::new();
            for round in 0..6 {
                for src in 0..4 {
                    for dst in (0..4).filter(|&d| d != src) {
                        let tag = [Tag::Halo, Tag::Migrate][(src + dst + round) % 2];
                        t.send(src, dst, tag, batch(1 + src + 2 * dst + round));
                    }
                }
                let reports = if barriered {
                    vec![t.exchange().unwrap()]
                } else {
                    (0..4).map(|src| t.flush_source(src).unwrap()).collect()
                };
                for l in reports.into_iter().flat_map(|r| r.links) {
                    let seconds = l.seconds.to_bits();
                    links.push((l.src, l.dst, l.messages, l.bytes, seconds, l.retries));
                }
                t.allreduce_sum(&[1.0; 4]);
            }
            let inboxes: Vec<Vec<_>> = (0..4)
                .map(|rank| {
                    [Tag::Halo, Tag::Migrate]
                        .into_iter()
                        .flat_map(|tag| t.take_inbox_tagged(rank, tag))
                        .map(|m| (m.src, m.seq, m.tag, m.batch))
                        .collect()
                })
                .collect();
            let s = t.stats();
            let totals = (s.messages, s.bytes, s.retries, s.seconds.to_bits());
            (inboxes, links, totals)
        };
        let (barriered, flushed) = (run(true), run(false));
        assert!(barriered.2 .2 > 0, "the fault schedule must actually fire");
        assert_eq!(barriered, flushed);
    }

    #[test]
    fn reordered_arrivals_are_consumed_in_canonical_order() {
        // The task graph flushes sources in whatever order their tasks
        // run; flushing in descending order delivers every source's
        // messages ahead of a lower source's.
        let t = transport(4);
        for k in 1..4 {
            t.send(k, 0, Tag::Halo, batch(k));
            t.send(k, 0, Tag::Halo, batch(k + 3));
        }
        for src in (0..4).rev() {
            t.flush_source(src).unwrap();
        }
        let consumed: Vec<(usize, u64, usize)> = t
            .take_inbox_tagged(0, Tag::Halo)
            .iter()
            .map(|m| (m.src, m.seq, m.batch.len()))
            .collect();
        assert_eq!(
            consumed,
            vec![
                (1, 0, 1),
                (1, 1, 4),
                (2, 0, 2),
                (2, 1, 5),
                (3, 0, 3),
                (3, 1, 6)
            ],
            "consumption must be canonical regardless of arrival order"
        );
    }

    #[test]
    fn tagged_take_leaves_other_traffic_queued() {
        let t = transport(3);
        t.send(1, 0, Tag::Migrate, batch(1));
        t.flush_source(1).unwrap();
        // A fast neighbor's halo lands before rank 0 absorbed migrants.
        t.send(2, 0, Tag::Halo, batch(2));
        t.flush_source(2).unwrap();
        let migrants = t.take_inbox_tagged(0, Tag::Migrate);
        assert_eq!(migrants.len(), 1);
        assert_eq!(migrants[0].tag, Tag::Migrate);
        let halos = t.take_inbox_tagged(0, Tag::Halo);
        assert_eq!(halos.len(), 1);
        assert_eq!(halos[0].src, 2);
        assert!(t.take_inbox_tagged(0, Tag::Migrate).is_empty());
        assert!(t.take_inbox_tagged(0, Tag::Halo).is_empty());
    }

    #[test]
    fn flush_link_failure_names_the_failed_link() {
        let mut t = transport(2);
        t.enable_fault_injection(FaultConfig {
            seed: 7,
            transient_rate: 1.0,
            ..FaultConfig::default()
        });
        t.send(0, 1, Tag::Halo, batch(1));
        let err = t.flush_source(0).unwrap_err();
        match err {
            CommError::LinkFailed {
                src,
                dst,
                tag,
                attempts,
                ..
            } => {
                assert_eq!((src, dst), (0, 1), "the error must name the link");
                assert_eq!(tag, Tag::Halo);
                assert_eq!(attempts, 4);
            }
            other => panic!("expected a link failure, got {other:?}"),
        }
        assert!(err.to_string().contains("0->1"));
    }

    #[test]
    fn flush_to_a_dead_rank_names_the_dead_rank() {
        let t = transport(3);
        t.mark_dead(2, 6);
        t.send(0, 2, Tag::Migrate, batch(1));
        let err = t.flush_source(0).unwrap_err();
        assert!(
            matches!(err, CommError::RankDead { rank: 2, step: 6 }),
            "got {err:?}"
        );
        // A dead source's posts are dropped silently, as at the barrier.
        t.send(2, 0, Tag::Halo, batch(1));
        let report = t.flush_source(2).unwrap();
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn per_source_fault_channels_are_schedule_independent() {
        // Two sources flush in both orders; with per-source injector
        // channels each source's retry count must not depend on the
        // other's flush position.
        let run = |first: usize, second: usize| {
            let mut t = transport(3);
            t.enable_fault_injection(FaultConfig {
                seed: 21,
                transient_rate: 0.1,
                ..FaultConfig::default()
            });
            for _ in 0..10 {
                t.send(0, 2, Tag::Halo, batch(1));
                t.send(1, 2, Tag::Halo, batch(1));
                let a = t.flush_source(first).unwrap();
                let b = t.flush_source(second).unwrap();
                t.take_inbox_tagged(2, Tag::Halo);
                assert_eq!(a.messages + b.messages, 2);
            }
            t.stats().retries
        };
        let (forward, backward) = (run(0, 1), run(1, 0));
        assert!(forward > 0, "the fault schedule must actually fire");
        assert_eq!(forward, backward);
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let run = || {
            let mut t = transport(2);
            t.enable_fault_injection(FaultConfig {
                seed: 99,
                transient_rate: 0.3,
                ..FaultConfig::default()
            });
            let mut retries = Vec::new();
            for _ in 0..20 {
                t.send(0, 1, Tag::Halo, batch(2));
                retries.push(t.exchange().unwrap().retries);
            }
            retries
        };
        assert_eq!(run(), run());
    }
}
