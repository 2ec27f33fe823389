//! Dependency-graph task executor: the asynchronous many-task runtime.
//!
//! Instead of global joins — every phase joining the pool, an exchange
//! barrier draining every outbox before any rank continues — work is a
//! [`TaskGraph`]: each per-rank phase and per-rank exchange flush is a
//! task node whose readiness is tracked per *resource* (read/write
//! sets), scheduled onto worker threads as its dependencies resolve.
//!
//! ## Canonical order and determinism
//!
//! A task's id is its insertion order — the **canonical order**, the
//! program order a one-worker run executes in. Three rules make any
//! interleaving bit-identical to that reference:
//!
//! 1. **Edges point backward.** A task may only depend on tasks
//!    inserted before it ([`TaskGraph::add_dep`] rejects anything else
//!    as a cycle at construction time — no runtime cycle detection is
//!    needed, and deadlock-by-cycle is impossible by construction).
//! 2. **Dependencies are inferred from read/write sets.** For every
//!    resource a task reads it depends on the resource's last writer
//!    (RAW); for every resource it writes it depends on the last
//!    writer (WAW) *and* every reader since (WAR). Two tasks may
//!    overlap only when no such hazard connects them — exactly the
//!    pairs whose results are order-independent.
//! 3. **Side effects stay inside their task.** Deferred-atomic replay
//!    (the PR 3 contract) is keyed per launch, and per-source exchange
//!    sequencing is keyed per flush task, so concurrent tasks never
//!    race on an ordinal stream.
//!
//! ## Deadlock freedom
//!
//! Every dependency edge points from a higher id to a lower id, so the
//! dependency relation is a strict partial order embedded in the total
//! order of ids: the lowest-id unfinished task always has all its
//! dependencies finished, hence the ready queue is non-empty whenever
//! unfinished tasks remain and at least one worker is idle. The only
//! way forward progress can stall is a task body that never returns —
//! which the watchdog converts into a typed [`RunError::Watchdog`]
//! naming every unfinished task, once stragglers return.
//!
//! Given a recorder, the scheduler exports the graph's shape as
//! `task.*` counters and its host-measured queue depth, ready latency,
//! busy and wall seconds as volatile `sched.task.*` counters.

use hacc_telemetry::Recorder;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A task's id: its insertion index, which is also its canonical
/// (program) order — the order one worker runs the graph in.
pub type TaskId = usize;

/// An opaque resource a task reads or writes — a buffer, a rank's
/// particle state, an inbox. Dependency inference connects tasks that
/// touch the same resource with a write involved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResourceId(u64);

impl ResourceId {
    /// A resource named by a string (FNV-1a of the bytes).
    pub fn named(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        ResourceId(hash)
    }

    /// A resource named by a string and an index (per-rank state,
    /// per-rank inbox, ...).
    pub fn indexed(name: &str, index: usize) -> Self {
        let ResourceId(base) = Self::named(name);
        ResourceId(base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Construction-time graph error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An explicit edge pointed forward (or at the task itself): in
    /// canonical order every dependency must already exist, so this
    /// edge would close a cycle.
    Cycle {
        /// The task the edge was added to.
        task: TaskId,
        /// The offending dependency.
        dep: TaskId,
    },
    /// An edge referenced a task id that was never inserted.
    UnknownTask(TaskId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle { task, dep } => write!(
                f,
                "edge {task} -> {dep} does not point backward in canonical \
                 order: it would close a cycle"
            ),
            GraphError::UnknownTask(id) => write!(f, "task id {id} does not exist"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Why a [`TaskGraph::run`] failed.
#[derive(Clone, Debug)]
pub enum RunError<E> {
    /// A task body returned an error. When several tasks fail before
    /// the scheduler drains, the one earliest in canonical order is
    /// reported — the same error a one-worker run would have surfaced
    /// first.
    Task {
        /// Canonical id of the failed task.
        id: TaskId,
        /// Label of the failed task.
        label: String,
        /// The task's error.
        error: E,
    },
    /// The watchdog deadline expired with tasks still unfinished. The
    /// labels name every unfinished task (pending or running) so a
    /// hung schedule is diagnosable from the error alone.
    Watchdog {
        /// Seconds elapsed when the watchdog fired.
        elapsed_s: f64,
        /// Labels of tasks that never completed, canonical order.
        unfinished: Vec<String>,
    },
}

impl<E: fmt::Display> fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Task { id, label, error } => {
                write!(f, "task {id} ({label}) failed: {error}")
            }
            RunError::Watchdog {
                elapsed_s,
                unfinished,
            } => write!(
                f,
                "watchdog fired after {elapsed_s:.3}s with {} unfinished tasks: {}",
                unfinished.len(),
                unfinished.join(", ")
            ),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for RunError<E> {}

/// Scheduler accounting for one [`TaskGraph::run`].
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Tasks executed.
    pub tasks: usize,
    /// Dependency edges (after dedup).
    pub edges: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Claim order: task ids in the order workers claimed them. Every
    /// dependency of a task appears before it (the topological-order
    /// witness the property harness asserts on).
    pub order: Vec<TaskId>,
    /// Deepest the ready queue ever got.
    pub max_queue_depth: usize,
    /// Summed seconds tasks spent ready-but-unclaimed.
    pub ready_latency_s: f64,
    /// Summed seconds of task body execution.
    pub busy_s: f64,
    /// Wall seconds from run start to last completion.
    pub wall_s: f64,
}

struct TaskNode<'env, E> {
    label: String,
    deps: Vec<TaskId>,
    body: Option<Box<dyn FnOnce() -> Result<(), E> + Send + 'env>>,
}

/// The Sync half of a task, shared with the workers (the body is not
/// Sync and lives behind its own claim mutex).
struct TaskMeta {
    label: String,
    deps: Vec<TaskId>,
    dependents: Vec<TaskId>,
}

/// A dependency graph of fallible tasks, executed on scoped worker
/// threads as readiness resolves. See the module docs for the
/// canonical-order and determinism rules.
pub struct TaskGraph<'env, E> {
    tasks: Vec<TaskNode<'env, E>>,
    edges: usize,
    last_writer: HashMap<ResourceId, TaskId>,
    /// Readers of each resource since its last write (cleared by the
    /// next writer, which depends on all of them — the WAR edge).
    readers: HashMap<ResourceId, Vec<TaskId>>,
}

impl<'env, E> Default for TaskGraph<'env, E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared scheduler state behind the run mutex.
struct SchedState {
    /// Ready tasks, kept sorted ascending so workers claim the lowest
    /// canonical id first (keeps the claim order close to program
    /// order and the error choice deterministic-ish under contention).
    ready: Vec<TaskId>,
    /// When each ready task became ready (same indexing as `ready`).
    ready_since: Vec<Instant>,
    indegree: Vec<usize>,
    done: Vec<bool>,
    remaining: usize,
    /// Lowest-canonical-id task error seen so far.
    error: Option<(TaskId, String)>,
    /// Set on error or watchdog: workers stop claiming and exit.
    abort: bool,
    timed_out: bool,
    order: Vec<TaskId>,
    max_queue_depth: usize,
    ready_latency_s: f64,
    busy_s: f64,
}

impl<'env, E> TaskGraph<'env, E> {
    /// An empty graph.
    pub fn new() -> Self {
        Self {
            tasks: Vec::new(),
            edges: 0,
            last_writer: HashMap::new(),
            readers: HashMap::new(),
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task has been added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Dependency edges after dedup.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The (deduped, ascending) dependencies of a task.
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        &self.tasks[id].deps
    }

    /// Adds a task whose dependencies are inferred from its resource
    /// read/write sets: RAW on each read resource's last writer, WAW
    /// on each written resource's last writer, WAR on every reader
    /// since that write. Returns the task's canonical id.
    pub fn add_task(
        &mut self,
        label: impl Into<String>,
        reads: &[ResourceId],
        writes: &[ResourceId],
        body: impl FnOnce() -> Result<(), E> + Send + 'env,
    ) -> TaskId {
        let id = self.tasks.len();
        let mut deps: Vec<TaskId> = Vec::new();
        for r in reads {
            if let Some(&w) = self.last_writer.get(r) {
                deps.push(w);
            }
            self.readers.entry(*r).or_default().push(id);
        }
        for w in writes {
            if let Some(&prev) = self.last_writer.get(w) {
                deps.push(prev);
            }
            if let Some(rs) = self.readers.get_mut(w) {
                deps.extend(rs.iter().copied());
                rs.clear();
            }
            self.last_writer.insert(*w, id);
        }
        deps.sort_unstable();
        deps.dedup();
        deps.retain(|&d| d != id);
        self.edges += deps.len();
        // Dependent lists are rebuilt in one pass by `run`, so add_dep
        // edits never have to keep them consistent here.
        self.tasks.push(TaskNode {
            label: label.into(),
            deps,
            body: Some(Box::new(body)),
        });
        id
    }

    /// Adds an explicit dependency edge (for hazards the resource sets
    /// cannot express, e.g. message arrival). The edge must point
    /// backward in canonical order — anything else is rejected as a
    /// cycle at construction time.
    pub fn add_dep(&mut self, task: TaskId, dep: TaskId) -> Result<(), GraphError> {
        if task >= self.tasks.len() {
            return Err(GraphError::UnknownTask(task));
        }
        if dep >= self.tasks.len() {
            return Err(GraphError::UnknownTask(dep));
        }
        if dep >= task {
            return Err(GraphError::Cycle { task, dep });
        }
        if !self.tasks[task].deps.contains(&dep) {
            self.tasks[task].deps.push(dep);
            self.tasks[task].deps.sort_unstable();
            self.edges += 1;
        }
        Ok(())
    }
}

impl<'env, E: Send + 'env> TaskGraph<'env, E> {
    /// Executes the graph on `threads` scoped workers (0 = the rayon
    /// pool's current width), claiming ready tasks lowest-id first.
    ///
    /// On task failure the scheduler stops claiming, lets running
    /// tasks finish, and reports the failure earliest in canonical
    /// order. `watchdog` bounds the run: if it expires with tasks
    /// unfinished, claiming stops and [`RunError::Watchdog`] names
    /// every task that never completed (the scheduler itself cannot
    /// deadlock — see the module docs — so a fired watchdog means a
    /// task body stalled). With a recorder, the `task.*` shape
    /// counters and the volatile `sched.task.*` host measurements are
    /// emitted on completion.
    pub fn run(
        self,
        threads: usize,
        watchdog: Option<Duration>,
        recorder: Option<&Recorder>,
    ) -> Result<RunStats, RunError<E>> {
        let n = self.tasks.len();
        let edge_count = self.edges;
        // Split the graph into Sync metadata (labels, edges) and the
        // non-Sync task bodies, each claimable exactly once behind its
        // own mutex. Dependent lists are built here in one pass so
        // add_dep edits never have to keep them consistent.
        let mut bodies: Vec<Mutex<Option<Box<dyn FnOnce() -> Result<(), E> + Send + 'env>>>> =
            Vec::with_capacity(n);
        let mut meta: Vec<TaskMeta> = Vec::with_capacity(n);
        for t in self.tasks {
            bodies.push(Mutex::new(t.body));
            meta.push(TaskMeta {
                label: t.label,
                deps: t.deps,
                dependents: Vec::new(),
            });
        }
        for id in 0..n {
            for k in 0..meta[id].deps.len() {
                let d = meta[id].deps[k];
                meta[d].dependents.push(id);
            }
        }
        let meta = meta;

        let workers = if threads == 0 {
            rayon::current_num_threads().max(1)
        } else {
            threads
        }
        .min(n.max(1));

        let started = Instant::now();
        let indegree: Vec<usize> = meta.iter().map(|t| t.deps.len()).collect();
        let ready: Vec<TaskId> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let ready_since = vec![started; ready.len()];
        let state = Mutex::new(SchedState {
            max_queue_depth: ready.len(),
            ready,
            ready_since,
            indegree,
            done: vec![false; n],
            remaining: n,
            error: None,
            abort: false,
            timed_out: false,
            order: Vec::with_capacity(n),
            ready_latency_s: 0.0,
            busy_s: 0.0,
        });
        let cond = Condvar::new();
        let deadline = watchdog.map(|d| started + d);
        let first_error: Mutex<Option<(TaskId, E)>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let mut st = state.lock().unwrap();
                    let claimed = loop {
                        if st.abort || st.remaining == 0 {
                            return;
                        }
                        if let Some(deadline) = deadline {
                            if Instant::now() >= deadline {
                                st.abort = true;
                                st.timed_out = true;
                                cond.notify_all();
                                return;
                            }
                        }
                        if !st.ready.is_empty() {
                            // Lowest canonical id first.
                            let slot = st
                                .ready
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, &id)| id)
                                .map(|(s, _)| s)
                                .expect("non-empty ready queue");
                            let id = st.ready.swap_remove(slot);
                            let since = st.ready_since.swap_remove(slot);
                            st.ready_latency_s += since.elapsed().as_secs_f64();
                            st.order.push(id);
                            break id;
                        }
                        st = match deadline {
                            Some(deadline) => {
                                let now = Instant::now();
                                let wait = deadline.saturating_duration_since(now);
                                cond.wait_timeout(st, wait.min(Duration::from_millis(50)))
                                    .unwrap()
                                    .0
                            }
                            None => cond.wait(st).unwrap(),
                        };
                    };
                    drop(st);

                    let body = bodies[claimed]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("task claimed exactly once");
                    let t0 = Instant::now();
                    let result = body();
                    let busy = t0.elapsed().as_secs_f64();

                    let mut st = state.lock().unwrap();
                    st.busy_s += busy;
                    st.done[claimed] = true;
                    st.remaining -= 1;
                    match result {
                        Ok(()) => {
                            let now = Instant::now();
                            for &dep_id in &meta[claimed].dependents {
                                st.indegree[dep_id] -= 1;
                                if st.indegree[dep_id] == 0 {
                                    st.ready.push(dep_id);
                                    st.ready_since.push(now);
                                }
                            }
                            let depth = st.ready.len();
                            st.max_queue_depth = st.max_queue_depth.max(depth);
                        }
                        Err(e) => {
                            // Keep the error earliest in canonical order:
                            // the one a one-worker run would have
                            // surfaced first among those that ran.
                            let mut slot = first_error.lock().unwrap();
                            let replace = match slot.as_ref() {
                                None => true,
                                Some((id, _)) => claimed < *id,
                            };
                            if replace {
                                *slot = Some((claimed, e));
                                st.error = Some((claimed, meta[claimed].label.clone()));
                            }
                            st.abort = true;
                        }
                    }
                    cond.notify_all();
                });
            }
        });

        let st = state.into_inner().unwrap();
        let wall_s = started.elapsed().as_secs_f64();
        if let Some(rec) = recorder {
            rec.span_batch(
                "task.graph",
                &[
                    (hacc_telemetry::EventKind::Counter, "task.nodes", n as f64),
                    (
                        hacc_telemetry::EventKind::Counter,
                        "task.edges",
                        edge_count as f64,
                    ),
                    (
                        hacc_telemetry::EventKind::Counter,
                        "task.executed",
                        st.order.len() as f64,
                    ),
                    // Host-measured and OS-scheduled, so `sched.*`:
                    // volatile, never gated. Counters, not timers, so
                    // they stay out of the modeled GPU-time totals.
                    (
                        hacc_telemetry::EventKind::Counter,
                        "sched.task.queue_depth.max",
                        st.max_queue_depth as f64,
                    ),
                    (
                        hacc_telemetry::EventKind::Counter,
                        "sched.task.ready_latency_s",
                        st.ready_latency_s,
                    ),
                    (
                        hacc_telemetry::EventKind::Counter,
                        "sched.task.busy_s",
                        st.busy_s,
                    ),
                    (
                        hacc_telemetry::EventKind::Counter,
                        "sched.task.wall_s",
                        wall_s,
                    ),
                ],
            );
        }
        if let Some((id, label)) = st.error {
            let (_, error) = first_error
                .into_inner()
                .unwrap()
                .expect("error slot filled with state.error");
            return Err(RunError::Task { id, label, error });
        }
        if st.timed_out && st.remaining > 0 {
            let unfinished: Vec<String> = meta
                .iter()
                .enumerate()
                .filter(|(id, _)| !st.done[*id])
                .map(|(_, t)| t.label.clone())
                .collect();
            return Err(RunError::Watchdog {
                elapsed_s: wall_s,
                unfinished,
            });
        }
        Ok(RunStats {
            tasks: n,
            edges: edge_count,
            workers,
            order: st.order,
            max_queue_depth: st.max_queue_depth,
            ready_latency_s: st.ready_latency_s,
            busy_s: st.busy_s,
            wall_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[derive(Clone, Debug, PartialEq)]
    struct Boom(&'static str);

    #[test]
    fn raw_waw_war_edges_are_inferred() {
        let a = ResourceId::named("a");
        let b = ResourceId::named("b");
        let mut g: TaskGraph<'_, Boom> = TaskGraph::new();
        let w0 = g.add_task("write-a", &[], &[a], || Ok(())); // writes a
        let r1 = g.add_task("read-a", &[a], &[b], || Ok(())); // RAW on w0
        let r2 = g.add_task("read-a-2", &[a], &[], || Ok(())); // RAW on w0
        let w3 = g.add_task("rewrite-a", &[], &[a], || Ok(())); // WAW w0, WAR r1/r2
        assert_eq!(g.deps(w0), &[] as &[TaskId]);
        assert_eq!(g.deps(r1), &[w0]);
        assert_eq!(g.deps(r2), &[w0]);
        assert_eq!(g.deps(w3), &[w0, r1, r2]);
    }

    #[test]
    fn forward_edges_are_rejected_as_cycles() {
        let mut g: TaskGraph<'_, Boom> = TaskGraph::new();
        let t0 = g.add_task("t0", &[], &[], || Ok(()));
        let t1 = g.add_task("t1", &[], &[], || Ok(()));
        assert_eq!(
            g.add_dep(t0, t1),
            Err(GraphError::Cycle { task: t0, dep: t1 })
        );
        assert_eq!(
            g.add_dep(t1, t1),
            Err(GraphError::Cycle { task: t1, dep: t1 })
        );
        assert_eq!(g.add_dep(t1, 99), Err(GraphError::UnknownTask(99)));
        g.add_dep(t1, t0).unwrap();
        g.add_dep(t1, t0).unwrap(); // idempotent
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn tasks_run_exactly_once_in_dependency_order() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut g: TaskGraph<'_, Boom> = TaskGraph::new();
        let s = ResourceId::named("s");
        for i in 0..20 {
            let c = counter.clone();
            // Chain through the shared resource every 4th task; the
            // rest fan out freely.
            let (reads, writes): (Vec<_>, Vec<_>) = if i % 4 == 0 {
                (vec![], vec![s])
            } else {
                (vec![s], vec![])
            };
            g.add_task(format!("t{i}"), &reads, &writes, move || {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        }
        let stats = g.run(4, Some(Duration::from_secs(30)), None).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
        assert_eq!(stats.tasks, 20);
        assert_eq!(stats.order.len(), 20);
        let mut seen = [false; 20];
        for &id in &stats.order {
            assert!(!seen[id], "task {id} claimed twice");
            seen[id] = true;
        }
    }

    #[test]
    fn task_error_earliest_in_canonical_order_wins() {
        let mut g: TaskGraph<'_, Boom> = TaskGraph::new();
        g.add_task("ok", &[], &[], || Ok(()));
        g.add_task("boom-1", &[], &[], || Err(Boom("first")));
        g.add_task("boom-2", &[], &[], || Err(Boom("second")));
        let err = g.run(1, None, None).unwrap_err();
        match err {
            RunError::Task { id, label, error } => {
                assert_eq!(id, 1);
                assert_eq!(label, "boom-1");
                assert_eq!(error, Boom("first"));
            }
            other => panic!("expected a task error, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_names_unfinished_tasks() {
        let mut g: TaskGraph<'_, Boom> = TaskGraph::new();
        let r = ResourceId::named("r");
        g.add_task("straggler", &[], &[r], || {
            std::thread::sleep(Duration::from_millis(200));
            Ok(())
        });
        g.add_task("starved", &[r], &[], || Ok(()));
        let err = g.run(2, Some(Duration::from_millis(20)), None).unwrap_err();
        match err {
            RunError::Watchdog { unfinished, .. } => {
                assert!(
                    unfinished.contains(&"starved".to_string()),
                    "the never-started task must be named: {unfinished:?}"
                );
            }
            other => panic!("expected the watchdog, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_exports_task_metrics() {
        let rec = Recorder::new();
        let mut g: TaskGraph<'_, Boom> = TaskGraph::new();
        let a = ResourceId::named("a");
        g.add_task("w", &[], &[a], || Ok(()));
        g.add_task("r", &[a], &[], || Ok(()));
        g.run(2, None, Some(&rec)).unwrap();
        let events = rec.events();
        assert_eq!(hacc_telemetry::counter_total(&events, "task.nodes"), 2.0);
        assert_eq!(hacc_telemetry::counter_total(&events, "task.edges"), 1.0);
        assert_eq!(hacc_telemetry::counter_total(&events, "task.executed"), 2.0);
        // Everything host-measured is volatile `sched.*`.
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"sched.task.wall_s"));
        let shape = ["task.graph", "task.nodes", "task.edges", "task.executed"];
        for name in names.iter().filter(|n| n.starts_with("task.")) {
            assert!(shape.contains(name), "{name} is host-measured, not shape");
        }
    }
}
