//! Shim for the `rayon` crate.
//!
//! The workspace only needs data-parallel iteration with deterministic
//! (order-preserving) results, so this shim materializes the item list
//! and applies each combinator eagerly: every `map`/`for_each`/`filter`
//! pre-splits its items into blocks, workers claim the next unclaimed
//! block from a shared cursor (so uneven per-item costs still balance
//! across threads), and results are stitched back in input order.
//! Semantics match rayon for the pure/associative closures used here;
//! scheduling (work stealing, laziness) is intentionally simpler.

use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`] for the
    /// dynamic extent of the installed closure (on the calling thread,
    /// which is where `par_apply` decides its fan-out).
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };

    /// Scheduler statistics of the most recent dispatch that completed
    /// on this thread; see [`last_sched_stats`].
    static LAST_SCHED: Cell<Option<SchedStats>> = const { Cell::new(None) };
}

/// Scheduler statistics of one `par_apply` dispatch.
///
/// The shim is dependency-free, so instead of emitting telemetry it
/// parks the numbers of the most recent dispatch in a thread-local on
/// the *calling* thread; the layer that owns a recorder (the device
/// simulator) reads them back with [`last_sched_stats`] right after
/// the parallel call returns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedStats {
    /// Items dispatched.
    pub items: usize,
    /// Work blocks the items were pre-split into — the depth of the
    /// shared claim queue when the dispatch began.
    pub queue_depth: usize,
    /// Worker threads that participated.
    pub workers: usize,
    /// Blocks claimed beyond the claimant's even share
    /// (`ceil(blocks / workers)`): work that dynamic scheduling moved
    /// from slow workers to fast ones. Zero under perfectly uniform
    /// per-block cost.
    pub steals: usize,
    /// Sum over workers of time spent executing claimed blocks, ns.
    pub busy_ns: u64,
    /// Sum over workers of time inside the dispatch *not* spent on
    /// blocks — idling at the implicit end-of-dispatch barrier while
    /// peers finish, ns.
    pub barrier_wait_ns: u64,
    /// Wall time of the whole dispatch, ns.
    pub elapsed_ns: u64,
}

/// The scheduler statistics of the most recent parallel dispatch that
/// ran on the calling thread, if any. Serial fast-path dispatches
/// (one worker) report a single block and zero steals/wait.
pub fn last_sched_stats() -> Option<SchedStats> {
    LAST_SCHED.with(Cell::get)
}

/// `RAYON_NUM_THREADS`, as real rayon honours it (positive integers only).
fn env_threads() -> Option<usize> {
    std::env::var("RAYON_NUM_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

fn available() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
}

/// The effective pool width: an installed [`ThreadPool`] wins, then
/// `RAYON_NUM_THREADS`, then the machine's available parallelism.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(Cell::get)
        .or_else(env_threads)
        .unwrap_or_else(available)
}

/// Number of worker threads to fan out over.
fn threads_for(n: usize) -> usize {
    current_num_threads().min(n).max(1)
}

/// Error type returned by [`ThreadPoolBuilder::build`] (infallible in this
/// shim; present for API compatibility with real rayon).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`] with an explicit width.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts a builder with the default width (env, then hardware).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the pool at `n` worker threads (`0` keeps the default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Never fails in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            env_threads().unwrap_or_else(available)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// A scoped thread-count policy: `install` pins the fan-out width for every
/// parallel combinator reached from the installed closure (workers are still
/// spawned per call via `std::thread::scope` — the "pool" is the width).
#[derive(Clone, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with this pool's width installed on the calling thread,
    /// restoring the previous policy afterwards (panic-safe).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(POOL_THREADS.with(|c| c.replace(Some(self.threads))));
        f()
    }
}

/// Applies `f` to every item on a scoped thread pool, preserving order.
fn par_apply<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = threads_for(n);
    if workers <= 1 {
        let t0 = std::time::Instant::now();
        let out: Vec<U> = items.into_iter().map(f).collect();
        let elapsed = t0.elapsed().as_nanos() as u64;
        LAST_SCHED.with(|c| {
            c.set(Some(SchedStats {
                items: n,
                queue_depth: 1,
                workers: 1,
                steals: 0,
                busy_ns: elapsed,
                barrier_wait_ns: 0,
                elapsed_ns: elapsed,
            }))
        });
        return out;
    }
    // Dynamic scheduling: pre-split into several blocks per worker and
    // let each worker claim the next unclaimed block from a shared
    // cursor. One slow block then costs one worker, not a whole static
    // chunk's worth of idle peers — per-item costs here (simulated
    // work-groups, interaction tiles) vary by orders of magnitude.
    // Results are stitched back by block index, preserving input order.
    let block = n.div_ceil(workers * 8).max(1);
    let mut blocks: Vec<Mutex<Option<Vec<T>>>> = Vec::new();
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(block));
        blocks.push(Mutex::new(Some(std::mem::replace(&mut items, rest))));
    }
    let done: Vec<Mutex<Option<Vec<U>>>> = blocks.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let n_blocks = blocks.len();
    let (f, blocks_ref, done_ref, cursor) = (&f, &blocks, &done, &cursor);
    let t0 = std::time::Instant::now();
    // Per-worker (blocks claimed, busy ns), folded into SchedStats
    // after the barrier.
    let mut per_worker: Vec<(usize, u64)> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut claims = 0usize;
                    let mut busy_ns = 0u64;
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= blocks_ref.len() {
                            break;
                        }
                        let claimed = blocks_ref[b]
                            .lock()
                            .unwrap()
                            .take()
                            .expect("block claimed once");
                        let t_block = std::time::Instant::now();
                        let out: Vec<U> = claimed.into_iter().map(f).collect();
                        busy_ns += t_block.elapsed().as_nanos() as u64;
                        claims += 1;
                        *done_ref[b].lock().unwrap() = Some(out);
                    }
                    (claims, busy_ns)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(stats) => per_worker.push(stats),
                // Re-raise the worker's panic payload on the calling thread
                // so launch-level `catch_unwind` can turn it into a typed
                // error instead of an opaque "worker panicked" abort.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let even_share = n_blocks.div_ceil(workers);
    let stats = SchedStats {
        items: n,
        queue_depth: n_blocks,
        workers,
        steals: per_worker
            .iter()
            .map(|&(claims, _)| claims.saturating_sub(even_share))
            .sum(),
        busy_ns: per_worker.iter().map(|&(_, b)| b).sum(),
        barrier_wait_ns: per_worker
            .iter()
            .map(|&(_, b)| elapsed_ns.saturating_sub(b))
            .sum(),
        elapsed_ns,
    };
    LAST_SCHED.with(|c| c.set(Some(stats)));
    done.into_iter()
        .flat_map(|m| {
            m.into_inner()
                .unwrap()
                .expect("every claimed block completed")
        })
        .collect()
}

/// An eager "parallel iterator": a materialized item list whose
/// combinators execute on a scoped thread pool.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map, preserving input order.
    pub fn map<U: Send, F: Fn(T) -> U + Sync + Send>(self, f: F) -> ParIter<U> {
        ParIter {
            items: par_apply(self.items, f),
        }
    }

    /// Parallel side-effecting loop.
    pub fn for_each<F: Fn(T) + Sync + Send>(self, f: F) {
        par_apply(self.items, f);
    }

    /// Parallel filter, preserving input order.
    pub fn filter<F: Fn(&T) -> bool + Sync + Send>(self, f: F) -> ParIter<T> {
        let kept = par_apply(self.items, |t| if f(&t) { Some(t) } else { None });
        ParIter {
            items: kept.into_iter().flatten().collect(),
        }
    }

    /// Pairs up with another parallel iterator of equal or shorter length.
    pub fn zip<Z: IntoParallelIterator>(self, other: Z) -> ParIter<(T, Z::Item)>
    where
        Z::Item: Send,
    {
        let other = other.into_par_iter();
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Reduction with an identity; `op` must be associative.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Sync + Send,
        OP: Fn(T, T) -> T + Sync + Send,
    {
        self.items.into_iter().fold(identity(), op)
    }

    /// Sum of the items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Collects into any `FromIterator` container, preserving order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }
}

/// Conversion into a [`ParIter`] by value.
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// Builds the parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

macro_rules! range_into_par {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

range_into_par!(usize, u32, u64, i32, i64);

/// `par_iter()` over shared references.
pub trait IntoParallelRefIterator<'a> {
    /// Reference item type.
    type Item: Send + 'a;
    /// Builds the parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_iter_mut()` over exclusive references.
pub trait IntoParallelRefMutIterator<'a> {
    /// Mutable reference item type.
    type Item: Send + 'a;
    /// Builds the parallel iterator.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// Chunked mutable slice access (`par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    /// Splits into contiguous mutable chunks of at most `size` items.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(size).collect(),
        }
    }
}

/// Chunked shared slice access (`par_chunks`).
pub trait ParallelSlice<T: Sync> {
    /// Splits into contiguous chunks of at most `size` items.
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(size).collect(),
        }
    }
}

/// The usual rayon prelude.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0usize..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn zip_and_mutate() {
        let a = vec![1, 2, 3, 4];
        let mut b = vec![0; 4];
        a.par_iter()
            .zip(b.par_iter_mut())
            .for_each(|(x, y)| *y = x * 10);
        assert_eq!(b, vec![10, 20, 30, 40]);
    }

    #[test]
    fn chunks_mut_cover_all() {
        let mut v = vec![0u32; 100];
        v.par_chunks_mut(7)
            .for_each(|c| c.iter_mut().for_each(|x| *x += 1));
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn reduce_matches_fold() {
        let s = (1usize..=100)
            .collect::<Vec<_>>()
            .into_par_iter()
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(s, 5050);
    }

    #[test]
    fn install_pins_and_restores_the_width() {
        let before = crate::current_num_threads();
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let inside = pool.install(|| {
            // Work still completes (and stays ordered) under the cap.
            let v: Vec<usize> = (0usize..100).into_par_iter().map(|i| i + 1).collect();
            assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
            crate::current_num_threads()
        });
        assert_eq!(inside, 3);
        assert_eq!(crate::current_num_threads(), before);
    }

    #[test]
    fn install_restores_after_a_panic() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let r = std::panic::catch_unwind(|| pool.install(|| panic!("boom")));
        assert!(r.is_err());
        assert_ne!(crate::POOL_THREADS.with(std::cell::Cell::get), Some(2));
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let r = std::panic::catch_unwind(|| {
            pool.install(|| {
                (0usize..64).into_par_iter().for_each(|i| {
                    if i == 17 {
                        panic!("lane 17 exploded");
                    }
                });
            })
        });
        let payload = r.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("lane 17 exploded"), "payload lost: {msg:?}");
    }

    #[test]
    fn sched_stats_cover_a_parallel_dispatch() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| {
            let _: Vec<usize> = (0usize..10_000).into_par_iter().map(|i| i ^ 1).collect();
        });
        let s = crate::last_sched_stats().expect("dispatch records stats");
        assert_eq!(s.items, 10_000);
        assert_eq!(s.workers, 4);
        assert!(s.queue_depth >= s.workers, "several blocks per worker");
        assert!(s.elapsed_ns > 0);
        assert!(s.busy_ns <= s.workers as u64 * s.elapsed_ns);
        // All claims are accounted for: total claims = steals + what
        // fits in the even shares, and no worker waits longer than the
        // dispatch itself.
        assert!(s.barrier_wait_ns <= s.workers as u64 * s.elapsed_ns);
    }

    #[test]
    fn sched_stats_serial_path_is_trivial() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool.install(|| {
            let _: Vec<usize> = (0usize..100).into_par_iter().map(|i| i).collect();
        });
        let s = crate::last_sched_stats().unwrap();
        assert_eq!(s.workers, 1);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.steals, 0);
        assert_eq!(s.barrier_wait_ns, 0);
        assert_eq!(s.busy_ns, s.elapsed_ns);
    }

    #[test]
    fn uneven_work_produces_steals() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| {
            // One enormous item pins a worker; the others must claim
            // the rest of the queue beyond their even share.
            (0usize..4096).into_par_iter().for_each(|i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
            });
        });
        let s = crate::last_sched_stats().unwrap();
        assert!(
            s.steals > 0,
            "skewed block costs must move blocks between workers: {s:?}"
        );
        assert!(s.barrier_wait_ns > 0, "fast workers idle at the barrier");
    }

    #[test]
    fn builder_zero_means_default() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(0)
            .build()
            .unwrap();
        assert!(pool.current_num_threads() >= 1);
    }
}
