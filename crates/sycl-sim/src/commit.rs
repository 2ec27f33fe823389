//! Deferred atomic commit log for deterministic parallel launches.
//!
//! Under [`crate::ExecutionPolicy::Parallel`], sub-groups do not apply
//! atomic read-modify-writes while their work-group executes. Each atomic
//! *instruction* (one per `Sg::atomic_*` call, covering all active lanes)
//! is appended to a per-sub-group log instead; after every work-group has
//! finished, the launcher replays the logs in (work-group id → sub-group
//! id → instruction order → lane order) — exactly the sequence the serial
//! path would have issued — so floating-point accumulation order, and
//! therefore every result bit, matches the serial launch.
//!
//! Large replays are parallelized by **planning** the log into per-cache-
//! line buckets ([`plan_commit`]): one pass walks the ops in canonical
//! order and appends each lane update to the bucket owning its target
//! `(buffer, 64-byte line)`. Every cell's updates land in one bucket in
//! serial order, and no two buckets share a line, so the buckets are
//! independent work items — the pool's work-stealing block claiming
//! executes them concurrently on plain load/stores while staying
//! bit-identical to a serial replay. (The previous scheme had every
//! worker re-scan the whole log and discard other shards' updates —
//! O(shards × ops); planning scans once.)
//!
//! This is sound because no kernel in this codebase reads a buffer it also
//! atomically accumulates into within the same launch (accumulators are
//! cleared between launch brackets), so deferring the RMWs cannot change
//! what the kernel bodies observe.

use crate::buffer::Buffer;
use std::collections::HashMap;

/// FP32 cells per commit bucket: 16 × 4 bytes = one 64-byte cache line,
/// so concurrent buckets never ping-pong a line between cores.
const CELLS_PER_LINE: u32 = 16;

/// Which read-modify-write the instruction performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AtomicKind {
    /// FP32 atomic add.
    Add,
    /// FP32 atomic min.
    Min,
}

/// One deferred atomic instruction: the active lanes' `(index, value)`
/// updates in lane order, applied to `buf` at commit time.
#[derive(Debug)]
pub(crate) struct AtomicOp {
    pub(crate) kind: AtomicKind,
    pub(crate) buf: Buffer,
    pub(crate) updates: Vec<(u32, f32)>,
}

impl AtomicOp {
    /// Replays the instruction's lane updates in lane order.
    pub(crate) fn apply(&self) {
        for &(i, v) in &self.updates {
            replay_one(&self.buf, self.kind, i, v);
        }
    }
}

#[inline]
fn replay_one(buf: &Buffer, kind: AtomicKind, i: u32, v: f32) {
    let i = i as usize;
    match kind {
        AtomicKind::Add => buf.replay_rmw_f32(i, |old| old + v),
        AtomicKind::Min => buf.replay_rmw_f32(i, |old| old.min(v)),
    }
}

/// All updates targeting one `(buffer, cache line)`, in the canonical
/// serial replay order. Buckets touch disjoint cells, so a pool may apply
/// them concurrently in any schedule without perturbing a single result
/// bit.
#[derive(Debug)]
pub(crate) struct CommitBucket {
    buf: Buffer,
    updates: Vec<(AtomicKind, u32, f32)>,
}

impl CommitBucket {
    /// Replays this bucket's updates in logged (serial) order.
    pub(crate) fn apply(&self) {
        for &(kind, i, v) in &self.updates {
            replay_one(&self.buf, kind, i, v);
        }
    }
}

/// Partitions a canonical-order op log into independent per-cache-line
/// buckets (see module docs). Bucket creation order is first-touch, so the
/// plan itself is deterministic; correctness does not depend on it.
pub(crate) fn plan_commit(ops: &[AtomicOp]) -> Vec<CommitBucket> {
    let mut index: HashMap<(usize, u32), usize> = HashMap::new();
    let mut buckets: Vec<CommitBucket> = Vec::new();
    for op in ops {
        let storage = op.buf.storage_id();
        for &(i, v) in &op.updates {
            let slot = *index
                .entry((storage, i / CELLS_PER_LINE))
                .or_insert_with(|| {
                    buckets.push(CommitBucket {
                        buf: op.buf.clone(),
                        updates: Vec::new(),
                    });
                    buckets.len() - 1
                });
            buckets[slot].updates.push((op.kind, i, v));
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_replays_in_lane_order() {
        let buf = Buffer::zeros(2);
        let op = AtomicOp {
            kind: AtomicKind::Add,
            buf: buf.clone(),
            updates: vec![(0, 1.0), (1, 2.0), (0, 3.0)],
        };
        op.apply();
        assert_eq!(buf.read_f32(0), 4.0);
        assert_eq!(buf.read_f32(1), 2.0);

        let mn = AtomicOp {
            kind: AtomicKind::Min,
            buf: buf.clone(),
            updates: vec![(0, 2.5)],
        };
        mn.apply();
        assert_eq!(buf.read_f32(0), 2.5);
    }

    /// Ops spanning two distinct buffers and many cache lines, with
    /// non-associative FP32 sums: the per-cell order is the bit contract,
    /// and the planned buckets must reproduce it under any execution
    /// schedule — including reversed and interleaved ones.
    #[test]
    fn planned_buckets_match_serial_for_any_schedule() {
        let make_ops = |a: &Buffer, b: &Buffer| -> Vec<AtomicOp> {
            (0..7)
                .flat_map(|k| {
                    [
                        AtomicOp {
                            kind: AtomicKind::Add,
                            buf: a.clone(),
                            updates: (0..64)
                                .map(|lane| {
                                    ((((k * 13 + lane) % 40) * 7) as u32, 0.1 + k as f32 * 1e-3)
                                })
                                .collect(),
                        },
                        AtomicOp {
                            kind: if k % 2 == 0 {
                                AtomicKind::Min
                            } else {
                                AtomicKind::Add
                            },
                            buf: b.clone(),
                            updates: (0..64)
                                .map(|lane| (((k * 5 + lane) % 90) as u32, (lane as f32).sin()))
                                .collect(),
                        },
                    ]
                })
                .collect()
        };
        let (sa, sb) = (Buffer::zeros(280), Buffer::zeros(90));
        for op in make_ops(&sa, &sb) {
            op.apply();
        }
        // Forward, reverse, and strided bucket schedules all agree.
        for schedule in 0..3usize {
            let (pa, pb) = (Buffer::zeros(280), Buffer::zeros(90));
            let ops = make_ops(&pa, &pb);
            let buckets = plan_commit(&ops);
            assert!(buckets.len() > 2, "test must exercise multiple buckets");
            let n = buckets.len();
            let order: Vec<usize> = match schedule {
                0 => (0..n).collect(),
                1 => (0..n).rev().collect(),
                // A rotation: a permutation for any bucket count.
                _ => (0..n).map(|i| (i + n / 2) % n).collect(),
            };
            for b in order {
                buckets[b].apply();
            }
            assert_eq!(sa.to_u32_vec(), pa.to_u32_vec(), "schedule {schedule}");
            assert_eq!(sb.to_u32_vec(), pb.to_u32_vec(), "schedule {schedule}");
        }
    }

    /// A bucket never mixes cells from different buffers, even when their
    /// indices share a cache-line number.
    #[test]
    fn buckets_are_keyed_by_buffer_identity() {
        let a = Buffer::zeros(16);
        let b = Buffer::zeros(16);
        let ops = vec![
            AtomicOp {
                kind: AtomicKind::Add,
                buf: a.clone(),
                updates: vec![(0, 1.0)],
            },
            AtomicOp {
                kind: AtomicKind::Add,
                buf: b.clone(),
                updates: vec![(0, 2.0)],
            },
        ];
        let buckets = plan_commit(&ops);
        assert_eq!(buckets.len(), 2);
        for bucket in &buckets {
            bucket.apply();
        }
        assert_eq!(a.read_f32(0), 1.0);
        assert_eq!(b.read_f32(0), 2.0);
    }
}
