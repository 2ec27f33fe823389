//! Coordinated multi-rank checkpointing with buddy replication (`HCK3`).
//!
//! The distributed analogue of [`crate::checkpoint`]: a
//! [`MultiRankCheckpoint`] captures *every* rank's particle store plus
//! the decomposition and step metadata at a globally consistent step
//! boundary — the multi-rank engine only checkpoints between steps,
//! when no message is in flight, so the snapshot needs no message-log
//! and a restore is trivially consistent.
//!
//! Production HACC survives node loss by writing checkpoints to the
//! parallel filesystem; the cheaper in-memory scheme modeled here is
//! *buddy replication*: each rank mirrors its snapshot into the memory
//! of one 27-neighborhood partner (`buddy_of`), so losing any single
//! rank leaves a complete copy of its state on a survivor. The mirror
//! traffic is charged on the interconnect by the resilient run loop
//! (see [`crate::resilience`]); this module owns the format, the buddy
//! placement rule, and the hostile-input-hardened wire codec.
//!
//! Like `HCK2`'s, the parser treats its input as untrusted and
//! reads it only through the bounded `crate::wire` reader: rank and
//! particle counts pass its cap, checked multiply and presence test
//! before any buffer is reserved, and every failure is a typed
//! [`CheckpointError`].

use crate::checkpoint::CheckpointError;
use crate::rank::RankLayout;
use crate::wire::{Reader, Writer};
use hacc_comm::ParticleBatch;

/// Magic tag of the multi-rank checkpoint format.
const MAGIC_MULTI: u32 = 0x4843_4B33; // "HCK3"

/// Per-particle payload bytes: id + pos + mom + mass + h + u, all as
/// 8-byte words.
const HCK3_STRIDE: usize = 10 * 8;

/// Fixed header bytes: magic + step + ng + dims + rank count.
const HCK3_HEADER_BYTES: usize = 4 + 8 + 8 + 3 * 8 + 8;

/// Bytes of one rank's section header (its particle count).
const HCK3_RANK_HEADER_BYTES: usize = 8;

/// Serialized bytes of one rank's `HCK3` section (count header +
/// payload) — also the modeled size of its buddy-mirror transfer. Not
/// [`ParticleBatch::wire_bytes`]: that is the size of a transport
/// *message*, whose envelope is larger.
pub(crate) fn section_bytes(batch: &ParticleBatch) -> u64 {
    (HCK3_RANK_HEADER_BYTES + batch.len() * HCK3_STRIDE) as u64
}

/// The buddy placement rule: a rank mirrors its snapshot to its
/// lowest-numbered 27-neighborhood partner. Deterministic, purely a
/// function of the layout, and never the rank itself — except in the
/// degenerate single-rank layout, where there is no partner (and no
/// rank loss to survive).
pub(crate) fn buddy_of(layout: &RankLayout, rank: usize) -> usize {
    layout
        .neighbors(rank)
        .into_iter()
        .find(|&n| n != rank)
        .unwrap_or(rank)
}

/// A globally consistent snapshot of every rank in a multi-rank run
/// (`HCK3`): the step count, the decomposition it was taken under, and
/// one id-sorted [`ParticleBatch`] per rank — the engine's own store.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiRankCheckpoint {
    /// Steps completed when the snapshot was taken.
    pub step: u64,
    /// Periodic box side in grid units.
    pub ng: usize,
    /// Rank grid dimensions of the layout the snapshot was taken under.
    pub dims: [usize; 3],
    /// Per-rank particle stores, indexed by rank.
    pub per_rank: Vec<ParticleBatch>,
}

impl MultiRankCheckpoint {
    /// Number of ranks in the snapshot.
    pub fn ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// Total particles across all ranks.
    pub fn n_particles(&self) -> usize {
        self.per_rank.iter().map(ParticleBatch::len).sum()
    }

    /// The layout the snapshot was taken under.
    pub(crate) fn layout(&self) -> RankLayout {
        RankLayout::with_dims(self.dims, self.ng)
    }

    /// Serialized size in bytes (header plus every rank section).
    pub fn total_bytes(&self) -> u64 {
        HCK3_HEADER_BYTES as u64 + self.per_rank.iter().map(section_bytes).sum::<u64>()
    }

    /// Modeled interconnect bytes of the coordinated buddy mirror: each
    /// rank ships its own section to its buddy (nothing moves in a
    /// single-rank layout, where rank and buddy coincide).
    pub(crate) fn mirror_bytes(&self) -> u64 {
        let layout = self.layout();
        self.per_rank
            .iter()
            .enumerate()
            .filter(|&(r, _)| buddy_of(&layout, r) != r)
            .map(|(_, s)| section_bytes(s))
            .sum()
    }

    /// Serializes to a compact binary blob. All floats are stored as
    /// their exact IEEE-754 bits — the round trip is lossless.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC_MULTI, self.total_bytes() as usize);
        w.u64(self.step);
        w.u64(self.ng as u64);
        for d in self.dims {
            w.u64(d as u64);
        }
        w.u64(self.ranks() as u64);
        for snap in &self.per_rank {
            w.u64(snap.len() as u64);
            for k in 0..snap.len() {
                w.u64(snap.ids[k]);
                w.vec3(snap.pos[k]);
                w.vec3(snap.mom[k]);
                w.f64(snap.mass[k]);
                w.f64(snap.h[k]);
                w.f64(snap.u[k]);
            }
        }
        w.finish()
    }

    /// Deserializes a blob produced by [`MultiRankCheckpoint::to_bytes`],
    /// treating the input as untrusted: counts are capped and
    /// checked-multiplied before any allocation, and the header's rank
    /// grid must be internally consistent.
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(data.as_ref(), MAGIC_MULTI, HCK3_HEADER_BYTES)?;
        let step = r.u64()?;
        let ng = r.u64()? as usize;
        let dims = [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize];
        let ranks = r.u64()? as usize;
        if ranks == 0 {
            return Err(CheckpointError::Malformed {
                detail: "rank count is zero".to_string(),
            });
        }
        // Hostile dims can overflow a naive product; fold with checked
        // arithmetic so a corrupt header errors instead of panicking.
        let grid = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .unwrap_or(0);
        if grid != ranks {
            return Err(CheckpointError::Malformed {
                detail: format!(
                    "rank grid {}x{}x{} does not hold {ranks} ranks",
                    dims[0], dims[1], dims[2]
                ),
            });
        }
        if ng == 0 || dims.iter().any(|&d| d == 0 || d > ng) {
            return Err(CheckpointError::Malformed {
                detail: format!(
                    "rank grid {}x{}x{} cannot decompose an ng={ng} box",
                    dims[0], dims[1], dims[2]
                ),
            });
        }
        // A hostile rank count is bounded like a particle count: each
        // rank section is at least its count header, and that many
        // headers must be present before the rank table is reserved.
        let ranks = r.records(ranks, HCK3_RANK_HEADER_BYTES, "rank header")?;
        let mut per_rank = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            // A section opens with one fixed-size record: its count.
            r.records(1, HCK3_RANK_HEADER_BYTES, "rank header")?;
            let n = r.u64()? as usize;
            let n = r.records(n, HCK3_STRIDE, "rank payload")?;
            let mut snap = ParticleBatch::with_capacity(n);
            for _ in 0..n {
                // Arguments evaluate left to right: the wire order.
                snap.push(r.u64()?, r.vec3()?, r.vec3()?, r.f64()?, r.f64()?, r.f64()?);
            }
            per_rank.push(snap);
        }
        Ok(Self {
            step,
            ng,
            dims,
            per_rank,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(rank: u64, n: usize) -> ParticleBatch {
        let mut s = ParticleBatch::default();
        for k in 0..n as u64 {
            let id = rank * 1000 + k;
            s.ids.push(id);
            s.pos.push([id as f64, 0.5 * k as f64, 0.25]);
            s.mom.push([-0.1, 0.2 * k as f64, 1e-3]);
            s.mass.push(1.0 + 0.125 * k as f64);
            s.h.push(1.0);
            s.u.push(1e-4 * k as f64);
        }
        s
    }

    fn sample() -> MultiRankCheckpoint {
        MultiRankCheckpoint {
            step: 7,
            ng: 16,
            dims: [2, 2, 2],
            per_rank: (0..8).map(|r| snap(r, 3 + r as usize)).collect(),
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let mut cp = sample();
        cp.per_rank[0].mom[0] = [f64::MIN_POSITIVE / 4.0, -0.0, std::f64::consts::PI];
        let blob = cp.to_bytes();
        assert_eq!(blob.len() as u64, cp.total_bytes());
        let back = MultiRankCheckpoint::from_bytes(blob).unwrap();
        assert_eq!(cp, back);
        for c in 0..3 {
            assert_eq!(
                cp.per_rank[0].mom[0][c].to_bits(),
                back.per_rank[0].mom[0][c].to_bits()
            );
        }
    }

    /// The wire bytes themselves, not just the round trip: a codec
    /// change that moves this hash has changed the format.
    #[test]
    fn sample_blob_is_byte_pinned() {
        let blob = sample().to_bytes();
        assert_eq!(blob.len(), 4276);
        assert_eq!(crate::wire::fnv1a(&blob), 0xcfb2_fd1b_4245_0348);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let blob = sample().to_bytes();
        let mut raw = blob.clone();
        raw[0] = 0x55;
        assert!(matches!(
            MultiRankCheckpoint::from_bytes(raw).unwrap_err(),
            CheckpointError::BadMagic { .. }
        ));
        assert!(matches!(
            MultiRankCheckpoint::from_bytes(&blob[..blob.len() - 8]).unwrap_err(),
            CheckpointError::Truncated { .. }
        ));
    }

    #[test]
    fn rejects_inconsistent_rank_grids() {
        let mut cp = sample();
        cp.dims = [2, 2, 3]; // 12 ≠ 8 ranks
        let err = MultiRankCheckpoint::from_bytes(cp.to_bytes()).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err}");
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocating() {
        let mut w = Writer::new(MAGIC_MULTI, HCK3_HEADER_BYTES + HCK3_RANK_HEADER_BYTES);
        w.u64(0); // step
        w.u64(16); // ng
        for d in [1u64, 1, 1] {
            w.u64(d);
        }
        w.u64(1); // ranks
        w.u64(u64::MAX); // hostile particle count
        let err = MultiRankCheckpoint::from_bytes(w.finish()).unwrap_err();
        assert!(matches!(err, CheckpointError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn hostile_rank_counts_are_rejected_before_allocating() {
        // A self-consistent header (512³ = 2²⁷ ranks, exactly the cap)
        // with no rank sections behind it: the rank table must not be
        // reserved on the header's word alone.
        let mut w = Writer::new(MAGIC_MULTI, HCK3_HEADER_BYTES + HCK3_RANK_HEADER_BYTES);
        w.u64(0); // step
        w.u64(512); // ng
        for d in [512u64, 512, 512] {
            w.u64(d);
        }
        w.u64(1 << 27); // ranks
        w.u64(0); // one empty rank section, 2²⁷ − 1 missing
        let err = MultiRankCheckpoint::from_bytes(w.finish()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Truncated {
                what: "rank header"
            }
        );
    }

    #[test]
    fn buddy_rule_is_a_neighbor_and_never_self() {
        for ranks in [2usize, 4, 8, 16] {
            let layout = RankLayout::new(ranks, 32);
            for r in 0..ranks {
                let b = buddy_of(&layout, r);
                assert_ne!(b, r, "{ranks} ranks: rank {r} is its own buddy");
                assert!(
                    layout.neighbors(r).contains(&b),
                    "{ranks} ranks: buddy {b} is not a neighbor of {r}"
                );
            }
        }
        // The degenerate single-rank layout has no partner.
        assert_eq!(buddy_of(&RankLayout::new(1, 32), 0), 0);
    }

    #[test]
    fn mirror_bytes_cover_every_rank_once() {
        let cp = sample();
        let expected: u64 = cp.per_rank.iter().map(section_bytes).sum();
        assert_eq!(cp.mirror_bytes(), expected);
        let single = MultiRankCheckpoint {
            step: 0,
            ng: 16,
            dims: [1, 1, 1],
            per_rank: vec![snap(0, 4)],
        };
        assert_eq!(single.mirror_bytes(), 0, "no partner, nothing moves");
    }

    #[test]
    fn hck3_sizes_are_pinned() {
        // 3 ranks holding 2 + 0 + 5 particles: a 52-byte header, then
        // an 8-byte count + 80 bytes per particle per rank. A transport
        // message envelope (32 bytes) must never leak into these.
        let cp = MultiRankCheckpoint {
            step: 1,
            ng: 16,
            dims: [1, 1, 3],
            per_rank: vec![snap(0, 2), snap(1, 0), snap(2, 5)],
        };
        assert_eq!(cp.total_bytes(), 52 + 3 * 8 + 7 * 80);
        assert_eq!(cp.to_bytes().len() as u64, cp.total_bytes());
        assert_eq!(cp.mirror_bytes(), 3 * 8 + 7 * 80, "every rank has a buddy");
        assert_eq!(section_bytes(&cp.per_rank[2]), 8 + 5 * 80);
    }
}
