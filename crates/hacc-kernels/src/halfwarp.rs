//! Shared execution machinery for the half-warp (pair-parallel) and
//! broadcast (chunk-parallel) kernel structures.
//!
//! Both structures present the same contract to the physics code: the
//! kernel loads its *own* particle fields once, then receives the *other*
//! particle's fields once per interaction instance, accumulating into
//! live-register accumulators. The difference — which lanes own which
//! particles, how the other side's data arrives, and when results are
//! written back — is captured here.

use crate::worklist::{Chunk, Tile};
use sycl_sim::{Buffer, Lanes, Sg};

/// Slot assignment for a half-warp tile: lower lanes map to side A,
/// upper lanes to side B (paper Figure 3).
pub(crate) struct TileSlots<'sg> {
    /// Global (leaf-ordered) slot index per lane, clamped in-bounds for
    /// padding lanes.
    pub slots: Lanes<'sg, u32>,
    /// Validity of each lane's own slot. Held, never read: its register
    /// stays allocated for the tile's lifetime, and the modeled register
    /// peak counts it.
    pub _valid: Lanes<'sg, bool>,
    /// Validity as 1.0/0.0, exchanged alongside data so partners can
    /// neutralize padding contributions.
    pub valid_f: Lanes<'sg, f32>,
    /// Lanes allowed to write results (valid, and lower-half-only for
    /// self tiles to avoid double counting).
    pub write_mask: Lanes<'sg, bool>,
}

/// Computes the lane→slot mapping for a tile.
pub(crate) fn tile_slots<'sg>(sg: &'sg Sg, tile: &Tile) -> TileSlots<'sg> {
    let h = (sg.size / 2) as u32;
    let lane = sg.lane_id();
    let is_lower = lane.lt_scalar(h);
    // Offsets within each side, clamped to the last valid slot so padding
    // lanes still load in-bounds data (neutralized via valid flags).
    let a_off = lane.clone();
    let b_off = lane.add_scalar(0u32.wrapping_sub(h)); // lane − h (wrapping; masked)
    let a_slot_raw = a_off.add_scalar(tile.a_start);
    let b_slot_raw = b_off.add_scalar(tile.b_start);
    let a_last = sg.splat_u32(tile.a_start + tile.a_len - 1);
    let b_last = sg.splat_u32(tile.b_start + tile.b_len - 1);
    let a_slot = a_slot_raw.min(&a_last);
    let b_slot = b_slot_raw.min(&b_last);
    let slots = a_slot.select(&is_lower, &b_slot);
    let a_valid = lane.lt_scalar(tile.a_len.min(h));
    // lane − h < b_len for upper lanes.
    let b_valid = lane.lt_scalar(h + tile.b_len.min(h)).and(&is_lower.not());
    let valid = a_valid.and(&is_lower).or(&b_valid);
    let valid_f = valid.to_f32();
    let write_mask = if tile.self_tile {
        valid.and(&is_lower)
    } else {
        valid.clone()
    };
    TileSlots {
        slots,
        _valid: valid,
        valid_f,
        write_mask,
    }
}

/// Slot assignment for a broadcast-variant chunk: each lane owns one slot
/// of the chunk (full sub-group width).
pub(crate) struct ChunkSlots<'sg> {
    /// Global slot per lane (clamped).
    pub slots: Lanes<'sg, u32>,
    /// Validity of the lane's own slot.
    pub valid: Lanes<'sg, bool>,
    /// Write mask (same as `valid` — each particle lives in exactly one
    /// chunk, so broadcast kernels write without atomics).
    pub write_mask: Lanes<'sg, bool>,
}

/// Computes the lane→slot mapping for a chunk.
pub(crate) fn chunk_slots<'sg>(sg: &'sg Sg, chunk: &Chunk) -> ChunkSlots<'sg> {
    let lane = sg.lane_id();
    let raw = lane.add_scalar(chunk.start);
    let last = sg.splat_u32(chunk.start + chunk.len - 1);
    let slots = raw.min(&last);
    let valid = lane.lt_scalar(chunk.len);
    ChunkSlots {
        write_mask: valid.clone(),
        slots,
        valid,
    }
}

/// Writes an accumulator back: atomic add under the half-warp structure
/// (partial sums from many tiles), plain store under broadcast (complete
/// sums, one owner chunk per particle).
pub fn accumulate(
    sg: &Sg,
    buf: &Buffer,
    slots: &Lanes<u32>,
    v: &Lanes<f32>,
    mask: &Lanes<bool>,
    atomic: bool,
) {
    if atomic {
        sg.atomic_add(buf, slots, v, mask);
    } else {
        sg.store_f32(buf, slots, v, mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{GpuArch, SgConfig};

    fn sg() -> Sg {
        Sg::new(0, 32, SgConfig::for_arch(&GpuArch::frontier(), true, false))
    }

    #[test]
    fn tile_slot_mapping() {
        let s = sg();
        let tile = Tile {
            a_start: 100,
            a_len: 10,
            b_start: 200,
            b_len: 16,
            self_tile: false,
        };
        let ts = tile_slots(&s, &tile);
        // Lower lanes 0..10 valid, map to 100+lane.
        for l in 0..10 {
            assert_eq!(ts.valid_f.get(l), 1.0);
            assert_eq!(ts.slots.get(l), 100 + l as u32);
        }
        for l in 10..16 {
            assert_eq!(ts.valid_f.get(l), 0.0, "lane {l} is padding");
            assert_eq!(ts.slots.get(l), 109, "padding clamps to last valid");
        }
        // Upper lanes all valid (b_len = 16).
        for l in 16..32 {
            assert_eq!(ts.valid_f.get(l), 1.0);
            assert_eq!(ts.slots.get(l), 200 + (l as u32 - 16));
        }
        // Non-self tile: write mask equals validity.
        for l in 0..32 {
            assert_eq!(ts.write_mask.get(l), ts.valid_f.get(l) == 1.0);
        }
    }

    #[test]
    fn self_tile_masks_upper_writes() {
        let s = sg();
        let tile = Tile {
            a_start: 0,
            a_len: 16,
            b_start: 0,
            b_len: 16,
            self_tile: true,
        };
        let ts = tile_slots(&s, &tile);
        for l in 0..16 {
            assert!(ts.write_mask.get(l));
        }
        for l in 16..32 {
            assert_eq!(ts.valid_f.get(l), 1.0, "upper lanes still load data");
            assert!(
                !ts.write_mask.get(l),
                "upper lanes must not write in self tiles"
            );
        }
    }

    #[test]
    fn chunk_slot_mapping() {
        let s = sg();
        let chunk = Chunk {
            start: 64,
            len: 20,
            nbr_offset: 0,
            nbr_count: 0,
        };
        let cs = chunk_slots(&s, &chunk);
        for l in 0..20 {
            assert!(cs.valid.get(l));
            assert_eq!(cs.slots.get(l), 64 + l as u32);
        }
        for l in 20..32 {
            assert!(!cs.valid.get(l));
            assert_eq!(cs.slots.get(l), 83);
        }
    }
}
