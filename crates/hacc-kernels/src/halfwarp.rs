//! Shared execution machinery for the half-warp (pair-parallel) and
//! broadcast (chunk-parallel) kernel structures.
//!
//! Both structures present the same contract to the physics code: the
//! kernel loads its *own* particle fields once, then receives the *other*
//! particle's fields once per interaction instance, accumulating into
//! live-register accumulators. The difference — which lanes own which
//! particles, how the other side's data arrives, and when results are
//! written back — is captured here.

use crate::variant::Variant;
use crate::worklist::{Chunk, Tile};
use sycl_sim::{Buffer, Lanes, Sg};

/// Slot assignment for a half-warp tile: lower lanes map to side A,
/// upper lanes to side B (paper Figure 3).
pub struct TileSlots {
    /// Global (leaf-ordered) slot index per lane, clamped in-bounds for
    /// padding lanes.
    pub slots: Lanes<u32>,
    /// Validity of each lane's own slot.
    pub valid: Lanes<bool>,
    /// Validity as 1.0/0.0, exchanged alongside data so partners can
    /// neutralize padding contributions.
    pub valid_f: Lanes<f32>,
    /// Lanes allowed to write results (valid, and lower-half-only for
    /// self tiles to avoid double counting).
    pub write_mask: Lanes<bool>,
}

/// Computes the lane→slot mapping for a tile.
pub fn tile_slots(sg: &Sg, tile: &Tile) -> TileSlots {
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
    let a_slot = clamp_max(&a_slot_raw, &a_last);
    let b_slot = clamp_max(&b_slot_raw, &b_last);
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
        valid,
        valid_f,
        write_mask,
    }
}

/// `min(x, hi)` per lane.
fn clamp_max(x: &Lanes<u32>, hi: &Lanes<u32>) -> Lanes<u32> {
    x.min(hi)
}

/// Executes the half-warp interaction loop: `interact` is called `h`
/// times, once per exchange step, receiving the partner's fields in the
/// same order as `own_fields`.
pub fn half_warp_loop(
    sg: &Sg,
    variant: Variant,
    own_fields: &[&Lanes<f32>],
    mut interact: impl FnMut(&Sg, &[Lanes<f32>]),
) {
    debug_assert!(variant.is_half_warp());
    let h = sg.size / 2;
    for step in 0..h {
        let other = variant.exchange(sg, own_fields, step);
        interact(sg, &other);
    }
}

/// Slot assignment for a broadcast-variant chunk: each lane owns one slot
/// of the chunk (full sub-group width).
pub struct ChunkSlots {
    /// Global slot per lane (clamped).
    pub slots: Lanes<u32>,
    /// Validity of the lane's own slot.
    pub valid: Lanes<bool>,
    /// Write mask (same as `valid` — each particle lives in exactly one
    /// chunk, so broadcast kernels write without atomics).
    pub write_mask: Lanes<bool>,
}

/// Computes the lane→slot mapping for a chunk.
pub fn chunk_slots(sg: &Sg, chunk: &Chunk) -> ChunkSlots {
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

/// Executes the broadcast interaction loop over one neighbor chunk:
/// loads the neighbor fields lane-wise with `load`, then broadcasts each
/// valid slot in turn, calling `interact` with the broadcast fields.
///
/// The j-loop bound is known on the host, so no validity flag needs to be
/// exchanged — but every lane redundantly evaluates every interaction
/// (the paper's "redundantly compute intermediate values", §5.3.2).
pub fn broadcast_loop(
    sg: &Sg,
    nbr_start: u32,
    nbr_len: u32,
    load: impl Fn(&Sg, &Lanes<u32>) -> Vec<Lanes<f32>>,
    mut interact: impl FnMut(&Sg, &[Lanes<f32>]),
) {
    let lane = sg.lane_id();
    let raw = lane.add_scalar(nbr_start);
    let last = sg.splat_u32(nbr_start + nbr_len - 1);
    let slots = raw.min(&last);
    let staged = load(sg, &slots);
    for j in 0..nbr_len as usize {
        let other: Vec<Lanes<f32>> = staged.iter().map(|f| sg.broadcast(f, j)).collect();
        interact(sg, &other);
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

/// Minimum-image displacement component `other − own` in a periodic box.
pub fn min_image_lanes(own: &Lanes<f32>, other: &Lanes<f32>, box_size: f32) -> Lanes<f32> {
    let d = other - own;
    let wraps = (&d / box_size).round();
    &d - &(&wraps * box_size)
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
            assert!(ts.valid.get(l));
            assert_eq!(ts.slots.get(l), 100 + l as u32);
        }
        for l in 10..16 {
            assert!(!ts.valid.get(l), "lane {l} is padding");
            assert_eq!(ts.slots.get(l), 109, "padding clamps to last valid");
        }
        // Upper lanes all valid (b_len = 16).
        for l in 16..32 {
            assert!(ts.valid.get(l));
            assert_eq!(ts.slots.get(l), 200 + (l as u32 - 16));
        }
        // Non-self tile: write mask equals validity.
        for l in 0..32 {
            assert_eq!(ts.write_mask.get(l), ts.valid.get(l));
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
            assert!(ts.valid.get(l), "upper lanes still load data");
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

    #[test]
    fn min_image_wraps_displacements() {
        let s = sg();
        let own = s.from_fn_f32(|_| 0.5);
        let other = s.from_fn_f32(|_| 9.5);
        let d = min_image_lanes(&own, &other, 10.0);
        for l in 0..32 {
            assert!(
                (d.get(l) + 1.0).abs() < 1e-6,
                "wrapped to −1, got {}",
                d.get(l)
            );
        }
    }

    #[test]
    fn broadcast_loop_visits_each_neighbor_once() {
        let s = sg();
        let buf = Buffer::from_f32(&(0..100).map(|i| i as f32).collect::<Vec<_>>());
        let mut seen = Vec::new();
        broadcast_loop(
            &s,
            40,
            5,
            |sg, slots| vec![sg.load_f32(&buf, slots)],
            |_, other| seen.push(other[0].get(0)),
        );
        assert_eq!(seen, vec![40.0, 41.0, 42.0, 43.0, 44.0]);
    }
}
