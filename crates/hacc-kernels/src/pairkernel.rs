//! The generic pairwise kernel: one physics definition, two structures.
//!
//! Every CRK hot kernel is a sum over neighbor particles. [`PairPhysics`]
//! supplies the per-kernel pieces (which fields are exchanged, the
//! interaction math, and the write-back); [`PairKernel`] provides the two
//! execution structures of the paper:
//!
//! * **half-warp** (Select / Memory / vISA variants): one sub-group per
//!   tile, partner data arrives by exchange, results are accumulated with
//!   atomics because a particle appears in many tiles;
//! * **broadcast**: one sub-group per chunk, neighbor data is staged
//!   lane-wise and broadcast per partner with the j-loop unrolled by 4
//!   (holding four partner objects live — the register-pressure cost of
//!   the restructuring, §5.3.2), and results are written with plain
//!   stores since each particle belongs to exactly one chunk (the
//!   "fewer atomic instructions" of §5.3.2).

use crate::halfwarp::{accumulate, chunk_slots, half_warp_loop, tile_slots};
use crate::launch::WorkLists;
use crate::variant::Variant;
use sycl_sim::{Buffer, Lanes, Sg, SgKernel};

/// Unroll factor of the broadcast j-loop.
///
/// Register-regioned broadcasts need compile-time-known source lanes
/// (Figure 6), which forces the compiler to unroll the partner loop; the
/// unrolled schedule keeps several partner objects live at once. Eight
/// concurrent partners models the reuse distance the paper's restructured
/// kernels exhibit (their large register footprint is what spills on
/// A100, §5.4).
pub const BROADCAST_UNROLL: usize = 8;

/// Per-kernel physics: field selection, interaction, write-back.
pub trait PairPhysics: Sync {
    /// Timer name (upGeo, upCor, …).
    fn name(&self) -> &'static str;

    /// Number of per-lane accumulator registers.
    fn n_acc(&self) -> usize;

    /// Loads the fields every interaction partner must see. Field 0 must
    /// be the validity/weight channel (zero for padding lanes) so partner
    /// contributions from padding are neutralized.
    fn load_exchange<'sg>(
        &self,
        sg: &'sg Sg,
        slots: &Lanes<'sg, u32>,
        valid_f: &Lanes<'sg, f32>,
    ) -> Vec<Lanes<'sg, f32>>;

    /// Loads owner-only fields that are *not* exchanged (e.g. the owner's
    /// CRK coefficients in *Extras*).
    fn load_own_extra<'sg>(&self, _sg: &'sg Sg, _slots: &Lanes<'sg, u32>) -> Vec<Lanes<'sg, f32>> {
        Vec::new()
    }

    /// One interaction: owner fields vs one partner's fields, updating the
    /// accumulators.
    fn interact<'sg>(
        &self,
        sg: &'sg Sg,
        own: &[Lanes<'sg, f32>],
        own_extra: &[Lanes<'sg, f32>],
        other: &[Lanes<'sg, f32>],
        acc: &mut [Lanes<'sg, f32>],
    );

    /// Writes the accumulated results for the owner lanes: accumulator
    /// `k` into `output_buffers()[k]`. `atomic` is true under the
    /// half-warp structure (partial sums) and false under broadcast
    /// (complete sums, plain stores).
    fn write(
        &self,
        sg: &Sg,
        slots: &Lanes<u32>,
        _own: &[Lanes<f32>],
        acc: &[Lanes<f32>],
        mask: &Lanes<bool>,
        atomic: bool,
    ) {
        for (buf, acc) in self.output_buffers().iter().zip(acc) {
            accumulate(sg, buf, slots, acc, mask, atomic);
        }
    }

    /// The buffers `write` targets — the corruption surface exposed to
    /// an attached fault injector.
    fn output_buffers(&self) -> Vec<Buffer>;
}

/// A launchable kernel: physics + work lists + variant.
pub struct PairKernel<P: PairPhysics> {
    /// The kernel's physics definition.
    pub physics: P,
    /// Work lists: the Select/Memory/vISA variants read the tiles, the
    /// Broadcast variant the chunk list.
    pub work: WorkLists,
    /// Communication variant.
    pub variant: Variant,
}

impl<P: PairPhysics> PairKernel<P> {
    /// The number of sub-group instances to launch for this variant.
    pub fn n_instances(&self) -> usize {
        if self.variant.is_half_warp() {
            self.work.tiles.len()
        } else {
            self.work.chunks().chunks.len()
        }
    }

    fn run_half_warp(&self, sg: &mut Sg) {
        let tile = self.work.tiles[sg.sg_id];
        let ts = tile_slots(sg, &tile);
        let own = self.physics.load_exchange(sg, &ts.slots, &ts.valid_f);
        let own_extra = self.physics.load_own_extra(sg, &ts.slots);
        let mut acc: Vec<Lanes<f32>> = (0..self.physics.n_acc())
            .map(|_| sg.splat_f32(0.0))
            .collect();
        let refs: Vec<&Lanes<f32>> = own.iter().collect();
        half_warp_loop(sg, self.variant, &refs, |sg, other| {
            self.physics.interact(sg, &own, &own_extra, other, &mut acc);
        });
        self.physics
            .write(sg, &ts.slots, &own, &acc, &ts.write_mask, true);
    }

    fn run_broadcast(&self, sg: &mut Sg) {
        let work = self.work.chunks();
        let chunk = work.chunks[sg.sg_id];
        let cs = chunk_slots(sg, &chunk);
        let valid_f = cs.valid.to_f32();
        let own = self.physics.load_exchange(sg, &cs.slots, &valid_f);
        let own_extra = self.physics.load_own_extra(sg, &cs.slots);
        let mut acc: Vec<Lanes<f32>> = (0..self.physics.n_acc())
            .map(|_| sg.splat_f32(0.0))
            .collect();
        let nbrs = &work.neighbors
            [chunk.nbr_offset as usize..(chunk.nbr_offset + chunk.nbr_count) as usize];
        for &(nstart, nlen) in nbrs {
            // Stage the neighbor chunk lane-wise (clamped; only valid
            // slots are broadcast because the j-loop bound is host-known).
            let lane = sg.lane_id();
            let raw = lane.add_scalar(nstart);
            let last = sg.splat_u32(nstart + nlen - 1);
            let slots = raw.min(&last);
            let ones = sg.splat_f32(1.0);
            let staged = self.physics.load_exchange(sg, &slots, &ones);
            // Unrolled j-loop: BROADCAST_UNROLL partner objects live at
            // once (higher register pressure, better latency hiding).
            let mut j0 = 0usize;
            while j0 < nlen as usize {
                let group_end = (j0 + BROADCAST_UNROLL).min(nlen as usize);
                let group: Vec<Vec<Lanes<f32>>> = (j0..group_end)
                    .map(|j| staged.iter().map(|f| sg.broadcast(f, j)).collect())
                    .collect();
                for other in &group {
                    self.physics.interact(sg, &own, &own_extra, other, &mut acc);
                }
                j0 = group_end;
            }
        }
        self.physics
            .write(sg, &cs.slots, &own, &acc, &cs.write_mask, false);
    }
}

impl<P: PairPhysics> SgKernel for PairKernel<P> {
    fn name(&self) -> &str {
        self.physics.name()
    }

    fn run(&self, sg: &mut Sg) {
        if self.variant.is_half_warp() {
            self.run_half_warp(sg);
        } else {
            self.run_broadcast(sg);
        }
    }

    fn output_buffers(&self) -> Vec<Buffer> {
        self.physics.output_buffers()
    }
}
