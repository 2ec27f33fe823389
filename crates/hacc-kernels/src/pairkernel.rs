//! The generic pairwise kernel: one physics definition, two structures,
//! two executors.
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
//!   lane-wise and broadcast per partner with the j-loop unrolled by
//!   [`BROADCAST_UNROLL`] (holding that many partner objects live — the
//!   register-pressure cost of the restructuring, §5.3.2), and results
//!   are written with plain stores since each particle belongs to
//!   exactly one chunk (the "fewer atomic instructions" of §5.3.2).
//!
//! A metered launch runs the interaction loop op by op on `Lanes<f32>`,
//! so the meters see the instruction mix and register pressure of the
//! source. Under `MeterPolicy::Off` nothing observes the ops, and the
//! loop runs in the **fused block executor** instead: the owner's
//! fields are copied out of their registers once per tile (or staged
//! neighbor chunk), and each [`BLOCK`]-lane block runs the same
//! `interact` body at [`F32x8`] over every exchange step or broadcast
//! partner, inside one AVX2-compiled loop on x86-64 hosts that have it.
//! Every lane meets its partners in the same order either way and the
//! `F32x8` ops are the `f32` ops lane by lane, so both executors write
//! the same bits through the same `write` (atomic order, write masks,
//! fault surface).

use crate::arith::{lanes, F32x8, Real, BLOCK};
use crate::halfwarp::{accumulate, chunk_slots, half_warp_loop, tile_slots};
use crate::launch::WorkLists;
use crate::variant::Variant;
use sycl_sim::lanes::MAX_SG_SIZE;
use sycl_sim::{Buffer, Lanes, MeterPolicy, Sg, SgKernel};

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
    /// accumulators. Written once over [`Real`]: metered launches run it
    /// at `Lanes<f32>`, the fused executor at [`F32x8`], inlined into its
    /// block loop (implementations mark it `#[inline(always)]`).
    fn interact<T: Real>(&self, cx: T::Ctx, own: &[T], own_extra: &[T], other: &[T], acc: &mut [T]);

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

    fn run_half_warp(&self, sg: &Sg) {
        let tile = self.work.tiles[sg.sg_id];
        let ts = tile_slots(sg, &tile);
        let own = self.physics.load_exchange(sg, &ts.slots, &ts.valid_f);
        let own_extra = self.physics.load_own_extra(sg, &ts.slots);
        let mut acc = Acc::new(sg, &own, &own_extra, self.physics.n_acc());
        match &mut acc {
            Acc::Lanes(acc) => {
                let refs: Vec<&Lanes<f32>> = own.iter().collect();
                half_warp_loop(sg, self.variant, &refs, |sg, other| {
                    interact_metered(&self.physics, sg, &own, &own_extra, other, acc);
                });
            }
            Acc::Fused(fused) => {
                fused.run(&self.physics, sg.size / 2, Partners::Exchange(self.variant));
            }
        }
        let acc = acc.into_lanes(sg);
        self.physics
            .write(sg, &ts.slots, &own, &acc, &ts.write_mask, true);
    }

    fn run_broadcast(&self, sg: &Sg) {
        let work = self.work.chunks();
        let chunk = work.chunks[sg.sg_id];
        let cs = chunk_slots(sg, &chunk);
        let valid_f = cs.valid.to_f32();
        let own = self.physics.load_exchange(sg, &cs.slots, &valid_f);
        let own_extra = self.physics.load_own_extra(sg, &cs.slots);
        let mut acc = Acc::new(sg, &own, &own_extra, self.physics.n_acc());
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
            match &mut acc {
                // Unrolled j-loop: BROADCAST_UNROLL partner objects live
                // at once (higher register pressure, better latency
                // hiding).
                Acc::Lanes(acc) => {
                    let mut j0 = 0usize;
                    while j0 < nlen as usize {
                        let group_end = (j0 + BROADCAST_UNROLL).min(nlen as usize);
                        let group: Vec<Vec<Lanes<f32>>> = (j0..group_end)
                            .map(|j| staged.iter().map(|f| sg.broadcast(f, j)).collect())
                            .collect();
                        for other in &group {
                            interact_metered(&self.physics, sg, &own, &own_extra, other, acc);
                        }
                        j0 = group_end;
                    }
                }
                Acc::Fused(fused) => {
                    let staged = fields(&staged);
                    fused.run(&self.physics, nlen as usize, Partners::Broadcast(&staged));
                }
            }
        }
        let acc = acc.into_lanes(sg);
        self.physics
            .write(sg, &cs.slots, &own, &acc, &cs.write_mask, false);
    }
}

/// `interact` at `Lanes<f32>`, in one out-of-line copy per kernel that
/// both structures call (the physics is `#[inline(always)]` for the
/// fused executor, which would otherwise copy it into every caller).
#[inline(never)]
fn interact_metered<'sg, P: PairPhysics>(
    physics: &P,
    sg: &'sg Sg,
    own: &[Lanes<'sg, f32>],
    own_extra: &[Lanes<'sg, f32>],
    other: &[Lanes<'sg, f32>],
    acc: &mut [Lanes<'sg, f32>],
) {
    physics.interact(sg, own, own_extra, other, acc);
}

/// Widest particle object a kernel exchanges: the force kernels' 15
/// fields.
const MAX_FIELDS: usize = 15;

/// Most accumulators a kernel keeps: Corrections' ten moments.
const MAX_ACC: usize = 10;

/// One sub-group field out of its register: lane `l` at index `l`,
/// lanes past the sub-group size zero.
type Field = [f32; MAX_SG_SIZE];

/// Copies registers out, field-major.
fn fields(regs: &[Lanes<f32>]) -> Vec<Field> {
    let copy = |r: &Lanes<f32>| {
        let mut f = [0.0; MAX_SG_SIZE];
        f[..r.len()].copy_from_slice(r.as_slice());
        f
    };
    regs.iter().map(copy).collect()
}

/// The accumulators of one sub-group instance: registers when the
/// launch is metered, the fused executor's state when it is not.
enum Acc<'sg> {
    Lanes(Vec<Lanes<'sg, f32>>),
    Fused(Fused),
}

impl<'sg> Acc<'sg> {
    /// Zeroed accumulators for the launch's executor.
    fn new(sg: &'sg Sg, own: &[Lanes<f32>], own_extra: &[Lanes<f32>], n_acc: usize) -> Self {
        if sg.config().meter == MeterPolicy::Off {
            Acc::Fused(Fused::new(sg.size, own, own_extra, n_acc))
        } else {
            Acc::Lanes((0..n_acc).map(|_| sg.splat_f32(0.0)).collect())
        }
    }

    /// The accumulators as registers, for `write`.
    fn into_lanes(self, sg: &'sg Sg) -> Vec<Lanes<'sg, f32>> {
        match self {
            Acc::Lanes(acc) => acc,
            Acc::Fused(fused) => fused.acc.iter().map(|a| sg.from_fn_f32(|l| a[l])).collect(),
        }
    }
}

/// Where a lane's partners come from in the fused executor.
#[derive(Clone, Copy)]
enum Partners<'a> {
    /// Half-warp: at step `s`, lane `l` meets lane
    /// [`Variant::partner`]`(l, s)` of the owner's own object.
    Exchange(Variant),
    /// Broadcast: at index `j`, every lane meets staged slot `j`.
    Broadcast(&'a [Field]),
}

impl Partners<'_> {
    /// Fills `other` with the partner block of lanes `base..base +
    /// BLOCK` at step (or index) `step`. Lanes past the sub-group (sizes
    /// below [`BLOCK`]) meet themselves; nothing reads their results.
    #[inline(always)]
    fn fill(&self, own: &[Field], n: usize, base: usize, step: usize, other: &mut [F32x8]) {
        match *self {
            Partners::Exchange(variant) => {
                let idx = lanes(|i| match base + i {
                    l if l < n => variant.partner(l, step, n),
                    l => l,
                });
                for (o, f) in other.iter_mut().zip(own) {
                    *o = F32x8(lanes(|i| f[idx[i]]));
                }
            }
            Partners::Broadcast(staged) => {
                for (o, f) in other.iter_mut().zip(staged) {
                    *o = F32x8([f[step]; BLOCK]);
                }
            }
        }
    }
}

/// One sub-group instance in the fused executor: the owner's fields and
/// the accumulators, out of their registers.
#[derive(Clone)]
struct Fused {
    n: usize,
    own: Vec<Field>,
    own_extra: Vec<Field>,
    acc: Vec<Field>,
}

impl Fused {
    fn new(n: usize, own: &[Lanes<f32>], own_extra: &[Lanes<f32>], n_acc: usize) -> Self {
        Self {
            n,
            own: fields(own),
            own_extra: fields(own_extra),
            acc: vec![[0.0; MAX_SG_SIZE]; n_acc],
        }
    }

    /// Runs `steps` interactions on every lane, the partners of each
    /// from `partners`: the AVX2 clone of [`blocks`] where the host has
    /// AVX2, the portable body elsewhere.
    fn run<P: PairPhysics>(&mut self, physics: &P, steps: usize, partners: Partners) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { blocks_avx2(physics, self, steps, partners) };
            return;
        }
        blocks(physics, self, steps, partners);
    }
}

/// [`blocks`] compiled for AVX2: the pair physics inlines into it, so
/// the `F32x8` ops become AVX vector instructions with inline rounding
/// (the baseline x86-64 body calls libm's `roundf` once per lane).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blocks_avx2<P: PairPhysics>(physics: &P, x: &mut Fused, steps: usize, partners: Partners) {
    blocks(physics, x, steps, partners);
}

/// The fused loop: for each [`BLOCK`]-lane block of the sub-group, the
/// block's own fields and accumulators are loaded once, then for each
/// step `partners` builds the partner block and `interact` runs at
/// [`F32x8`].
#[inline(always)]
fn blocks<P: PairPhysics>(physics: &P, x: &mut Fused, steps: usize, partners: Partners) {
    let (nf, ne, na) = (x.own.len(), x.own_extra.len(), x.acc.len());
    let load = |fields: &[Field], base: usize, out: &mut [F32x8]| {
        for (o, f) in out.iter_mut().zip(fields) {
            o.0.copy_from_slice(&f[base..base + BLOCK]);
        }
    };
    for base in (0..x.n).step_by(BLOCK) {
        let mut own = [F32x8::default(); MAX_FIELDS];
        let mut own_extra = [F32x8::default(); MAX_FIELDS];
        let mut acc = [F32x8::default(); MAX_ACC];
        let mut other = [F32x8::default(); MAX_FIELDS];
        load(&x.own, base, &mut own[..nf]);
        load(&x.own_extra, base, &mut own_extra[..ne]);
        load(&x.acc, base, &mut acc[..na]);
        for step in 0..steps {
            partners.fill(&x.own, x.n, base, step, &mut other[..nf]);
            physics.interact(
                (),
                &own[..nf],
                &own_extra[..ne],
                &other[..nf],
                &mut acc[..na],
            );
        }
        for (a, b) in x.acc.iter_mut().zip(&acc) {
            a[base..base + BLOCK].copy_from_slice(&b.0);
        }
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

#[cfg(test)]
#[cfg(target_arch = "x86_64")]
mod tests {
    use super::*;
    use crate::acceleration::Acceleration;
    use crate::corrections::Corrections;
    use crate::energy::Energy;
    use crate::extras::Extras;
    use crate::geometry::Geometry;
    use crate::gravity::Gravity;
    use crate::GravityParams;
    use sycl_sim::{Device, GpuArch, SgConfig, Toolchain};

    /// Runs every instance of `kernel` through the fused loop's portable
    /// body and through its AVX2 clone, on the same inputs, and requires
    /// the same accumulator bits.
    fn arms_agree<P: PairPhysics>(physics: P, work: &WorkLists, variant: Variant, size: usize) {
        let kernel = PairKernel {
            physics,
            work: work.clone(),
            variant,
        };
        let cfg = SgConfig::for_arch(&GpuArch::aurora(), true, true).with_meter(MeterPolicy::Off);
        let (physics, n_acc) = (&kernel.physics, kernel.physics.n_acc());
        let bits =
            |x: &Fused| -> Vec<u32> { x.acc.iter().flatten().map(|v| v.to_bits()).collect() };
        for id in 0..kernel.n_instances() {
            let sg = Sg::new(id, size, cfg);
            let (portable, avx2) = if kernel.variant.is_half_warp() {
                let ts = tile_slots(&sg, &kernel.work.tiles[id]);
                let own = physics.load_exchange(&sg, &ts.slots, &ts.valid_f);
                let x = Fused::new(size, &own, &physics.load_own_extra(&sg, &ts.slots), n_acc);
                let (mut portable, mut avx2) = (x.clone(), x);
                let partners = Partners::Exchange(kernel.variant);
                blocks(physics, &mut portable, size / 2, partners);
                // SAFETY: the caller checked for AVX2.
                unsafe { blocks_avx2(physics, &mut avx2, size / 2, partners) };
                (portable, avx2)
            } else {
                let work = kernel.work.chunks();
                let chunk = work.chunks[id];
                let cs = chunk_slots(&sg, &chunk);
                let own = physics.load_exchange(&sg, &cs.slots, &cs.valid.to_f32());
                let x = Fused::new(size, &own, &physics.load_own_extra(&sg, &cs.slots), n_acc);
                let (mut portable, mut avx2) = (x.clone(), x);
                let nbrs = chunk.nbr_offset as usize..(chunk.nbr_offset + chunk.nbr_count) as usize;
                for &(nstart, nlen) in &work.neighbors[nbrs] {
                    let slots = sg
                        .lane_id()
                        .add_scalar(nstart)
                        .min(&sg.splat_u32(nstart + nlen - 1));
                    let staged = fields(&physics.load_exchange(&sg, &slots, &sg.splat_f32(1.0)));
                    let partners = Partners::Broadcast(&staged);
                    blocks(physics, &mut portable, nlen as usize, partners);
                    // SAFETY: the caller checked for AVX2.
                    unsafe { blocks_avx2(physics, &mut avx2, nlen as usize, partners) };
                }
                (portable, avx2)
            };
            assert_eq!(
                bits(&portable),
                bits(&avx2),
                "{}, {:?}, instance {id}: the portable body and the AVX2 clone disagree",
                physics.name(),
                kernel.variant
            );
        }
    }

    /// The host takes the AVX2 arm whenever it has AVX2, so this is what
    /// runs the portable body: every pair kernel, on the tiles of a
    /// half-warp variant of each partner map and on Broadcast's chunks,
    /// after a hydro step has filled every field the kernels read.
    #[test]
    fn fused_portable_body_matches_the_avx2_clone() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2 on this host: only the portable body exists");
            return;
        }
        let device = Device::new(GpuArch::aurora(), Toolchain::sycl_visa()).unwrap();
        for (variant, size) in [
            (Variant::Select, 16),
            (Variant::Visa, 32),
            (Variant::Broadcast, 16),
        ] {
            let (s, data, _) = crate::tests::hydro(&device, variant, size, 5);
            let (box_size, work) = (s.box_size as f32, &s.work);
            let data = || data.clone();
            arms_agree(
                Geometry {
                    data: data(),
                    box_size,
                },
                work,
                variant,
                size,
            );
            arms_agree(
                Corrections {
                    data: data(),
                    box_size,
                },
                work,
                variant,
                size,
            );
            arms_agree(
                Extras {
                    data: data(),
                    box_size,
                },
                work,
                variant,
                size,
            );
            arms_agree(
                Acceleration {
                    data: data(),
                    box_size,
                },
                work,
                variant,
                size,
            );
            arms_agree(
                Energy {
                    data: data(),
                    box_size,
                },
                work,
                variant,
                size,
            );
            let params = GravityParams {
                poly: [0.02, -0.01, 0.002, -0.0001, 0.0, 0.0],
                r_cut2: 4.0,
                soft2: 1e-4,
            };
            arms_agree(
                Gravity {
                    data: data(),
                    box_size,
                    params,
                },
                work,
                variant,
                size,
            );
        }
    }
}
