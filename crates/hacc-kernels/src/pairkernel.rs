//! The generic pairwise kernel: one physics definition, two structures,
//! two executors.
//!
//! Every CRK hot kernel is a sum over neighbor particles. `PairPhysics`
//! supplies the per-kernel pieces (which fields are exchanged, the
//! interaction math, and the write-back); `PairKernel` provides the two
//! execution structures of the paper:
//!
//! * **half-warp** (Select / Memory / vISA variants): one sub-group per
//!   tile, partner data arrives by exchange, results are accumulated with
//!   atomics because a particle appears in many tiles;
//! * **broadcast**: one sub-group per chunk, neighbor data is staged
//!   lane-wise and broadcast per partner with the j-loop unrolled by
//!   `BROADCAST_UNROLL` (holding that many partner objects live — the
//!   register-pressure cost of the restructuring, §5.3.2), and results
//!   are written with plain stores since each particle belongs to
//!   exactly one chunk (the "fewer atomic instructions" of §5.3.2).
//!
//! The tile (or chunk) prologue, the neighbor staging and the `write`
//! epilogue always run op by op on `Lanes<f32>`. The interaction loop
//! runs in the **fused block executor**: the owner's fields are copied
//! out of their registers once per tile, and each `BLOCK`-lane block
//! runs the same `interact` body at `F32x8` over the exchange steps or
//! broadcast partners, inside one AVX2-compiled loop on x86-64 hosts
//! that have it. A metered launch first runs the loop's **first group**
//! op by op — exchange step 0, or the first unrolled group of each
//! staged neighbor chunk — and charges its counts again for every
//! partner the fused executor then runs
//! ([`SgMeter::repeat_since`](sycl_sim::SgMeter::repeat_since)). Under
//! SIMT each step (each broadcast partner) is the same op sequence, and
//! the first broadcast group is its chunk's largest, so the counts,
//! register peak and local-memory footprint are those of running every
//! step op by op (the `derived_charges_equal_the_op_by_op_charges`
//! oracle). Every lane meets its partners in the same order in either
//! executor and the `F32x8` ops are the `f32` ops lane by lane, so
//! every launch writes the same bits through the same `write` (atomic
//! order, write masks, fault surface).

use crate::arith::{lanes, F32x8, Real, BLOCK};
use crate::halfwarp::{accumulate, chunk_slots, tile_slots};
use crate::launch::WorkLists;
use crate::variant::Variant;
use std::ops::Range;
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
const BROADCAST_UNROLL: usize = 8;

/// Per-kernel physics: field selection, interaction, write-back.
pub(crate) trait PairPhysics: Sync {
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
    /// accumulators. Written once over [`Real`]: a metered launch runs its
    /// first interaction group at `Lanes<f32>`, and the fused executor
    /// runs the rest at [`F32x8`], inlined into its block loop
    /// (implementations mark it `#[inline(always)]`).
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
pub(crate) struct PairKernel<P: PairPhysics> {
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

    /// The half-warp structure around its exchange steps (`steps`).
    fn run_half_warp<'sg>(&self, sg: &'sg Sg, steps: impl FnOnce(&mut Instance<'sg>)) {
        let tile = self.work.tiles[sg.sg_id];
        let ts = tile_slots(sg, &tile);
        let mut x = Instance::new(&self.physics, sg, &ts.slots, &ts.valid_f);
        steps(&mut x);
        x.write(&self.physics, sg, &ts.slots, &ts.write_mask, true);
    }

    /// The broadcast structure around the partners of each staged
    /// neighbor chunk (`partners(x, staged, nlen)`).
    fn run_broadcast<'sg>(
        &self,
        sg: &'sg Sg,
        partners: impl Fn(&mut Instance<'sg>, &[Lanes<'sg, f32>], usize),
    ) {
        let work = self.work.chunks();
        let chunk = work.chunks[sg.sg_id];
        let cs = chunk_slots(sg, &chunk);
        let valid_f = cs.valid.to_f32();
        let mut x = Instance::new(&self.physics, sg, &cs.slots, &valid_f);
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
            partners(&mut x, &staged, nlen as usize);
        }
        x.write(&self.physics, sg, &cs.slots, &cs.write_mask, false);
    }

    /// Every exchange step of a tile. A metered launch runs step 0 op by
    /// op and charges it `h − 1` more times; the fused executor runs the
    /// steps the meter did not.
    fn exchange_steps<'sg>(&self, sg: &'sg Sg, x: &mut Instance<'sg>) {
        let h = sg.size / 2;
        let first = if metered(sg) {
            let mark = sg.meter().snapshot();
            x.on_regs(|own, own_extra, acc| {
                let refs: Vec<&Lanes<f32>> = own.iter().collect();
                let other = self.variant.exchange(sg, &refs, 0);
                interact_metered(&self.physics, sg, own, own_extra, &other, acc);
            });
            sg.meter().repeat_since(&mark, 1, h as u64 - 1);
            1
        } else {
            0
        };
        x.fused
            .run(&self.physics, first..h, Partners::Exchange(self.variant));
    }

    /// Partners `0..nlen` of one staged neighbor chunk. A metered launch
    /// runs the first unrolled group op by op — the chunk's largest, so
    /// its register peak is the chunk's — and charges its per-partner
    /// counts for each remaining partner; the fused executor runs them.
    fn broadcast_partners<'sg>(
        &self,
        sg: &'sg Sg,
        x: &mut Instance<'sg>,
        staged: &[Lanes<'sg, f32>],
        nlen: usize,
    ) {
        let first = if metered(sg) {
            let group = BROADCAST_UNROLL.min(nlen);
            let mark = sg.meter().snapshot();
            x.on_regs(|own, own_extra, acc| {
                broadcast_group(&self.physics, sg, staged, 0..group, own, own_extra, acc);
            });
            sg.meter()
                .repeat_since(&mark, group as u64, (nlen - group) as u64);
            group
        } else {
            0
        };
        let staged = fields(staged);
        x.fused
            .run(&self.physics, first..nlen, Partners::Broadcast(&staged));
    }
}

/// Whether the launch's meters record (and so see one group op by op).
fn metered(sg: &Sg) -> bool {
    sg.config().meter == MeterPolicy::Full
}

/// Partners `js` of a staged neighbor chunk as one unrolled group of the
/// broadcast j-loop, op by op: every partner of the group is broadcast
/// before the first interaction, so all of them are live at once.
fn broadcast_group<'sg, P: PairPhysics>(
    physics: &P,
    sg: &'sg Sg,
    staged: &[Lanes<'sg, f32>],
    js: Range<usize>,
    own: &[Lanes<'sg, f32>],
    own_extra: &[Lanes<'sg, f32>],
    acc: &mut [Lanes<'sg, f32>],
) {
    let group: Vec<Vec<Lanes<f32>>> = js
        .map(|j| staged.iter().map(|f| sg.broadcast(f, j)).collect())
        .collect();
    for other in &group {
        interact_metered(physics, sg, own, own_extra, other, acc);
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

/// One sub-group instance: the owner's registers, the accumulator
/// registers, and the fused executor's copies of both. Between op-by-op
/// segments the accumulators live in the fused executor.
struct Instance<'sg> {
    own: Vec<Lanes<'sg, f32>>,
    own_extra: Vec<Lanes<'sg, f32>>,
    acc: Vec<Lanes<'sg, f32>>,
    fused: Fused,
}

impl<'sg> Instance<'sg> {
    /// Loads the owner's fields and zeroes the accumulators.
    fn new<P: PairPhysics>(
        physics: &P,
        sg: &'sg Sg,
        slots: &Lanes<'sg, u32>,
        valid_f: &Lanes<'sg, f32>,
    ) -> Self {
        let own = physics.load_exchange(sg, slots, valid_f);
        let own_extra = physics.load_own_extra(sg, slots);
        let acc: Vec<_> = (0..physics.n_acc()).map(|_| sg.splat_f32(0.0)).collect();
        let fused = Fused::new(sg.size, &own, &own_extra, acc.len());
        Self {
            own,
            own_extra,
            acc,
            fused,
        }
    }

    /// Hands the fused accumulators back into their registers (no charge).
    fn refill_regs(&mut self) {
        for (reg, a) in self.acc.iter_mut().zip(&self.fused.acc) {
            reg.refill(a);
        }
    }

    /// Runs `body` op by op on the registers, the accumulators handed in
    /// and back out.
    fn on_regs(
        &mut self,
        body: impl FnOnce(&[Lanes<'sg, f32>], &[Lanes<'sg, f32>], &mut [Lanes<'sg, f32>]),
    ) {
        self.refill_regs();
        body(&self.own, &self.own_extra, &mut self.acc);
        for (a, reg) in self.fused.acc.iter_mut().zip(&self.acc) {
            a[..reg.len()].copy_from_slice(reg.as_slice());
        }
    }

    /// The epilogue: the accumulators back in their registers, `write`.
    fn write<P: PairPhysics>(
        mut self,
        physics: &P,
        sg: &Sg,
        slots: &Lanes<u32>,
        mask: &Lanes<bool>,
        atomic: bool,
    ) {
        self.refill_regs();
        physics.write(sg, slots, &self.own, &self.acc, mask, atomic);
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

    /// Runs `steps` of the interactions on every lane, the partners of
    /// each from `partners`: the AVX2 clone of [`blocks`] where the host
    /// has AVX2, the portable body elsewhere.
    fn run<P: PairPhysics>(&mut self, physics: &P, steps: Range<usize>, partners: Partners) {
        if steps.is_empty() {
            return;
        }
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
fn blocks_avx2<P: PairPhysics>(
    physics: &P,
    x: &mut Fused,
    steps: Range<usize>,
    partners: Partners,
) {
    blocks(physics, x, steps, partners);
}

/// The fused loop: for each [`BLOCK`]-lane block of the sub-group, the
/// block's own fields and accumulators are loaded once, then for each
/// step `partners` builds the partner block and `interact` runs at
/// [`F32x8`].
#[inline(always)]
fn blocks<P: PairPhysics>(physics: &P, x: &mut Fused, steps: Range<usize>, partners: Partners) {
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
        for step in steps.clone() {
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
            self.run_half_warp(sg, |x| self.exchange_steps(sg, x));
        } else {
            self.run_broadcast(sg, |x, staged, nlen| {
                self.broadcast_partners(sg, x, staged, nlen)
            });
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
                blocks(physics, &mut portable, 0..size / 2, partners);
                // SAFETY: the caller checked for AVX2.
                unsafe { blocks_avx2(physics, &mut avx2, 0..size / 2, partners) };
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
                    blocks(physics, &mut portable, 0..nlen as usize, partners);
                    // SAFETY: the caller checked for AVX2.
                    unsafe { blocks_avx2(physics, &mut avx2, 0..nlen as usize, partners) };
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

/// The oracle of derived metering: the interaction loop op by op over
/// every exchange step and every unrolled broadcast group, against which
/// `run` must charge the same counts, register peak and local memory per
/// sub-group instance, and write the same bits.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::acceleration::Acceleration;
    use crate::corrections::Corrections;
    use crate::energy::Energy;
    use crate::extras::Extras;
    use crate::geometry::Geometry;
    use crate::gravity::Gravity;
    use crate::{run_hydro_step, DeviceParticles, GravityParams, Offload, ALL_VARIANTS};
    use hacc_telemetry::Recorder;
    use std::sync::{Arc, Mutex};
    use sycl_sim::{
        Device, ExecutionPolicy, FaultConfig, FaultInjector, GpuArch, LaunchConfig, LaunchError,
        LaunchStats,
    };

    /// The half-warp loop: `interact` once per exchange step, charged as
    /// it runs.
    fn half_warp_loop<'sg>(
        sg: &'sg Sg,
        variant: Variant,
        own_fields: &[&Lanes<'sg, f32>],
        mut interact: impl FnMut(&'sg Sg, &[Lanes<'sg, f32>]),
    ) {
        for step in 0..sg.size / 2 {
            let other = variant.exchange(sg, own_fields, step);
            interact(sg, &other);
        }
    }

    impl<P: PairPhysics> PairKernel<P> {
        /// `run` with every interaction op by op on `Lanes`.
        fn run_charged(&self, sg: &Sg) {
            let physics = &self.physics;
            if self.variant.is_half_warp() {
                self.run_half_warp(sg, |x| {
                    x.on_regs(|own, own_extra, acc| {
                        let refs: Vec<&Lanes<f32>> = own.iter().collect();
                        half_warp_loop(sg, self.variant, &refs, |sg, other| {
                            interact_metered(physics, sg, own, own_extra, other, acc);
                        });
                    })
                });
            } else {
                self.run_broadcast(sg, |x, staged, nlen| {
                    x.on_regs(|own, own_extra, acc| {
                        for j0 in (0..nlen).step_by(BROADCAST_UNROLL) {
                            let js = j0..(j0 + BROADCAST_UNROLL).min(nlen);
                            broadcast_group(physics, sg, staged, js, own, own_extra, acc);
                        }
                    })
                });
            }
        }
    }

    /// A pair kernel run derived (`run`) or charged (`run_charged`),
    /// keeping each sub-group instance's stats.
    struct Recorded<P: PairPhysics> {
        kernel: PairKernel<P>,
        charged: bool,
        stats: Mutex<Vec<Option<LaunchStats>>>,
    }

    impl<P: PairPhysics> SgKernel for Recorded<P> {
        fn name(&self) -> &str {
            self.kernel.physics.name()
        }

        fn run(&self, sg: &mut Sg) {
            if self.charged {
                self.kernel.run_charged(sg);
            } else {
                self.kernel.run(sg);
            }
            self.stats.lock().expect("no instance panicked")[sg.sg_id] =
                Some(sg.meter().snapshot());
        }

        fn output_buffers(&self) -> Vec<Buffer> {
            self.kernel.physics.output_buffers()
        }
    }

    /// One test input: the offload of a jittered gas for a variant and
    /// sub-group size.
    struct Input {
        name: &'static str,
        n_side: usize,
        cutoff: f64,
    }

    /// The benchmark workload's 8³ shape (unit spacing, cutoff 4.8 in a
    /// box of 8: every leaf pair interacts), and a 5³ gas whose cutoff
    /// leaves ragged tiles and neighbor chunks below, at and above
    /// [`BROADCAST_UNROLL`] (`inputs_hold_every_edge_shape`).
    const INPUTS: [Input; 2] = [
        Input {
            name: "8³",
            n_side: 8,
            cutoff: 4.8,
        },
        Input {
            name: "5³",
            n_side: 5,
            cutoff: 2.4 + 1e-9,
        },
    ];

    impl Input {
        fn offload(&self, variant: Variant, sg: usize) -> Offload {
            let box_size = self.n_side as f64;
            let hp = crate::tests::sample(self.n_side, box_size, 0x5EED ^ self.n_side as u64);
            let leaf_capacity = variant.preferred_leaf_capacity(sg);
            Offload::new(&hp, box_size, self.cutoff, leaf_capacity, sg).unwrap()
        }
    }

    /// One legal build: architecture, variant, sub-group size.
    type Build = (GpuArch, Variant, usize);

    fn builds() -> Vec<Build> {
        let mut out = Vec::new();
        for arch in GpuArch::all_with_cpu() {
            for variant in ALL_VARIANTS {
                if variant.needs_visa() && !arch.supports_visa {
                    continue;
                }
                for &sg in arch.sg_sizes {
                    out.push((arch.clone(), variant, sg));
                }
            }
        }
        out
    }

    fn fault_plan() -> FaultConfig {
        FaultConfig {
            seed: 0xD1CE,
            transient_rate: 0.2,
            corrupt_rate: 0.5,
            ..FaultConfig::default()
        }
    }

    /// Runs the six pair kernels, derived and charged, on two copies of
    /// `input`'s state after one hydro step, and requires equal launch
    /// outcomes, per-instance stats and output bits.
    fn assert_derived_equals_charged(
        (arch, variant, sg): &Build,
        input: &Input,
        exec: ExecutionPolicy,
        faults: bool,
    ) {
        let (arch, variant, sg) = (arch.clone(), *variant, *sg);
        let offload = input.offload(variant, sg);
        let box_size = offload.box_size as f32;
        let cfg = LaunchConfig::defaults_for(&arch)
            .with_sg_size(sg)
            .with_exec(exec);
        let state = || {
            let data = offload.upload();
            let device = Device::new(arch.clone(), variant.toolchain()).unwrap();
            let warm = cfg.with_meter(MeterPolicy::Off);
            let rec = Recorder::new();
            run_hydro_step(&device, &data, &offload.work, variant, box_size, warm, &rec).unwrap();
            let device = if faults {
                device.with_fault_injector(Arc::new(FaultInjector::new(fault_plan())))
            } else {
                device
            };
            (device, data)
        };
        let (derived, charged) = (state(), state());
        let case = format!(
            "{} {variant:?} sg {sg}, {} input, {exec:?}, faults {faults}",
            arch.gpu_name, input.name
        );
        let pair = |make: &dyn Fn(&DeviceParticles) -> Box<dyn Launch>| {
            let outcomes = [(&derived, false), (&charged, true)].map(|((device, data), c)| {
                make(data).launch(device, &offload.work, variant, cfg, c)
            });
            let [(d, d_stats), (c, c_stats)] = outcomes;
            let name = make(&derived.1).name();
            assert_eq!(d, c, "{name}, {case}: launch outcomes differ");
            for (id, (d, c)) in d_stats.iter().zip(&c_stats).enumerate() {
                assert_eq!(d, c, "{name}, {case}: instance {id} charged differently");
            }
            assert_eq!(
                derived.1.state_digest(),
                charged.1.state_digest(),
                "{name}, {case}: output bits differ"
            );
        };
        let params = GravityParams {
            poly: [0.02, -0.01, 0.002, -0.0001, 0.0, 0.0],
            r_cut2: 4.0,
            soft2: 1e-4,
        };
        pair(&|data| {
            Box::new(Geometry {
                data: data.clone(),
                box_size,
            })
        });
        pair(&|data| {
            Box::new(Corrections {
                data: data.clone(),
                box_size,
            })
        });
        pair(&|data| {
            Box::new(Extras {
                data: data.clone(),
                box_size,
            })
        });
        pair(&|data| {
            Box::new(Acceleration {
                data: data.clone(),
                box_size,
            })
        });
        pair(&|data| {
            Box::new(Energy {
                data: data.clone(),
                box_size,
            })
        });
        pair(&|data| {
            Box::new(Gravity {
                data: data.clone(),
                box_size,
                params,
            })
        });
    }

    /// What a launch left: its outcome (stats and injected faults, or the
    /// error) and each instance's stats.
    type Outcome = (
        Result<(LaunchStats, u32), LaunchError>,
        Vec<Option<LaunchStats>>,
    );

    /// A pair physics behind one object, so the six kernels share a
    /// driver.
    trait Launch {
        fn name(&self) -> &'static str;
        fn launch(
            self: Box<Self>,
            device: &Device,
            work: &WorkLists,
            variant: Variant,
            cfg: LaunchConfig,
            charged: bool,
        ) -> Outcome;
    }

    impl<P: PairPhysics> Launch for P {
        fn name(&self) -> &'static str {
            PairPhysics::name(self)
        }

        fn launch(
            self: Box<Self>,
            device: &Device,
            work: &WorkLists,
            variant: Variant,
            cfg: LaunchConfig,
            charged: bool,
        ) -> Outcome {
            let kernel = PairKernel {
                physics: *self,
                work: work.clone(),
                variant,
            };
            let n = kernel.n_instances();
            let recorded = Recorded {
                kernel,
                charged,
                stats: Mutex::new(vec![None; n]),
            };
            let report = device
                .launch(&recorded, n, cfg)
                .map(|r| (r.stats, r.injected_faults));
            (report, recorded.stats.into_inner().unwrap())
        }
    }

    const EXECS: [ExecutionPolicy; 3] = [
        ExecutionPolicy::Serial,
        ExecutionPolicy::Parallel { threads: 2 },
        ExecutionPolicy::Parallel { threads: 4 },
    ];

    /// Every build × input × execution × fault schedule, or a subset:
    /// every build on both inputs, with the execution and the fault
    /// schedule turning over so that each pair of (input, execution,
    /// fault schedule) values is visited.
    fn derived_equals_charged(full_product: bool) {
        for (b, build) in builds().iter().enumerate() {
            for (i, input) in INPUTS.iter().enumerate() {
                for (e, exec) in EXECS.into_iter().enumerate() {
                    for faults in [false, true] {
                        let picked = e == (b + i) % 3 && faults == ((b + i + e) % 2 == 1);
                        if full_product || picked {
                            assert_derived_equals_charged(build, input, exec, faults);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn derived_charges_equal_the_op_by_op_charges() {
        derived_equals_charged(false);
    }

    /// The full product (nightly: `cargo test --release -p hacc-kernels
    /// -- --ignored derived_charges`).
    #[test]
    #[ignore = "full product; the default run takes a covering subset"]
    fn derived_charges_equal_the_op_by_op_charges_full_product() {
        derived_equals_charged(true);
    }

    /// The 5³ input holds the shapes the derivation must get right: self
    /// tiles, ragged tiles, and neighbor chunks shorter than, equal to
    /// and longer than one unrolled broadcast group.
    #[test]
    fn inputs_hold_every_edge_shape() {
        let input = &INPUTS[1];
        let tiles = input.offload(Variant::Select, 16).work.tiles;
        assert!(tiles.iter().any(|t| t.self_tile));
        assert!(tiles.iter().any(|t| t.a_len < 8 || t.b_len < 8));
        let mut nlens = Vec::new();
        for sg in [8, 16] {
            let work = input.offload(Variant::Broadcast, sg).work;
            nlens.extend(work.chunks().neighbors.iter().map(|&(_, n)| n as usize));
        }
        assert!(nlens.iter().any(|&n| n < BROADCAST_UNROLL));
        assert!(nlens.contains(&BROADCAST_UNROLL));
        assert!(nlens.iter().any(|&n| n > BROADCAST_UNROLL));
    }
}
