//! The sub-group execution context and its communication primitives.
//!
//! [`Sg`] is what a kernel body receives: it creates [`Lanes`] values,
//! performs global loads/stores and atomics, and — centrally for this
//! paper — implements the cross-lane communication mechanisms whose costs
//! differ across GPU architectures:
//!
//! | method | SYCL construct | PVC codegen | A100/MI250X codegen |
//! |---|---|---|---|
//! | [`Sg::select_from_group`] / [`Sg::shuffle_xor`] | `select_from_group` | indirect register access (slow) | dedicated cross-lane op |
//! | [`Sg::broadcast`] | `group_broadcast`, known lane | register regioning (fast) | dedicated cross-lane op |
//! | [`Sg::local_exchange`] | store/barrier/load in SLM | SLM round-trip | SLM round-trip (+L1 trade on NVIDIA) |
//! | [`Sg::visa_butterfly`] | inline vISA | 4 `mov`s | unavailable |

use crate::arch::{GpuArch, ShuffleHw};
use crate::buffer::Buffer;
use crate::commit::{AtomicKind, AtomicOp};
use crate::lanes::{LaneScalar, Lanes, MAX_SG_SIZE};
use crate::meter::{InstrClass, MeterPolicy, SgMeter};
use std::cell::RefCell;

/// Immutable per-launch configuration visible to the sub-group.
#[derive(Clone, Copy, Debug)]
pub struct SgConfig {
    /// Hardware shuffle implementation.
    pub(crate) shuffle_hw: ShuffleHw,
    /// Broadcasts with compile-time-known source lanes use register
    /// regioning.
    pub regioned_broadcast: bool,
    /// Native FP32 atomic min/max available.
    pub native_float_minmax: bool,
    /// Native FP32 atomic add available (false on CPUs: CAS loop).
    pub native_float_add: bool,
    /// Inline vISA allowed (toolchain × architecture).
    pub visa_available: bool,
    /// Fast-math code generation.
    pub fast_math: bool,
    /// Whether sub-groups run under this configuration record
    /// instruction counts, register pressure and local-memory use.
    pub meter: MeterPolicy,
}

impl SgConfig {
    /// Derives the configuration for an architecture + flags (fully
    /// metered; use [`SgConfig::with_meter`] to opt out).
    pub fn for_arch(arch: &GpuArch, fast_math: bool, visa: bool) -> Self {
        Self {
            shuffle_hw: arch.shuffle,
            regioned_broadcast: arch.regioned_broadcast,
            native_float_minmax: arch.native_float_minmax,
            native_float_add: arch.native_float_add,
            visa_available: visa && arch.supports_visa,
            fast_math,
            meter: MeterPolicy::Full,
        }
    }

    /// Returns the configuration with the given metering policy.
    pub fn with_meter(mut self, meter: MeterPolicy) -> Self {
        self.meter = meter;
        self
    }
}

/// One executing sub-group.
pub struct Sg {
    /// Index of this sub-group in the launch.
    pub sg_id: usize,
    /// Sub-group size (work-items).
    pub size: usize,
    config: SgConfig,
    meter: SgMeter,
    /// When true, atomic RMWs are logged to `pending` instead of being
    /// applied — the deterministic-commit mode used by parallel launches.
    defer_atomics: bool,
    pending: RefCell<Vec<AtomicOp>>,
}

impl Sg {
    /// Creates a standalone sub-group context (used by [`crate::Device`]
    /// launches and by kernel unit tests that exercise ops directly).
    pub fn new(sg_id: usize, size: usize, config: SgConfig) -> Self {
        assert!(
            size.is_power_of_two() && (2..=MAX_SG_SIZE).contains(&size),
            "sub-group size must be a power of two in 2..={MAX_SG_SIZE}"
        );
        Self {
            sg_id,
            size,
            config,
            meter: SgMeter::new_with_mode(config.fast_math, config.meter),
            defer_atomics: false,
            pending: RefCell::new(Vec::new()),
        }
    }

    /// Creates a sub-group whose atomics are deferred into a commit log
    /// (drained with [`Sg::take_pending`]). Only the parallel work-group
    /// scheduler uses this; direct `Sg::new` users keep immediate atomics
    /// so buffers can be read right after an atomic call.
    pub(crate) fn new_deferred(sg_id: usize, size: usize, config: SgConfig) -> Self {
        let mut sg = Self::new(sg_id, size, config);
        sg.defer_atomics = true;
        sg
    }

    /// Drains the deferred atomic log (instruction order preserved).
    pub(crate) fn take_pending(&mut self) -> Vec<AtomicOp> {
        std::mem::take(self.pending.get_mut())
    }

    /// The meter: its snapshot is the stats the launch merges, and a
    /// mark for [`SgMeter::repeat_since`].
    pub fn meter(&self) -> &SgMeter {
        &self.meter
    }

    /// The launch configuration.
    pub fn config(&self) -> &SgConfig {
        &self.config
    }

    // -- constructors -------------------------------------------------------

    /// Broadcast an immediate into all lanes (free: encoded in the
    /// instruction stream, but materializing the register costs a mov).
    pub fn splat_f32(&self, v: f32) -> Lanes<'_, f32> {
        self.meter.charge(InstrClass::Alu, 1);
        Lanes::build(self.size, &self.meter, |_| v)
    }

    /// Splat for u32.
    pub fn splat_u32(&self, v: u32) -> Lanes<'_, u32> {
        self.meter.charge(InstrClass::Alu, 1);
        Lanes::build(self.size, &self.meter, |_| v)
    }

    /// Lane index vector `0, 1, …, S−1` — the SYCL
    /// `sub_group::get_local_id()` built-in, free on hardware with lane-ID
    /// registers (§5.1).
    pub fn lane_id(&self) -> Lanes<'_, u32> {
        Lanes::build(self.size, &self.meter, |l| l as u32)
    }

    /// Lanes built from an explicit per-lane function (models data already
    /// staged in registers by the launch machinery; charges one mov).
    pub fn from_fn_f32(&self, f: impl Fn(usize) -> f32) -> Lanes<'_, f32> {
        self.meter.charge(InstrClass::Alu, 1);
        Lanes::build(self.size, &self.meter, f)
    }

    // -- global memory ------------------------------------------------------

    /// Gathered global load `buf[idx[l]]` per lane.
    pub fn load_f32(&self, buf: &Buffer, idx: &Lanes<u32>) -> Lanes<'_, f32> {
        self.meter.charge(InstrClass::GlobalLoad, 1);
        let idx = idx.padded();
        Lanes::build(self.size, &self.meter, |l| buf.read_f32(idx[l] as usize))
    }

    /// Masked scattered store `buf[idx[l]] = v[l]` where `mask[l]`.
    pub fn store_f32(&self, buf: &Buffer, idx: &Lanes<u32>, v: &Lanes<f32>, mask: &Lanes<bool>) {
        self.meter.charge(InstrClass::GlobalStore, 1);
        let (idx, v, mask) = (idx.as_slice(), v.as_slice(), mask.as_slice());
        for l in 0..self.size {
            if mask[l] {
                buf.write_f32(idx[l] as usize, v[l]);
            }
        }
    }

    /// Shared masked atomic RMW path: charges per active lane, then either
    /// applies immediately (serial / standalone contexts) or appends one
    /// instruction-granular entry to the deferred commit log.
    fn atomic_rmw(
        &self,
        kind: AtomicKind,
        class: InstrClass,
        buf: &Buffer,
        idx: &Lanes<u32>,
        v: &Lanes<f32>,
        mask: &Lanes<bool>,
    ) {
        let (idx, v, mask) = (idx.as_slice(), v.as_slice(), mask.as_slice());
        let active = mask.iter().filter(|&&b| b).count();
        self.meter.charge(class, active as u64);
        if self.defer_atomics {
            // The commit log itself must stay heap-backed (it outlives the
            // sub-group), but sizing it exactly avoids regrowth.
            let mut updates: Vec<(u32, f32)> = Vec::with_capacity(active);
            for l in 0..self.size {
                if mask[l] {
                    updates.push((idx[l], v[l]));
                }
            }
            self.pending.borrow_mut().push(AtomicOp {
                kind,
                buf: buf.clone(),
                updates,
            });
            return;
        }
        for l in 0..self.size {
            if mask[l] {
                let (i, x) = (idx[l] as usize, v[l]);
                match kind {
                    AtomicKind::Add => buf.atomic_add_f32(i, x),
                    AtomicKind::Min => buf.atomic_min_f32(i, x),
                };
            }
        }
    }

    /// Masked atomic FP32 add per active lane (CAS-emulated on devices
    /// without native float atomics, e.g. the CPU backend).
    pub fn atomic_add(&self, buf: &Buffer, idx: &Lanes<u32>, v: &Lanes<f32>, mask: &Lanes<bool>) {
        let class = if self.config.native_float_add {
            InstrClass::AtomicNative
        } else {
            InstrClass::AtomicCas
        };
        self.atomic_rmw(AtomicKind::Add, class, buf, idx, v, mask);
    }

    /// Masked atomic FP32 min — native where the hardware supports
    /// floating-point min/max atomics, otherwise a CAS loop (§5.1).
    pub fn atomic_min(&self, buf: &Buffer, idx: &Lanes<u32>, v: &Lanes<f32>, mask: &Lanes<bool>) {
        let class = if self.config.native_float_minmax {
            InstrClass::AtomicNative
        } else {
            InstrClass::AtomicCas
        };
        self.atomic_rmw(AtomicKind::Min, class, buf, idx, v, mask);
    }

    // -- cross-lane communication --------------------------------------------

    /// `x[src(l)]` per lane: every shuffle's data path (callers charge
    /// by mechanism). Lanes and sources are below the sub-group size;
    /// masking them into the register drops every bounds check.
    fn gather<T: LaneScalar>(&self, x: &Lanes<T>, src: impl Fn(usize) -> usize) -> Lanes<'_, T> {
        const MASK: usize = MAX_SG_SIZE - 1;
        let vals = x.padded();
        Lanes::build(self.size, &self.meter, |l| {
            let s = src(l & MASK);
            debug_assert!(s < self.size, "gather source lane {s} out of range");
            vals[s & MASK]
        })
    }

    fn shuffle_class(&self) -> InstrClass {
        match self.config.shuffle_hw {
            ShuffleHw::IndirectRegister => InstrClass::ShuffleIndirect,
            ShuffleHw::DedicatedCrossLane => InstrClass::ShuffleDedicated,
        }
    }

    /// `sycl::select_from_group` with a lane-varying source index —
    /// `out[l] = x[src[l]]`. On Intel this compiles to indirect register
    /// access (1 cycle per element); on NVIDIA/AMD to one cross-lane op.
    pub fn select_from_group<T: LaneScalar>(&self, x: &Lanes<T>, src: &Lanes<u32>) -> Lanes<'_, T> {
        self.meter.charge(self.shuffle_class(), 1);
        let srcs = src.padded();
        let wrap = self.size - 1;
        self.gather(x, |l| (srcs[l] as usize) & wrap)
    }

    /// XOR-pattern shuffle `out[l] = x[l ^ mask]` — the half-warp exchange
    /// of Figure 4. Compiled through `select_from_group`, so it carries
    /// the same cost class.
    pub fn shuffle_xor<T: LaneScalar>(&self, x: &Lanes<T>, mask: usize) -> Lanes<'_, T> {
        assert!(mask < self.size, "xor mask out of range");
        self.meter.charge(self.shuffle_class(), 1);
        self.gather(x, |l| l ^ mask)
    }

    /// Broadcast from a compile-time-known lane. On Intel this is register
    /// regioning (Figure 6, nearly free); elsewhere one cross-lane op.
    pub fn broadcast<T: LaneScalar>(&self, x: &Lanes<T>, lane: usize) -> Lanes<'_, T> {
        assert!(lane < self.size, "broadcast lane out of range");
        let class = if self.config.regioned_broadcast {
            InstrClass::ShuffleRegioned
        } else {
            InstrClass::ShuffleDedicated
        };
        self.meter.charge(class, 1);
        self.gather(x, |_| lane)
    }

    /// Exchange through work-group local memory: write, barrier, read
    /// (§5.3.1). `src[l]` is the lane whose value lane `l` receives.
    /// Functionally identical to [`Sg::select_from_group`].
    pub fn local_exchange<T: LaneScalar>(&self, x: &Lanes<T>, src: &Lanes<u32>) -> Lanes<'_, T> {
        self.meter.charge(InstrClass::LocalStore, 1);
        self.meter.charge(InstrClass::Barrier, 1);
        self.meter.charge(InstrClass::LocalLoad, 1);
        self.meter.note_local_bytes((self.size * 4) as u32);
        let srcs = src.padded();
        let wrap = self.size - 1;
        self.gather(x, |l| (srcs[l] as usize) & wrap)
    }

    /// Exchange a composite object (given as its 32-bit fields) through a
    /// larger local-memory region in one store/barrier/load round trip
    /// (§5.4's *Memory, Object* variant): one barrier total instead of one
    /// per field.
    pub fn local_exchange_object(
        &self,
        fields: &[&Lanes<f32>],
        src: &Lanes<u32>,
    ) -> Vec<Lanes<'_, f32>> {
        let words = fields.len() as u64;
        self.meter.charge(InstrClass::LocalStore, words);
        self.meter.charge(InstrClass::Barrier, 1);
        self.meter.charge(InstrClass::LocalLoad, words);
        self.meter
            .note_local_bytes((self.size * 4 * fields.len()) as u32);
        let srcs = src.padded();
        let wrap = self.size - 1;
        fields
            .iter()
            .map(|f| self.gather(f, |l| (srcs[l] as usize) & wrap))
            .collect()
    }

    /// The specialized butterfly shuffle implemented in inline vISA
    /// (§5.3.3, Figures 7–8): after an upper/lower half exchange, a cyclic
    /// inward shift by `step`. Preserves the pairwise symmetry the
    /// half-warp algorithm requires, and costs only four `mov`
    /// instructions when the step is known at compile time.
    ///
    /// Panics when the toolchain/architecture does not provide vISA.
    pub fn visa_butterfly<T: LaneScalar>(&self, x: &Lanes<T>, step: usize) -> Lanes<'_, T> {
        assert!(
            self.config.visa_available,
            "inline vISA is only available with the SYCL(vISA) toolchain on Intel GPUs"
        );
        let h = self.size / 2;
        assert!(step < h, "butterfly step out of range");
        self.meter.charge(InstrClass::ShuffleVisa, 1);
        self.gather(x, |l| {
            if l < h {
                h + (l + step) % h
            } else {
                (l - h + h - step % h) % h
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::meter::InstrClass as C;
    use crate::real::Real;

    fn sg(arch: &GpuArch, size: usize) -> Sg {
        Sg::new(0, size, SgConfig::for_arch(arch, true, arch.supports_visa))
    }

    /// A sub-group whose pools hold only poisoned registers (NaN,
    /// `u32::MAX` and `true` in every lane), so a read past lane `n`
    /// shows up as a NaN, an out-of-bounds buffer index or a stray set
    /// lane.
    fn poisoned(size: usize) -> Sg {
        let s = sg(&GpuArch::aurora(), size);
        s.meter().pools.f32.poison(f32::NAN);
        s.meter().pools.u32.poison(u32::MAX);
        s.meter().pools.bool.poison(true);
        s
    }

    fn assert_lanes<T: LaneScalar + PartialEq>(x: &Lanes<T>, want: impl Fn(usize) -> T, op: &str) {
        let want: Vec<T> = (0..x.len()).map(want).collect();
        assert_eq!(x.as_slice(), want, "{op} at sub-group size {}", x.len());
    }

    /// At every sub-group size, every op class equals a scalar per-lane
    /// reference on registers whose padding lanes are poisoned, and no
    /// padding lane reaches a reader: inspection, ballots, reductions,
    /// `Debug`, gather sources, loads, stores and atomics. Runs with
    /// overflow checks in the test profile, so a padding-lane closure
    /// that could panic would fail here.
    #[test]
    fn every_op_matches_a_scalar_reference_past_poisoned_padding() {
        for n in [2, 4, 8, 16, 32, 64] {
            let h = n / 2;
            let s = poisoned(n);
            let av = |l: usize| l as f32 * 0.75 - 2.0;
            let bv = |l: usize| 1.0 + l as f32;
            let a = s.from_fn_f32(av);
            let b = s.from_fn_f32(bv);
            let c = s.splat_f32(0.5);
            let id = s.lane_id();
            assert_eq!(a.len(), n);
            // fill, map, zip, zip3
            assert_lanes(&a, av, "fill");
            assert_lanes(&id, |l| l as u32, "lane_id");
            assert_lanes(&a.neg(), |l| -av(l), "map");
            assert_lanes(
                &id.add_scalar(7).xor_scalar(3),
                |l| (l as u32 + 7) ^ 3,
                "u32 map",
            );
            assert_lanes(
                &id.min(&id.xor_scalar(1)).to_f32(),
                |l| l.min(l ^ 1) as f32,
                "u32 zip",
            );
            assert_lanes(&a.add(&b), |l| av(l) + bv(l), "zip");
            assert_lanes(&a.fma(&b, &c), |l| av(l) * bv(l) + 0.5, "zip3");
            let lower = id.lt_scalar(h as u32);
            assert_lanes(&lower, |l| l < h, "compare");
            assert_lanes(
                &a.select(&lower, &b),
                |l| if l < h { av(l) } else { bv(l) },
                "select",
            );
            // gathers
            let src = id.xor_scalar(1);
            assert_lanes(
                &s.select_from_group(&a, &src),
                |l| av(l ^ 1),
                "select_from_group",
            );
            assert_lanes(&s.local_exchange(&a, &src), |l| av(l ^ 1), "local_exchange");
            assert_lanes(&s.shuffle_xor(&a, h), |l| av(l ^ h), "shuffle_xor");
            assert_lanes(&s.broadcast(&a, n - 1), |_| av(n - 1), "broadcast");
            let object = s.local_exchange_object(&[&a, &b], &src);
            assert_lanes(&object[1], |l| bv(l ^ 1), "local_exchange_object");
            for step in 0..h {
                let partner = |l: usize| {
                    if l < h {
                        h + (l + step) % h
                    } else {
                        (l - h + h - step) % h
                    }
                };
                assert_lanes(
                    &s.visa_butterfly(&a, step),
                    |l| av(partner(l)),
                    "visa_butterfly",
                );
            }
            // readers of the poisoned padding of fills
            let ones = s.splat_f32(1.0);
            assert_eq!(format!("{ones:?}"), format!("Lanes({:?})", vec![1.0f32; n]));
            let none = id.lt_scalar(0);
            assert!(!none.all() && none.count() == 0, "ballot at {n}");
            let all = id.lt_scalar(n as u32);
            assert!(all.all() && all.count() == n as u64, "ballot at {n}");
            // memory: a padding index (u32::MAX) would be out of bounds
            let buf = Buffer::from_f32(&(0..n).map(bv).collect::<Vec<_>>());
            assert_lanes(&s.load_f32(&buf, &id), bv, "load");
            let out = Buffer::zeros(n);
            s.store_f32(&out, &id, &a, &all);
            assert_eq!(
                out.to_f32_vec(),
                (0..n).map(av).collect::<Vec<_>>(),
                "store at {n}"
            );
            s.atomic_add(&out, &id, &b, &all);
            s.atomic_min(&out, &id, &c, &all);
            s.atomic_add(&out, &id, &ones, &lower);
            let want: Vec<f32> = (0..n)
                .map(|l| {
                    let m = (av(l) + bv(l)).min(0.5);
                    if l < h {
                        m + 1.0
                    } else {
                        m
                    }
                })
                .collect();
            assert_eq!(out.to_f32_vec(), want, "atomics at {n}");
        }
    }

    /// Every architecture's sub-group sizes fit the register width.
    #[test]
    fn every_arch_sub_group_fits_a_register() {
        for arch in GpuArch::all_with_cpu() {
            for &size in arch.sg_sizes {
                assert!(size <= MAX_SG_SIZE, "{} sub-group {size}", arch.gpu_name);
                let _ = Sg::new(0, size, SgConfig::for_arch(&arch, true, false));
            }
        }
    }

    #[test]
    #[should_panic(expected = "sub-group size must be a power of two in 2..=64")]
    fn sub_groups_wider_than_a_register_are_rejected() {
        let _ = sg(&GpuArch::frontier(), 2 * MAX_SG_SIZE);
    }

    #[test]
    fn shuffle_xor_is_an_involution() {
        let s = sg(&GpuArch::polaris(), 32);
        let x = s.from_fn_f32(|l| l as f32 * 1.5);
        let y = s.shuffle_xor(&x, 5);
        let z = s.shuffle_xor(&y, 5);
        assert_eq!(x.as_slice(), z.as_slice());
    }

    #[test]
    fn select_from_group_gathers() {
        let s = sg(&GpuArch::frontier(), 32);
        let x = s.from_fn_f32(|l| l as f32);
        let idx = s.lane_id().xor_scalar(3);
        let y = s.select_from_group(&x, &idx);
        for l in 0..32 {
            assert_eq!(y.get(l), (l ^ 3) as f32);
        }
    }

    #[test]
    fn shuffle_classification_depends_on_arch() {
        let intel = sg(&GpuArch::aurora(), 32);
        let x = intel.from_fn_f32(|l| l as f32);
        let _ = intel.shuffle_xor(&x, 1);
        assert_eq!(intel.meter().snapshot().count(C::ShuffleIndirect), 1);
        assert_eq!(intel.meter().snapshot().count(C::ShuffleDedicated), 0);

        let nvidia = sg(&GpuArch::polaris(), 32);
        let x = nvidia.from_fn_f32(|l| l as f32);
        let _ = nvidia.shuffle_xor(&x, 1);
        assert_eq!(nvidia.meter().snapshot().count(C::ShuffleDedicated), 1);
        assert_eq!(nvidia.meter().snapshot().count(C::ShuffleIndirect), 0);
    }

    #[test]
    fn broadcast_uses_regioning_on_intel_only() {
        let intel = sg(&GpuArch::aurora(), 16);
        let x = intel.from_fn_f32(|l| l as f32);
        let b = intel.broadcast(&x, 7);
        assert!(b.as_slice().iter().all(|&v| v == 7.0));
        assert_eq!(intel.meter().snapshot().count(C::ShuffleRegioned), 1);

        let amd = sg(&GpuArch::frontier(), 64);
        let x = amd.from_fn_f32(|l| l as f32);
        let _ = amd.broadcast(&x, 3);
        assert_eq!(amd.meter().snapshot().count(C::ShuffleDedicated), 1);
    }

    #[test]
    fn local_exchange_matches_select_and_charges_slm() {
        let s = sg(&GpuArch::aurora(), 32);
        let x = s.from_fn_f32(|l| (l * l) as f32);
        let idx = s.lane_id().xor_scalar(9);
        let a = s.select_from_group(&x, &idx);
        let b = s.local_exchange(&x, &idx);
        assert_eq!(a.as_slice(), b.as_slice());
        let snap = s.meter().snapshot();
        assert_eq!(snap.count(C::LocalStore), 1);
        assert_eq!(snap.count(C::LocalLoad), 1);
        assert_eq!(snap.count(C::Barrier), 1);
        assert_eq!(snap.local_bytes_per_sg, 32 * 4);
    }

    #[test]
    fn object_exchange_uses_one_barrier_for_many_fields() {
        let s = sg(&GpuArch::aurora(), 16);
        let x = s.from_fn_f32(|l| l as f32);
        let y = s.from_fn_f32(|l| 100.0 + l as f32);
        let z = s.from_fn_f32(|l| -(l as f32));
        let idx = s.lane_id().xor_scalar(5);
        let out = s.local_exchange_object(&[&x, &y, &z], &idx);
        for l in 0..16 {
            assert_eq!(out[0].get(l), (l ^ 5) as f32);
            assert_eq!(out[1].get(l), 100.0 + (l ^ 5) as f32);
            assert_eq!(out[2].get(l), -((l ^ 5) as f32));
        }
        let snap = s.meter().snapshot();
        assert_eq!(snap.count(C::Barrier), 1);
        assert_eq!(snap.count(C::LocalStore), 3);
        assert_eq!(snap.local_bytes_per_sg, 16 * 4 * 3);
    }

    #[test]
    fn visa_butterfly_pairing_is_symmetric() {
        // If lower lane l reads upper lane u at step i, then upper lane u
        // must read lower lane l at the same step (paper Figure 7).
        let s = sg(&GpuArch::aurora(), 32);
        let h = 16usize;
        for step in 0..h {
            let x = s.from_fn_f32(|l| l as f32);
            let y = s.visa_butterfly(&x, step);
            for l in 0..h {
                let u = y.get(l) as usize; // upper partner of lower lane l
                assert!(u >= h, "lower lane must read from upper half");
                assert_eq!(
                    y.get(u) as usize,
                    l,
                    "pairwise symmetry violated at step {step}, lane {l}"
                );
            }
        }
    }

    #[test]
    fn visa_butterfly_covers_all_partners() {
        // Over all h steps, each lower lane must meet each upper lane once.
        let s = sg(&GpuArch::aurora(), 32);
        let h = 16usize;
        let mut met = vec![std::collections::HashSet::new(); h];
        for step in 0..h {
            let x = s.from_fn_f32(|l| l as f32);
            let y = s.visa_butterfly(&x, step);
            for (l, met_l) in met.iter_mut().enumerate() {
                met_l.insert(y.get(l) as usize);
            }
        }
        for (l, m) in met.iter().enumerate() {
            assert_eq!(m.len(), h, "lane {l} met {} partners, want {h}", m.len());
        }
    }

    #[test]
    fn xor_pattern_covers_all_partners() {
        // The same completeness property for the XOR-based pattern with
        // masks h|i (Figure 4).
        let s = sg(&GpuArch::polaris(), 32);
        let h = 16usize;
        let mut met = vec![std::collections::HashSet::new(); h];
        for i in 0..h {
            let x = s.from_fn_f32(|l| l as f32);
            let y = s.shuffle_xor(&x, h | i);
            for (l, met_l) in met.iter_mut().enumerate() {
                let partner = y.get(l) as usize;
                assert!(partner >= h);
                // Symmetry: partner's value is l.
                assert_eq!(y.get(partner) as usize, l);
                met_l.insert(partner);
            }
        }
        for m in &met {
            assert_eq!(m.len(), h);
        }
    }

    #[test]
    #[should_panic(expected = "inline vISA")]
    fn visa_panics_off_intel() {
        let s = sg(&GpuArch::polaris(), 32);
        let x = s.from_fn_f32(|l| l as f32);
        let _ = s.visa_butterfly(&x, 1);
    }

    #[test]
    fn atomic_min_classification() {
        let nvidia = sg(&GpuArch::polaris(), 32);
        let buf = Buffer::from_f32(&[100.0]);
        let idx = nvidia.splat_u32(0);
        let v = nvidia.from_fn_f32(|l| l as f32);
        let mask = nvidia.lane_id().lt_scalar(nvidia.size as u32);
        nvidia.atomic_min(&buf, &idx, &v, &mask);
        assert_eq!(nvidia.meter().snapshot().count(C::AtomicCas), 32);
        assert_eq!(buf.read_f32(0), 0.0);

        let intel = sg(&GpuArch::aurora(), 32);
        let buf = Buffer::from_f32(&[100.0]);
        let idx = intel.splat_u32(0);
        let v = intel.from_fn_f32(|l| 50.0 - l as f32);
        let mask = intel.lane_id().lt_scalar(intel.size as u32);
        intel.atomic_min(&buf, &idx, &v, &mask);
        assert_eq!(intel.meter().snapshot().count(C::AtomicNative), 32);
        assert_eq!(buf.read_f32(0), 19.0);
    }

    #[test]
    fn masked_atomics_only_touch_active_lanes() {
        let s = sg(&GpuArch::frontier(), 32);
        let buf = Buffer::zeros(1);
        let idx = s.splat_u32(0);
        let v = s.splat_f32(1.0);
        let mask = s.lane_id().lt_scalar(10);
        s.atomic_add(&buf, &idx, &v, &mask);
        assert_eq!(buf.read_f32(0), 10.0);
        assert_eq!(s.meter().snapshot().count(C::AtomicNative), 10);
    }

    #[test]
    fn register_pressure_emerges_from_live_temporaries() {
        let s = sg(&GpuArch::aurora(), 32);
        let base = s.meter().live_regs();
        {
            let a = s.from_fn_f32(|l| l as f32);
            let b = a.mul_c(2.0);
            let c = a.add(&b);
            let _d = c.sub(&a);
            assert_eq!(s.meter().live_regs(), base + 4);
        }
        assert_eq!(s.meter().live_regs(), base);
        assert!(s.meter().snapshot().peak_regs >= base + 4);
    }
}
