//! Global-memory buffers.
//!
//! Device buffers hold 32-bit words (FP32 or u32, like the GPU register
//! file) behind atomics, so concurrently executing sub-groups can update
//! them safely. Atomic read-modify-write operations match the device
//! semantics the kernels rely on (`atomic_ref` in SYCL, `atomicAdd` &c in
//! CUDA); plain loads/stores are relaxed.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A shared device buffer of 32-bit words.
#[derive(Clone)]
pub struct Buffer {
    data: Arc<Vec<AtomicU32>>,
}

impl Buffer {
    /// A zero-filled buffer of `n` words.
    pub fn zeros(n: usize) -> Self {
        Self {
            data: Arc::new((0..n).map(|_| AtomicU32::new(0)).collect()),
        }
    }

    /// A buffer initialized from FP32 data.
    pub fn from_f32(src: &[f32]) -> Self {
        Self {
            data: Arc::new(src.iter().map(|v| AtomicU32::new(v.to_bits())).collect()),
        }
    }

    /// Number of 32-bit words.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed FP32 load.
    #[inline]
    pub fn read_f32(&self, i: usize) -> f32 {
        f32::from_bits(self.data[i].load(Ordering::Relaxed))
    }

    /// Relaxed u32 load.
    #[inline]
    pub(crate) fn read_u32(&self, i: usize) -> u32 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Relaxed FP32 store.
    #[inline]
    pub fn write_f32(&self, i: usize, v: f32) {
        self.data[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Relaxed u32 store.
    #[inline]
    pub(crate) fn write_u32(&self, i: usize, v: u32) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Atomic FP32 add (CAS loop, like hardware float atomics that return
    /// the old value). Returns the previous value.
    #[inline]
    pub(crate) fn atomic_add_f32(&self, i: usize, v: f32) -> f32 {
        let cell = &self.data[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = f32::from_bits(cur);
            let new = (old + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return old,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Unsynchronized FP32 read-modify-write for the deterministic
    /// commit replay: during replay each cell is owned by exactly one
    /// shard, so a relaxed load + store produces the same bits as the
    /// serial CAS sequence without the locked-instruction cost.
    #[inline]
    pub(crate) fn replay_rmw_f32(&self, i: usize, f: impl FnOnce(f32) -> f32) {
        let cell = &self.data[i];
        let old = f32::from_bits(cell.load(Ordering::Relaxed));
        cell.store(f(old).to_bits(), Ordering::Relaxed);
    }

    /// Atomic FP32 min.
    #[inline]
    pub(crate) fn atomic_min_f32(&self, i: usize, v: f32) -> f32 {
        self.atomic_rmw_f32(i, |old| old.min(v))
    }

    #[inline]
    fn atomic_rmw_f32(&self, i: usize, f: impl Fn(f32) -> f32) -> f32 {
        let cell = &self.data[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = f32::from_bits(cur);
            let new = f(old).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return old,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Stable identity of the underlying storage: two `Buffer` handles
    /// cloned from the same allocation share an id. The deterministic
    /// commit planner keys its cache-line buckets by this.
    pub(crate) fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.data) as *const () as usize
    }

    /// Copies the buffer out as FP32.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        (0..self.len()).map(|i| self.read_f32(i)).collect()
    }

    /// Copies the buffer out as u32.
    pub fn to_u32_vec(&self) -> Vec<u32> {
        (0..self.len()).map(|i| self.read_u32(i)).collect()
    }

    /// Fills with an FP32 value.
    pub fn fill_f32(&self, v: f32) {
        for cell in self.data.iter() {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buffer[{} words]", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn f32_round_trip() {
        let b = Buffer::from_f32(&[1.5, -2.25, 0.0]);
        assert_eq!(b.read_f32(0), 1.5);
        assert_eq!(b.read_f32(1), -2.25);
        b.write_f32(2, 7.0);
        assert_eq!(b.to_f32_vec(), vec![1.5, -2.25, 7.0]);
    }

    #[test]
    fn atomic_add_returns_old_and_accumulates() {
        let b = Buffer::from_f32(&[10.0]);
        assert_eq!(b.atomic_add_f32(0, 2.5), 10.0);
        assert_eq!(b.atomic_add_f32(0, 1.0), 12.5);
        assert_eq!(b.read_f32(0), 13.5);
    }

    #[test]
    fn atomic_min_keeps_the_least() {
        let b = Buffer::from_f32(&[5.0]);
        assert_eq!(b.atomic_min_f32(0, 3.0), 5.0);
        assert_eq!(b.atomic_min_f32(0, 4.0), 3.0);
        assert_eq!(b.read_f32(0), 3.0);
    }

    #[test]
    fn concurrent_atomic_adds_do_not_lose_updates() {
        let b = Buffer::zeros(1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        b.atomic_add_f32(0, 1.0);
                    }
                });
            }
        });
        assert_eq!(b.read_f32(0), 8000.0);
    }

    #[test]
    fn clones_share_storage() {
        let a = Buffer::zeros(4);
        let b = a.clone();
        a.write_u32(2, 99);
        assert_eq!(b.read_u32(2), 99);
    }

    proptest! {
        /// Atomic add accumulates exactly like a sequential sum, regardless
        /// of operand order.
        #[test]
        fn atomic_add_matches_sum(vals in prop::collection::vec(-100.0f32..100.0, 1..50)) {
            let b = Buffer::zeros(1);
            let mut expect = 0.0f32;
            for &v in &vals {
                b.atomic_add_f32(0, v);
                expect += v;
            }
            prop_assert!((b.read_f32(0) - expect).abs() <= 1e-3 * expect.abs().max(1.0));
        }

        /// Atomic min converges to the true minimum.
        #[test]
        fn atomic_min_extremum(vals in prop::collection::vec(-1e6f32..1e6, 1..60)) {
            let b = Buffer::from_f32(&[f32::MAX]);
            for &v in &vals {
                b.atomic_min_f32(0, v);
            }
            let min = vals.iter().cloned().fold(f32::MAX, f32::min);
            prop_assert_eq!(b.read_f32(0), min);
        }

        /// f32 bit patterns survive the u32 storage round trip exactly,
        /// including negative zero and subnormals.
        #[test]
        fn bit_exact_round_trip(v in any::<f32>().prop_filter("NaN compares oddly", |v| !v.is_nan())) {
            let b = Buffer::zeros(1);
            b.write_f32(0, v);
            prop_assert_eq!(b.read_f32(0).to_bits(), v.to_bits());
        }
    }

    /// The same mixed-atomics stress driven through the real work-group
    /// scheduler (`Device::launch` at 8 threads) instead of raw
    /// `std::thread::scope`: hammers shared and disjoint slots from many
    /// concurrently executing work-groups, then checks both the converged
    /// values and bit-identity against the serial reference path.
    #[test]
    fn scheduler_driven_atomic_stress() {
        use crate::device::{Device, LaunchConfig};
        use crate::exec::ExecutionPolicy;
        use crate::subgroup::Sg;
        use crate::toolchain::Toolchain;

        let dev = Device::new(crate::arch::GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let run = |exec: ExecutionPolicy| -> Vec<u32> {
            let b = Buffer::from_f32(&[0.0, f32::MAX, 0.0]);
            let b2 = b.clone();
            let kernel = move |sg: &mut Sg| {
                let shared = sg.splat_u32(0);
                let half = sg.splat_f32(0.5);
                let all = sg.lane_id().lt_scalar(sg.size as u32);
                // Values collide on slot 0 and race min on slot 1; slot 2
                // takes magnitude-spread adds whose FP32 result is
                // order-sensitive, pinning the commit order.
                let rank = sg.from_fn_f32(|l| (sg.sg_id * 64 + l) as f32);
                let spread = sg.from_fn_f32(|l| {
                    let m = ((sg.sg_id * 13 + l * 5) % 19) as i32 - 9;
                    (2.0f32).powi(m)
                });
                sg.atomic_add(&b2, &shared, &half, &all);
                sg.atomic_min(&b2, &sg.splat_u32(1), &rank, &all);
                sg.atomic_add(&b2, &sg.splat_u32(2), &spread, &all);
            };
            let cfg = LaunchConfig::defaults_for(&dev.arch)
                .with_sg_size(64)
                .with_exec(exec);
            let n_sg = 250;
            dev.launch(&kernel, n_sg, cfg).unwrap();
            assert_eq!(b.read_f32(0), n_sg as f32 * 64.0 * 0.5);
            assert_eq!(b.read_f32(1), 0.0);
            b.to_u32_vec()
        };
        let serial = run(ExecutionPolicy::Serial);
        let parallel = run(ExecutionPolicy::Parallel { threads: 8 });
        assert_eq!(
            serial, parallel,
            "scheduler must be bit-identical to serial"
        );
    }

    /// Heavier cross-thread stress than
    /// `concurrent_atomic_adds_do_not_lose_updates`: concurrent min/add on
    /// disjoint and shared slots.
    #[test]
    fn concurrent_mixed_atomics() {
        let b = Buffer::from_f32(&[0.0, f32::MAX]);
        std::thread::scope(|s| {
            for t in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for i in 0..2000 {
                        b.atomic_add_f32(0, 0.5);
                        b.atomic_min_f32(1, (t * 2000 + i) as f32);
                    }
                });
            }
        });
        assert_eq!(b.read_f32(0), 8000.0);
        assert_eq!(b.read_f32(1), 0.0);
    }
}
