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
    pub fn read_u32(&self, i: usize) -> u32 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// Relaxed FP32 store.
    #[inline]
    pub fn write_f32(&self, i: usize, v: f32) {
        self.data[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Relaxed u32 store.
    #[inline]
    pub fn write_u32(&self, i: usize, v: u32) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Atomic FP32 add (CAS loop, like hardware float atomics that return
    /// the old value). Returns the previous value.
    #[inline]
    pub fn atomic_add_f32(&self, i: usize, v: f32) -> f32 {
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
    pub fn atomic_min_f32(&self, i: usize, v: f32) -> f32 {
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
}
