//! Property-based and stress tests for the global-memory buffer —
//! separated from `buffer.rs` to keep the implementation file focused.

#![cfg(test)]

use crate::buffer::Buffer;
use proptest::prelude::*;

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

/// Heavier cross-thread stress than the unit test in `buffer.rs`:
/// concurrent min/add on disjoint and shared slots.
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
