//! Roofline placement for recorded kernel launches.
//!
//! Places each kernel × architecture pair on the classic roofline:
//! arithmetic intensity (modeled FLOPs per byte of global traffic) on
//! the x-axis, achieved GFLOP/s on the y-axis, against the machine's
//! memory-bandwidth slope and peak-compute ceiling. The inputs are
//! plain numbers so this crate stays a leaf: the bench layer supplies
//! the architecture's peak FLOP rate and memory bandwidth (from
//! `sycl_sim::arch`), and the FLOP/byte counts come from the recorded
//! [`KernelProfile`]s.
//!
//! The FLOP model matches the simulator's cost model: each lane-op in
//! a FLOP-bearing instruction class (`alu`, `div`, `math.fast`,
//! `math.precise`) is worth 2 FLOPs (FMA issue), and a sub-group
//! instruction covers `sg_size` lanes.

use serde::{Deserialize, Serialize};

use crate::KernelProfile;

/// Instruction classes counted as FLOP-bearing, by histogram slot.
/// Pinned against [`crate::INSTR_CLASS_LABELS`] by a test below.
const FLOP_CLASSES: [usize; 4] = [0, 1, 2, 3];

/// FLOPs per lane-op: the cost model's 2-FLOP-per-lane-cycle FMA rate.
const FLOPS_PER_LANE_OP: f64 = 2.0;

/// Modeled FLOPs of one recorded launch: FLOP-class lane-ops × 2.
fn profile_flops(profile: &KernelProfile) -> f64 {
    let lane_ops: u64 = FLOP_CLASSES
        .iter()
        .map(|&c| profile.instr[c] * profile.sg_size)
        .sum();
    lane_ops as f64 * FLOPS_PER_LANE_OP
}

/// One kernel's placement on one architecture's roofline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Kernel name.
    pub kernel: String,
    /// Architecture id (`pvc`, `a100`, `mi250x`, …).
    pub arch: String,
    /// Launches aggregated into this point.
    pub launches: u64,
    /// Total modeled FLOPs across the launches.
    pub flops: f64,
    /// Total modeled global-memory bytes across the launches.
    pub bytes: f64,
    /// Total modeled seconds across the launches.
    pub seconds: f64,
    /// Arithmetic intensity in FLOPs/byte.
    pub ai: f64,
    /// Achieved GFLOP/s (modeled FLOPs over modeled seconds).
    pub achieved_gflops: f64,
    /// Roofline ceiling at this AI: `min(peak, ai × bandwidth)`.
    pub attainable_gflops: f64,
    /// The machine's peak-compute ceiling in GFLOP/s.
    pub peak_gflops: f64,
    /// The machine's memory bandwidth in GB/s.
    pub mem_gbps: f64,
    /// Ridge-point AI where the two roofs meet.
    pub ridge_ai: f64,
    /// Which roof binds at this AI: `"memory"` or `"compute"`.
    pub bound: String,
    /// Achieved over attainable, in `[0, 1]` for a consistent model.
    pub efficiency: f64,
}

/// Places one kernel on one architecture's roofline from aggregate
/// launch totals. `peak_gflops` and `mem_gbps` describe the machine.
pub fn place(
    kernel: &str,
    arch: &str,
    launches: u64,
    flops: f64,
    bytes: f64,
    seconds: f64,
    peak_gflops: f64,
    mem_gbps: f64,
) -> RooflinePoint {
    let ai = if bytes > 0.0 { flops / bytes } else { 0.0 };
    let achieved = if seconds > 0.0 {
        flops / seconds / 1e9
    } else {
        0.0
    };
    let mem_roof = ai * mem_gbps; // GB/s × FLOP/byte = GFLOP/s
    let attainable = mem_roof.min(peak_gflops);
    let ridge = if mem_gbps > 0.0 {
        peak_gflops / mem_gbps
    } else {
        0.0
    };
    RooflinePoint {
        kernel: kernel.to_string(),
        arch: arch.to_string(),
        launches,
        flops,
        bytes,
        seconds,
        ai,
        achieved_gflops: achieved,
        attainable_gflops: attainable,
        peak_gflops,
        mem_gbps,
        ridge_ai: ridge,
        bound: if mem_roof < peak_gflops {
            "memory".to_string()
        } else {
            "compute".to_string()
        },
        efficiency: if attainable > 0.0 {
            achieved / attainable
        } else {
            0.0
        },
    }
}

/// Aggregates every recorded launch of every kernel into one roofline
/// point per kernel, on a machine with the given roofs. Points come
/// back kernel-name-sorted.
pub fn place_profiles(
    profiles: &[KernelProfile],
    arch: &str,
    peak_gflops: f64,
    mem_gbps: f64,
) -> Vec<RooflinePoint> {
    let mut agg: std::collections::BTreeMap<String, (u64, f64, f64, f64)> =
        std::collections::BTreeMap::new();
    for p in profiles {
        let e = agg.entry(p.kernel.clone()).or_insert((0, 0.0, 0.0, 0.0));
        e.0 += 1;
        e.1 += profile_flops(p);
        e.2 += p.bytes_moved as f64;
        e.3 += p.est_seconds;
    }
    agg.into_iter()
        .map(|(kernel, (launches, flops, bytes, seconds))| {
            place(
                &kernel,
                arch,
                launches,
                flops,
                bytes,
                seconds,
                peak_gflops,
                mem_gbps,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_classes_pin_the_label_order() {
        let expected = ["alu", "div", "math.fast", "math.precise"];
        for (&slot, want) in FLOP_CLASSES.iter().zip(expected) {
            assert_eq!(crate::INSTR_CLASS_LABELS[slot], want);
        }
    }

    #[test]
    fn memory_bound_below_the_ridge() {
        // AI 0.5 on a machine with ridge at 10 FLOP/byte.
        let p = place("k", "pvc", 1, 0.5e9, 1e9, 1.0, 10_000.0, 1000.0);
        assert_eq!(p.bound, "memory");
        assert!((p.ai - 0.5).abs() < 1e-12);
        assert!((p.attainable_gflops - 500.0).abs() < 1e-9);
        assert!((p.ridge_ai - 10.0).abs() < 1e-12);
        assert!((p.achieved_gflops - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compute_bound_above_the_ridge() {
        let p = place("k", "a100", 1, 100e9, 1e9, 1.0, 10_000.0, 1000.0);
        assert_eq!(p.bound, "compute");
        assert!((p.attainable_gflops - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn profile_aggregation_sums_launches() {
        let a = crate::sample_profile("kA", "upGeo", 1);
        let b = crate::sample_profile("kA", "upGeo", 2);
        let c = crate::sample_profile("kB", "upGrav", 3);
        let pts = place_profiles(&[a.clone(), b.clone(), c.clone()], "pvc", 45_900.0, 1638.0);
        assert_eq!(pts.len(), 2);
        let ka = &pts[0];
        assert_eq!(ka.kernel, "kA");
        assert_eq!(ka.launches, 2);
        let want_flops = profile_flops(&a) + profile_flops(&b);
        assert!((ka.flops - want_flops).abs() < 1e-6);
        assert!(
            (ka.bytes - (a.bytes_moved + b.bytes_moved) as f64).abs() < 1e-6,
            "bytes aggregate"
        );
        assert!(ka.ai > 0.0 && ka.efficiency >= 0.0);
    }

    #[test]
    fn zero_traffic_and_zero_time_are_safe() {
        let p = place("k", "cpu", 0, 0.0, 0.0, 0.0, 16_000.0, 800.0);
        assert_eq!(p.ai, 0.0);
        assert_eq!(p.achieved_gflops, 0.0);
        assert_eq!(p.efficiency, 0.0);
        assert_eq!(p.bound, "memory");
    }
}
