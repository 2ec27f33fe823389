#![warn(missing_docs)]
//! # sycl-sim
//!
//! A deterministic SIMT device simulator standing in for SYCL/CUDA/HIP on
//! real GPUs — the central substitution of this reproduction (no Rust SYCL
//! binding or multi-vendor GPU hardware is available; see DESIGN.md §2).
//!
//! Kernels are written once against a portable sub-group API ([`Sg`] +
//! [`Lanes`]) and executed *functionally*, lane by lane, so their numerical
//! results are real and testable. During execution every instruction is
//! metered by class ([`meter::InstrClass`]), register pressure is tracked
//! from live temporaries, and per-architecture cost models
//! ([`cost::CostModel`]) convert the meters into time — reproducing the
//! mechanisms behind the paper's results:
//!
//! * indirect-register-access shuffles on Intel Xe (Figure 5),
//! * register-regioned broadcasts (Figure 6),
//! * the 4-`mov` vISA butterfly (Figures 7–8),
//! * local-memory exchange and the NVIDIA SLM/L1 trade,
//! * CAS-emulated float atomic min/max on NVIDIA (§5.1),
//! * the GRF-size and sub-group-size register levers (§5.2),
//! * fast-math compiler defaults (§4.4).

pub mod arch;
pub mod buffer;
#[cfg(test)]
mod buffer_tests;
mod commit;
pub mod cost;
pub mod device;
pub mod exec;
pub mod fault;
pub mod lanes;
pub mod meter;
mod simd;
pub mod subgroup;
pub mod taskgraph;
pub mod toolchain;
pub mod tunable;

pub use arch::{GpuArch, GrfMode, ShuffleHw};
pub use buffer::Buffer;
pub use cost::{issue_cycles, CostModel, TimeEstimate};
pub use device::{Device, LaunchConfig, LaunchReport, SgKernel};
pub use exec::ExecutionPolicy;
pub use fault::{FaultConfig, FaultInjector, FaultKind, FaultRecord, LaunchError, RankLoss};
pub use lanes::{LaneScalar, Lanes};
pub use meter::{InstrClass, LaunchStats, MeterPolicy, SgMeter, ALL_CLASSES, N_CLASSES};
pub use subgroup::{Sg, SgConfig};
pub use taskgraph::{GraphError, ResourceId, RunError, RunStats, TaskGraph, TaskId};
pub use toolchain::{Lang, Toolchain};
pub use tunable::{LaunchBounds, TunablePoint};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn test_sg(size: usize) -> Sg {
        Sg::new(0, size, SgConfig::for_arch(&GpuArch::aurora(), true, true))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// All exchange mechanisms are functionally identical permutations.
        #[test]
        fn exchange_mechanisms_agree(seed in 0u64..1000, mask in 1usize..32) {
            let sg = test_sg(32);
            let x = sg.from_fn_f32(|l| ((l as u64 * 2654435761 + seed) % 1000) as f32);
            let idx = sg.lane_id().xor_scalar(mask as u32);
            let a = sg.select_from_group(&x, &idx);
            let b = sg.local_exchange(&x, &idx);
            let c = sg.shuffle_xor(&x, mask);
            prop_assert_eq!(a.as_slice(), b.as_slice());
            prop_assert_eq!(a.as_slice(), c.as_slice());
        }

        /// Every shuffle is a permutation: multiset of values is preserved
        /// when the index map is a bijection.
        #[test]
        fn xor_shuffle_is_permutation(mask in 0usize..32) {
            let sg = test_sg(32);
            let x = sg.from_fn_f32(|l| l as f32);
            let y = sg.shuffle_xor(&x, mask);
            let mut vals: Vec<f32> = y.as_slice().to_vec();
            vals.sort_by(f32::total_cmp);
            let want: Vec<f32> = (0..32).map(|l| l as f32).collect();
            prop_assert_eq!(vals, want);
        }

        /// The vISA butterfly is a permutation preserving pairwise symmetry
        /// for every step and both Intel sub-group sizes.
        #[test]
        fn butterfly_symmetry(size_pow in 4u32..6, step in 0usize..16) {
            let size = 1usize << size_pow; // 16 or 32
            let h = size / 2;
            let step = step % h;
            let sg = test_sg(size);
            let x = sg.from_fn_f32(|l| l as f32);
            let y = sg.visa_butterfly(&x, step);
            for l in 0..h {
                let u = y.get(l) as usize;
                prop_assert!(u >= h && u < size);
                prop_assert_eq!(y.get(u) as usize, l);
            }
        }

        /// Register tracking balances: after any expression tree is dropped,
        /// live registers return to the baseline.
        #[test]
        fn register_balance(n_ops in 1usize..30) {
            let sg = test_sg(32);
            let base = {
                let _x = sg.splat_f32(0.0);
                // One live register while _x is alive.
                0u32
            };
            let _ = base;
            {
                let mut acc = sg.splat_f32(1.0);
                for i in 0..n_ops {
                    let t = sg.splat_f32(i as f32);
                    acc = &acc + &t;
                }
            }
            // Everything dropped.
            prop_assert_eq!(sg.meter().live_regs(), 0);
        }

        /// Cost estimates are positive, finite, and monotone in work.
        #[test]
        fn cost_monotone_in_work(n1 in 1usize..20, extra in 1usize..20) {
            let dev = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
            let kernel = |sg: &mut Sg| {
                let x = sg.splat_f32(2.0);
                let _ = x.rsqrt();
            };
            let cfg = LaunchConfig::defaults_for(&dev.arch).deterministic();
            let model = CostModel::new(GpuArch::frontier());
            let t1 = model.estimate(&dev.launch(&kernel, n1, cfg).unwrap());
            let t2 = model.estimate(&dev.launch(&kernel, n1 + extra, cfg).unwrap());
            prop_assert!(t1.seconds.is_finite() && t1.seconds > 0.0);
            prop_assert!(t2.seconds > t1.seconds);
        }
    }
}
