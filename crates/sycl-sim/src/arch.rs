//! GPU architecture descriptors.
//!
//! One descriptor per test system of the paper (Table 1): Aurora's Intel
//! Data Center GPU Max 1550 ("PVC"), Polaris' NVIDIA A100, and Frontier's
//! AMD Instinct MI250X (one GCD). The fields drive both the Table 1
//! reproduction and the cost model in [`crate::cost`]; values come from
//! public specifications and the micro-architectural observations in the
//! paper (§5.2–5.3).

use serde::{Deserialize, Serialize};

/// How the hardware implements an *arbitrary-pattern* sub-group shuffle
/// (`sycl::select_from_group` with indices unknown at compile time).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ShuffleHw {
    /// Indirect register access: the gather walks the register file one
    /// element per cycle (Intel Xe; paper Figure 5).
    IndirectRegister,
    /// A dedicated cross-lane instruction moves all lanes at once
    /// (NVIDIA `SHFL`, AMD `ds_bpermute`).
    DedicatedCrossLane,
}

/// Register-file configuration selected at compile time (Intel GPUs offer
/// a large-GRF mode that doubles registers and halves threads per EU;
/// paper §5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum GrfMode {
    /// Default register file (128 GRF on PVC; native sizing elsewhere).
    #[default]
    Default,
    /// Large register file (256 GRF on PVC). On architectures without the
    /// option this is identical to [`GrfMode::Default`].
    Large,
}

/// A GPU architecture model.
#[derive(Clone, Debug, Serialize)]
pub struct GpuArch {
    /// Short identifier (`"pvc"`, `"a100"`, `"mi250x"`).
    pub id: &'static str,
    /// Marketing name, as in Table 1.
    pub gpu_name: &'static str,
    /// The system hosting it in the paper.
    pub system: &'static str,
    /// Host CPU description (Table 1).
    pub cpu: &'static str,
    /// CPU sockets per node (Table 1).
    pub sockets: u32,
    /// GPUs per node (Table 1).
    pub gpus_per_node: u32,
    /// FP32 peak per GPU in TFLOPS (Table 1).
    pub fp32_peak_tflops: f64,
    /// Device (HBM) memory bandwidth in GB/s, per schedulable device
    /// (one PVC stack, one MI250X GCD, one A100, one CPU node). Sets
    /// the memory roof in roofline placements.
    pub mem_gbps: f64,
    /// Number of independently schedulable devices the paper's test uses
    /// per GPU (2 GCDs on MI250X, 2 stacks on PVC, 1 on A100).
    pub devices_per_gpu: u32,
    /// Sub-group sizes the architecture supports (§4.3).
    pub sg_sizes: &'static [usize],
    /// Hardware shuffle implementation for unknown patterns.
    pub(crate) shuffle: ShuffleHw,
    /// Broadcasts from compile-time-known lanes use register regioning
    /// (nearly free) instead of a shuffle (Intel; paper Figure 6).
    pub regioned_broadcast: bool,
    /// Inline-vISA butterfly shuffle available (Intel only; §5.3.3).
    pub supports_visa: bool,
    /// Native floating-point atomic min/max (absent on NVIDIA, where the
    /// operation is emulated with a compare-and-swap loop; §5.1).
    pub native_float_minmax: bool,
    /// Native floating-point atomic add (absent on CPUs, where every
    /// float atomic becomes a compare-exchange loop — the reason the
    /// paper expects CPU runs to need atomics tuning, §7.3).
    pub native_float_add: bool,
    /// Work-group local memory and the L1 cache share capacity, so heavy
    /// local-memory use degrades cache hit rates (NVIDIA; §5.4).
    pub local_l1_tradeoff: bool,
    /// Register-file capacity per compute unit, in 32-bit words.
    pub regfile_words_per_cu: u32,
    /// Maximum resident work-items per compute unit at full occupancy.
    pub max_workitems_per_cu: u32,
    /// Maximum hardware threads (sub-groups) per compute unit; at small
    /// sub-group sizes the resident work-items are thread-limited
    /// (`threads × sg_size`), which is the occupancy price of SIMD16 on
    /// Intel (§5.2).
    pub max_threads_per_cu: u32,
    /// Hard per-work-item register ceiling, in 32-bit words, beyond which
    /// the compiler must spill (`GrfMode::Default`).
    pub max_regs_per_workitem: u32,
    /// Whether [`GrfMode::Large`] is available (doubles the per-work-item
    /// ceiling, halves `max_workitems_per_cu`).
    pub has_large_grf: bool,
    /// Relative cost multiplier applied to spilled register traffic.
    pub spill_penalty: f64,
    /// Occupancy (fraction of `max_workitems_per_cu`) needed to fully hide
    /// latency; below this the cost model scales time up.
    pub occupancy_knee: f64,
    /// Host↔device link bandwidth in GB/s (PCIe or fabric), for the data
    /// movement the driver performs around each kernel sequence.
    pub host_link_gbps: f64,
    /// Name of the node-internal device↔device link the §3.4.2 eight-rank
    /// configuration communicates over (Xe Link, NVLink, Infinity Fabric).
    pub node_link_name: &'static str,
    /// Node-internal device↔device bandwidth per direction in GB/s.
    pub node_link_gbps: f64,
    /// Node-internal device↔device message latency in microseconds.
    pub node_link_latency_us: f64,
    /// Inter-node fabric (NIC) name.
    pub fabric_name: &'static str,
    /// Inter-node fabric bandwidth per NIC per direction in GB/s.
    pub fabric_gbps: f64,
    /// Inter-node fabric message latency in microseconds.
    pub fabric_latency_us: f64,
}

impl GpuArch {
    /// Aurora: Intel Data Center GPU Max 1550 (one stack).
    ///
    /// 128 Xe cores/stack; each EU thread has 128×64 B GRF by default.
    /// A sub-group occupies one thread, so the per-work-item register
    /// budget is `128 reg × 64 B / sg_size / 4 B` words (doubled in
    /// large-GRF mode, which halves threads per EU from 8 to 4; §5.2).
    pub fn aurora() -> Self {
        Self {
            id: "pvc",
            gpu_name: "Intel Data Center GPU Max 1550",
            system: "Aurora",
            cpu: "Intel Xeon CPU Max 9470C, 52 cores",
            sockets: 2,
            gpus_per_node: 6,
            fp32_peak_tflops: 45.9,
            // HBM2e: 3.28 TB/s per Max 1550, half per stack.
            mem_gbps: 1638.4,
            devices_per_gpu: 2,
            sg_sizes: &[16, 32],
            shuffle: ShuffleHw::IndirectRegister,
            regioned_broadcast: true,
            supports_visa: true,
            native_float_minmax: true,
            native_float_add: true,
            local_l1_tradeoff: false,
            // 8 threads/EU × 128 GRF × 16 words = 16384 words per EU.
            regfile_words_per_cu: 16384,
            // 8 threads × 32 work-items.
            max_workitems_per_cu: 256,
            max_threads_per_cu: 8,
            // 128 GRF × 16 words / 32 lanes = 64 words per work-item (sg32).
            max_regs_per_workitem: 64,
            has_large_grf: true,
            spill_penalty: 6.0,
            // Xe needs a moderate thread count per EU to hide latency.
            occupancy_knee: 0.4,
            // PCIe gen5 x16 host link per stack.
            host_link_gbps: 48.0,
            // Stack-to-stack / GPU-to-GPU Xe Link bridges.
            node_link_name: "Xe Link",
            node_link_gbps: 26.5,
            node_link_latency_us: 1.9,
            fabric_name: "Slingshot 11",
            fabric_gbps: 25.0,
            fabric_latency_us: 2.0,
        }
    }

    /// Polaris: NVIDIA A100-SXM4-40GB.
    pub fn polaris() -> Self {
        Self {
            id: "a100",
            gpu_name: "NVIDIA A100-SXM4-40GB",
            system: "Polaris",
            cpu: "AMD EPYC 7543P, 32 cores",
            sockets: 1,
            gpus_per_node: 4,
            fp32_peak_tflops: 19.5,
            // HBM2e, 40 GB SXM4 part.
            mem_gbps: 1555.0,
            devices_per_gpu: 1,
            sg_sizes: &[32],
            shuffle: ShuffleHw::DedicatedCrossLane,
            regioned_broadcast: false,
            supports_visa: false,
            native_float_minmax: false,
            native_float_add: true,
            local_l1_tradeoff: true,
            // 65536 32-bit registers per SM.
            regfile_words_per_cu: 65536,
            // 64 warps × 32 threads per SM.
            max_workitems_per_cu: 2048,
            max_threads_per_cu: 64,
            // CRK-HACC compiles with HACC_CUDA_BLOCK_SIZE=128 launch
            // bounds; under them ptxas targets ≥50% occupancy and caps
            // threads at 96 registers, spilling the excess to local memory
            // (the architectural ceiling of 255 is not reachable with
            // these bounds).
            max_regs_per_workitem: 96,
            has_large_grf: false,
            spill_penalty: 12.0,
            occupancy_knee: 0.25,
            // PCIe gen4 x16.
            host_link_gbps: 25.0,
            // NVLink 3 between the node's four A100s.
            node_link_name: "NVLink 3",
            node_link_gbps: 75.0,
            node_link_latency_us: 1.8,
            fabric_name: "Slingshot 10",
            fabric_gbps: 12.5,
            fabric_latency_us: 2.2,
        }
    }

    /// Frontier: AMD Instinct MI250X (one GCD).
    pub fn frontier() -> Self {
        Self {
            id: "mi250x",
            gpu_name: "AMD Instinct MI250X",
            system: "Frontier",
            cpu: "AMD EPYC 7A53, 64 cores",
            sockets: 1,
            gpus_per_node: 4,
            fp32_peak_tflops: 53.0,
            // HBM2e: 3.28 TB/s per MI250X, half per GCD.
            mem_gbps: 1638.4,
            devices_per_gpu: 2,
            sg_sizes: &[32, 64],
            shuffle: ShuffleHw::DedicatedCrossLane,
            regioned_broadcast: false,
            supports_visa: false,
            native_float_minmax: true,
            native_float_add: true,
            local_l1_tradeoff: false,
            // 512 VGPRs × 64 lanes × 4 SIMDs per CU.
            regfile_words_per_cu: 131072,
            // 32 waves × 64 lanes per CU.
            max_workitems_per_cu: 2048,
            max_threads_per_cu: 32,
            // 256 VGPRs per work-item.
            max_regs_per_workitem: 256,
            has_large_grf: false,
            spill_penalty: 8.0,
            // CDNA2 leans on many in-flight waves to cover HBM latency.
            occupancy_knee: 0.6,
            // Infinity Fabric host link per GCD.
            host_link_gbps: 36.0,
            // GCD↔GCD / GPU↔GPU Infinity Fabric links.
            node_link_name: "Infinity Fabric",
            node_link_gbps: 50.0,
            node_link_latency_us: 1.7,
            fabric_name: "Slingshot 11",
            fabric_gbps: 25.0,
            fabric_latency_us: 2.0,
        }
    }

    /// A CPU "device" driven through SYCL's OpenCL backend — the §7.3
    /// extension. Models a dual-socket Xeon Max 9470C node: AVX-512
    /// sub-groups of 8/16, cheap vector shuffles, spills landing in L1
    /// (mild penalty), no occupancy requirements, and — the paper's
    /// predicted pain point — every floating-point atomic emulated by a
    /// compare-exchange loop.
    pub fn cpu_host() -> Self {
        Self {
            id: "cpu",
            gpu_name: "2× Intel Xeon CPU Max 9470C (OpenCL)",
            system: "CPU",
            cpu: "Intel Xeon CPU Max 9470C, 52 cores",
            sockets: 2,
            gpus_per_node: 0,
            // 104 cores × 64 FP32 FLOP/cycle (2 AVX-512 FMA ports) × 2.4 GHz.
            fp32_peak_tflops: 16.0,
            // On-package HBM2e, two sockets in flat mode.
            mem_gbps: 2000.0,
            devices_per_gpu: 1,
            sg_sizes: &[8, 16],
            shuffle: ShuffleHw::DedicatedCrossLane,
            regioned_broadcast: false,
            supports_visa: false,
            native_float_minmax: false,
            native_float_add: false,
            local_l1_tradeoff: false,
            // 32 zmm registers × 16 words × 2 hyperthreads per core.
            regfile_words_per_cu: 1024,
            max_workitems_per_cu: 32,
            max_threads_per_cu: 2,
            // 32 vector registers; spills go to L1 and are cheap.
            max_regs_per_workitem: 32,
            has_large_grf: false,
            spill_penalty: 1.0,
            // Out-of-order cores hide latency without thread parallelism.
            occupancy_knee: 0.05,
            // "Transfers" are memcpys within host DRAM.
            host_link_gbps: 200.0,
            // Rank↔rank messages are shared-memory copies across sockets.
            node_link_name: "UPI / shared DRAM",
            node_link_gbps: 100.0,
            node_link_latency_us: 0.6,
            fabric_name: "Slingshot 11",
            fabric_gbps: 25.0,
            fabric_latency_us: 2.0,
        }
    }

    /// The three systems of the study, in the paper's presentation order.
    pub fn all() -> Vec<GpuArch> {
        vec![Self::aurora(), Self::polaris(), Self::frontier()]
    }

    /// The study's platforms plus the CPU backend (§7.3 future work).
    pub fn all_with_cpu() -> Vec<GpuArch> {
        let mut v = Self::all();
        v.push(Self::cpu_host());
        v
    }

    /// Looks up an architecture by `id` or system name (case-insensitive).
    pub fn by_name(name: &str) -> Option<GpuArch> {
        let l = name.to_ascii_lowercase();
        Self::all().into_iter().find(|a| {
            a.id == l || a.system.to_ascii_lowercase() == l || a.gpu_name.to_ascii_lowercase() == l
        })
    }

    /// True when `sg` is a legal sub-group size for this architecture.
    pub fn supports_sg_size(&self, sg: usize) -> bool {
        self.sg_sizes.contains(&sg)
    }

    /// The largest supported sub-group size (1 for a malformed arch with
    /// no declared sizes, which `Device::new` rejects up front).
    pub fn max_sg_size(&self) -> usize {
        self.sg_sizes.iter().copied().max().unwrap_or(1)
    }

    /// Per-work-item register budget, in 32-bit words, before spilling.
    ///
    /// On PVC the budget depends on both sub-group size and GRF mode (the
    /// two levers of §5.2); on other architectures the per-thread ceiling
    /// is fixed by the ISA.
    pub(crate) fn reg_budget(&self, sg_size: usize, grf: GrfMode) -> u32 {
        let base = if self.id == "pvc" {
            // 128 GRF × 64 B / 4 B = 2048 words per thread, shared by the
            // sub-group's work-items.
            (2048 / sg_size as u32).max(1)
        } else {
            self.max_regs_per_workitem
        };
        match (grf, self.has_large_grf) {
            (GrfMode::Large, true) => base * 2,
            _ => base,
        }
    }

    /// Maximum resident work-items per CU under a register demand of
    /// `regs` words per work-item and a sub-group size of `sg_size`
    /// (occupancy limiter: register file and hardware thread slots).
    pub(crate) fn resident_workitems(&self, regs: u32, grf: GrfMode, sg_size: usize) -> u32 {
        let threads = match (grf, self.has_large_grf) {
            // Large GRF halves threads per EU (8 → 4 on PVC).
            (GrfMode::Large, true) => self.max_threads_per_cu / 2,
            _ => self.max_threads_per_cu,
        };
        let max_items = (threads * sg_size as u32)
            .min(self.max_workitems_per_cu)
            .max(1);
        if regs == 0 {
            return max_items;
        }
        (self.regfile_words_per_cu / regs).min(max_items).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let a = GpuArch::aurora();
        let p = GpuArch::polaris();
        let f = GpuArch::frontier();
        assert_eq!(a.fp32_peak_tflops, 45.9);
        assert_eq!(p.fp32_peak_tflops, 19.5);
        assert_eq!(f.fp32_peak_tflops, 53.0);
        assert_eq!(a.gpus_per_node, 6);
        assert_eq!(p.gpus_per_node, 4);
        assert_eq!(f.gpus_per_node, 4);
    }

    #[test]
    fn memory_roofs_are_plausible_hbm() {
        // Every architecture carries a device-memory bandwidth for the
        // roofline's memory roof, and the ridge point (peak FLOPs over
        // bandwidth) lands in the usual 5–50 FLOP/byte window for
        // HBM-fed accelerators and HBM CPUs.
        for arch in GpuArch::all_with_cpu() {
            assert!(arch.mem_gbps > 0.0, "{} needs a memory roof", arch.id);
            let ridge = arch.fp32_peak_tflops * 1e12 / (arch.mem_gbps * 1e9);
            assert!(
                (5.0..=50.0).contains(&ridge),
                "{}: ridge point {ridge} FLOP/byte out of range",
                arch.id
            );
        }
    }

    #[test]
    fn sub_group_support_matches_section_4_3() {
        // "AMD GPUs support sub-group sizes of 32 and 64, Intel GPUs
        //  support 16 and 32, and NVIDIA GPUs support a single size of 32."
        assert!(GpuArch::aurora().supports_sg_size(16));
        assert!(GpuArch::aurora().supports_sg_size(32));
        assert!(!GpuArch::aurora().supports_sg_size(64));
        assert_eq!(GpuArch::polaris().sg_sizes, &[32]);
        assert!(GpuArch::frontier().supports_sg_size(64));
        assert!(!GpuArch::frontier().supports_sg_size(16));
    }

    #[test]
    fn pvc_register_levers() {
        let a = GpuArch::aurora();
        // §5.2: sub-group 32 → 16 → doubles registers per work-item;
        // large GRF doubles again: 4× total.
        let base = a.reg_budget(32, GrfMode::Default);
        assert_eq!(a.reg_budget(16, GrfMode::Default), base * 2);
        assert_eq!(a.reg_budget(32, GrfMode::Large), base * 2);
        assert_eq!(a.reg_budget(16, GrfMode::Large), base * 4);
    }

    #[test]
    fn large_grf_halves_occupancy_ceiling() {
        let a = GpuArch::aurora();
        assert_eq!(
            a.resident_workitems(1, GrfMode::Large, 32),
            a.resident_workitems(1, GrfMode::Default, 32) / 2
        );
    }

    #[test]
    fn occupancy_shrinks_with_register_demand() {
        let p = GpuArch::polaris();
        // 32 regs/item → full 2048; 64 → 1024; 128 → 512.
        assert_eq!(p.resident_workitems(32, GrfMode::Default, 32), 2048);
        assert_eq!(p.resident_workitems(64, GrfMode::Default, 32), 1024);
        assert_eq!(p.resident_workitems(128, GrfMode::Default, 32), 512);
    }

    #[test]
    fn small_sub_groups_are_thread_limited() {
        // SIMD16 on PVC: 8 threads × 16 lanes = 128 work-items, half the
        // SIMD32 ceiling — the occupancy price of the register lever.
        let a = GpuArch::aurora();
        assert_eq!(a.resident_workitems(1, GrfMode::Default, 16), 128);
        assert_eq!(a.resident_workitems(1, GrfMode::Default, 32), 256);
        assert_eq!(a.resident_workitems(1, GrfMode::Large, 16), 64);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(GpuArch::by_name("Aurora").unwrap().id, "pvc");
        assert_eq!(GpuArch::by_name("a100").unwrap().system, "Polaris");
        assert!(GpuArch::by_name("h100").is_none());
    }

    #[test]
    fn non_intel_grf_mode_is_inert() {
        let p = GpuArch::polaris();
        assert_eq!(
            p.reg_budget(32, GrfMode::Large),
            p.reg_budget(32, GrfMode::Default)
        );
        assert_eq!(
            p.resident_workitems(10, GrfMode::Large, 32),
            p.resident_workitems(10, GrfMode::Default, 32)
        );
    }
}
