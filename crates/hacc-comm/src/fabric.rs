//! Interconnect cost model.
//!
//! Mirrors each system's network the way `sycl-sim/cost.rs` mirrors its
//! GPUs: every message is charged a first-byte latency plus a
//! bytes-over-bandwidth serialization term, on one of two channels —
//! the intra-node device link (Xe Link, NVLink, Infinity Fabric) when
//! both ranks share a node, or the inter-node fabric (Slingshot)
//! otherwise. The §3.4.2 mapping puts 8 ranks on every node, so with
//! ≤ 8 ranks all traffic rides the node link and the fabric numbers
//! only matter for the projected multi-node sweeps.

use serde::Serialize;
use sycl_sim::GpuArch;

/// One channel of the interconnect: a name plus the classic
/// latency/bandwidth (α–β) pair.
#[derive(Clone, Debug, Serialize)]
pub struct Link {
    /// Marketing name of the link ("Xe Link", "Slingshot 11", …).
    pub name: String,
    /// Sustained point-to-point bandwidth in GB/s.
    pub gbps: f64,
    /// First-byte latency in microseconds.
    pub latency_us: f64,
}

impl Link {
    /// The first-byte latency (α) term in seconds.
    pub(crate) fn alpha_seconds(&self) -> f64 {
        self.latency_us * 1e-6
    }

    /// The serialization (n·β) term in seconds for `bytes`.
    pub(crate) fn beta_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.gbps * 1e9)
    }

    /// Seconds to move `bytes` over this link: α + n·β.
    pub fn cost(&self, bytes: u64) -> f64 {
        self.alpha_seconds() + self.beta_seconds(bytes)
    }

    /// Fraction of the wire time spent actually streaming bytes —
    /// `n·β / (α + n·β)`. Near 1 the link runs at its advertised
    /// bandwidth; near 0 the message is latency-bound.
    pub fn utilization(&self, bytes: u64) -> f64 {
        let total = self.cost(bytes);
        if total > 0.0 {
            self.beta_seconds(bytes) / total
        } else {
            0.0
        }
    }
}

/// The two-level interconnect of one system, built from its
/// [`GpuArch`] record.
#[derive(Clone, Debug, Serialize)]
pub struct Interconnect {
    /// Architecture id this model was built from.
    pub arch: String,
    /// Intra-node device-to-device link.
    pub node_link: Link,
    /// Inter-node fabric.
    pub fabric: Link,
    /// Ranks per node (8 in the paper's §3.4.2 mapping); decides which
    /// channel a rank pair uses.
    pub ranks_per_node: usize,
}

impl Interconnect {
    /// Builds the cost model for an architecture with the paper's
    /// 8-ranks-per-node mapping.
    pub fn for_arch(arch: &GpuArch) -> Self {
        Self::with_ranks_per_node(arch, 8)
    }

    /// Builds the cost model with an explicit node width.
    fn with_ranks_per_node(arch: &GpuArch, ranks_per_node: usize) -> Self {
        assert!(ranks_per_node >= 1, "a node holds at least one rank");
        Self {
            arch: arch.id.to_string(),
            node_link: Link {
                name: arch.node_link_name.to_string(),
                gbps: arch.node_link_gbps,
                latency_us: arch.node_link_latency_us,
            },
            fabric: Link {
                name: arch.fabric_name.to_string(),
                gbps: arch.fabric_gbps,
                latency_us: arch.fabric_latency_us,
            },
            ranks_per_node,
        }
    }

    /// True when both ranks live on the same node.
    fn same_node(&self, src: usize, dst: usize) -> bool {
        src / self.ranks_per_node == dst / self.ranks_per_node
    }

    /// The channel a message between two ranks rides.
    pub fn link(&self, src: usize, dst: usize) -> &Link {
        if self.same_node(src, dst) {
            &self.node_link
        } else {
            &self.fabric
        }
    }

    /// Seconds to deliver `bytes` from `src` to `dst`.
    pub fn cost(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        self.link(src, dst).cost(bytes)
    }

    /// Seconds for a tree allreduce of `bytes` per rank across `ranks`:
    /// `ceil(log2(ranks))` rounds, each a worst-channel hop.
    pub(crate) fn allreduce_cost(&self, ranks: usize, bytes: u64) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let rounds = (ranks as f64).log2().ceil();
        let worst = if ranks > self.ranks_per_node {
            &self.fabric
        } else {
            &self.node_link
        };
        rounds * worst.cost(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_messages() {
        let ic = Interconnect::for_arch(&GpuArch::frontier());
        let tiny = ic.cost(0, 1, 8);
        let big = ic.cost(0, 1, 64 << 20);
        assert!(tiny < 2.0 * ic.node_link.latency_us * 1e-6);
        // 64 MiB at 50 GB/s ≈ 1.3 ms — bandwidth term dominates.
        assert!(big > 100.0 * tiny);
    }

    #[test]
    fn node_link_vs_fabric_selection() {
        let ic = Interconnect::for_arch(&GpuArch::aurora());
        assert!(ic.same_node(0, 7));
        assert!(!ic.same_node(7, 8));
        assert_eq!(ic.link(0, 7).name, "Xe Link");
        assert_eq!(ic.link(7, 8).name, "Slingshot 11");
        // Intra-node Xe Link beats Slingshot for the same payload.
        assert!(ic.cost(0, 7, 1 << 20) > 0.0);
        assert!(ic.cost(0, 7, 1 << 20) < ic.cost(0, 8, 1 << 20) + 1e-12);
    }

    #[test]
    fn alpha_beta_split_reassembles_the_cost() {
        let ic = Interconnect::for_arch(&GpuArch::frontier());
        let link = ic.link(0, 1);
        let bytes = 1u64 << 16;
        let whole = link.cost(bytes);
        assert!((link.alpha_seconds() + link.beta_seconds(bytes) - whole).abs() < 1e-18);
        // Tiny messages are latency-bound, huge ones bandwidth-bound.
        assert!(link.utilization(8) < 0.1);
        assert!(link.utilization(256 << 20) > 0.9);
        assert_eq!(link.utilization(0), 0.0);
    }

    #[test]
    fn allreduce_scales_with_rounds() {
        let ic = Interconnect::for_arch(&GpuArch::polaris());
        assert_eq!(ic.allreduce_cost(1, 64), 0.0);
        let two = ic.allreduce_cost(2, 64);
        let eight = ic.allreduce_cost(8, 64);
        assert!((eight - 3.0 * two).abs() < 1e-12);
    }
}
