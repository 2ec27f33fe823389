//! Rank decomposition (the MPI substitute).
//!
//! CRK-HACC runs one MPI rank per accelerator device and requires a
//! minimum of 8 ranks (§3.4.2); the paper maps 8 ranks onto one node of
//! each system (2 GCDs × 4 MI250X, 2 stacks × 4 PVC, or 2 ranks × 4
//! A100). This module provides the 3D domain decomposition behind the
//! multi-rank execution layer: a regular grid over the periodic box
//! (balanced prime-factor dims, the `MPI_Dims_create` rule), exact
//! plane ownership, 27-neighborhood topology, and conservative
//! rectangular ghost-zone membership sized by the SPH kernel support
//! radius. `NodeMapping` documents the §3.4.2 device mapping.

use std::fmt;
use sycl_sim::GpuArch;

/// An architecture id with no §3.4.2 node mapping — returned instead of
/// panicking so new [`GpuArch`] constructors surface as typed errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct UnknownArch {
    /// The unmapped architecture id.
    pub id: String,
}

impl fmt::Display for UnknownArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no §3.4.2 node mapping for architecture {}", self.id)
    }
}

impl std::error::Error for UnknownArch {}

/// How a system's node maps MPI ranks to accelerator devices.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct NodeMapping {
    /// System name.
    pub system: &'static str,
    /// Ranks used per node (always 8 in the paper).
    pub ranks_per_node: u32,
    /// Physical GPUs used.
    pub gpus_used: u32,
    /// Schedulable devices per GPU (GCDs/stacks).
    pub devices_per_gpu: u32,
    /// Fraction of the node's GPU silicon actually used (Polaris's 2
    /// ranks per A100 share one device: the paper reports ~11% lower
    /// efficiency from this; Aurora idles 2 of 6 GPUs).
    pub ranks_per_device: u32,
}

impl NodeMapping {
    /// The paper's §3.4.2 mapping for an architecture. Exhaustive over
    /// every [`GpuArch`] constructor (including the §7.3 CPU backend);
    /// an id added without a mapping is a typed [`UnknownArch`] error,
    /// not a panic.
    pub fn for_arch(arch: &GpuArch) -> Result<Self, UnknownArch> {
        match arch.id {
            // 8 ranks on 4 MI250X = one per GCD.
            "mi250x" => Ok(Self {
                system: "Frontier",
                ranks_per_node: 8,
                gpus_used: 4,
                devices_per_gpu: 2,
                ranks_per_device: 1,
            }),
            // 8 ranks on 4 of 6 PVCs (2 stacks each), 2 GPUs idle.
            "pvc" => Ok(Self {
                system: "Aurora",
                ranks_per_node: 8,
                gpus_used: 4,
                devices_per_gpu: 2,
                ranks_per_device: 1,
            }),
            // 8 ranks on 4 A100s: 2 ranks share each GPU.
            "a100" => Ok(Self {
                system: "Polaris",
                ranks_per_node: 8,
                gpus_used: 4,
                devices_per_gpu: 1,
                ranks_per_device: 2,
            }),
            // CPU backend (§7.3): 8 ranks over 2 sockets, 4 per socket
            // sharing a socket's cores and memory bandwidth.
            "cpu" => Ok(Self {
                system: "CPU",
                ranks_per_node: 8,
                gpus_used: 2,
                devices_per_gpu: 1,
                ranks_per_device: 4,
            }),
            other => Err(UnknownArch {
                id: other.to_string(),
            }),
        }
    }

    /// Device-sharing slowdown: ranks that share a device each get a
    /// fraction of it. On Polaris this is the paper's "~11% lower
    /// efficiency" configuration cost (sharing is imperfect, not a clean
    /// 2×, because the two ranks' kernels interleave).
    pub(crate) fn sharing_penalty(&self) -> f64 {
        if self.ranks_per_device > 1 {
            1.11
        } else {
            1.0
        }
    }
}

/// A 3D regular-grid decomposition of the periodic box into ranks.
///
/// Dims follow the `MPI_Dims_create` rule: the rank count's prime
/// factors, largest first, are assigned to the currently smallest
/// dimension, so 8 → 2×2×2, 4 → 2×2×1, 2 → 2×1×1 and prime counts fall
/// back to slabs. Plane ownership is exact: domain `i` along a
/// dimension owns `[b_i, b_{i+1})`, so a particle sitting exactly on a
/// decomposition plane belongs to exactly one rank (the upper domain;
/// the box-closing plane wraps to domain 0).
#[derive(Clone, Debug)]
pub(crate) struct RankLayout {
    /// Number of ranks.
    pub ranks: usize,
    /// Grid cells per dimension (periodic box side).
    pub ng: usize,
    /// Ranks per dimension (`dims[0] × dims[1] × dims[2] == ranks`).
    pub dims: [usize; 3],
    /// Per-dimension decomposition plane positions (`dims[d] + 1`
    /// entries, first 0, last `ng`).
    bounds: [Vec<f64>; 3],
}

impl RankLayout {
    /// Balanced dims for `ranks`: prime factors (largest first) assigned
    /// to the smallest current dimension.
    fn dims_create(ranks: usize) -> [usize; 3] {
        let mut factors = Vec::new();
        let mut n = ranks;
        let mut p = 2;
        while p * p <= n {
            while n.is_multiple_of(p) {
                factors.push(p);
                n /= p;
            }
            p += 1;
        }
        if n > 1 {
            factors.push(n);
        }
        factors.sort_unstable_by(|a, b| b.cmp(a));
        let mut dims = [1usize; 3];
        for f in factors {
            let smallest = (0..3).min_by_key(|&d| (dims[d], d)).unwrap();
            dims[smallest] *= f;
        }
        dims.sort_unstable_by(|a, b| b.cmp(a));
        dims
    }

    /// Creates a layout over an `ng`-cell periodic box.
    pub fn new(ranks: usize, ng: usize) -> Self {
        assert!(ranks >= 1 && ng >= ranks, "need at least one cell per rank");
        Self::with_dims(Self::dims_create(ranks), ng)
    }

    /// Creates a layout with explicit per-dimension rank counts.
    pub(crate) fn with_dims(dims: [usize; 3], ng: usize) -> Self {
        let ranks = dims[0] * dims[1] * dims[2];
        assert!(ranks >= 1, "empty rank grid");
        assert!(
            dims.iter().all(|&d| d <= ng),
            "more ranks than cells along a dimension"
        );
        let bounds = std::array::from_fn(|d| {
            (0..=dims[d])
                .map(|i| i as f64 * ng as f64 / dims[d] as f64)
                .collect()
        });
        Self {
            ranks,
            ng,
            dims,
            bounds,
        }
    }

    /// Wraps a coordinate into `[0, ng)`, guarding the `rem_euclid`
    /// rounding case where a tiny negative input lands exactly on `ng`.
    fn wrap(&self, x: f64) -> f64 {
        let w = x.rem_euclid(self.ng as f64);
        if w >= self.ng as f64 {
            0.0
        } else {
            w
        }
    }

    /// Domain index along dimension `d` for a wrapped coordinate:
    /// largest `i` with `bounds[d][i] <= x` (exact plane ownership by
    /// comparison against the stored plane positions, not division).
    fn dim_index(&self, d: usize, x: f64) -> usize {
        let b = &self.bounds[d];
        let mut i = self.dims[d] - 1;
        while i > 0 && x < b[i] {
            i -= 1;
        }
        i
    }

    /// Linear rank id of grid coordinates (x-major).
    fn rank_at(&self, c: [usize; 3]) -> usize {
        (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]
    }

    /// Grid coordinates of a rank id.
    pub fn coords(&self, rank: usize) -> [usize; 3] {
        [
            rank / (self.dims[1] * self.dims[2]),
            (rank / self.dims[2]) % self.dims[1],
            rank % self.dims[2],
        ]
    }

    /// Which rank owns a position (periodic wrap applied).
    pub(crate) fn rank_of(&self, pos: &[f64; 3]) -> usize {
        let c = std::array::from_fn(|d| self.dim_index(d, self.wrap(pos[d])));
        self.rank_at(c)
    }

    /// The half-open domain `[lo, hi)` of a rank in grid units.
    pub fn domain(&self, rank: usize) -> ([f64; 3], [f64; 3]) {
        let c = self.coords(rank);
        (
            std::array::from_fn(|d| self.bounds[d][c[d]]),
            std::array::from_fn(|d| self.bounds[d][c[d] + 1]),
        )
    }

    /// Narrowest domain extent over all ranks and dimensions — the upper
    /// bound on a ghost width serviceable by the 27-neighborhood.
    pub(crate) fn min_domain_width(&self) -> f64 {
        (0..3)
            .map(|d| self.ng as f64 / self.dims[d] as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Distinct neighbor ranks of `rank` in the periodic 27-neighborhood
    /// (self excluded, duplicates from wrapped dimensions removed),
    /// ascending.
    pub fn neighbors(&self, rank: usize) -> Vec<usize> {
        let c = self.coords(rank);
        let mut out = Vec::new();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let off = [dx, dy, dz];
                    let n = self.rank_at(std::array::from_fn(|d| {
                        (c[d] as i64 + off[d]).rem_euclid(self.dims[d] as i64) as usize
                    }));
                    if n != rank && !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Periodic distance from a wrapped coordinate to the interval
    /// `[lo, hi)` along one dimension (0 inside).
    fn dist_1d(&self, x: f64, lo: f64, hi: f64) -> f64 {
        let ng = self.ng as f64;
        let mut best = f64::INFINITY;
        for shift in [-ng, 0.0, ng] {
            let d = (lo + shift - x).max(x - (hi + shift)).max(0.0);
            best = best.min(d);
        }
        best
    }

    /// Neighbor ranks that need `pos` as a ghost for kernel support
    /// radius `width`: ranks other than the owner whose domain, expanded
    /// by `width` in every dimension (conservative rectangular halo,
    /// periodic), contains the position. Requires
    /// `width <= min_domain_width()` so the 27-neighborhood covers every
    /// consumer.
    pub(crate) fn ghost_targets(&self, pos: &[f64; 3], width: f64) -> Vec<usize> {
        debug_assert!(
            width <= self.min_domain_width() + 1e-12,
            "ghost width {width} exceeds the narrowest domain"
        );
        let owner = self.rank_of(pos);
        let w: [f64; 3] = std::array::from_fn(|d| self.wrap(pos[d]));
        self.neighbors(owner)
            .into_iter()
            .filter(|&r| {
                let (lo, hi) = self.domain(r);
                (0..3).all(|d| self.dist_1d(w[d], lo[d], hi[d]) <= width)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mappings() {
        let f = NodeMapping::for_arch(&GpuArch::frontier()).unwrap();
        assert_eq!(f.ranks_per_node, 8);
        assert_eq!(f.ranks_per_device, 1);
        assert_eq!(f.sharing_penalty(), 1.0);
        let p = NodeMapping::for_arch(&GpuArch::polaris()).unwrap();
        assert_eq!(p.ranks_per_device, 2);
        assert!(p.sharing_penalty() > 1.0);
        let a = NodeMapping::for_arch(&GpuArch::aurora()).unwrap();
        assert_eq!(a.gpus_used, 4, "2 of 6 PVCs idle");
    }

    #[test]
    fn every_arch_constructor_has_a_mapping() {
        for arch in GpuArch::all_with_cpu() {
            let mapping = NodeMapping::for_arch(&arch)
                .unwrap_or_else(|e| panic!("arch {} lost its mapping: {e}", arch.id));
            assert_eq!(mapping.ranks_per_node, 8, "{}", arch.id);
        }
    }

    #[test]
    fn unknown_arch_is_a_typed_error() {
        let mut arch = GpuArch::frontier();
        arch.id = "h100";
        let err = NodeMapping::for_arch(&arch).unwrap_err();
        assert_eq!(err.id, "h100");
        assert!(err.to_string().contains("h100"));
    }

    #[test]
    fn dims_balance_like_mpi_dims_create() {
        assert_eq!(RankLayout::new(1, 16).dims, [1, 1, 1]);
        assert_eq!(RankLayout::new(2, 16).dims, [2, 1, 1]);
        assert_eq!(RankLayout::new(4, 16).dims, [2, 2, 1]);
        assert_eq!(RankLayout::new(8, 16).dims, [2, 2, 2]);
        assert_eq!(RankLayout::new(12, 24).dims, [3, 2, 2]);
        assert_eq!(RankLayout::new(7, 16).dims, [7, 1, 1]);
    }

    /// Particles owned per rank.
    fn counts(layout: &RankLayout, positions: &[[f64; 3]]) -> Vec<usize> {
        let mut out = vec![0; layout.ranks];
        for p in positions {
            out[layout.rank_of(p)] += 1;
        }
        out
    }

    #[test]
    fn uniform_particles_balance() {
        let layout = RankLayout::new(8, 64);
        let pos: Vec<[f64; 3]> = (0..16 * 16 * 16)
            .map(|i| {
                let (x, y, z) = (i % 16, (i / 16) % 16, i / 256);
                [
                    x as f64 * 4.0 + 0.5,
                    y as f64 * 4.0 + 0.5,
                    z as f64 * 4.0 + 0.5,
                ]
            })
            .collect();
        let max = *counts(&layout, &pos).iter().max().unwrap();
        assert_eq!(max, pos.len() / 8, "uniform particles split evenly");
    }

    #[test]
    fn wrapped_positions_get_valid_ranks() {
        let layout = RankLayout::new(4, 16);
        // 4 ranks → 2×2×1; x = -0.5 wraps to 15.5 (upper x half),
        // y = 0 in the lower y half.
        assert_eq!(layout.dims, [2, 2, 1]);
        assert_eq!(layout.rank_of(&[-0.5, 0.0, 0.0]), layout.rank_at([1, 0, 0]));
        assert_eq!(layout.rank_of(&[16.2, 0.0, 0.0]), 0);
        // A tiny negative coordinate must not round onto the closing
        // plane: it wraps to domain-0 ownership.
        let r = layout.rank_of(&[-1e-17, -1e-17, -1e-17]);
        assert_eq!(r, 0);
    }

    #[test]
    fn particle_count_not_divisible_by_ranks() {
        // 1000 particles over 7 ranks (prime → slabs): every particle
        // owned exactly once regardless of divisibility.
        let layout = RankLayout::new(7, 21);
        let pos: Vec<[f64; 3]> = (0..1000)
            .map(|i| {
                [
                    (i as f64 * 0.618) % 21.0,
                    (i as f64 * 0.414) % 21.0,
                    (i as f64 * 0.732) % 21.0,
                ]
            })
            .collect();
        assert_eq!(counts(&layout, &pos).iter().sum::<usize>(), 1000);
    }

    #[test]
    fn empty_ranks_are_legal() {
        let layout = RankLayout::new(8, 16);
        // All particles piled into one corner: 7 ranks own nothing.
        let pos = vec![[0.5, 0.5, 0.5]; 32];
        let owned = counts(&layout, &pos);
        assert_eq!(owned[layout.rank_of(&[0.5, 0.5, 0.5])], 32);
        assert_eq!(owned.iter().filter(|&&n| n == 0).count(), 7);
    }

    #[test]
    fn plane_particles_owned_by_exactly_one_rank() {
        let layout = RankLayout::new(8, 16);
        // Every decomposition plane is at 0 or 8 in each dimension.
        for &x in &[0.0, 8.0] {
            for &y in &[0.0, 8.0] {
                for &z in &[0.0, 8.0] {
                    let p = [x, y, z];
                    let owner = layout.rank_of(&p);
                    let owners = (0..layout.ranks)
                        .filter(|&r| {
                            let (lo, hi) = layout.domain(r);
                            (0..3).all(|d| p[d] >= lo[d] && p[d] < hi[d])
                        })
                        .collect::<Vec<_>>();
                    assert_eq!(owners, vec![owner], "plane particle {p:?}");
                }
            }
        }
        // The box-closing plane at ng wraps to rank 0's domain.
        assert_eq!(layout.rank_of(&[16.0, 16.0, 16.0]), 0);
    }

    #[test]
    fn neighbors_cover_the_27_neighborhood() {
        let layout = RankLayout::new(8, 16);
        for r in 0..8 {
            // 2×2×2: every other rank is a neighbor.
            let n = layout.neighbors(r);
            assert_eq!(n.len(), 7);
            assert!(!n.contains(&r));
        }
        // Slab layouts deduplicate wrapped dimensions.
        let slab = RankLayout::with_dims([2, 1, 1], 16);
        assert_eq!(slab.neighbors(0), vec![1]);
        assert_eq!(slab.neighbors(1), vec![0]);
    }

    #[test]
    fn ghost_membership_round_trips_under_periodic_wrap() {
        let layout = RankLayout::new(8, 16);
        let width = 1.5;
        // A particle just inside rank 0's corner is a ghost for every
        // rank whose expanded domain reaches it across the wrap.
        let corner = [0.25, 0.25, 0.25];
        let targets = layout.ghost_targets(&corner, width);
        assert_eq!(targets.len(), 7, "corner particle ghosts to all 7");
        // Round trip: for every (particle, target) pair, the target's
        // expanded periodic domain contains the particle, and from the
        // target's perspective the particle is within `width` of its
        // domain — including across the periodic boundary.
        let probe = [15.9, 0.1, 7.9];
        for t in layout.ghost_targets(&probe, width) {
            let (lo, hi) = layout.domain(t);
            for d in 0..3 {
                assert!(
                    layout.dist_1d(probe[d], lo[d], hi[d]) <= width,
                    "ghost target {t} dim {d} too far"
                );
            }
        }
        // An interior particle (≥ width from every face) ghosts nowhere.
        let (lo, hi) = layout.domain(0);
        let center = std::array::from_fn(|d| 0.5 * (lo[d] + hi[d]));
        assert!(layout.ghost_targets(&center, width).is_empty());
    }

    #[test]
    fn domains_tile_the_box() {
        let layout = RankLayout::new(12, 24);
        let vol: f64 = (0..layout.ranks)
            .map(|r| {
                let (lo, hi) = layout.domain(r);
                (0..3).map(|d| hi[d] - lo[d]).product::<f64>()
            })
            .sum();
        assert!((vol - 24.0f64.powi(3)).abs() < 1e-9);
    }
}
