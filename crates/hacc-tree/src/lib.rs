#![warn(missing_docs)]
//! # hacc-tree
//!
//! Spatial decomposition substrates for the CRK-HACC reproduction:
//!
//! * [`aabb`] — bounding boxes and periodic minimum-image geometry,
//! * [`rcb`] — the Recursive Coordinate Bisection tree whose leaves are the
//!   interaction unit of the GPU "half-warp" kernels,
//! * [`chaining`] — the chaining mesh (cell list) for fixed-radius queries,
//! * [`interaction`] — leaf-pair interaction work lists,
//! * [`fof`] — Friends-of-Friends and DBSCAN halo finding (the native
//!   replacement for CRK-HACC's ArborX/Kokkos dependency).

pub mod aabb;
pub mod chaining;
pub mod fof;
pub mod interaction;
pub mod rcb;

pub use aabb::{dist_sq_periodic, min_image};
pub use fof::{dbscan, fof_halos, Halo};
pub use interaction::{InteractionList, LeafPair};
pub use rcb::{RcbNode, RcbTree};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{aabb::Aabb, chaining::ChainingMesh, fof::UnionFind};
    use proptest::prelude::*;

    fn arb_points(
        n: std::ops::Range<usize>,
        box_size: f64,
    ) -> impl Strategy<Value = Vec<[f64; 3]>> {
        prop::collection::vec(
            (0.0..box_size, 0.0..box_size, 0.0..box_size).prop_map(|(x, y, z)| [x, y, z]),
            n,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// RCB invariants hold for arbitrary point sets and leaf sizes.
        #[test]
        fn rcb_invariants(pts in arb_points(1..200, 10.0), cap in 1usize..32) {
            let tree = RcbTree::build(&pts, cap);
            prop_assert!(tree.check_invariants(&pts).is_ok());
            for li in 0..tree.n_leaves() {
                prop_assert!(tree.leaf_particles(li).len() <= cap);
            }
        }

        /// Chaining-mesh neighbor queries agree with brute force.
        #[test]
        fn mesh_matches_brute(pts in arb_points(1..80, 8.0), r in 0.3f64..2.5) {
            let mesh = ChainingMesh::build(&pts, 8.0, r.min(8.0));
            for p in pts.iter().take(8) {
                let fast = mesh.neighbors(&pts, p, r);
                let mut slow: Vec<u32> = pts.iter().enumerate()
                    .filter(|(_, q)| dist_sq_periodic(p, q, 8.0) <= r * r)
                    .map(|(i, _)| i as u32)
                    .collect();
                slow.sort_unstable();
                prop_assert_eq!(fast, slow);
            }
        }

        /// Interaction lists are complete for arbitrary particle sets.
        #[test]
        fn interaction_complete(pts in arb_points(2..80, 8.0)) {
            let tree = RcbTree::build(&pts, 8);
            let list = InteractionList::build(&tree, 8.0, 1.5);
            prop_assert!(list.check_complete(&tree, &pts, 8.0).is_ok());
        }

        /// The pruned tree walk emits exactly the all-pairs sweep's list,
        /// including seam-straddling clusters, all-duplicate positions,
        /// one particle per leaf, a single particle, a tiny cutoff and a
        /// cutoff of half the box or more.
        #[test]
        fn walk_equals_all_pairs(
            shape in 0usize..4,
            raw in arb_points(1..150, 8.0),
            cap in 0usize..16,
            (scale, u) in (0usize..3, 0.0..1.0f64),
        ) {
            let pts: Vec<[f64; 3]> = match shape {
                0 => raw,
                1 => raw[..1].to_vec(),
                2 => vec![raw[0]; raw.len()],
                // Two thin clusters straddling the x seam.
                _ => raw.iter()
                    .map(|p| [if p[2] < 4.0 { p[0] / 16.0 } else { 8.0 - p[0] / 16.0 }, p[1], 4.0])
                    .collect(),
            };
            let cutoff = [1e-9 + 1e-3 * u, 0.1 + 3.0 * u, 4.0 + 12.0 * u][scale];
            let tree = RcbTree::build(&pts, cap.max(1));
            prop_assert!(tree.check_invariants(&pts).is_ok());
            let walk = InteractionList::build(&tree, 8.0, cutoff);
            let oracle = interaction::tests::all_pairs_oracle(&tree, 8.0, cutoff);
            prop_assert_eq!(walk.pairs, oracle.pairs);
        }

        /// The block walk emits exactly the per-leaf walk's list at pool
        /// widths 1 and 3, over trees of one leaf up to several leaf
        /// blocks.
        #[test]
        fn block_walk_equals_the_per_leaf_oracle(
            pts in arb_points(1..1200, 8.0),
            cap in 1usize..12,
            cutoff in 0.05..3.0f64,
        ) {
            let tree = RcbTree::build(&pts, cap);
            let oracle = interaction::tests::per_leaf_walk_oracle(&tree, 8.0, cutoff);
            for threads in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let walk = pool.install(|| InteractionList::build(&tree, 8.0, cutoff));
                prop_assert_eq!(&walk.pairs, &oracle.pairs);
            }
        }

        /// The lemma the pruning rests on: shrinking `other` to any sub-box
        /// never brings it closer, compared exactly.
        #[test]
        fn min_dist_is_monotone_under_containment(
            corners in prop::collection::vec(-2.0..10.0f64, 12),
            t in prop::collection::vec(0.0..1.0f64, 6),
        ) {
            // Stretched and clamped so a sub-box often shares a face.
            let t: Vec<f64> = t.iter().map(|t| (1.4 * t - 0.2).clamp(0.0, 1.0)).collect();
            let aabb = |c: &[f64]| Aabb {
                min: [c[0].min(c[3]), c[1].min(c[4]), c[2].min(c[5])],
                max: [c[0].max(c[3]), c[1].max(c[4]), c[2].max(c[5])],
            };
            let (a, other) = (aabb(&corners[..6]), aabb(&corners[6..]));
            let at = |c: usize, t: f64| {
                (other.min[c] + t * (other.max[c] - other.min[c])).min(other.max[c])
            };
            let sub = Aabb {
                min: std::array::from_fn(|c| at(c, t[c].min(t[c + 3]))),
                max: std::array::from_fn(|c| at(c, t[c].max(t[c + 3]))),
            };
            prop_assert!(a.min_dist_sq_periodic(&sub, 8.0) >= a.min_dist_sq_periodic(&other, 8.0));
        }

        /// Union-find: every unioned pair ends up in one set, whatever
        /// the order of the unions.
        #[test]
        fn union_find_invariants(edges in prop::collection::vec((0u32..30, 0u32..30), 0..60)) {
            let mut uf = UnionFind::new(30);
            for &(a, b) in &edges {
                uf.union(a, b);
            }
            for &(a, b) in &edges {
                prop_assert_eq!(uf.find(a), uf.find(b));
            }
        }

        /// FOF halos partition the kept particles (every particle in exactly
        /// one halo when min_members = 1).
        #[test]
        fn fof_is_a_partition(pts in arb_points(1..100, 10.0)) {
            let masses = vec![1.0; pts.len()];
            let halos = fof_halos(&pts, &masses, 10.0, 0.9, 1);
            let mut seen = vec![false; pts.len()];
            for h in &halos {
                for &m in &h.members {
                    prop_assert!(!seen[m as usize], "particle in two halos");
                    seen[m as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
