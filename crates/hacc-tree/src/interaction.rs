//! Leaf-pair interaction lists.
//!
//! The GPU short-range kernels operate on pairs of RCB leaves: each kernel
//! instance loads particles from leaf A into the lower half-warp and
//! particles from leaf B into the upper half-warp (the paper's "half-warp"
//! algorithm, Figure 3). This module builds the list of leaf pairs whose
//! bounding boxes lie within the interaction cutoff, which is exactly the
//! work list those kernels consume.

use crate::rcb::RcbTree;
use rayon::prelude::*;

/// Leaves one parallel task walks the tree for.
const LEAF_BLOCK: u32 = 256;

/// A pair of leaves that must interact (`a == b` denotes a self pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeafPair {
    /// First leaf index (into `RcbTree::leaves`).
    pub a: u32,
    /// Second leaf index; `a <= b` always.
    pub b: u32,
}

/// The interaction work list for one rank's particle set.
#[derive(Clone, Debug)]
pub struct InteractionList {
    /// All pairs with box-to-box (periodic) distance ≤ cutoff, `a ≤ b`.
    pub pairs: Vec<LeafPair>,
    /// The cutoff used to build the list.
    pub cutoff: f64,
}

impl InteractionList {
    /// Builds the list by walking the RCB tree once per leaf `a`, pruning
    /// subtrees whose leaves all precede `a` or whose box is beyond the
    /// cutoff. Equals testing all L² leaf-box pairs bit for bit, because
    /// `min_dist_sq_periodic` is monotone under box containment (each
    /// step is monotone under round-to-nearest). Precondition: node bounds
    /// nest exactly, as [`RcbTree::check_invariants`] checks — true of any
    /// [`RcbTree::build`] over finite positions. Pairs come out sorted.
    ///
    /// Contiguous blocks of leaves walk in parallel, each with one stack
    /// and one output `Vec`; the blocks are concatenated in order into
    /// one pre-sized list, the same at any thread count.
    pub fn build(tree: &RcbTree, box_size: f64, cutoff: f64) -> Self {
        assert!(cutoff > 0.0 && box_size > 0.0);
        let nodes = &tree.nodes;
        // Leaf range [lo, hi] of every subtree: leaves are numbered
        // left-to-right in DFS order and children follow their parent.
        let mut range = vec![(0u32, 0u32); nodes.len()];
        for (li, &ni) in tree.leaves.iter().enumerate() {
            range[ni] = (li as u32, li as u32);
        }
        for ni in (0..nodes.len()).rev() {
            if let Some((l, r)) = nodes[ni].children {
                range[ni] = (range[l].0, range[r].1);
            }
        }
        let c2 = cutoff * cutoff;
        let n_leaves = tree.n_leaves() as u32;
        let blocks: Vec<Vec<LeafPair>> = (0..n_leaves.div_ceil(LEAF_BLOCK))
            .into_par_iter()
            .map(|block| {
                let mut out = Vec::new();
                let mut stack = Vec::new();
                for a in block * LEAF_BLOCK..n_leaves.min((block + 1) * LEAF_BLOCK) {
                    let ba = nodes[tree.leaves[a as usize]].bounds;
                    stack.push(0usize);
                    while let Some(ni) = stack.pop() {
                        let (lo, hi) = range[ni];
                        if hi >= a && ba.min_dist_sq_periodic(&nodes[ni].bounds, box_size) <= c2 {
                            match nodes[ni].children {
                                Some((l, r)) => stack.extend([r, l]),
                                None => out.push(LeafPair { a, b: lo }),
                            }
                        }
                    }
                }
                out
            })
            .collect();
        let pairs = blocks.concat();
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        Self { pairs, cutoff }
    }

    /// Number of pairs (including self pairs).
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when there are no pairs (impossible for a non-empty tree, which
    /// always contains the self pairs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Verifies completeness: every particle pair within `cutoff` must be
    /// covered by some leaf pair in the list. Returns the first violation.
    /// O(n²). Public although only tests call it: it is the oracle a
    /// change to the list's per-cell geometry is checked against.
    pub fn check_complete(
        &self,
        tree: &RcbTree,
        positions: &[[f64; 3]],
        box_size: f64,
    ) -> Result<(), String> {
        // Map particle -> leaf.
        let mut leaf_of = vec![u32::MAX; positions.len()];
        for li in 0..tree.n_leaves() {
            for &pi in tree.leaf_particles(li) {
                leaf_of[pi as usize] = li as u32;
            }
        }
        use std::collections::HashSet;
        let set: HashSet<LeafPair> = self.pairs.iter().copied().collect();
        let c2 = self.cutoff * self.cutoff;
        for i in 0..positions.len() {
            for j in i..positions.len() {
                let d2 = crate::aabb::dist_sq_periodic(&positions[i], &positions[j], box_size);
                if d2 <= c2 {
                    let (a, b) = (leaf_of[i].min(leaf_of[j]), leaf_of[i].max(leaf_of[j]));
                    if !set.contains(&LeafPair { a, b }) {
                        return Err(format!(
                            "pair ({i}, {j}) at distance {} not covered by leaf pair ({a}, {b})",
                            d2.sqrt()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The all-pairs sweep the pruned walk replaced: every leaf-box pair
    /// `a ≤ b` tested against the cutoff. The oracle for `build`.
    pub(crate) fn all_pairs_oracle(tree: &RcbTree, box_size: f64, cutoff: f64) -> InteractionList {
        let boxes: Vec<_> = tree
            .leaves
            .iter()
            .map(|&ni| tree.nodes[ni].bounds)
            .collect();
        let mut pairs = Vec::new();
        for (a, ba) in boxes.iter().enumerate() {
            for (b, bb) in boxes.iter().enumerate().skip(a) {
                if ba.min_dist_sq_periodic(bb, box_size) <= cutoff * cutoff {
                    pairs.push(LeafPair {
                        a: a as u32,
                        b: b as u32,
                    });
                }
            }
        }
        InteractionList { pairs, cutoff }
    }

    /// The walk before blocks: one output `Vec` and one stack per leaf,
    /// flattened in leaf order. The oracle for `build`'s block walk.
    pub(crate) fn per_leaf_walk_oracle(
        tree: &RcbTree,
        box_size: f64,
        cutoff: f64,
    ) -> InteractionList {
        let nodes = &tree.nodes;
        let mut range = vec![(0u32, 0u32); nodes.len()];
        for (li, &ni) in tree.leaves.iter().enumerate() {
            range[ni] = (li as u32, li as u32);
        }
        for ni in (0..nodes.len()).rev() {
            if let Some((l, r)) = nodes[ni].children {
                range[ni] = (range[l].0, range[r].1);
            }
        }
        let c2 = cutoff * cutoff;
        let pairs = (0..tree.n_leaves() as u32)
            .flat_map(|a| {
                let ba = nodes[tree.leaves[a as usize]].bounds;
                let mut out = Vec::new();
                let mut stack = vec![0usize];
                while let Some(ni) = stack.pop() {
                    let (lo, hi) = range[ni];
                    if hi >= a && ba.min_dist_sq_periodic(&nodes[ni].bounds, box_size) <= c2 {
                        match nodes[ni].children {
                            Some((l, r)) => stack.extend([r, l]),
                            None => out.push(LeafPair { a, b: lo }),
                        }
                    }
                }
                out
            })
            .collect();
        InteractionList { pairs, cutoff }
    }

    fn random_points(n: usize, box_size: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                ]
            })
            .collect()
    }

    #[test]
    fn contains_all_self_pairs() {
        let pts = random_points(256, 10.0, 1);
        let tree = RcbTree::build(&pts, 16);
        let list = InteractionList::build(&tree, 10.0, 1.0);
        for a in 0..tree.n_leaves() as u32 {
            assert!(
                list.pairs.contains(&LeafPair { a, b: a }),
                "missing self pair {a}"
            );
        }
    }

    #[test]
    fn list_is_complete() {
        let box_size = 10.0;
        let pts = random_points(300, box_size, 2);
        let tree = RcbTree::build(&pts, 12);
        let list = InteractionList::build(&tree, box_size, 1.7);
        list.check_complete(&tree, &pts, box_size).unwrap();
    }

    #[test]
    fn larger_cutoff_yields_more_pairs() {
        let box_size = 10.0;
        let pts = random_points(400, box_size, 3);
        let tree = RcbTree::build(&pts, 16);
        let small = InteractionList::build(&tree, box_size, 0.5);
        let large = InteractionList::build(&tree, box_size, 3.0);
        assert!(large.len() > small.len());
    }

    #[test]
    fn pairs_are_ordered_and_unique() {
        let pts = random_points(200, 10.0, 4);
        let tree = RcbTree::build(&pts, 10);
        let list = InteractionList::build(&tree, 10.0, 2.0);
        for w in list.pairs.windows(2) {
            assert!(w[0] < w[1], "pairs must be strictly sorted");
        }
        for p in &list.pairs {
            assert!(p.a <= p.b);
        }
    }

    #[test]
    fn periodic_seam_pairs_are_found() {
        let box_size = 10.0;
        // Two tight clusters on opposite faces (0.2 apart through the seam).
        let mut pts = Vec::new();
        for i in 0..20 {
            let o = i as f64 * 0.01;
            pts.push([0.1 + o, 5.0, 5.0]);
            pts.push([9.9 - o, 5.0, 5.0]);
        }
        let tree = RcbTree::build(&pts, 8);
        let list = InteractionList::build(&tree, box_size, 1.0);
        list.check_complete(&tree, &pts, box_size).unwrap();
    }
}
