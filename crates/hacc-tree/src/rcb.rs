//! Recursive Coordinate Bisection (RCB) tree.
//!
//! HACC's CPU branch organizes particles into an RCB tree whose leaves hold
//! a bounded number of particles; the GPU branch consumes the *leaves* of
//! this decomposition as the interaction unit of the "half-warp" kernels.
//! Splitting is by median along the widest axis, producing a balanced tree
//! and contiguous per-leaf index ranges in a permutation array.

use crate::aabb::Aabb;

/// One node of the RCB tree.
#[derive(Clone, Debug)]
pub struct RcbNode {
    /// Bounding box of the particles under this node.
    pub(crate) bounds: Aabb,
    /// Range into [`RcbTree::order`] covered by this node.
    pub start: usize,
    /// One past the last index of the range.
    pub end: usize,
    /// Children indices into [`RcbTree::nodes`]; `None` for a leaf.
    pub children: Option<(usize, usize)>,
}

impl RcbNode {
    /// Number of particles in the node.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the node has no particles (only possible for a degenerate
    /// root built from an empty set, which [`RcbTree::build`] rejects).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the node is a leaf.
    #[inline]
    fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// A balanced RCB tree over a particle set.
#[derive(Clone, Debug)]
pub struct RcbTree {
    /// All nodes; index 0 is the root.
    pub nodes: Vec<RcbNode>,
    /// Permutation of particle indices; each node covers
    /// `order[start..end]`.
    pub order: Vec<u32>,
    /// Indices (into `nodes`) of the leaves, in left-to-right order.
    pub leaves: Vec<usize>,
}

impl RcbTree {
    /// Builds the tree over `positions`, splitting until every leaf holds at
    /// most `max_leaf` particles.
    pub fn build(positions: &[[f64; 3]], max_leaf: usize) -> Self {
        assert!(
            !positions.is_empty(),
            "cannot build a tree over no particles"
        );
        assert!(max_leaf >= 1, "leaf capacity must be at least 1");
        let mut order: Vec<u32> = (0..positions.len() as u32).collect();
        let mut nodes = Vec::new();
        let bounds = Aabb::from_points(positions.iter());
        nodes.push(RcbNode {
            bounds,
            start: 0,
            end: positions.len(),
            children: None,
        });
        let mut leaves = Vec::new();
        // Iterative splitting with an explicit stack: node indices to visit.
        let mut stack = vec![0usize];
        while let Some(ni) = stack.pop() {
            let (start, end) = (nodes[ni].start, nodes[ni].end);
            if end - start <= max_leaf {
                leaves.push(ni);
                continue;
            }
            let axis = nodes[ni].bounds.widest_axis();
            let mid = start + (end - start) / 2;
            // Median split along the widest axis (select_nth is O(n)).
            order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
                positions[a as usize][axis]
                    .partial_cmp(&positions[b as usize][axis])
                    .expect("NaN position in RCB build")
            });
            let left_bounds =
                Aabb::from_points(order[start..mid].iter().map(|&i| &positions[i as usize]));
            let right_bounds =
                Aabb::from_points(order[mid..end].iter().map(|&i| &positions[i as usize]));
            let li = nodes.len();
            nodes.push(RcbNode {
                bounds: left_bounds,
                start,
                end: mid,
                children: None,
            });
            let ri = nodes.len();
            nodes.push(RcbNode {
                bounds: right_bounds,
                start: mid,
                end,
                children: None,
            });
            nodes[ni].children = Some((li, ri));
            stack.push(ri);
            stack.push(li);
        }
        // `leaves` was produced in DFS order with left pushed last (visited
        // first), so it is already left-to-right.
        Self {
            nodes,
            order,
            leaves,
        }
    }

    /// Particle indices of a leaf (by position in [`RcbTree::leaves`]).
    pub(crate) fn leaf_particles(&self, leaf: usize) -> &[u32] {
        let n = &self.nodes[self.leaves[leaf]];
        &self.order[n.start..n.end]
    }

    /// Number of leaves.
    #[inline]
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Checks structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self, positions: &[[f64; 3]]) -> Result<(), String> {
        // Every particle appears exactly once in `order`.
        let mut seen = vec![false; positions.len()];
        for &i in &self.order {
            let i = i as usize;
            if i >= positions.len() {
                return Err(format!("order contains out-of-range index {i}"));
            }
            if seen[i] {
                return Err(format!("particle {i} appears twice"));
            }
            seen[i] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err("some particle missing from order".into());
        }
        // Leaf ranges tile [0, n) without overlap.
        let mut covered = 0;
        for (li, &ni) in self.leaves.iter().enumerate() {
            let node = &self.nodes[ni];
            if !node.is_leaf() {
                return Err(format!("leaf list entry {li} is an interior node"));
            }
            if node.start != covered {
                return Err(format!(
                    "leaf {li} range does not tile: {} != {covered}",
                    node.start
                ));
            }
            covered = node.end;
        }
        if covered != positions.len() {
            return Err("leaf ranges do not cover all particles".into());
        }
        // Bounds are exact: a leaf's box is the tight box of its particles,
        // an interior node's the union of its children's. The pruned walk
        // of `InteractionList::build` relies on this nesting.
        for (ni, node) in self.nodes.iter().enumerate() {
            let exact = match node.children {
                Some((l, r)) => {
                    let (l, r) = (&self.nodes[l].bounds, &self.nodes[r].bounds);
                    Aabb::from_points([&l.min, &l.max, &r.min, &r.max])
                }
                None => Aabb::from_points(
                    self.order[node.start..node.end]
                        .iter()
                        .map(|&pi| &positions[pi as usize]),
                ),
            };
            if node.bounds != exact {
                return Err(format!("node {ni} bounds are not exact"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ]
            })
            .collect()
    }

    #[test]
    fn invariants_hold_on_random_input() {
        let pts = random_points(500, 1);
        let tree = RcbTree::build(&pts, 16);
        tree.check_invariants(&pts).unwrap();
    }

    #[test]
    fn leaves_respect_capacity() {
        let pts = random_points(1000, 2);
        let tree = RcbTree::build(&pts, 32);
        for li in 0..tree.n_leaves() {
            let n = tree.leaf_particles(li).len();
            assert!((1..=32).contains(&n), "leaf size {n}");
        }
    }

    #[test]
    fn median_split_balances_leaves() {
        let pts = random_points(1024, 3);
        let tree = RcbTree::build(&pts, 16);
        // A power-of-two count with median splits gives perfectly equal leaves.
        let sizes: Vec<usize> = (0..tree.n_leaves())
            .map(|l| tree.leaf_particles(l).len())
            .collect();
        assert!(sizes.iter().all(|&s| s == 16), "sizes = {sizes:?}");
    }

    #[test]
    fn single_particle_tree() {
        let pts = vec![[1.0, 2.0, 3.0]];
        let tree = RcbTree::build(&pts, 8);
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.leaf_particles(0), &[0]);
        tree.check_invariants(&pts).unwrap();
    }

    #[test]
    fn duplicate_positions_are_handled() {
        let pts = vec![[5.0, 5.0, 5.0]; 100];
        let tree = RcbTree::build(&pts, 8);
        tree.check_invariants(&pts).unwrap();
        assert!(tree.n_leaves() >= 100 / 8);
    }

    #[test]
    fn child_bounds_nest_in_parent() {
        let pts = random_points(300, 4);
        let tree = RcbTree::build(&pts, 10);
        for node in &tree.nodes {
            if let Some((l, r)) = node.children {
                for child in [l, r] {
                    let cb = &tree.nodes[child].bounds;
                    for c in 0..3 {
                        assert!(cb.min[c] >= node.bounds.min[c]);
                        assert!(cb.max[c] <= node.bounds.max[c]);
                    }
                }
            }
        }
    }

    #[test]
    fn inexact_bounds_are_rejected() {
        let pts = random_points(300, 5);
        let mut tree = RcbTree::build(&pts, 10);
        tree.check_invariants(&pts).unwrap();
        tree.nodes[0].bounds.max[0] += 1e-9;
        assert!(tree.check_invariants(&pts).is_err(), "loose root box");
        let mut tree = RcbTree::build(&pts, 10);
        let leaf = *tree.leaves.last().unwrap();
        tree.nodes[leaf].bounds.min[1] -= 1e-9;
        assert!(tree.check_invariants(&pts).is_err(), "loose leaf box");
    }
}
