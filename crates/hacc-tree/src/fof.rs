//! Friends-of-Friends (FOF) halo finding and grid DBSCAN.
//!
//! CRK-HACC's AGN feedback needs massive dark-matter halos identified at
//! high frequency. The production code delegates this to ArborX's
//! Kokkos-based DBSCAN; here the same functionality is provided natively:
//! a union-find FOF over the chaining mesh, plus a DBSCAN variant with a
//! `min_pts` core condition (FOF is DBSCAN with `min_pts = 1`).

use crate::chaining::ChainingMesh;

/// Disjoint-set (union-find) with path halving and union by size.
#[derive(Clone, Debug)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns the new root.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        ra
    }
}

/// One identified halo/cluster.
#[derive(Clone, Debug)]
pub struct Halo {
    /// Member particle indices, sorted.
    pub members: Vec<u32>,
    /// Center of mass (periodic-aware, wrapped into the box).
    pub center: [f64; 3],
    /// Total mass of members.
    pub mass: f64,
}

/// Friends-of-Friends: links every particle pair closer than
/// `linking_length`, then reports connected components with at least
/// `min_members` particles, sorted by descending mass.
pub fn fof_halos(
    positions: &[[f64; 3]],
    masses: &[f64],
    box_size: f64,
    linking_length: f64,
    min_members: usize,
) -> Vec<Halo> {
    assert_eq!(positions.len(), masses.len());
    assert!(linking_length > 0.0 && linking_length < box_size / 2.0);
    if positions.is_empty() {
        return Vec::new();
    }
    let mesh = ChainingMesh::build(positions, box_size, linking_length);
    let mut uf = UnionFind::new(positions.len());
    for (i, p) in positions.iter().enumerate() {
        mesh.for_neighbors(positions, p, linking_length, |j| {
            if (j as usize) > i {
                uf.union(i as u32, j);
            }
        });
    }
    collect_components(positions, masses, box_size, &mut uf, min_members, None)
}

/// Grid DBSCAN (the ArborX-style FOF generalization): a particle is a
/// *core* point when it has at least `min_pts` neighbors (including
/// itself) within `eps`. Clusters are formed by linking core points within
/// `eps` of each other; non-core (border) points join the cluster of any
/// core point within `eps`. Noise points are dropped.
pub fn dbscan(
    positions: &[[f64; 3]],
    masses: &[f64],
    box_size: f64,
    eps: f64,
    min_pts: usize,
    min_members: usize,
) -> Vec<Halo> {
    assert_eq!(positions.len(), masses.len());
    assert!(eps > 0.0 && eps < box_size / 2.0 && min_pts >= 1);
    if positions.is_empty() {
        return Vec::new();
    }
    let mesh = ChainingMesh::build(positions, box_size, eps);
    // Pass 1: classify core points.
    let mut is_core = vec![false; positions.len()];
    for (i, p) in positions.iter().enumerate() {
        let mut count = 0usize;
        mesh.for_neighbors(positions, p, eps, |_| count += 1);
        is_core[i] = count >= min_pts;
    }
    // Pass 2: union core–core links; attach border points to one core.
    let mut uf = UnionFind::new(positions.len());
    let mut in_cluster = is_core.clone();
    for (i, p) in positions.iter().enumerate() {
        if !is_core[i] {
            continue;
        }
        mesh.for_neighbors(positions, p, eps, |j| {
            let j = j as usize;
            if j == i {
                return;
            }
            if is_core[j] {
                uf.union(i as u32, j as u32);
            } else if !in_cluster[j] {
                // Border point: joins the first core cluster that reaches it.
                uf.union(i as u32, j as u32);
                in_cluster[j] = true;
            }
        });
    }
    collect_components(
        positions,
        masses,
        box_size,
        &mut uf,
        min_members,
        Some(&in_cluster),
    )
}

fn collect_components(
    positions: &[[f64; 3]],
    masses: &[f64],
    box_size: f64,
    uf: &mut UnionFind,
    min_members: usize,
    keep: Option<&[bool]>,
) -> Vec<Halo> {
    use std::collections::HashMap;
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
    for i in 0..positions.len() as u32 {
        if let Some(k) = keep {
            if !k[i as usize] {
                continue;
            }
        }
        groups.entry(uf.find(i)).or_default().push(i);
    }
    let mut halos: Vec<Halo> = groups
        .into_values()
        .filter(|m| m.len() >= min_members.max(1))
        .map(|mut members| {
            members.sort_unstable();
            // Periodic-aware center of mass: accumulate minimum-image
            // offsets relative to the first member.
            let anchor = positions[members[0] as usize];
            let mut com = [0.0f64; 3];
            let mut mass = 0.0f64;
            for &i in &members {
                let m = masses[i as usize];
                let d = crate::aabb::min_image(&anchor, &positions[i as usize], box_size);
                for c in 0..3 {
                    com[c] += m * d[c];
                }
                mass += m;
            }
            let mut center = [0.0f64; 3];
            for c in 0..3 {
                center[c] = (anchor[c] + com[c] / mass).rem_euclid(box_size);
            }
            Halo {
                members,
                center,
                mass,
            }
        })
        .collect();
    halos.sort_by(|a, b| {
        b.mass
            .partial_cmp(&a.mass)
            .unwrap()
            .then(a.members.cmp(&b.members))
    });
    halos
}

/// Brute-force FOF reference (O(n²)): the oracle `fof_halos` is tested
/// against.
#[cfg(test)]
fn fof_halos_brute(
    positions: &[[f64; 3]],
    masses: &[f64],
    box_size: f64,
    linking_length: f64,
    min_members: usize,
) -> Vec<Halo> {
    let mut uf = UnionFind::new(positions.len());
    let b2 = linking_length * linking_length;
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            if crate::aabb::dist_sq_periodic(&positions[i], &positions[j], box_size) <= b2 {
                uf.union(i as u32, j as u32);
            }
        }
    }
    collect_components(positions, masses, box_size, &mut uf, min_members, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cluster(
        center: [f64; 3],
        n: usize,
        r: f64,
        rng: &mut StdRng,
        box_size: f64,
    ) -> Vec<[f64; 3]> {
        (0..n)
            .map(|_| {
                let mut p = [0.0; 3];
                for c in 0..3 {
                    p[c] = (center[c] + rng.gen_range(-r..r)).rem_euclid(box_size);
                }
                p
            })
            .collect()
    }

    #[test]
    fn finds_two_well_separated_clusters() {
        let box_size = 20.0;
        let mut rng = StdRng::seed_from_u64(5);
        let mut pts = cluster([3.0, 3.0, 3.0], 30, 0.3, &mut rng, box_size);
        pts.extend(cluster([15.0, 15.0, 15.0], 20, 0.3, &mut rng, box_size));
        let masses = vec![1.0; pts.len()];
        let halos = fof_halos(&pts, &masses, box_size, 1.0, 5);
        assert_eq!(halos.len(), 2);
        assert_eq!(halos[0].members.len(), 30);
        assert_eq!(halos[1].members.len(), 20);
    }

    #[test]
    fn halo_spanning_periodic_seam_is_one_group_with_wrapped_center() {
        let box_size = 10.0;
        let mut rng = StdRng::seed_from_u64(6);
        let pts = cluster([0.0, 5.0, 5.0], 40, 0.4, &mut rng, box_size);
        let masses = vec![1.0; pts.len()];
        let halos = fof_halos(&pts, &masses, box_size, 1.0, 5);
        assert_eq!(halos.len(), 1);
        let cx = halos[0].center[0];
        assert!(
            !(1.0..=9.0).contains(&cx),
            "center should sit near the seam, got {cx}"
        );
    }

    #[test]
    fn matches_brute_force_partition() {
        let box_size = 12.0;
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<[f64; 3]> = (0..150)
            .map(|_| {
                [
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                    rng.gen_range(0.0..box_size),
                ]
            })
            .collect();
        let masses = vec![1.0; pts.len()];
        let fast = fof_halos(&pts, &masses, box_size, 1.2, 1);
        let slow = fof_halos_brute(&pts, &masses, box_size, 1.2, 1);
        let key = |h: &Halo| h.members.clone();
        let mut fk: Vec<_> = fast.iter().map(key).collect();
        let mut sk: Vec<_> = slow.iter().map(key).collect();
        fk.sort();
        sk.sort();
        assert_eq!(fk, sk);
    }

    #[test]
    fn linking_length_controls_percolation() {
        // A chain of particles 0.5 apart: b = 0.6 links everything,
        // b = 0.4 links nothing.
        let pts: Vec<[f64; 3]> = (0..10).map(|i| [1.0 + 0.5 * i as f64, 5.0, 5.0]).collect();
        let masses = vec![1.0; pts.len()];
        let linked = fof_halos(&pts, &masses, 20.0, 0.6, 1);
        assert_eq!(linked.len(), 1);
        assert_eq!(linked[0].members.len(), 10);
        let unlinked = fof_halos(&pts, &masses, 20.0, 0.4, 1);
        assert_eq!(unlinked.len(), 10);
    }

    #[test]
    fn dbscan_min_pts_one_equals_fof() {
        let box_size = 15.0;
        let mut rng = StdRng::seed_from_u64(8);
        let mut pts = cluster([4.0, 4.0, 4.0], 25, 0.5, &mut rng, box_size);
        pts.extend(cluster([11.0, 11.0, 11.0], 15, 0.5, &mut rng, box_size));
        let masses = vec![1.0; pts.len()];
        let f = fof_halos(&pts, &masses, box_size, 0.8, 1);
        let d = dbscan(&pts, &masses, box_size, 0.8, 1, 1);
        let key = |h: &Halo| h.members.clone();
        let mut fk: Vec<_> = f.iter().map(key).collect();
        let mut dk: Vec<_> = d.iter().map(key).collect();
        fk.sort();
        dk.sort();
        assert_eq!(fk, dk);
    }

    #[test]
    fn dbscan_drops_noise() {
        let box_size = 20.0;
        let mut rng = StdRng::seed_from_u64(9);
        let mut pts = cluster([5.0, 5.0, 5.0], 30, 0.3, &mut rng, box_size);
        // Isolated noise points.
        pts.push([15.0, 2.0, 17.0]);
        pts.push([18.0, 18.0, 1.0]);
        let masses = vec![1.0; pts.len()];
        let halos = dbscan(&pts, &masses, box_size, 0.8, 5, 1);
        assert_eq!(halos.len(), 1, "noise must not form halos");
        assert_eq!(halos[0].members.len(), 30);
    }

    #[test]
    fn halos_sorted_by_mass() {
        let box_size = 30.0;
        let mut rng = StdRng::seed_from_u64(10);
        let mut pts = cluster([5.0, 5.0, 5.0], 10, 0.3, &mut rng, box_size);
        pts.extend(cluster([15.0, 15.0, 15.0], 40, 0.3, &mut rng, box_size));
        pts.extend(cluster([25.0, 25.0, 25.0], 20, 0.3, &mut rng, box_size));
        let masses = vec![1.0; pts.len()];
        let halos = fof_halos(&pts, &masses, box_size, 1.0, 1);
        assert_eq!(halos.len(), 3);
        assert!(halos[0].mass >= halos[1].mass && halos[1].mass >= halos[2].mass);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(1), uf.find(2));
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
        let r = uf.find(3) as usize;
        assert_eq!(uf.size[r], 4);
        assert_eq!(uf.size[5], 1);
    }
}
