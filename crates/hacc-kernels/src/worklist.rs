//! Device work lists: half-warp tiles and broadcast chunk lists.
//!
//! The pair-parallel kernels (Select / Memory / vISA variants) process one
//! *tile* per sub-group: up to `h = S/2` particle slots from leaf-chunk A
//! in the lower lanes and up to `h` slots from chunk B in the upper lanes
//! (paper Figure 3). The restructured Broadcast variant is chunk-parallel:
//! one sub-group owns up to `S` particles and loops over all neighboring
//! chunks, so its work list is a chunk array plus a flattened neighbor
//! list.
//!
//! Particle indices refer to *leaf-ordered* storage (the RCB permutation
//! is applied to the device buffers), so slots are contiguous.

use hacc_tree::{InteractionList, LeafPair, RcbTree};
use rayon::prelude::*;

/// One half-warp tile: `a_len ≤ h` slots starting at `a_start`, paired
/// with `b_len ≤ h` slots at `b_start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// First slot of the A side (leaf-ordered index).
    pub a_start: u32,
    /// Number of valid A slots.
    pub a_len: u32,
    /// First slot of the B side.
    pub b_start: u32,
    /// Number of valid B slots.
    pub b_len: u32,
    /// A and B are the same slot range (upper-half writes are masked to
    /// avoid double counting).
    pub self_tile: bool,
}

/// One broadcast-variant chunk plus the range of its neighbor entries in
/// [`ChunkWork::neighbors`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// First slot owned by this chunk.
    pub start: u32,
    /// Number of valid slots (≤ sub-group size).
    pub len: u32,
    /// Offset into the flattened neighbor array.
    pub nbr_offset: u32,
    /// Number of neighbor entries.
    pub nbr_count: u32,
}

/// Chunk-parallel work list for the Broadcast variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkWork {
    /// All chunks (one sub-group instance each).
    pub chunks: Vec<Chunk>,
    /// Flattened neighbor chunk ranges: `(start, len)` slot ranges.
    pub neighbors: Vec<(u32, u32)>,
}

/// Leaf pairs one parallel task expands into tiles.
const PAIR_BLOCK: usize = 4096;

/// Slot range `(start, end)` of every leaf, in leaf order.
pub(crate) fn leaf_slots(tree: &RcbTree) -> Vec<(u32, u32)> {
    tree.leaves
        .iter()
        .map(|&ni| (tree.nodes[ni].start as u32, tree.nodes[ni].end as u32))
        .collect()
}

/// A leaf's chunks as `(first slot, length)`: chunk `i` starts at
/// `start + i·cap`, and every chunk but the last holds `cap` slots.
fn leaf_chunks((start, end): (u32, u32), cap: u32) -> impl Iterator<Item = (u32, u32)> {
    (start..end)
        .step_by(cap as usize)
        .map(move |first| (first, cap.min(end - first)))
}

/// Builds the half-warp tile list for sub-group size `sg_size`
/// (`h = sg_size/2` slots per side).
///
/// Contiguous blocks of leaf pairs expand to tiles in parallel, each
/// into one `Vec`, and the blocks are concatenated in order into one
/// pre-sized array — so the tile list, and therefore the sub-group →
/// tile assignment, is identical to a serial build at any thread count.
pub fn build_tiles(tree: &RcbTree, list: &InteractionList, sg_size: usize) -> Vec<Tile> {
    assert!(sg_size >= 2 && sg_size.is_multiple_of(2));
    let h = (sg_size / 2) as u32;
    let leaves = leaf_slots(tree);
    let blocks: Vec<Vec<Tile>> = list
        .pairs
        .par_chunks(PAIR_BLOCK)
        .map(|block| {
            let mut tiles = Vec::with_capacity(block.len());
            for pair in block {
                let (la, lb) = (leaves[pair.a as usize], leaves[pair.b as usize]);
                let self_pair = pair.a == pair.b;
                for (i, (a_start, a_len)) in leaf_chunks(la, h).enumerate() {
                    // Self pair: unordered chunk combinations, including i == j.
                    let skip = if self_pair { i } else { 0 };
                    for (j, (b_start, b_len)) in leaf_chunks(lb, h).enumerate().skip(skip) {
                        tiles.push(Tile {
                            a_start,
                            a_len,
                            b_start,
                            b_len,
                            self_tile: self_pair && i == j,
                        });
                    }
                }
            }
            tiles
        })
        .collect();
    blocks.concat()
}

/// Builds the chunk-parallel work list for the Broadcast variant with
/// chunk capacity `sg_size`, from every leaf's slot range
/// (`leaf_slots`) and the leaf pairs.
///
/// Every chunk's neighbor list contains all chunks of all leaves that
/// interact with the chunk's leaf (including its own leaf, and itself),
/// leaves in pair order.
pub fn build_chunks(leaves: &[(u32, u32)], pairs: &[LeafPair], sg_size: usize) -> ChunkWork {
    assert!(sg_size >= 2);
    let cap = sg_size as u32;
    // CSR adjacency, leaf -> interacting leaves: the symmetric closure
    // of the pairs, counted, prefix-summed, then filled in pair order.
    let edges = || {
        pairs
            .iter()
            .flat_map(|p| std::iter::once((p.a, p.b)).chain((p.a != p.b).then_some((p.b, p.a))))
    };
    let mut offset = vec![0usize; leaves.len() + 1];
    for (from, _) in edges() {
        offset[from as usize + 1] += 1;
    }
    for li in 0..leaves.len() {
        offset[li + 1] += offset[li];
    }
    let (mut adj, mut fill) = (vec![0u32; offset[leaves.len()]], offset.clone());
    for (from, to) in edges() {
        adj[fill[from as usize]] = to;
        fill[from as usize] += 1;
    }
    // A leaf's neighbor ranges are written once, for its first chunk;
    // its further chunks copy them.
    let (mut chunks, mut neighbors) = (Vec::new(), Vec::new());
    for (li, &leaf) in leaves.iter().enumerate() {
        let first = neighbors.len();
        for &lnbr in &adj[offset[li]..offset[li + 1]] {
            neighbors.extend(leaf_chunks(leaves[lnbr as usize], cap));
        }
        let count = neighbors.len() - first;
        for (i, (start, len)) in leaf_chunks(leaf, cap).enumerate() {
            if i > 0 {
                neighbors.extend_from_within(first..first + count);
            }
            chunks.push(Chunk {
                start,
                len,
                nbr_offset: (first + i * count) as u32,
                nbr_count: count as u32,
            });
        }
    }
    ChunkWork { chunks, neighbors }
}

/// Verifies (O(n²), tests only) that the half-warp tile list covers every
/// close particle pair: each ordered pair `i → j` by exactly one tile side.
pub fn check_tiles_cover(
    tiles: &[Tile],
    tree: &RcbTree,
    positions: &[[f64; 3]],
    box_size: f64,
    cutoff: f64,
) -> Result<(), String> {
    // Slot index of each particle in leaf order.
    let mut slot_of = vec![0u32; positions.len()];
    for (slot, &pi) in tree.order.iter().enumerate() {
        slot_of[pi as usize] = slot as u32;
    }
    let c2 = cutoff * cutoff;
    // Coverage counts per *ordered* (i, j): i must see j exactly once.
    let mut cover = std::collections::HashMap::<(u32, u32), u32>::new();
    for t in tiles {
        for ia in t.a_start..t.a_start + t.a_len {
            for ib in t.b_start..t.b_start + t.b_len {
                *cover.entry((ia, ib)).or_default() += 1;
                // Within a self tile the loop itself enumerates every
                // ordered combination.
                if !t.self_tile {
                    *cover.entry((ib, ia)).or_default() += 1;
                }
            }
        }
    }
    for i in 0..positions.len() {
        for j in 0..positions.len() {
            let d2 = hacc_tree::dist_sq_periodic(&positions[i], &positions[j], box_size);
            if d2 <= c2 {
                match cover.get(&(slot_of[i], slot_of[j])) {
                    Some(&1) => {}
                    Some(&k) => return Err(format!("pair {i}->{j} covered {k} times")),
                    None => return Err(format!("pair {i}->{j} not covered")),
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Splits each leaf into chunks of at most `cap` slots, one `Vec`
    /// per leaf — what both builders used to start from.
    fn leaf_chunks_oracle(tree: &RcbTree, cap: usize) -> Vec<Vec<(u32, u32)>> {
        (0..tree.n_leaves())
            .map(|li| {
                let node = &tree.nodes[tree.leaves[li]];
                let mut out = Vec::new();
                let mut s = node.start;
                while s < node.end {
                    let len = (node.end - s).min(cap);
                    out.push((s as u32, len as u32));
                    s += len;
                }
                out
            })
            .collect()
    }

    /// The tile builder the blocked one replaced: one `Vec` of tiles per
    /// leaf pair, flattened in pair order. The oracle for `build_tiles`.
    fn tiles_oracle(tree: &RcbTree, list: &InteractionList, sg_size: usize) -> Vec<Tile> {
        let chunks = leaf_chunks_oracle(tree, sg_size / 2);
        list.pairs
            .iter()
            .flat_map(|pair| {
                let (la, lb) = (pair.a as usize, pair.b as usize);
                let mut tiles = Vec::new();
                if la == lb {
                    let cs = &chunks[la];
                    for i in 0..cs.len() {
                        for j in i..cs.len() {
                            tiles.push(Tile {
                                a_start: cs[i].0,
                                a_len: cs[i].1,
                                b_start: cs[j].0,
                                b_len: cs[j].1,
                                self_tile: i == j,
                            });
                        }
                    }
                } else {
                    for &(astart, alen) in &chunks[la] {
                        for &(bstart, blen) in &chunks[lb] {
                            tiles.push(Tile {
                                a_start: astart,
                                a_len: alen,
                                b_start: bstart,
                                b_len: blen,
                                self_tile: false,
                            });
                        }
                    }
                }
                tiles
            })
            .collect()
    }

    /// The chunk builder the CSR one replaced: a `Vec<Vec<u32>>`
    /// adjacency and a neighbor `Vec` per leaf, copied once per chunk.
    /// The oracle for `build_chunks`.
    fn chunks_oracle(tree: &RcbTree, list: &InteractionList, sg_size: usize) -> ChunkWork {
        let chunks_per_leaf = leaf_chunks_oracle(tree, sg_size);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); tree.n_leaves()];
        for pair in &list.pairs {
            adj[pair.a as usize].push(pair.b);
            if pair.a != pair.b {
                adj[pair.b as usize].push(pair.a);
            }
        }
        let mut chunks = Vec::new();
        let mut neighbors = Vec::new();
        for (li, leaf_cs) in chunks_per_leaf.iter().enumerate() {
            let leaf_neighbors: Vec<(u32, u32)> = adj[li]
                .iter()
                .flat_map(|&lnbr| chunks_per_leaf[lnbr as usize].iter().copied())
                .collect();
            for &(start, len) in leaf_cs {
                let nbr_offset = neighbors.len() as u32;
                neighbors.extend_from_slice(&leaf_neighbors);
                chunks.push(Chunk {
                    start,
                    len,
                    nbr_offset,
                    nbr_count: neighbors.len() as u32 - nbr_offset,
                });
            }
        }
        ChunkWork { chunks, neighbors }
    }

    /// Both builders at pool widths 1 and 3 against their oracles.
    fn assert_builders_match_oracles(pts: &[[f64; 3]], max_leaf: usize, cutoff: f64, sg: usize) {
        let box_size = 10.0;
        let tree = RcbTree::build(pts, max_leaf);
        let list = InteractionList::build(&tree, box_size, cutoff);
        let (tiles, chunks) = (
            tiles_oracle(&tree, &list, sg),
            chunks_oracle(&tree, &list, sg),
        );
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                assert_eq!(
                    build_tiles(&tree, &list, sg),
                    tiles,
                    "tiles, {threads} threads"
                );
                let built = build_chunks(&leaf_slots(&tree), &list.pairs, sg);
                assert_eq!(built, chunks, "chunks, {threads} threads");
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Tiles and chunks equal the oracles bit for bit over
        /// sub-group sizes 4..64, leaves of up to 4 × sg slots (so
        /// multi-chunk leaves on both lists), one-leaf trees and self
        /// pairs (every list has them).
        #[test]
        fn builders_equal_the_oracles(
            n in 1usize..240,
            sg_log2 in 2u32..7,
            leaf_halves in 1usize..9,
            cutoff in 0.1f64..4.0,
            seed in 0u64..1 << 32,
        ) {
            let sg = 1 << sg_log2;
            let pts = random_points(n, 10.0, seed);
            assert_builders_match_oracles(&pts, leaf_halves * sg / 2, cutoff, sg);
        }
    }

    #[test]
    fn builders_equal_the_oracles_across_pair_blocks() {
        let pts = random_points(1500, 10.0, 7);
        let tree = RcbTree::build(&pts, 2);
        let list = InteractionList::build(&tree, 10.0, 2.5);
        assert!(list.len() > 2 * PAIR_BLOCK, "{} pairs", list.len());
        assert_builders_match_oracles(&pts, 2, 2.5, 4);
        // A single leaf holding every particle.
        assert_builders_match_oracles(&pts[..200], 200, 2.5, 16);
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
    fn tiles_have_bounded_sides() {
        let pts = random_points(300, 10.0, 1);
        let tree = RcbTree::build(&pts, 16);
        let list = InteractionList::build(&tree, 10.0, 2.0);
        let tiles = build_tiles(&tree, &list, 32);
        for t in &tiles {
            assert!(t.a_len >= 1 && t.a_len <= 16);
            assert!(t.b_len >= 1 && t.b_len <= 16);
        }
    }

    #[test]
    fn tiles_cover_every_close_pair_exactly_once() {
        let box_size = 10.0;
        let pts = random_points(120, box_size, 2);
        let tree = RcbTree::build(&pts, 16);
        let cutoff = 1.8;
        let list = InteractionList::build(&tree, box_size, cutoff);
        let tiles = build_tiles(&tree, &list, 32);
        check_tiles_cover(&tiles, &tree, &pts, box_size, cutoff).unwrap();
    }

    #[test]
    fn tiles_cover_with_small_subgroup() {
        let box_size = 8.0;
        let pts = random_points(90, box_size, 3);
        let tree = RcbTree::build(&pts, 16); // leaves larger than h=8 → chunked
        let cutoff = 1.5;
        let list = InteractionList::build(&tree, box_size, cutoff);
        let tiles = build_tiles(&tree, &list, 16);
        check_tiles_cover(&tiles, &tree, &pts, box_size, cutoff).unwrap();
    }

    #[test]
    fn chunk_neighbors_include_self() {
        let pts = random_points(200, 10.0, 4);
        let tree = RcbTree::build(&pts, 16);
        let list = InteractionList::build(&tree, 10.0, 2.0);
        let work = build_chunks(&leaf_slots(&tree), &list.pairs, 32);
        for c in &work.chunks {
            let nbrs =
                &work.neighbors[c.nbr_offset as usize..(c.nbr_offset + c.nbr_count) as usize];
            assert!(
                nbrs.iter()
                    .any(|&(s, l)| s <= c.start && c.start + c.len <= s + l),
                "chunk at {} must neighbor itself",
                c.start
            );
        }
    }

    #[test]
    fn chunks_partition_all_slots() {
        let pts = random_points(157, 10.0, 5);
        let tree = RcbTree::build(&pts, 16);
        let list = InteractionList::build(&tree, 10.0, 1.0);
        let work = build_chunks(&leaf_slots(&tree), &list.pairs, 32);
        let mut covered = vec![false; pts.len()];
        for c in &work.chunks {
            for s in c.start..c.start + c.len {
                assert!(!covered[s as usize], "slot {s} in two chunks");
                covered[s as usize] = true;
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn chunk_neighbor_lists_cover_close_pairs() {
        let box_size = 9.0;
        let pts = random_points(80, box_size, 6);
        let tree = RcbTree::build(&pts, 8);
        let cutoff = 1.5;
        let list = InteractionList::build(&tree, box_size, cutoff);
        let work = build_chunks(&leaf_slots(&tree), &list.pairs, 32);
        let mut slot_of = vec![0u32; pts.len()];
        for (slot, &pi) in tree.order.iter().enumerate() {
            slot_of[pi as usize] = slot as u32;
        }
        // chunk containing a slot
        let chunk_of = |slot: u32| {
            work.chunks
                .iter()
                .find(|c| c.start <= slot && slot < c.start + c.len)
                .expect("slot must be in a chunk")
        };
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let d2 = hacc_tree::dist_sq_periodic(&pts[i], &pts[j], box_size);
                if d2 <= cutoff * cutoff {
                    let c = chunk_of(slot_of[i]);
                    let sj = slot_of[j];
                    let nbrs = &work.neighbors
                        [c.nbr_offset as usize..(c.nbr_offset + c.nbr_count) as usize];
                    assert!(
                        nbrs.iter().any(|&(s, l)| s <= sj && sj < s + l),
                        "pair {i}->{j} not covered by chunk neighbors"
                    );
                }
            }
        }
    }
}
