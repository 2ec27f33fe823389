//! The offload: one particle subset turned into device work — validated,
//! decomposed into an RCB tree at a leaf capacity, its leaf pairs within
//! the cutoff packed into tiles for a sub-group size, and reordered into
//! leaf order. Every short-range launch (the simulation's gravity and
//! hydro sub-cycles, the experiment sweeps, the §7.2 replays) builds one,
//! uploads it, and scatters the leaf-ordered results back.

use crate::launch::WorkLists;
use crate::particles::{DeviceParticles, HostParticles};
use hacc_tree::{InteractionList, RcbTree};
use sycl_sim::LaunchError;

/// A validated particle subset with its interaction geometry and work
/// lists, ready to upload.
pub struct Offload {
    /// RCB tree over the subset's positions; `tree.order[s]` is the
    /// subset index of leaf slot `s`.
    pub tree: RcbTree,
    /// Leaf pairs within the cutoff.
    pub list: InteractionList,
    /// Tiles for the sub-group size the offload was built for.
    pub work: WorkLists,
    /// The subset in leaf order — what [`Offload::upload`] copies.
    pub particles: HostParticles,
    /// Periodic box side.
    pub box_size: f64,
}

impl Offload {
    /// Validates `subset` ([`HostParticles::validate`]) and builds its
    /// geometry: the RCB tree at `leaf_capacity`, the leaf pairs within
    /// `cutoff` in a periodic box of side `box_size`, and the work lists
    /// for `sg_size`. An empty or invalid subset is a
    /// [`LaunchError::Config`] naming the field and the subset index.
    pub fn new(
        subset: &HostParticles,
        box_size: f64,
        cutoff: f64,
        leaf_capacity: usize,
        sg_size: usize,
    ) -> Result<Self, LaunchError> {
        let config = |message| LaunchError::Config { message };
        if subset.is_empty() {
            return Err(config("an offload needs at least one particle".into()));
        }
        subset.validate().map_err(config)?;
        let tree = RcbTree::build(&subset.pos, leaf_capacity);
        let list = InteractionList::build(&tree, box_size, cutoff);
        Ok(Self {
            work: WorkLists::build(&tree, &list, sg_size),
            particles: subset.permuted(&tree.order),
            tree,
            list,
            box_size,
        })
    }

    /// A fresh device copy of the leaf-ordered particles.
    pub fn upload(&self) -> DeviceParticles {
        DeviceParticles::upload(&self.particles)
    }

    /// Leaf order → subset order: entry `i` of the result is `leaf(s)`
    /// for the slot `s` that holds subset particle `i`.
    pub fn scatter<T: Clone + Default>(&self, leaf: impl Fn(usize) -> T) -> Vec<T> {
        let mut out = vec![T::default(); self.tree.order.len()];
        for (slot, &pi) in self.tree.order.iter().enumerate() {
            out[pi as usize] = leaf(slot);
        }
        out
    }
}
