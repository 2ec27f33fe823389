//! The *Geometry* kernel (timer `upGeo`): measures the volumes of gas
//! particles from the number-density sum `n_i = Σ_j W(r_ij, h̄_ij)`, with
//! `V_i = 1/n_i` (finalized by `finalize::FinalizeGeometry`).

use crate::arith::Real;
use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::geometry_pair;
use sycl_sim::{Lanes, Sg};

/// Loads the density kernels' particle object `[weight, x, y, z, h]`
/// (shared with *Corrections* and *Extras*).
pub(crate) fn load_density_fields<'sg>(
    data: &DeviceParticles,
    sg: &'sg Sg,
    slots: &Lanes<'sg, u32>,
    weight: Lanes<'sg, f32>,
) -> Vec<Lanes<'sg, f32>> {
    vec![
        weight,
        sg.load_f32(&data.pos[0], slots),
        sg.load_f32(&data.pos[1], slots),
        sg.load_f32(&data.pos[2], slots),
        sg.load_f32(&data.h, slots),
    ]
}

/// Geometry physics definition.
#[derive(Clone)]
pub(crate) struct Geometry {
    /// The particle state.
    pub data: DeviceParticles,
    /// Periodic box side (position units).
    pub box_size: f32,
}

impl PairPhysics for Geometry {
    fn name(&self) -> &'static str {
        "upGeo"
    }

    fn output_buffers(&self) -> Vec<sycl_sim::Buffer> {
        vec![self.data.volume.clone()]
    }

    fn n_acc(&self) -> usize {
        1
    }

    fn load_exchange<'sg>(
        &self,
        sg: &'sg Sg,
        slots: &Lanes<'sg, u32>,
        valid_f: &Lanes<'sg, f32>,
    ) -> Vec<Lanes<'sg, f32>> {
        load_density_fields(&self.data, sg, slots, valid_f.clone())
    }

    #[inline(always)]
    fn interact<T: Real>(
        &self,
        cx: T::Ctx,
        own: &[T],
        _own_extra: &[T],
        other: &[T],
        acc: &mut [T],
    ) {
        geometry_pair(cx, own, other, self.box_size.into(), acc);
    }
}
