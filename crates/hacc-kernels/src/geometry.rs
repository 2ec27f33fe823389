//! The *Geometry* kernel (timer `upGeo`): measures the volumes of gas
//! particles from the number-density sum `n_i = Σ_j W(r_ij, h̄_ij)`, with
//! `V_i = 1/n_i` (finalized by [`crate::finalize::FinalizeGeometry`]).

use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::pair_geometry;
use sycl_sim::{Lanes, Sg};

/// Exchanged field indices.
const F_VALID: usize = 0;
const F_X: usize = 1;
const F_H: usize = 4;

/// Geometry physics definition.
#[derive(Clone)]
pub struct Geometry {
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
        vec![
            valid_f.clone(),
            sg.load_f32(&self.data.pos[0], slots),
            sg.load_f32(&self.data.pos[1], slots),
            sg.load_f32(&self.data.pos[2], slots),
            sg.load_f32(&self.data.h, slots),
        ]
    }

    fn interact<'sg>(
        &self,
        sg: &'sg Sg,
        own: &[Lanes<'sg, f32>],
        _own_extra: &[Lanes<'sg, f32>],
        other: &[Lanes<'sg, f32>],
        acc: &mut [Lanes<'sg, f32>],
    ) {
        let g = pair_geometry(
            sg,
            [&own[F_X], &own[F_X + 1], &own[F_X + 2]],
            &own[F_H],
            [&other[F_X], &other[F_X + 1], &other[F_X + 2]],
            &other[F_H],
            self.box_size,
        );
        // Number-density sum, neutralizing padding partners.
        acc[0] = &acc[0] + &(&g.w * &other[F_VALID]);
    }

    fn write(
        &self,
        sg: &Sg,
        slots: &Lanes<u32>,
        _own: &[Lanes<f32>],
        _own_extra: &[Lanes<f32>],
        acc: &[Lanes<f32>],
        mask: &Lanes<bool>,
        atomic: bool,
    ) {
        crate::halfwarp::accumulate(sg, &self.data.volume, slots, &acc[0], mask, atomic);
    }
}
