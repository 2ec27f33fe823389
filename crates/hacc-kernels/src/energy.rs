//! The *Energy* kernel (timers `upBarDu`, `upBarDuF`): the derivative of
//! the specific internal energy,
//!
//! ```text
//!   du_i/dt = Σ_j m_j (P_i/ρ_i² + ½ Π_ij) (v_i − v_j)·Ĝ_ij
//! ```
//!
//! using the same exchanged particle object and pair-antisymmetric
//! gradient as *Acceleration* (the other "register heavy" hot spot).

use crate::acceleration::{load_force_fields, F_A, F_B, F_CS, F_H, F_M, F_PTERM, F_RHO, F_V, F_X};
use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::{corrected_gradient, pair_geometry, viscosity};
use sycl_sim::{Lanes, Sg};

/// Energy physics definition.
#[derive(Clone)]
pub struct Energy {
    /// The particle state.
    pub data: DeviceParticles,
    /// Periodic box side.
    pub box_size: f32,
}

impl PairPhysics for Energy {
    fn name(&self) -> &'static str {
        "upBarDu"
    }

    fn output_buffers(&self) -> Vec<sycl_sim::Buffer> {
        vec![self.data.du_dt.clone()]
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
        load_force_fields(&self.data, sg, slots, valid_f)
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
        let grad = corrected_gradient(
            &g,
            &own[F_A],
            [&own[F_B], &own[F_B + 1], &own[F_B + 2]],
            &other[F_A],
            [&other[F_B], &other[F_B + 1], &other[F_B + 2]],
        );
        let visc = viscosity(
            sg,
            &g,
            [&own[F_V], &own[F_V + 1], &own[F_V + 2]],
            [&other[F_V], &other[F_V + 1], &other[F_V + 2]],
            &own[F_CS],
            &other[F_CS],
            &own[F_RHO],
            &other[F_RHO],
        );
        // v_ij·Ĝ with v_ij = v_i − v_j.
        let vx = &own[F_V] - &other[F_V];
        let vy = &own[F_V + 1] - &other[F_V + 1];
        let vz = &own[F_V + 2] - &other[F_V + 2];
        let vdotg = &(&(&vx * &grad[0]) + &(&vy * &grad[1])) + &(&vz * &grad[2]);
        let p = &own[F_PTERM] + &(&visc.pi * 0.5);
        let contrib = &(&p * &other[F_M]) * &vdotg;
        acc[0] = &acc[0] + &contrib;
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
        crate::halfwarp::accumulate(sg, &self.data.du_dt, slots, &acc[0], mask, atomic);
    }
}
