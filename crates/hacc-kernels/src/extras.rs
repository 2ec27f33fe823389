//! The *Extras* kernel (timer `upBarEx`): evaluates the density and its
//! gradient with the owner-corrected reproducing kernel,
//!
//! ```text
//!   ρ_i  = Σ_j m_j W^R_i(η)        ∇ρ_i = Σ_j m_j ∇ᵢW^R_i(η)
//! ```
//!
//! The owner's CRK coefficients `A_i, B_i` are loaded once and are *not*
//! exchanged (the partner only contributes mass, position, and smoothing
//! length).

use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::{corrected_gradient_own, corrected_kernel, pair_geometry};
use sycl_sim::{Lanes, Sg};

/// Exchanged fields: mass weight, position, h.
const F_M: usize = 0;
const F_X: usize = 1;
const F_H: usize = 4;
/// Owner-only fields: A, B.
const E_A: usize = 0;
const E_B: usize = 1;

/// Extras physics definition.
#[derive(Clone)]
pub struct Extras {
    /// The particle state.
    pub data: DeviceParticles,
    /// Periodic box side.
    pub box_size: f32,
}

impl PairPhysics for Extras {
    fn name(&self) -> &'static str {
        "upBarEx"
    }

    fn output_buffers(&self) -> Vec<sycl_sim::Buffer> {
        let mut bufs = vec![self.data.rho.clone()];
        bufs.extend(self.data.grad_rho.iter().cloned());
        bufs
    }

    /// ρ + ∇ρ (3).
    fn n_acc(&self) -> usize {
        4
    }

    fn load_exchange<'sg>(
        &self,
        sg: &'sg Sg,
        slots: &Lanes<'sg, u32>,
        valid_f: &Lanes<'sg, f32>,
    ) -> Vec<Lanes<'sg, f32>> {
        let m = sg.load_f32(&self.data.mass, slots);
        vec![
            &m * valid_f,
            sg.load_f32(&self.data.pos[0], slots),
            sg.load_f32(&self.data.pos[1], slots),
            sg.load_f32(&self.data.pos[2], slots),
            sg.load_f32(&self.data.h, slots),
        ]
    }

    fn load_own_extra<'sg>(&self, sg: &'sg Sg, slots: &Lanes<'sg, u32>) -> Vec<Lanes<'sg, f32>> {
        vec![
            sg.load_f32(&self.data.crk_a, slots),
            sg.load_f32(&self.data.crk_b[0], slots),
            sg.load_f32(&self.data.crk_b[1], slots),
            sg.load_f32(&self.data.crk_b[2], slots),
        ]
    }

    fn interact<'sg>(
        &self,
        sg: &'sg Sg,
        own: &[Lanes<'sg, f32>],
        own_extra: &[Lanes<'sg, f32>],
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
        let a_i = &own_extra[E_A];
        let b_i = [&own_extra[E_B], &own_extra[E_B + 1], &own_extra[E_B + 2]];
        let wr = corrected_kernel(&g, a_i, b_i);
        acc[0] = &acc[0] + &(&wr * &other[F_M]);
        let grad = corrected_gradient_own(&g, a_i, b_i);
        for c in 0..3 {
            acc[1 + c] = &acc[1 + c] + &(&grad[c] * &other[F_M]);
        }
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
        use crate::halfwarp::accumulate;
        accumulate(sg, &self.data.rho, slots, &acc[0], mask, atomic);
        for c in 0..3 {
            accumulate(sg, &self.data.grad_rho[c], slots, &acc[1 + c], mask, atomic);
        }
    }
}
