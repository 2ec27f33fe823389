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

use crate::arith::Real;
use crate::geometry::load_density_fields;
use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::extras_pair;
use sycl_sim::{Lanes, Sg};

/// Extras physics definition.
#[derive(Clone)]
pub(crate) struct Extras {
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
        load_density_fields(&self.data, sg, slots, m.mul(valid_f))
    }

    fn load_own_extra<'sg>(&self, sg: &'sg Sg, slots: &Lanes<'sg, u32>) -> Vec<Lanes<'sg, f32>> {
        vec![
            sg.load_f32(&self.data.crk_a, slots),
            sg.load_f32(&self.data.crk_b[0], slots),
            sg.load_f32(&self.data.crk_b[1], slots),
            sg.load_f32(&self.data.crk_b[2], slots),
        ]
    }

    #[inline(always)]
    fn interact<T: Real>(
        &self,
        cx: T::Ctx,
        own: &[T],
        own_extra: &[T],
        other: &[T],
        acc: &mut [T],
    ) {
        extras_pair(cx, own, own_extra, other, self.box_size.into(), acc);
    }
}
