//! The *Energy* kernel (timers `upBarDu`, `upBarDuF`): the derivative of
//! the specific internal energy,
//!
//! ```text
//!   du_i/dt = Σ_j m_j (P_i/ρ_i² + ½ Π_ij) (v_i − v_j)·Ĝ_ij
//! ```
//!
//! using the same exchanged particle object and pair-antisymmetric
//! gradient as *Acceleration* (the other "register heavy" hot spot).

use crate::acceleration::load_force_fields;
use crate::arith::Real;
use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::energy_pair;
use sycl_sim::{Lanes, Sg};

/// Energy physics definition.
#[derive(Clone)]
pub(crate) struct Energy {
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

    #[inline(always)]
    fn interact<T: Real>(
        &self,
        cx: T::Ctx,
        own: &[T],
        _own_extra: &[T],
        other: &[T],
        acc: &mut [T],
    ) {
        energy_pair(cx, own, other, self.box_size.into(), acc);
    }
}
