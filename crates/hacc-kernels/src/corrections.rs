//! The *Corrections* kernel (timer `upCor`): accumulates the
//! volume-weighted moments of the SPH kernel,
//!
//! ```text
//!   m₀ = Σ_j V_j W_ij        m₁ = Σ_j V_j η W_ij        m₂ = Σ_j V_j η⊗η W_ij
//! ```
//!
//! from which `finalize::FinalizeCorrections` solves the
//! first-order reproducing-kernel coefficients `A_i`, `B_i` (Frontiere,
//! Raskin & Owen 2017). This kernel has the largest number of atomic
//! accumulators (10 per particle) of the five hot spots.

use crate::arith::Real;
use crate::geometry::load_density_fields;
use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::corrections_pair;
use sycl_sim::{Lanes, Sg};

/// Corrections physics definition.
#[derive(Clone)]
pub(crate) struct Corrections {
    /// The particle state.
    pub data: DeviceParticles,
    /// Periodic box side.
    pub box_size: f32,
}

impl PairPhysics for Corrections {
    fn name(&self) -> &'static str {
        "upCor"
    }

    fn output_buffers(&self) -> Vec<sycl_sim::Buffer> {
        let mut bufs = vec![self.data.crk_m0.clone()];
        bufs.extend(self.data.crk_m1.iter().cloned());
        bufs.extend(self.data.crk_m2.iter().cloned());
        bufs
    }

    /// m0 (1) + m1 (3) + m2 (6 symmetric components).
    fn n_acc(&self) -> usize {
        10
    }

    fn load_exchange<'sg>(
        &self,
        sg: &'sg Sg,
        slots: &Lanes<'sg, u32>,
        valid_f: &Lanes<'sg, f32>,
    ) -> Vec<Lanes<'sg, f32>> {
        let v = sg.load_f32(&self.data.volume, slots);
        load_density_fields(&self.data, sg, slots, v.mul(valid_f))
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
        corrections_pair(cx, own, other, self.box_size.into(), acc);
    }
}
