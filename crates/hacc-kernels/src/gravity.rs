//! The short-range gravity kernel (timer `upGrav`): the direct
//! particle–particle force of HACC's force-split solver,
//!
//! ```text
//!   a_i += Σ_j m_j [1/r³ − poly(r²)] η      (r < r_cut)
//! ```
//!
//! where `poly` is the degree-5 polynomial fit of the filtered long-range
//! complement (`HACC_CUDA_POLY_ORDER=5`), computed host-side by
//! `hacc_mesh::PolyShortRange` and baked into the kernel as coefficients.

use crate::arith::Real;
use crate::launch::GravityParams;
use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::gravity_pair;
use sycl_sim::{Lanes, Sg};

/// Short-range gravity physics definition.
#[derive(Clone)]
pub struct Gravity {
    /// The particle state.
    pub data: DeviceParticles,
    /// Periodic box side.
    pub box_size: f32,
    /// The force law's polynomial, cutoff and softening.
    pub params: GravityParams,
}

impl PairPhysics for Gravity {
    fn name(&self) -> &'static str {
        "upGrav"
    }

    fn output_buffers(&self) -> Vec<sycl_sim::Buffer> {
        self.data.acc_grav.to_vec()
    }

    fn n_acc(&self) -> usize {
        3
    }

    fn load_exchange<'sg>(
        &self,
        sg: &'sg Sg,
        slots: &Lanes<'sg, u32>,
        valid_f: &Lanes<'sg, f32>,
    ) -> Vec<Lanes<'sg, f32>> {
        let m = sg.load_f32(&self.data.mass, slots);
        vec![
            m.mul(valid_f),
            sg.load_f32(&self.data.pos[0], slots),
            sg.load_f32(&self.data.pos[1], slots),
            sg.load_f32(&self.data.pos[2], slots),
        ]
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
        let GravityParams {
            poly,
            r_cut2,
            soft2,
        } = self.params;
        let (poly, box_size) = (poly.map(f64::from), self.box_size.into());
        gravity_pair(
            cx,
            own,
            other,
            box_size,
            &poly,
            r_cut2.into(),
            soft2.into(),
            acc,
        );
    }
}
