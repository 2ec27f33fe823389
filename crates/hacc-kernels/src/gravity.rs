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

use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use sycl_sim::{Lanes, Sg};

/// Exchanged fields: mass weight + position.
const F_M: usize = 0;
const F_X: usize = 1;

/// Short-range gravity physics definition.
#[derive(Clone)]
pub struct Gravity {
    /// The particle state.
    pub data: DeviceParticles,
    /// Periodic box side.
    pub box_size: f32,
    /// Polynomial coefficients of the long-range complement, lowest order
    /// first (`Σ c_k (r²)^k`).
    pub poly: [f32; 6],
    /// Squared interaction cutoff.
    pub r_cut2: f32,
    /// Plummer-equivalent softening squared (regularizes close pairs, as
    /// in the production gravity kernel).
    pub soft2: f32,
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
            &m * valid_f,
            sg.load_f32(&self.data.pos[0], slots),
            sg.load_f32(&self.data.pos[1], slots),
            sg.load_f32(&self.data.pos[2], slots),
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
        let ex = crate::halfwarp::min_image_lanes(&own[F_X], &other[F_X], self.box_size);
        let ey = crate::halfwarp::min_image_lanes(&own[F_X + 1], &other[F_X + 1], self.box_size);
        let ez = crate::halfwarp::min_image_lanes(&own[F_X + 2], &other[F_X + 2], self.box_size);
        let r2 = &(&(&ex * &ex) + &(&ey * &ey)) + &(&ez * &ez);
        // Newtonian part with softening: (r² + ε²)^(−3/2) via rsqrt.
        let r2_soft = &r2 + self.soft2;
        let inv_r = r2_soft.rsqrt();
        let inv_r3 = &(&inv_r * &inv_r) * &inv_r;
        // Long-range complement: Horner in r².
        let mut poly = sg.splat_f32(self.poly[5]);
        for k in (0..5).rev() {
            let c = sg.splat_f32(self.poly[k]);
            poly = poly.fma(&r2, &c);
        }
        let f_over_r = &inv_r3 - &poly;
        // Cutoff and self-pair masks.
        let in_range = r2.lt_scalar(self.r_cut2);
        let not_self = r2.gt_scalar(1e-12);
        let active = in_range.and(&not_self);
        let f = (&f_over_r * &other[F_M]).zero_unless(&active);
        acc[0] = ex.fma(&f, &acc[0]);
        acc[1] = ey.fma(&f, &acc[1]);
        acc[2] = ez.fma(&f, &acc[2]);
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
        for c in 0..3 {
            crate::halfwarp::accumulate(sg, &self.data.acc_grav[c], slots, &acc[c], mask, atomic);
        }
    }
}
