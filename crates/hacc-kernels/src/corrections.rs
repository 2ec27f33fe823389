//! The *Corrections* kernel (timer `upCor`): accumulates the
//! volume-weighted moments of the SPH kernel,
//!
//! ```text
//!   m₀ = Σ_j V_j W_ij        m₁ = Σ_j V_j η W_ij        m₂ = Σ_j V_j η⊗η W_ij
//! ```
//!
//! from which [`crate::finalize::FinalizeCorrections`] solves the
//! first-order reproducing-kernel coefficients `A_i`, `B_i` (Frontiere,
//! Raskin & Owen 2017). This kernel has the largest number of atomic
//! accumulators (10 per particle) of the five hot spots.

use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::pair_geometry;
use sycl_sim::{Lanes, Sg};

/// Exchanged field indices: weight (`V_j`, zero for padding), position, h.
const F_W: usize = 0;
const F_X: usize = 1;
const F_H: usize = 4;

/// Corrections physics definition.
#[derive(Clone)]
pub struct Corrections {
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
        vec![
            &v * valid_f,
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
        let vw = &g.w * &other[F_W];
        // m0
        acc[0] = &acc[0] + &vw;
        // m1[c] += V_j η_c W
        for c in 0..3 {
            acc[1 + c] = &acc[1 + c] + &(&vw * &g.eta[c]);
        }
        // m2: xx, yy, zz, xy, xz, yz.
        let pairs: [(usize, usize); 6] = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)];
        for (k, (a, b)) in pairs.iter().enumerate() {
            let prod = &g.eta[*a] * &g.eta[*b];
            acc[4 + k] = &acc[4 + k] + &(&vw * &prod);
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
        accumulate(sg, &self.data.crk_m0, slots, &acc[0], mask, atomic);
        for c in 0..3 {
            accumulate(sg, &self.data.crk_m1[c], slots, &acc[1 + c], mask, atomic);
        }
        for k in 0..6 {
            accumulate(sg, &self.data.crk_m2[k], slots, &acc[4 + k], mask, atomic);
        }
    }
}
