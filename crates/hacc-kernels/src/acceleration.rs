//! The *Acceleration* kernel (timers `upBarAc`, `upBarAcF`): the momentum
//! derivative of the CRK-SPH scheme,
//!
//! ```text
//!   dv_i/dt = −Σ_j m_j (P_i/ρ_i² + P_j/ρ_j² + Π_ij) Ĝ_ij
//! ```
//!
//! with Monaghan artificial viscosity `Π_ij` and the pair-antisymmetric
//! corrected gradient `Ĝ_ij`. Also evaluates the CFL time-step condition
//! per particle and folds it into a global minimum with a floating-point
//! `atomic_min` — the operation NVIDIA GPUs must emulate with a CAS loop
//! (§5.1).
//!
//! This is one of the paper's "register heavy" kernels: both sides'
//! velocities, thermodynamic state, and CRK coefficients are exchanged
//! (15 32-bit fields per particle).

use crate::arith::Real;
use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::{acceleration_pair, cfl_time_step, CS, FORCE_H};
use sycl_sim::{Lanes, Sg};

/// Loads the full hydro-force particle object (shared with *Energy*),
/// in the field order of [`crate::physics`]'s force kernels.
pub(crate) fn load_force_fields<'sg>(
    data: &DeviceParticles,
    sg: &'sg Sg,
    slots: &Lanes<'sg, u32>,
    valid_f: &Lanes<'sg, f32>,
) -> Vec<Lanes<'sg, f32>> {
    let m = sg.load_f32(&data.mass, slots);
    vec![
        m.mul(valid_f),
        sg.load_f32(&data.pos[0], slots),
        sg.load_f32(&data.pos[1], slots),
        sg.load_f32(&data.pos[2], slots),
        sg.load_f32(&data.vel[0], slots),
        sg.load_f32(&data.vel[1], slots),
        sg.load_f32(&data.vel[2], slots),
        sg.load_f32(&data.h, slots),
        sg.load_f32(&data.pterm, slots),
        sg.load_f32(&data.crk_a, slots),
        sg.load_f32(&data.crk_b[0], slots),
        sg.load_f32(&data.crk_b[1], slots),
        sg.load_f32(&data.crk_b[2], slots),
        sg.load_f32(&data.cs, slots),
        sg.load_f32(&data.rho, slots),
    ]
}

/// Acceleration physics definition.
#[derive(Clone)]
pub(crate) struct Acceleration {
    /// The particle state.
    pub data: DeviceParticles,
    /// Periodic box side.
    pub box_size: f32,
}

impl PairPhysics for Acceleration {
    fn name(&self) -> &'static str {
        "upBarAc"
    }

    fn output_buffers(&self) -> Vec<sycl_sim::Buffer> {
        let mut bufs = self.data.acc.to_vec();
        bufs.push(self.data.dt_min.clone());
        bufs
    }

    /// acc (3) + max|μ| for the CFL condition.
    fn n_acc(&self) -> usize {
        4
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
        acceleration_pair(cx, own, other, self.box_size.into(), acc);
    }

    fn write(
        &self,
        sg: &Sg,
        slots: &Lanes<u32>,
        own: &[Lanes<f32>],
        acc: &[Lanes<f32>],
        mask: &Lanes<bool>,
        atomic: bool,
    ) {
        use crate::halfwarp::accumulate;
        for c in 0..3 {
            accumulate(sg, &self.data.acc[c], slots, &acc[c], mask, atomic);
        }
        // CFL time step → global atomic minimum. (Always atomic: there
        // is a single reduction target.)
        let dt = cfl_time_step(sg, &own[FORCE_H], &own[CS], &acc[3]);
        let zero = sg.splat_u32(0);
        sg.atomic_min(&self.data.dt_min, &zero, &dt, mask);
    }
}
