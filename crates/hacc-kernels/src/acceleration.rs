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

use crate::pairkernel::PairPhysics;
use crate::particles::DeviceParticles;
use crate::physics::{corrected_gradient, pair_geometry, viscosity, CFL};
use sycl_sim::{Lanes, Sg};

/// Exchanged field indices.
pub(crate) const F_M: usize = 0;
pub(crate) const F_X: usize = 1;
pub(crate) const F_V: usize = 4;
pub(crate) const F_H: usize = 7;
pub(crate) const F_PTERM: usize = 8;
pub(crate) const F_A: usize = 9;
pub(crate) const F_B: usize = 10;
pub(crate) const F_CS: usize = 13;
pub(crate) const F_RHO: usize = 14;

/// Loads the full hydro-force particle object (shared with *Energy*).
pub(crate) fn load_force_fields<'sg>(
    data: &DeviceParticles,
    sg: &'sg Sg,
    slots: &Lanes<'sg, u32>,
    valid_f: &Lanes<'sg, f32>,
) -> Vec<Lanes<'sg, f32>> {
    let m = sg.load_f32(&data.mass, slots);
    vec![
        &m * valid_f,
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
pub struct Acceleration {
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
        // −m_j (pterm_i + pterm_j + Π) per component.
        let p = &(&own[F_PTERM] + &other[F_PTERM]) + &visc.pi;
        let scale = &(&p * &other[F_M]) * -1.0;
        for c in 0..3 {
            acc[c] = grad[c].fma(&scale, &acc[c]);
        }
        acc[3] = acc[3].max(&visc.mu_abs);
    }

    fn write(
        &self,
        sg: &Sg,
        slots: &Lanes<u32>,
        own: &[Lanes<f32>],
        _own_extra: &[Lanes<f32>],
        acc: &[Lanes<f32>],
        mask: &Lanes<bool>,
        atomic: bool,
    ) {
        use crate::halfwarp::accumulate;
        for c in 0..3 {
            accumulate(sg, &self.data.acc[c], slots, &acc[c], mask, atomic);
        }
        // CFL: dt = C h_i / (c_i + 2 max|μ|) → global atomic minimum.
        // (Always atomic: there is a single reduction target.)
        let denom = &own[F_CS] + &(&acc[3] * 2.0);
        let denom = denom.max(&sg.splat_f32(1e-30));
        let dt = &(&own[F_H] * CFL) / &denom;
        let zero = sg.splat_u32(0);
        sg.atomic_min(&self.data.dt_min, &zero, &dt, mask);
    }
}
