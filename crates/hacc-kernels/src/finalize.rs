//! Per-particle finalization kernels (lane-parallel, no exchange).
//!
//! Each pairwise kernel accumulates sums; these small device kernels turn
//! the sums into the quantities the next kernel consumes, with the
//! per-particle closures of [`crate::physics`]:
//!
//! * `FinalizeGeometry` — `V = 1/n` from the number-density sum,
//! * `FinalizeCorrections` — solves the first-order CRK system for
//!   `A, B` from the moments `m₀, m₁, m₂` (a 3×3 symmetric solve per
//!   particle, by cofactor inversion),
//! * `FinalizeEos` — ideal-gas closure `P = (γ−1)ρu`, `c = √(γP/ρ)`,
//!   and the force term `P/ρ²`.

use crate::particles::DeviceParticles;
use crate::physics::{crk_coefficients, eos, volume};
use sycl_sim::{Lanes, Sg, SgKernel};

/// Lane→particle mapping for a lane-parallel kernel over `n` particles.
fn particle_slots<'sg>(sg: &'sg Sg, n: usize) -> (Lanes<'sg, u32>, Lanes<'sg, bool>) {
    let base = (sg.sg_id * sg.size) as u32;
    let raw = sg.lane_id().add_scalar(base);
    let last = sg.splat_u32((n - 1) as u32);
    let slots = raw.min(&last);
    let valid = raw.lt_scalar(n as u32);
    (slots, valid)
}

/// Number of sub-groups needed to cover `n` particles.
pub(crate) fn lane_parallel_instances(n: usize, sg_size: usize) -> usize {
    n.div_ceil(sg_size)
}

/// `V = 1/n`: inverts the Geometry number-density sum in place.
pub(crate) struct FinalizeGeometry {
    /// The particle state.
    pub data: DeviceParticles,
}

impl SgKernel for FinalizeGeometry {
    fn name(&self) -> &str {
        "upGeoFin"
    }

    fn run(&self, sg: &mut Sg) {
        let (slots, valid) = particle_slots(sg, self.data.n);
        let n_sum = sg.load_f32(&self.data.volume, &slots);
        let v = volume(&*sg, &n_sum);
        sg.store_f32(&self.data.volume, &slots, &v, &valid);
    }
}

/// Solves the first-order CRK system per particle
/// ([`crk_coefficients`]).
pub(crate) struct FinalizeCorrections {
    /// The particle state.
    pub data: DeviceParticles,
}

impl SgKernel for FinalizeCorrections {
    fn name(&self) -> &str {
        "upCorFin"
    }

    fn run(&self, sg: &mut Sg) {
        let (slots, valid) = particle_slots(sg, self.data.n);
        let m0 = sg.load_f32(&self.data.crk_m0, &slots);
        let m1: Vec<Lanes<f32>> = (0..3)
            .map(|c| sg.load_f32(&self.data.crk_m1[c], &slots))
            .collect();
        // m2 layout: xx, yy, zz, xy, xz, yz.
        let m2: Vec<Lanes<f32>> = (0..6)
            .map(|k| sg.load_f32(&self.data.crk_m2[k], &slots))
            .collect();
        let (a, [bx, by, bz]) = crk_coefficients(&*sg, &m0, &m1, &m2);
        sg.store_f32(&self.data.crk_a, &slots, &a, &valid);
        sg.store_f32(&self.data.crk_b[0], &slots, &bx, &valid);
        sg.store_f32(&self.data.crk_b[1], &slots, &by, &valid);
        sg.store_f32(&self.data.crk_b[2], &slots, &bz, &valid);
    }
}

/// Ideal-gas closure ([`eos`]): `P = (γ−1)ρu`, `c = √(γP/ρ)`,
/// `pterm = P/ρ²`.
pub(crate) struct FinalizeEos {
    /// The particle state.
    pub data: DeviceParticles,
}

impl SgKernel for FinalizeEos {
    fn name(&self) -> &str {
        "upEosFin"
    }

    fn run(&self, sg: &mut Sg) {
        let (slots, valid) = particle_slots(sg, self.data.n);
        let rho = sg.load_f32(&self.data.rho, &slots);
        let u = sg.load_f32(&self.data.u, &slots);
        let (p, cs, pterm) = eos(&*sg, &rho, &u);
        sg.store_f32(&self.data.pressure, &slots, &p, &valid);
        sg.store_f32(&self.data.cs, &slots, &cs, &valid);
        sg.store_f32(&self.data.pterm, &slots, &pterm, &valid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::{HostParticles, GAMMA};
    use sycl_sim::{Device, ExecutionPolicy, GpuArch, LaunchConfig, Toolchain};

    fn upload(n: usize) -> DeviceParticles {
        let hp = HostParticles {
            pos: (0..n).map(|i| [i as f64, 0.0, 0.0]).collect(),
            vel: vec![[0.0; 3]; n],
            mass: vec![2.0; n],
            h: vec![1.0; n],
            u: vec![0.9; n],
        };
        DeviceParticles::upload(&hp)
    }

    fn launch(k: &dyn SgKernel, n_particles: usize) {
        let dev = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .with_exec(ExecutionPolicy::Serial);
        struct Wrap<'a>(&'a dyn SgKernel);
        impl sycl_sim::SgKernel for Wrap<'_> {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn run(&self, sg: &mut Sg) {
                self.0.run(sg)
            }
        }
        dev.launch(&Wrap(k), lane_parallel_instances(n_particles, 32), cfg)
            .unwrap();
    }

    #[test]
    fn geometry_finalize_inverts() {
        let dp = upload(40);
        for i in 0..40 {
            dp.volume.write_f32(i, (i + 1) as f32);
        }
        launch(&FinalizeGeometry { data: dp.clone() }, 40);
        for i in 0..40 {
            let want = 1.0 / (i + 1) as f32;
            assert!((dp.volume.read_f32(i) - want).abs() < 1e-6);
        }
    }

    #[test]
    fn eos_finalize_matches_closed_form() {
        let dp = upload(10);
        for i in 0..10 {
            dp.rho.write_f32(i, 2.0 + i as f32);
        }
        launch(&FinalizeEos { data: dp.clone() }, 10);
        for i in 0..10 {
            let rho = 2.0 + i as f32;
            let p = (GAMMA - 1.0) * rho * 0.9;
            assert!((dp.pressure.read_f32(i) - p).abs() < 1e-5);
            assert!((dp.cs.read_f32(i) - (GAMMA * p / rho).sqrt()).abs() < 1e-5);
            assert!((dp.pterm.read_f32(i) - p / (rho * rho)).abs() < 1e-6);
        }
    }

    #[test]
    fn corrections_finalize_solves_diagonal_system() {
        // With m2 = diag(d) and m1 = (p, q, r): B = −(p/d, q/d, r/d),
        // A = 1/(m0 + B·m1).
        let dp = upload(4);
        for i in 0..4 {
            dp.crk_m0.write_f32(i, 2.0);
            dp.crk_m1[0].write_f32(i, 0.2);
            dp.crk_m1[1].write_f32(i, -0.1);
            dp.crk_m1[2].write_f32(i, 0.05);
            dp.crk_m2[0].write_f32(i, 0.5); // xx
            dp.crk_m2[1].write_f32(i, 0.5); // yy
            dp.crk_m2[2].write_f32(i, 0.5); // zz
            dp.crk_m2[3].write_f32(i, 0.0);
            dp.crk_m2[4].write_f32(i, 0.0);
            dp.crk_m2[5].write_f32(i, 0.0);
        }
        launch(&FinalizeCorrections { data: dp.clone() }, 4);
        let bx = dp.crk_b[0].read_f32(0);
        let by = dp.crk_b[1].read_f32(0);
        let bz = dp.crk_b[2].read_f32(0);
        assert!((bx + 0.4).abs() < 1e-5, "bx = {bx}");
        assert!((by - 0.2).abs() < 1e-5, "by = {by}");
        assert!((bz + 0.1).abs() < 1e-5, "bz = {bz}");
        let denom = 2.0 + bx * 0.2 + by * -0.1 + bz * 0.05;
        assert!((dp.crk_a.read_f32(0) - 1.0 / denom).abs() < 1e-5);
    }

    #[test]
    fn corrections_finalize_falls_back_when_singular() {
        let dp = upload(2);
        for i in 0..2 {
            dp.crk_m0.write_f32(i, 4.0);
            // m2 = 0 (no neighbors): singular.
        }
        launch(&FinalizeCorrections { data: dp.clone() }, 2);
        assert!(
            (dp.crk_a.read_f32(0) - 0.25).abs() < 1e-6,
            "A falls back to 1/m0"
        );
        assert_eq!(dp.crk_b[0].read_f32(0), 0.0);
    }
}
