//! Sub-grid baryonic physics — the paper's beyond-adiabatic extension
//! (§3.1, deferred to future work in §3.4.3).
//!
//! CRK-HACC's non-adiabatic modes add radiative cooling, star formation,
//! and feedback. The paper notes two structural properties this module
//! reproduces:
//!
//! * the sub-grid kernels are **less numerically intense** than the
//!   adiabatic hot spots (they are lane-parallel per-particle updates,
//!   not pairwise sums), and
//! * they **tighten the time-stepping criteria**, which "lead\\[s\\] to many
//!   more calls to the adiabatic kernels to converge over the same span
//!   of cosmological time".
//!
//! The physics is a standard minimal model: a bremsstrahlung-like cooling
//! rate `Λ = λ₀ ρ √u` (T ∝ u), a cooling floor, and a Kennicutt-style
//! star-formation threshold (cold + dense gas converts at a fixed
//! efficiency per dynamical time).

use crate::arith::Real;
use crate::finalize::lane_parallel_instances;
use crate::particles::DeviceParticles;
use sycl_sim::{Buffer, Lanes, Sg, SgKernel};

/// Sub-grid model parameters.
#[derive(Clone, Copy, Debug)]
pub struct SubgridParams {
    /// Cooling normalization λ₀.
    pub lambda0: f32,
    /// Temperature floor (specific internal energy units).
    pub u_floor: f32,
    /// Star-formation density threshold (code density units).
    pub rho_star: f32,
    /// Star-formation energy ceiling (only cold gas forms stars).
    pub u_star: f32,
    /// Star-formation efficiency per unit time.
    pub sfr_efficiency: f32,
    /// Safety factor of the cooling time-step limit.
    pub c_cool: f32,
}

impl Default for SubgridParams {
    fn default() -> Self {
        Self {
            lambda0: 0.1,
            u_floor: 1e-8,
            rho_star: 5.0,
            u_star: 1e-3,
            sfr_efficiency: 0.02,
            c_cool: 0.25,
        }
    }
}

/// The sub-grid kernel (timer `upSub`): lane-parallel over particles.
///
/// Writes the cooling rate into `cool_rate`, the star-formation mass
/// rate into `sf_rate`, and folds the cooling time `C·u/|Λ|` into the
/// global `dt_min` with the same floating-point atomic-min the CFL
/// condition uses (§5.1).
pub struct Subgrid {
    /// The particle state.
    pub data: DeviceParticles,
    /// Cooling-rate output buffer (one per particle).
    pub cool_rate: Buffer,
    /// Star-formation mass-rate output buffer.
    pub sf_rate: Buffer,
    /// Model parameters.
    pub params: SubgridParams,
}

impl Subgrid {
    /// Builds the kernel with freshly allocated output buffers.
    pub fn new(data: DeviceParticles, params: SubgridParams) -> Self {
        let n = data.n;
        Self {
            data,
            cool_rate: Buffer::zeros(n),
            sf_rate: Buffer::zeros(n),
            params,
        }
    }

    /// Number of sub-group instances for a launch.
    pub fn n_instances(&self, sg_size: usize) -> usize {
        lane_parallel_instances(self.data.n, sg_size)
    }
}

impl SgKernel for Subgrid {
    fn name(&self) -> &str {
        "upSub"
    }

    fn run(&self, sg: &mut Sg) {
        let n = self.data.n;
        let base = (sg.sg_id * sg.size) as u32;
        let raw = sg.lane_id().add_scalar(base);
        let last = sg.splat_u32((n - 1) as u32);
        let slots = raw.min(&last);
        let valid = raw.lt_scalar(n as u32);

        let rho = sg.load_f32(&self.data.rho, &slots);
        let u = sg.load_f32(&self.data.u, &slots);
        let p = &self.params;

        // Λ = λ₀ ρ √u, masked to zero at/below the floor.
        let u_safe = u.max(&Lanes::splat(sg, 0.0));
        let sqrt_u = u_safe.sqrt();
        let lambda = rho.mul(&sqrt_u).mul_c(p.lambda0 as f64);
        let above_floor = u.gt_c(p.u_floor as f64);
        let lambda = lambda.zero_unless(&above_floor);
        let neg_lambda = lambda.neg();
        sg.store_f32(&self.cool_rate, &slots, &neg_lambda, &valid);

        // Star formation: cold, dense gas converts at ε·m per unit time.
        let m = sg.load_f32(&self.data.mass, &slots);
        let dense = rho.gt_c(p.rho_star as f64);
        let cold = u.lt_c(p.u_star as f64);
        let eligible = dense.and(&cold);
        let rate = m.mul_c(p.sfr_efficiency as f64).zero_unless(&eligible);
        sg.store_f32(&self.sf_rate, &slots, &rate, &valid);

        // Cooling time-step limit: dt = C·u/Λ (huge when not cooling),
        // folded into the same dt_min the CFL uses. The `f32` constants
        // widen exactly, so the splats narrow back to the same bits.
        let lambda_safe = lambda.max(&Lanes::splat(sg, 1e-30_f32 as f64));
        let dt = u_safe.mul_c(p.c_cool as f64).div(&lambda_safe);
        let dt = dt.min(&Lanes::splat(sg, (f32::MAX / 2.0) as f64));
        let zero = sg.splat_u32(0);
        let write = valid.and(&above_floor);
        sg.atomic_min(&self.data.dt_min, &zero, &dt, &write);
    }
}

/// f64 reference for the sub-grid update: the oracle the kernel is
/// tested against.
#[cfg(test)]
fn reference(
    rho: &[f64],
    u: &[f64],
    mass: &[f64],
    params: &SubgridParams,
) -> (Vec<f64>, Vec<f64>, f64) {
    let mut cool = vec![0.0; rho.len()];
    let mut sf = vec![0.0; rho.len()];
    let mut dt_min = f64::MAX;
    for i in 0..rho.len() {
        if u[i] > params.u_floor as f64 {
            let lambda = params.lambda0 as f64 * rho[i] * u[i].max(0.0).sqrt();
            cool[i] = -lambda;
            dt_min = dt_min.min(params.c_cool as f64 * u[i] / lambda.max(1e-300));
        }
        if rho[i] > params.rho_star as f64 && u[i] < params.u_star as f64 {
            sf[i] = params.sfr_efficiency as f64 * mass[i];
        }
    }
    (cool, sf, dt_min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::HostParticles;
    use sycl_sim::{Device, ExecutionPolicy, GpuArch, LaunchConfig, LaunchReport, Toolchain};

    fn particles(n: usize) -> (DeviceParticles, Vec<f64>, Vec<f64>, Vec<f64>) {
        let hp = HostParticles {
            pos: (0..n).map(|i| [i as f64, 0.0, 0.0]).collect(),
            vel: vec![[0.0; 3]; n],
            mass: vec![1.5; n],
            h: vec![1.0; n],
            // Stay off the exact u_star threshold (f32/f64 rounding would
            // make the comparison flip between device and reference).
            u: (0..n).map(|i| 9.3e-5 * (1.0 + i as f64)).collect(),
        };
        let dp = DeviceParticles::upload(&hp);
        let rho: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        for (i, &r) in rho.iter().enumerate() {
            dp.rho.write_f32(i, r as f32);
        }
        (dp, rho, hp.u.clone(), hp.mass.clone())
    }

    fn launch(k: &Subgrid) -> LaunchReport {
        let dev = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .with_exec(ExecutionPolicy::Serial);
        struct Wrap<'a>(&'a Subgrid);
        impl SgKernel for Wrap<'_> {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn run(&self, sg: &mut Sg) {
                self.0.run(sg)
            }
        }
        dev.launch(&Wrap(k), k.n_instances(32), cfg).unwrap()
    }

    /// One metered launch, pinned: its instruction counts per class, its
    /// register peak and the bits it writes. `matches_reference` checks
    /// the physics against the f64 oracle; this checks that the kernel
    /// body computes and charges exactly what it did.
    #[test]
    fn a_metered_launch_is_pinned() {
        let (dp, _, _, _) = particles(40);
        dp.dt_min.fill_f32(f32::MAX);
        let k = Subgrid::new(dp.clone(), SubgridParams::default());
        let report = launch(&k);
        assert_eq!(
            report.stats.counts,
            [46, 0, 4, 0, 6, 4, 0, 0, 0, 0, 0, 0, 40, 0, 0]
        );
        assert_eq!(report.stats.peak_regs, 22);
        // FNV-1a over the bits of a buffer.
        let bits = |b: &Buffer| {
            b.to_f32_vec()
                .iter()
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
                    (h ^ v.to_bits() as u64).wrapping_mul(0x0100_0000_01b3)
                })
        };
        assert_eq!(bits(&k.cool_rate), 0x2d95_f4cc_29e7_1887, "cool_rate");
        assert_eq!(bits(&k.sf_rate), 0x1f6f_51ec_abbe_fe9c, "sf_rate");
        assert_eq!(dp.dt_min.read_f32(0).to_bits(), 0x3b79_d28a, "dt_min");
    }

    #[test]
    fn matches_reference() {
        let (dp, rho, u, mass) = particles(40);
        dp.dt_min.fill_f32(f32::MAX);
        let k = Subgrid::new(dp.clone(), SubgridParams::default());
        launch(&k);
        let (cool, sf, dt_min) = reference(&rho, &u, &mass, &SubgridParams::default());
        for i in 0..40 {
            assert!(
                (k.cool_rate.read_f32(i) as f64 - cool[i]).abs() < 1e-6 * cool[i].abs().max(1e-12),
                "cool[{i}]"
            );
            assert!(
                (k.sf_rate.read_f32(i) as f64 - sf[i]).abs() < 1e-9,
                "sf[{i}]"
            );
        }
        let dt = dp.dt_min.read_f32(0) as f64;
        assert!((dt / dt_min - 1.0).abs() < 1e-4, "dt {dt} vs {dt_min}");
    }

    #[test]
    fn cooling_respects_the_floor() {
        let (dp, _, _, _) = particles(8);
        for i in 0..8 {
            dp.u.write_f32(i, 1e-9); // below u_floor
        }
        let k = Subgrid::new(dp.clone(), SubgridParams::default());
        launch(&k);
        for i in 0..8 {
            assert_eq!(k.cool_rate.read_f32(i), 0.0, "floored gas must not cool");
        }
    }

    #[test]
    fn star_formation_needs_cold_dense_gas() {
        let (dp, _, _, _) = particles(4);
        let p = SubgridParams::default();
        // 0: dense+cold → forms; 1: dense+hot; 2: thin+cold; 3: thin+hot.
        dp.rho.write_f32(0, 10.0);
        dp.u.write_f32(0, 1e-4);
        dp.rho.write_f32(1, 10.0);
        dp.u.write_f32(1, 1.0);
        dp.rho.write_f32(2, 0.1);
        dp.u.write_f32(2, 1e-4);
        dp.rho.write_f32(3, 0.1);
        dp.u.write_f32(3, 1.0);
        let k = Subgrid::new(dp.clone(), p);
        launch(&k);
        assert!(k.sf_rate.read_f32(0) > 0.0);
        assert_eq!(k.sf_rate.read_f32(1), 0.0);
        assert_eq!(k.sf_rate.read_f32(2), 0.0);
        assert_eq!(k.sf_rate.read_f32(3), 0.0);
    }

    #[test]
    fn cooling_tightens_the_time_step() {
        // The paper's structural point: enabling sub-grid physics shrinks
        // dt_min, forcing more adiabatic sub-cycles.
        let (dp, _, _, _) = particles(16);
        dp.dt_min.fill_f32(1.0); // pretend the CFL allowed dt = 1
        let strong = SubgridParams {
            lambda0: 100.0,
            ..Default::default()
        };
        let k = Subgrid::new(dp.clone(), strong);
        launch(&k);
        let dt = dp.dt_min.read_f32(0);
        assert!(dt < 0.1, "strong cooling must tighten dt: {dt}");
    }

    #[test]
    fn subgrid_is_cheaper_than_a_pairwise_kernel() {
        // §3.1: "the sub-grid kernels are less numerically intense".
        use sycl_sim::CostModel;
        let (dp, _, _, _) = particles(64);
        let k = Subgrid::new(dp, SubgridParams::default());
        let dev = Device::new(GpuArch::frontier(), Toolchain::sycl()).unwrap();
        let cfg = LaunchConfig::defaults_for(&dev.arch)
            .with_sg_size(32)
            .with_exec(ExecutionPolicy::Serial);
        struct Wrap<'a>(&'a Subgrid);
        impl SgKernel for Wrap<'_> {
            fn name(&self) -> &str {
                "upSub"
            }
            fn run(&self, sg: &mut Sg) {
                self.0.run(sg)
            }
        }
        let report = dev.launch(&Wrap(&k), k.n_instances(32), cfg).unwrap();
        let est = CostModel::new(GpuArch::frontier()).estimate(&report);
        // Sub-grid cost per particle is tiny: ~100 lane-cycles, versus
        // thousands for any pairwise hot spot.
        let per_particle = est.total_lane_cycles() / 64.0;
        assert!(
            per_particle < 1000.0,
            "sub-grid cost/particle = {per_particle}"
        );
    }
}
