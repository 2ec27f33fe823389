//! The CRK-HACC application driver.
//!
//! Owns the authoritative f64 particle state (two species: dark matter
//! and baryons), the long-range PM solver, and the time stepper; offloads
//! the short-range gravity and CRK hydro kernels to the simulated device
//! each sub-cycle, accumulating cost-model seconds into HACC-style
//! timers.
//!
//! ## Units and stepping
//!
//! Positions are comoving grid cells; time is `1/H0`; the momentum
//! variable is `u = a² dx/dt`, which turns the comoving equation of
//! motion into the friction-free pair
//!
//! ```text
//!   du/dt = (3/2) Ωₘ F_grid / a        dx/dt = u / a²
//! ```
//!
//! so kicks use `∫da/(a²E)` and drifts `∫da/(a³E)` — the classic
//! kick/drift integrals (see `hacc_cosmo::Friedmann`). The hydro force
//! and `du_int/dt` are applied with proper-time weights; comoving hydro
//! a-factor corrections are neglected (documented in DESIGN.md — they do
//! not affect the performance characteristics of the kernels).

use crate::config::{DeviceConfig, SimConfig};
use crate::timers::Timers;
use hacc_cosmo::{z_to_a, Friedmann, LinearPower};
use hacc_kernels::{
    launch_resilient, run_gravity, run_hydro_step, GravityParams, HostParticles, Offload, Subgrid,
    SubgridParams, Variant,
};
use hacc_mesh::{zeldovich_ics, ForceSplit, PmSolver, PolyShortRange};
use hacc_telemetry::Recorder;
use std::sync::Arc;
use sycl_sim::{
    Device, FaultConfig, FaultInjector, LaunchConfig, LaunchError, Toolchain, TunablePoint,
};

/// Particle species tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Species {
    /// Collision-less dark matter (gravity only).
    DarkMatter,
    /// Baryonic gas (gravity + CRK hydro).
    Baryon,
}

/// The per-particle state a [`Simulation`] owns, borrowed from one or
/// from an HCK2 [`crate::FullCheckpoint`]: what the [`crate::StepGuard`]
/// audits and what the hydro offload converts into kernel input.
pub(crate) struct ParticleState<'a> {
    pub(crate) a: f64,
    pub(crate) pos: &'a [[f64; 3]],
    pub(crate) mom: &'a [[f64; 3]],
    pub(crate) mass: &'a [f64],
    pub(crate) u_int: &'a [f64],
    pub(crate) h: &'a [f64],
    pub(crate) star_mass: &'a [f64],
    pub(crate) species: &'a [Species],
}

impl ParticleState<'_> {
    /// Indices of baryon particles.
    pub(crate) fn baryon_indices(&self) -> Vec<usize> {
        (0..self.species.len())
            .filter(|&i| self.species[i] == Species::Baryon)
            .collect()
    }

    /// The hydro-relevant fields of a particle subset as the kernels
    /// consume them: peculiar velocities `mom / a²` and internal
    /// energies floored at `1e-12`. The in-situ hydro offload uploads
    /// this and [`crate::FullCheckpoint::baryons`] returns it, so a §7.2
    /// standalone-kernel replay is the offload's input by construction.
    pub(crate) fn host_particles(&self, idx: &[usize]) -> HostParticles {
        let a2 = self.a * self.a;
        HostParticles {
            pos: idx.iter().map(|&i| self.pos[i]).collect(),
            vel: idx.iter().map(|&i| self.mom[i].map(|m| m / a2)).collect(),
            mass: idx.iter().map(|&i| self.mass[i]).collect(),
            h: idx.iter().map(|&i| self.h[i]).collect(),
            u: idx.iter().map(|&i| self.u_int[i].max(1e-12)).collect(),
        }
    }
}

/// The running simulation.
pub struct Simulation {
    /// Configuration.
    pub config: SimConfig,
    /// Device build.
    pub device: Device,
    /// Launch configuration derived from the device config.
    pub launch: LaunchConfig,
    /// Kernel communication variant.
    pub variant: Variant,
    /// Comoving positions (grid units), both species.
    pub pos: Vec<[f64; 3]>,
    /// Momentum variable `u = a² dx/dt` (grid units per 1/H0).
    pub mom: Vec<[f64; 3]>,
    /// Masses (code units: total mass = ng³, so mean density is 1/cell).
    pub mass: Vec<f64>,
    /// Specific internal energies (baryons; zero for dark matter).
    pub u_int: Vec<f64>,
    /// SPH smoothing lengths (grid units; baryons).
    pub h: Vec<f64>,
    /// Species tags (dark matter first, then baryons).
    pub species: Vec<Species>,
    /// Current scale factor.
    pub a: f64,
    /// Completed long steps.
    pub step_count: usize,
    /// Whether hydro kernels run (false = gravity-only mode).
    pub enable_hydro: bool,
    /// Sub-grid physics (radiative cooling + star formation), when
    /// enabled — the beyond-adiabatic mode of §3.1.
    pub subgrid: Option<SubgridParams>,
    /// Stellar mass formed per particle (sub-grid bookkeeping).
    pub star_mass: Vec<f64>,
    /// Sub-cycles the *next* long step will use: the sub-grid cooling
    /// limit tightens `dt_min`, which "lead\\[s\\] to many more calls to
    /// the adiabatic kernels" (§3.1) — modeled by adapting this count
    /// from the device-measured time step.
    pub adaptive_sub_cycles: usize,
    /// Structured telemetry stream: spans, counters, per-launch kernel
    /// profiles, and the typed timer events behind [`Simulation::timers`].
    /// No sink is installed unless the caller adds one.
    pub telemetry: Recorder,
    pm: PmSolver,
    poly: PolyShortRange,
    friedmann: Friedmann,
    grav_prefactor: f64,
}

/// Summary of a completed run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Final scale factor.
    pub a_final: f64,
    /// Long steps taken.
    pub steps: usize,
    /// Total simulated device seconds (all offloaded kernels).
    pub gpu_seconds: f64,
    /// Per-timer (name, seconds, calls).
    pub timers: Vec<(String, f64, u64)>,
}

impl Simulation {
    /// Builds the simulation: Zel'dovich ICs for both species, PM solver,
    /// short-range polynomial, device. A function of its arguments: the
    /// launch starts from [`LaunchConfig::defaults_for`] (full metering,
    /// the auto execution policy); the setters below change either.
    pub fn new(config: SimConfig, device_cfg: DeviceConfig, arch: sycl_sim::GpuArch) -> Self {
        config.validate().expect("invalid simulation configuration");
        let toolchain = {
            let mut tc = Toolchain::new(device_cfg.lang);
            if let Some(fm) = device_cfg.fast_math {
                tc.fast_math = fm;
            }
            if device_cfg.variant.needs_visa() {
                tc.enable_visa = true;
            }
            tc
        };
        let device = Device::new(arch.clone(), toolchain)
            .expect("toolchain does not support the chosen architecture");
        let sg_size = device_cfg
            .sg_size
            .unwrap_or_else(|| *arch.sg_sizes.last().expect("arch without sg sizes"));
        let launch = TunablePoint::classic(sg_size, device_cfg.grf)
            .apply_to(LaunchConfig::defaults_for(&arch));

        // Initial conditions: one Gaussian realization displaces both
        // species (baryons trace dark matter at z_init, as in adiabatic
        // CRK-HACC runs), with a half-cell offset between the lattices.
        let power = LinearPower::new(config.cosmo);
        let ics = zeldovich_ics(&config.box_spec, &power, config.z_init, config.seed);
        let a0 = ics.a_init;
        let np3 = config.box_spec.particles_per_species();
        let ng = config.box_spec.ng as f64;
        let fb = config.cosmo.omega_b / config.cosmo.omega_m;
        let m_total = ng * ng * ng;
        let m_dm = (1.0 - fb) * m_total / np3 as f64;
        let m_b = fb * m_total / np3 as f64;

        let mut pos = Vec::with_capacity(2 * np3);
        let mut mom = Vec::with_capacity(2 * np3);
        let mut mass = Vec::with_capacity(2 * np3);
        let mut u_int = Vec::with_capacity(2 * np3);
        let mut h = Vec::with_capacity(2 * np3);
        let mut species = Vec::with_capacity(2 * np3);
        let spacing = ng / config.box_spec.np as f64;
        let h0 = config.eta_smoothing * spacing;
        for (p, v) in ics.positions.iter().zip(&ics.velocities) {
            pos.push(*p);
            mom.push([v[0] * a0 * a0, v[1] * a0 * a0, v[2] * a0 * a0]);
            mass.push(m_dm);
            u_int.push(0.0);
            h.push(h0);
            species.push(Species::DarkMatter);
        }
        for (p, v) in ics.positions.iter().zip(&ics.velocities) {
            // Baryon lattice offset by half an inter-particle spacing.
            let q = [
                (p[0] + 0.5 * spacing).rem_euclid(ng),
                (p[1] + 0.5 * spacing).rem_euclid(ng),
                (p[2] + 0.5 * spacing).rem_euclid(ng),
            ];
            pos.push(q);
            mom.push([v[0] * a0 * a0, v[1] * a0 * a0, v[2] * a0 * a0]);
            mass.push(m_b);
            u_int.push(config.u_init);
            h.push(h0);
            species.push(Species::Baryon);
        }

        let split = ForceSplit::new(config.r_split_cells, config.r_cut_cells);
        let pm = PmSolver::new(config.box_spec.ng, Some(split));
        let poly = PolyShortRange::fit(split, 5);
        let friedmann = Friedmann::new(config.cosmo);
        // Mean density in code units is exactly 1 per cell; the pairwise
        // force normalization is 1/(4πρ̄) (see hacc_mesh::pm tests).
        let grav_prefactor = 1.0 / (4.0 * std::f64::consts::PI);

        let sub_cycles = config.sub_cycles;

        Self {
            config,
            device,
            launch,
            variant: device_cfg.variant,
            pos,
            mom,
            mass,
            u_int,
            h,
            species,
            a: a0,
            step_count: 0,
            enable_hydro: true,
            subgrid: None,
            star_mass: vec![0.0; 2 * np3],
            adaptive_sub_cycles: sub_cycles,
            telemetry: Recorder::new(),
            pm,
            poly,
            friedmann,
            grav_prefactor,
        }
    }

    /// Total particle count (both species).
    pub fn n_particles(&self) -> usize {
        self.pos.len()
    }

    /// Borrows the per-particle state.
    pub(crate) fn state(&self) -> ParticleState<'_> {
        ParticleState {
            a: self.a,
            pos: &self.pos,
            mom: &self.mom,
            mass: &self.mass,
            u_int: &self.u_int,
            h: &self.h,
            star_mass: &self.star_mass,
            species: &self.species,
        }
    }

    /// Current redshift.
    pub fn redshift(&self) -> f64 {
        1.0 / self.a - 1.0
    }

    /// Periodic box side in grid units.
    pub(crate) fn box_size(&self) -> f64 {
        self.config.box_spec.ng as f64
    }

    /// Half a long-range kick at the current positions: the host PM
    /// solve (grid accelerations, without the 3/2 Ωₘ `coupling`)
    /// applied with half of `kick_long`'s weight.
    fn half_long_kick(&mut self, coupling: f64, kick_long: f64) {
        let mut pm_force = Vec::new();
        self.pm.accelerations(&self.pos, &self.mass, &mut pm_force);
        for (m, f) in self.mom.iter_mut().zip(&pm_force) {
            for c in 0..3 {
                m[c] += 0.5 * coupling * f[c] * kick_long;
            }
        }
    }

    /// Charges host↔device transfer time for `bytes` moved over the
    /// architecture's host link (the data movement CRK-HACC performs
    /// around each offloaded sequence). `direction` is `"h2d"`
    /// (upload) or `"d2h"` (download); the byte count is also recorded
    /// as a telemetry counter (`xfer.h2d.bytes` / `xfer.d2h.bytes`), so
    /// the `upXfer` timer is explainable from the event stream.
    fn charge_transfer(&self, direction: &str, bytes: usize) {
        let secs = bytes as f64 / (self.device.arch.host_link_gbps * 1e9);
        self.telemetry
            .counter(&format!("xfer.{direction}.bytes"), bytes as f64);
        self.telemetry.timer("upXfer", secs);
    }

    /// The [`Offload`] of a particle subset at this simulation's launch:
    /// leaf capacity from the config, else what the variant prefers at
    /// the launch's sub-group size, and the short-range cutoff. A subset
    /// that fails validation — say, positions a corrupted launch earlier
    /// in the step left non-finite — is a recoverable error, not a panic.
    fn offload(&self, subset: &HostParticles) -> Result<Offload, LaunchError> {
        let sg_size = self.launch.sg_size;
        let leaf_capacity = self
            .config
            .max_leaf
            .unwrap_or(self.variant.preferred_leaf_capacity(sg_size));
        let cutoff = self.config.r_cut_cells;
        Offload::new(subset, self.box_size(), cutoff, leaf_capacity, sg_size)
    }

    /// Runs the offloaded short-range gravity for a particle subset,
    /// returning accelerations in the subset's order.
    fn device_gravity(&self, idx: &[usize]) -> Result<Vec<[f64; 3]>, LaunchError> {
        let offload = self.offload(&HostParticles {
            pos: idx.iter().map(|&i| self.pos[i]).collect(),
            vel: vec![[0.0; 3]; idx.len()],
            mass: idx
                .iter()
                .map(|&i| self.mass[i] * self.grav_prefactor)
                .collect(),
            h: vec![1.0; idx.len()],
            u: vec![0.0; idx.len()],
        })?;
        let _span = self.telemetry.span("gravity");
        // Upload: pos(3) + mass per particle; download: acc(3).
        self.charge_transfer("h2d", idx.len() * 4 * 4);
        let data = offload.upload();
        let params = GravityParams {
            poly: std::array::from_fn(|i| self.poly.coeffs[i] as f32),
            r_cut2: (self.config.r_cut_cells * self.config.r_cut_cells) as f32,
            soft2: 1e-4,
        };
        run_gravity(
            &self.device,
            &data,
            &offload.work,
            self.variant,
            self.box_size() as f32,
            params,
            self.launch,
            &self.telemetry,
        )?;
        self.charge_transfer("d2h", idx.len() * 3 * 4);
        let acc = data.download_vec3(&data.acc_grav);
        Ok(offload.scatter(|slot| acc[slot].map(f64::from)))
    }

    /// Runs the offloaded CRK hydro kernels (plus the sub-grid kernel
    /// when enabled) for the baryons. Returns (acc, du_dt including
    /// cooling, new smoothing lengths, star-formation rate, device
    /// dt_min) in baryon-subset order, and records the timers.
    fn device_hydro(
        &self,
        idx: &[usize],
    ) -> Result<(Vec<[f64; 3]>, Vec<f64>, Vec<f64>, Vec<f64>, f64), LaunchError> {
        let offload = self.offload(&self.state().host_particles(idx))?;
        let _span = self.telemetry.span("hydro");
        // Upload: pos(3)+vel(3)+mass+h+u.
        self.charge_transfer("h2d", idx.len() * 9 * 4);
        let data = offload.upload();
        run_hydro_step(
            &self.device,
            &data,
            &offload.work,
            self.variant,
            self.box_size() as f32,
            self.launch,
            &self.telemetry,
        )?;

        // Sub-grid pass (lane-parallel; adds its cooling rate and
        // tightens the shared dt_min).
        let mut cool = vec![0.0f32; idx.len()];
        let mut sf = vec![0.0f32; idx.len()];
        if let Some(params) = self.subgrid {
            let _span = self.telemetry.span("upSub");
            let kernel = Subgrid::new(data.clone(), params);
            let report = launch_resilient(
                &self.device,
                &kernel,
                kernel.n_instances(self.launch.sg_size),
                self.launch,
                &self.telemetry,
                self.variant.label(),
            )?;
            let mut profile = self.device.profile(&report);
            profile.timer = "upSub".to_string();
            profile.variant = self.variant.label().to_string();
            let est_seconds = profile.est_seconds;
            self.telemetry.kernel(profile);
            self.telemetry.timer("upSub", est_seconds);
            cool = kernel.cool_rate.to_f32_vec();
            sf = kernel.sf_rate.to_f32_vec();
        }

        // Download: acc(3)+du+vol, plus the two sub-grid rate fields
        // (always budgeted, matching CRK-HACC's fixed transfer layout).
        self.charge_transfer("d2h", idx.len() * (5 + 2) * 4);
        let acc = data.download_vec3(&data.acc);
        let vol = data.volume.to_f32_vec();
        let du = data.du_dt.to_f32_vec();
        let dt_min = data.dt_min.read_f32(0) as f64;
        let spacing = self.box_size() / self.config.box_spec.np as f64;
        let h0 = self.config.eta_smoothing * spacing;
        Ok((
            offload.scatter(|slot| acc[slot].map(f64::from)),
            offload.scatter(|slot| du[slot] as f64 + cool[slot] as f64),
            // Adaptive smoothing: h = η V^{1/3}, clamped to keep the
            // kernel support inside the interaction cutoff.
            offload.scatter(|slot| {
                let v = (vol[slot] as f64).max(1e-30);
                let target = self.config.eta_smoothing * v.cbrt();
                target.clamp(0.5 * h0, self.config.r_cut_cells / 2.0)
            }),
            offload.scatter(|slot| sf[slot] as f64),
            dt_min,
        ))
    }

    /// Advances one long (PM) step with short-range sub-cycles,
    /// panicking on an unrecoverable launch failure. Fault-free runs
    /// never hit that path; fault-injecting callers should use
    /// [`Simulation::try_step`] (or the guarded run loop in
    /// [`crate::recovery`]) instead.
    pub fn step(&mut self) {
        self.try_step()
            .expect("kernel launch failed beyond the retry/fallback budget");
    }

    /// Advances one long (PM) step with short-range sub-cycles: half a
    /// long-range kick, then per sub-cycle the gravity kick on every
    /// particle, the hydro kick on the baryons and the drift, then the
    /// second half long-range kick at the new positions.
    ///
    /// Launch failures that survive the retry/fallback budget surface
    /// as the [`LaunchError`] of the offending kernel; the state is
    /// left partially advanced and should be restored from a
    /// checkpoint before retrying. Stepping past `config.n_steps` is
    /// refused with a [`LaunchError::Config`] before anything changes.
    pub fn try_step(&mut self) -> Result<(), LaunchError> {
        if self.step_count >= self.config.n_steps {
            return Err(LaunchError::Config {
                message: format!(
                    "step {} is past the end of the run (config.n_steps = {})",
                    self.step_count, self.config.n_steps
                ),
            });
        }
        let _span = self.telemetry.span("step");
        let schedule = self.friedmann.step_schedule(
            z_to_a(self.config.z_init),
            z_to_a(self.config.z_final),
            self.config.n_steps,
        );
        let a0 = schedule[self.step_count];
        let a1 = schedule[self.step_count + 1];
        let coupling = 1.5 * self.config.cosmo.omega_m;
        let kick_long = self.friedmann.kick_factor(a0, a1);
        self.half_long_kick(coupling, kick_long);

        // Short-range sub-cycles, uniform in a. With sub-grid physics
        // enabled the count adapts to the cooling-tightened dt_min.
        let nc = self.adaptive_sub_cycles.max(self.config.sub_cycles);
        let mut dt_min_seen = f64::MAX;
        let all: Vec<usize> = (0..self.n_particles()).collect();
        let baryons = self.state().baryon_indices();
        for s in 0..nc {
            let as0 = a0 + (a1 - a0) * s as f64 / nc as f64;
            let as1 = a0 + (a1 - a0) * (s + 1) as f64 / nc as f64;
            self.a = as0;
            let kick = self.friedmann.kick_factor(as0, as1);
            let drift = self.friedmann.drift_factor(as0, as1);
            let dt_proper = self.friedmann.time_between(as0, as1);

            // Short-range gravity on every particle.
            let g_sr = self.device_gravity(&all)?;
            for (m, g) in self.mom.iter_mut().zip(&g_sr) {
                for c in 0..3 {
                    m[c] += coupling * g[c] * kick;
                }
            }

            // CRK hydro (+ sub-grid) on the baryons.
            if self.enable_hydro && !baryons.is_empty() {
                let (acc, du, h_new, sf, dt_min) = self.device_hydro(&baryons)?;
                dt_min_seen = dt_min_seen.min(dt_min);
                let a2 = self.a * self.a;
                let u_floor = self.subgrid.map(|p| p.u_floor as f64).unwrap_or(0.0);
                for (k, &i) in baryons.iter().enumerate() {
                    for c in 0..3 {
                        // du/dt = a²·(dv/dt): proper-time hydro kick.
                        self.mom[i][c] += a2 * acc[k][c] * dt_proper;
                    }
                    self.u_int[i] = (self.u_int[i] + du[k] * dt_proper).max(u_floor);
                    self.h[i] = h_new[k];
                    // Star formation converts gas into collision-less
                    // stellar mass (tracked; total mass conserved).
                    let formed = (sf[k] * dt_proper).min(self.mass[i] * 0.9 - self.star_mass[i]);
                    if formed > 0.0 {
                        self.star_mass[i] += formed;
                    }
                }
            }

            // Drift.
            let ng = self.box_size();
            for (p, m) in self.pos.iter_mut().zip(&self.mom) {
                for c in 0..3 {
                    p[c] = (p[c] + m[c] * drift).rem_euclid(ng);
                }
            }
            self.a = as1;
        }

        // Adapt the next step's sub-cycle count to the device-measured
        // time step (the §3.1 mechanism: sub-grid criteria force more
        // adiabatic kernel calls per span of cosmological time).
        if self.subgrid.is_some() && dt_min_seen.is_finite() {
            let dt_sub = self.friedmann.time_between(a0, a1) / nc as f64;
            let needed = (dt_sub / dt_min_seen.max(1e-30)).ceil() as usize;
            self.adaptive_sub_cycles =
                needed.clamp(self.config.sub_cycles, 32.max(self.config.sub_cycles));
        }

        self.half_long_kick(coupling, kick_long);
        self.a = a1;
        self.step_count += 1;
        Ok(())
    }

    /// Runs all configured steps and summarizes.
    pub fn run(&mut self) -> RunSummary {
        let span = self.telemetry.span("run");
        while self.step_count < self.config.n_steps {
            self.step();
        }
        drop(span);
        self.summary()
    }

    /// The accumulated simulated-device timers — the classic HACC
    /// end-of-run table, folded from `telemetry`'s `Timer` events.
    pub fn timers(&self) -> Timers {
        Timers::from_events(&self.telemetry.events())
    }

    /// Builds a summary without advancing.
    pub fn summary(&self) -> RunSummary {
        let timers = self.timers();
        RunSummary {
            a_final: self.a,
            steps: self.step_count,
            gpu_seconds: timers.total_seconds(),
            timers: timers
                .snapshot()
                .into_iter()
                .map(|(n, v)| (n, v.seconds, v.calls))
                .collect(),
        }
    }

    /// Total momentum (conservation diagnostic).
    pub fn total_momentum(&self) -> [f64; 3] {
        let mut p = [0.0; 3];
        for (m, mom) in self.mass.iter().zip(&self.mom) {
            for c in 0..3 {
                p[c] += m * mom[c];
            }
        }
        p
    }

    /// RMS displacement of all particles from a reference position set.
    pub fn rms_displacement_from(&self, reference: &[[f64; 3]]) -> f64 {
        assert_eq!(reference.len(), self.n_particles());
        let ng = self.box_size();
        let mut sum = 0.0;
        for (p, q) in self.pos.iter().zip(reference) {
            let d = hacc_tree::min_image(q, p, ng);
            sum += d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        }
        (sum / self.n_particles() as f64).sqrt()
    }

    /// The density-contrast grid of the current particle state (both
    /// species, CIC-deposited).
    pub(crate) fn density_contrast_grid(&mut self) -> Vec<f64> {
        self.pm.density_contrast(&self.pos, &self.mass).to_vec()
    }

    /// Measures the density power spectrum of the current particle
    /// distribution (all species) in (Mpc/h)³ vs k in h/Mpc.
    pub fn measure_power(&mut self, n_bins: usize) -> Vec<hacc_mesh::SpectrumBin> {
        let dims = self.pm.dims();
        let delta = self.pm.density_contrast(&self.pos, &self.mass).to_vec();
        hacc_mesh::measure_power(dims, &delta, self.config.box_spec.box_mpc_h, n_bins)
    }

    /// Forces gravity-only mode (dark-matter tests).
    pub fn set_gravity_only(&mut self) {
        self.enable_hydro = false;
    }

    /// Sets the host-side execution policy for every subsequent kernel
    /// launch (serial reference path, or work-group fan-out across a
    /// bounded thread pool with deterministic atomic commit).
    pub fn set_execution_policy(&mut self, exec: sycl_sim::ExecutionPolicy) {
        self.launch.exec = exec;
    }

    /// Sets the metering policy for every subsequent kernel launch:
    /// every op charged to the instruction-class meters, or no
    /// bookkeeping at all. Both run the same data path and produce
    /// bit-identical trajectories; only instruction telemetry (and the
    /// cost of recording it) differs.
    pub fn set_meter_policy(&mut self, meter: sycl_sim::MeterPolicy) {
        self.launch.meter = meter;
    }

    /// FNV-1a digest of the full mutable particle state plus the scale
    /// factor — the bit-identity witness the equivalence tests compare
    /// across execution policies and meter policies.
    pub fn state_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u64| {
            for b in bits.to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for v in self.pos.iter().chain(&self.mom) {
            for c in v {
                eat(c.to_bits());
            }
        }
        for s in [&self.u_int, &self.h, &self.mass, &self.star_mass] {
            for c in s.iter() {
                eat(c.to_bits());
            }
        }
        eat(self.a.to_bits());
        hash
    }

    /// Enables the sub-grid physics (radiative cooling + star formation)
    /// — CRK-HACC's beyond-adiabatic mode (§3.1).
    pub fn enable_subgrid(&mut self, params: SubgridParams) {
        self.subgrid = Some(params);
    }

    /// Attaches a deterministic fault injector to the device: every
    /// subsequent kernel launch consults it for transient failures,
    /// persistent per-variant failures, silent output corruption, and
    /// device loss. With all rates zero and no blocked variants this
    /// changes nothing — launches, results, and telemetry stay
    /// bit-identical to an injector-free run.
    pub fn enable_fault_injection(&mut self, config: FaultConfig) {
        self.device.fault = Some(Arc::new(FaultInjector::new(config)));
    }

    /// The attached fault injector, if any (for reconciling its fault
    /// log against telemetry counters).
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.device.fault.as_ref()
    }

    /// Total stellar mass formed so far.
    pub fn total_star_mass(&self) -> f64 {
        self.star_mass.iter().sum()
    }
}
