//! `host_mesh` — the host layers that are noise in `sim_fast` do all
//! the work: one op is the host side of a step at 2×64³ particles on a
//! 64³ mesh — `PmSolver::accelerations`, then `RcbTree::build` →
//! `InteractionList::build` → `WorkLists::build` over every particle
//! (the gravity offload's geometry) and again over the baryons (the
//! hydro offload's). No kernel is launched, so an FFT, CIC, tree or
//! work-list optimisation shows here and an interpreter optimisation
//! must read "no change". Positions (12.5 MB) and the mesh grids
//! (2 MB each) are well beyond the L2.

use super::{build_work, check, probe_ms, timed, Samples, Workload};
use crate::expected::Expected;
use crate::metrics::LayerValues;
use crate::stats::Fnv;
use crate::trace::{Tracer, PROBE_OP};
use crk_hacc::core::{DeviceConfig, SimConfig, Simulation, Species};
use crk_hacc::cosmo::{z_to_a, Friedmann, LinearPower};
use crk_hacc::fft::{Dims, Fft3d};
use crk_hacc::kernels::build_tiles;
use crk_hacc::kernels::worklist::check_tiles_cover;
use crk_hacc::mesh::{cic, zeldovich_ics, ForceSplit, PmSolver, PoissonConfig, PoissonSolver};
use crk_hacc::sycl::GpuArch;
use crk_hacc::tree::{fof_halos, InteractionList, RcbTree};

/// What one op produced, for the identical-every-op check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    pm_checksum: u64,
    pairs_all: usize,
    tiles_all: usize,
    pairs_baryon: usize,
    tiles_baryon: usize,
}

pub struct HostMesh {
    cfg: SimConfig,
    pos: Vec<[f64; 3]>,
    mass: Vec<f64>,
    baryon_pos: Vec<[f64; 3]>,
    pm: PmSolver,
    max_leaf: usize,
    sg_size: usize,
    expected: Expected,
    first: Option<Outcome>,
}

impl HostMesh {
    pub fn setup(seed: u64, smoke: bool, samples: &mut Samples) -> Self {
        let mut cfg = SimConfig::paper_test_problem(if smoke { 32 } else { 8 });
        cfg.seed = seed;
        // The real driver generates the state, so the op sees exactly
        // the particle layout, cutoff and leaf capacity a step would.
        let arch = GpuArch::frontier();
        let sim = Simulation::new(cfg.clone(), DeviceConfig::sycl_optimized(&arch), arch);
        let sg_size = sim.launch.sg_size;
        let max_leaf = cfg
            .max_leaf
            .unwrap_or(sim.variant.preferred_leaf_capacity(sg_size));
        let baryon_pos = (0..sim.n_particles())
            .filter(|&i| sim.species[i] == Species::Baryon)
            .map(|i| sim.pos[i])
            .collect();
        let split = ForceSplit::new(cfg.r_split_cells, cfg.r_cut_cells);
        let mut this = Self {
            pm: PmSolver::new(cfg.box_spec.ng, Some(split)),
            pos: sim.pos,
            mass: sim.mass,
            baryon_pos,
            max_leaf,
            sg_size,
            expected: Expected::load("host_mesh", seed, smoke),
            first: None,
            cfg,
        };
        // The cold op: first touch of every buffer, and the reference
        // the timed ops must reproduce.
        let (outcome, _) = this.op(&mut Tracer::new(false));
        let fails = this.check_op(outcome);
        samples.record(None, fails);
        this
    }

    fn box_size(&self) -> f64 {
        self.cfg.box_spec.ng as f64
    }

    fn op(&mut self, t: &mut Tracer) -> (Outcome, f64) {
        let (box_size, r_cut) = (self.box_size(), self.cfg.r_cut_cells);
        let mut acc = Vec::new();
        let ((all, baryon), ms) = timed(|| {
            t.span("op", |t| {
                t.span("hacc-mesh.pm_accel_ms", |_| {
                    self.pm.accelerations(&self.pos, &self.mass, &mut acc)
                });
                let (_, list, work) =
                    build_work(t, &self.pos, box_size, r_cut, self.max_leaf, self.sg_size);
                let all = (list.len(), work.tiles.len());
                let (_, list, work) = build_work(
                    t,
                    &self.baryon_pos,
                    box_size,
                    r_cut,
                    self.max_leaf,
                    self.sg_size,
                );
                (all, (list.len(), work.tiles.len()))
            })
        });
        let mut h = Fnv::default();
        h.eat_vec3s(&acc);
        let outcome = Outcome {
            pm_checksum: h.0,
            pairs_all: all.0,
            tiles_all: all.1,
            pairs_baryon: baryon.0,
            tiles_baryon: baryon.1,
        };
        (outcome, ms)
    }

    fn check_op(&mut self, outcome: Outcome) -> Vec<String> {
        let mut fails = Vec::new();
        let first = *self.first.get_or_insert(outcome);
        check(&mut fails, outcome == first, || {
            format!("op produced {outcome:x?}, the first op {first:x?}")
        });
        let e = &self.expected;
        e.exact(&mut fails, "pm_checksum", outcome.pm_checksum);
        e.exact(&mut fails, "pairs_all", outcome.pairs_all as u64);
        e.exact(&mut fails, "tiles_all", outcome.tiles_all as u64);
        e.exact(&mut fails, "pairs_baryon", outcome.pairs_baryon as u64);
        e.exact(&mut fails, "tiles_baryon", outcome.tiles_baryon as u64);
        fails
    }
}

impl Workload for HostMesh {
    fn particle_steps_per_op(&self) -> f64 {
        self.pos.len() as f64
    }

    fn round(&mut self, t: &mut Tracer, samples: &mut Samples) {
        t.set_op(samples.attempted);
        let (outcome, ms) = self.op(t);
        let fails = self.check_op(outcome);
        samples.record(Some(ms), fails);
    }

    fn layers(&mut self, t: &mut Tracer, samples: &mut Samples, out: &mut LayerValues) {
        let (box_size, r_cut) = (self.box_size(), self.cfg.r_cut_cells);
        let ng = self.cfg.box_spec.ng;
        t.set_op(PROBE_OP);

        // Structure checks, once, outside the timed region.
        let mut fails = Vec::new();
        let (tree, list, work) = build_work(
            &mut Tracer::new(false),
            &self.pos,
            box_size,
            r_cut,
            self.max_leaf,
            self.sg_size,
        );
        if let Err(e) = tree.check_invariants(&self.pos) {
            fails.push(format!("RCB invariants (all particles): {e}"));
        }
        let baryon_tree = RcbTree::build(&self.baryon_pos, self.max_leaf);
        if let Err(e) = baryon_tree.check_invariants(&self.baryon_pos) {
            fails.push(format!("RCB invariants (baryons): {e}"));
        }
        // The cover check is O(n²); run it through the same calls on the
        // first 2048 particles.
        let head = &self.pos[..self.pos.len().min(2048)];
        let head_tree = RcbTree::build(head, self.max_leaf);
        let head_list = InteractionList::build(&head_tree, box_size, r_cut);
        let head_tiles = build_tiles(&head_tree, &head_list, self.sg_size);
        if let Err(e) = check_tiles_cover(&head_tiles, &head_tree, head, box_size, r_cut) {
            fails.push(format!("tile cover: {e}"));
        }
        samples.record(None, fails);

        out.set("hacc-tree.rcb_leaves", tree.n_leaves() as f64);
        out.set("hacc-tree.ilist_pairs", list.len() as f64);
        out.set("hacc-kernels.worklist_tiles", work.tiles.len() as f64);
        // Both builds of an op, over both builds' pairs.
        let pairs = self.first.map_or(0, |f| f.pairs_all + f.pairs_baryon);
        out.set(
            "hacc-tree.ilist_ns_per_pair",
            out.get("hacc-tree.ilist_build_ms") * 1e6 / pairs as f64,
        );

        // hacc-mesh: the stages inside `PmSolver::accelerations`.
        let dims = Dims::cube(ng);
        let split = ForceSplit::new(self.cfg.r_split_cells, r_cut);
        let solver = PoissonSolver::new(
            dims,
            PoissonConfig {
                deconvolve_cic: true,
                split: Some(split),
            },
        );
        let mut density = vec![0.0; dims.len()];
        t.span("hacc-mesh.cic_deposit_ms", |_| {
            cic::deposit(dims, &self.pos, &self.mass, &mut density)
        });
        let mean = self.mass.iter().sum::<f64>() / dims.len() as f64;
        for v in &mut density {
            *v = *v / mean - 1.0;
        }
        let force = t.span("hacc-mesh.poisson_force_ms", |_| solver.force(&density));
        let mut acc = vec![[0.0; 3]; self.pos.len()];
        t.span("hacc-mesh.cic_interp_ms", |_| {
            cic::interpolate_vec3(dims, [&force[0], &force[1], &force[2]], &self.pos, &mut acc)
        });
        let mut h = Fnv::default();
        h.eat_vec3s(&acc);
        let mut fails = Vec::new();
        check(
            &mut fails,
            Some(h.0) == self.first.map(|f| f.pm_checksum),
            || "deposit → force → interpolate differs from PmSolver::accelerations".into(),
        );
        samples.record(None, fails);
        t.span("hacc-mesh.measure_power_ms", |_| {
            crk_hacc::mesh::measure_power(dims, &density, self.cfg.box_spec.box_mpc_h, 16)
        });
        let power = LinearPower::new(self.cfg.cosmo);
        t.span("hacc-mesh.ics_ms", |_| {
            zeldovich_ics(&self.cfg.box_spec, &power, self.cfg.z_init, self.cfg.seed)
        });

        // hacc-fft: one real forward + inverse of the mesh.
        let fft = Fft3d::new(dims);
        let roundtrip_ms = probe_ms(5, || fft.inverse_to_real(&fft.forward_real(&density)));
        out.set("hacc-fft.fft3d_roundtrip_ms", roundtrip_ms);
        out.set(
            "hacc-fft.fft3d_mcells_per_s",
            2.0 * dims.len() as f64 / 1e6 / (roundtrip_ms * 1e-3),
        );

        // hacc-tree: the halo finder at the customary b = 0.2 spacing.
        let link = 0.2 * box_size / self.cfg.box_spec.np as f64;
        t.span("hacc-tree.fof_ms", |_| {
            fof_halos(
                &self.baryon_pos,
                &self.mass[self.pos.len() - self.baryon_pos.len()..],
                box_size,
                link,
                10,
            )
        });

        // hacc-cosmo: the factors every sub-cycle asks for.
        let friedmann = Friedmann::new(self.cfg.cosmo);
        let (a0, a1) = (z_to_a(self.cfg.z_init), z_to_a(self.cfg.z_final));
        out.set(
            "hacc-cosmo.kdk_factors_us",
            1e3 * probe_ms(21, || {
                (
                    friedmann.kick_factor(a0, a1),
                    friedmann.drift_factor(a0, a1),
                    friedmann.time_between(a0, a1),
                )
            }),
        );
    }

    fn pins(&self) -> Vec<(String, String)> {
        let f = self.first.expect("set-up ran the cold op");
        vec![
            ("pm_checksum".into(), format!("{:#x}", f.pm_checksum)),
            ("pairs_all".into(), format!("{:#x}", f.pairs_all)),
            ("tiles_all".into(), format!("{:#x}", f.tiles_all)),
            ("pairs_baryon".into(), format!("{:#x}", f.pairs_baryon)),
            ("tiles_baryon".into(), format!("{:#x}", f.tiles_baryon)),
        ]
    }
}
