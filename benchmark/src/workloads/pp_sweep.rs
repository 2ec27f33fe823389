//! `pp_sweep` — the interpreter used the other way: one op is one
//! `portability_data` sweep (three architectures × every variant, plus
//! the CUDA and HIP builds — fifteen metered kernel sequences on the
//! parallel scheduler) folded into the Figure-12 records. Every paper
//! number comes down this path, so a fast-path gain that taxes
//! metering, the deferred-atomic commit replay or the cost models shows
//! here and nowhere else, and any drift of the modeled clock fails the
//! op.

use super::{check, probe_ms, probe_pair_ms, timed, Samples, Workload};
use crate::expected::Expected;
use crate::metrics::LayerValues;
use crate::stats::Fnv;
use crate::trace::{Tracer, PROBE_OP};
use crk_hacc::bench::experiments::{
    profile_run, run_all_variants, total_seconds, variants_for, workload, BenchProblem,
    VariantChoice,
};
use crk_hacc::bench::figures::{fig12_records, portability_data, PortabilityData};
use crk_hacc::kernels::{
    run_hydro_step, DeviceParticles, TunedSelector, Variant, WorkLists, HYDRO_TIMERS,
};
use crk_hacc::metrics::{AppRecord, RepoInventory};
use crk_hacc::sycl::{Device, ExecutionPolicy, GpuArch, LaunchConfig, MeterPolicy, Toolchain};
use crk_hacc::telemetry::{EventKind, Recorder};
use crk_hacc::tree::{InteractionList, RcbTree};
use crk_hacc::tune::{SizeBand, TuneCache, TuneKey};
use std::collections::BTreeMap;

/// Figure-12 rows the paper quotes, with its values.
const PAPER_PP: [(&str, &str, f64); 3] = [
    ("pp_specialized", "SYCL (Select + Memory)", 0.96),
    ("pp_single_source", "SYCL (Memory)", 0.79),
    ("pp_unified", "Unified", 0.90),
];

pub struct PpSweep {
    problem: BenchProblem,
    expected: Expected,
    /// Checksum of the first sweep; every sweep must reproduce it.
    checksum: u64,
    /// Σ modeled seconds over every architecture × variant.
    modeled_device_s: f64,
    records: Vec<AppRecord>,
    sequences: usize,
}

fn eat_timers(h: &mut Fnv, timers: &BTreeMap<String, f64>) {
    for (name, seconds) in timers {
        for b in name.bytes() {
            h.eat(u64::from(b));
        }
        h.eat(seconds.to_bits());
    }
}

/// Bit-exact checksum of everything a sweep measured.
fn checksum(data: &PortabilityData) -> u64 {
    let mut h = Fnv::default();
    for run in &data.runs {
        for (variant, timers) in &run.by_variant {
            for b in variant.bytes() {
                h.eat(u64::from(b));
            }
            eat_timers(&mut h, timers);
        }
    }
    for best in &data.best {
        eat_timers(&mut h, best);
    }
    eat_timers(&mut h, &data.cuda_polaris);
    eat_timers(&mut h, &data.hip_frontier);
    h.0
}

fn sweep(problem: &BenchProblem, t: &mut Tracer) -> (PortabilityData, Vec<AppRecord>) {
    let data = t.span("bench.portability_data", |_| portability_data(problem));
    let records = t.span("bench.fig12_records", |_| fig12_records(&data));
    (data, records)
}

impl PpSweep {
    pub fn setup(seed: u64, smoke: bool, samples: &mut Samples) -> Self {
        let problem = workload(if smoke { 4 } else { 8 }, seed);
        let (data, records) = sweep(&problem, &mut Tracer::new(false));
        let this = Self {
            problem,
            expected: Expected::load("pp_sweep", seed, smoke),
            checksum: checksum(&data),
            modeled_device_s: data
                .runs
                .iter()
                .flat_map(|r| r.by_variant.values())
                .map(total_seconds)
                .sum(),
            records,
            sequences: GpuArch::all()
                .iter()
                .map(|a| variants_for(a).len())
                .sum::<usize>()
                + 2,
        };
        let fails = this.check_sweep(&data, &this.records);
        samples.record(None, fails);
        this
    }

    fn pp(&self, label: &str) -> f64 {
        self.records
            .iter()
            .find(|r| r.name == label)
            .map_or(f64::NAN, AppRecord::pp)
    }

    fn check_sweep(&self, data: &PortabilityData, records: &[AppRecord]) -> Vec<String> {
        let mut fails = Vec::new();
        let sum = checksum(data);
        check(&mut fails, sum == self.checksum, || {
            format!(
                "sweep checksum {sum:#x} != first sweep's {:#x}",
                self.checksum
            )
        });
        for r in records {
            let pp = r.pp();
            // Configurations that do not build everywhere have PP 0.
            let everywhere = r.efficiencies.iter().all(Option::is_some);
            check(&mut fails, pp <= 1.0 && (pp > 0.0 || !everywhere), || {
                format!("PP of `{}` = {pp} outside (0, 1]", r.name)
            });
        }
        self.expected.exact(&mut fails, "checksum", sum);
        self.expected
            .modeled(&mut fails, "modeled_device_s", self.modeled_device_s);
        for (key, label, _) in PAPER_PP {
            self.expected.modeled(&mut fails, key, self.pp(label));
        }
        fails
    }
}

impl Workload for PpSweep {
    fn particle_steps_per_op(&self) -> f64 {
        // Each kernel sequence is one hydro step (plus gravity) over the
        // workload's particles.
        (self.sequences * self.problem.particles.len()) as f64
    }

    fn round(&mut self, t: &mut Tracer, samples: &mut Samples) {
        t.set_op(samples.attempted);
        let ((data, records), ms) = timed(|| t.span("op", |t| sweep(&self.problem, t)));
        let fails = self.check_sweep(&data, &records);
        samples.record(Some(ms), fails);
    }

    fn layers(&mut self, t: &mut Tracer, _samples: &mut Samples, out: &mut LayerValues) {
        out.set("modeled.device_s", self.modeled_device_s);
        for (key, label, paper) in PAPER_PP {
            let pp = self.pp(label);
            println!(
                "{key}: {pp:.4} (paper {paper:.2}, |error| {:.4}) — {label}",
                (pp - paper).abs()
            );
            out.set(&format!("modeled.{key}"), pp);
        }

        // bench: one architecture's share of the sweep.
        t.set_op(PROBE_OP);
        for arch in GpuArch::all() {
            let name = format!("bench.arch_sweep_ms.{}", arch.id);
            t.span(&name, |_| run_all_variants(&arch, &self.problem));
        }

        // One Frontier / Select sequence, the configuration `sim_fast`
        // runs: exact instruction counts and modeled seconds per timer.
        let frontier = GpuArch::frontier();
        let choice = VariantChoice::paper_default(&frontier, Variant::Select);
        let rec = profile_run(&frontier, Toolchain::sycl(), choice, &self.problem);
        let (mut ops, mut seconds) = (BTreeMap::new(), BTreeMap::new());
        for ev in rec.events() {
            if let (EventKind::Kernel, Some(k)) = (ev.kind, &ev.kernel) {
                *ops.entry(k.timer.clone()).or_insert(0u64) += k.total_instr();
            }
            if ev.kind == EventKind::Timer {
                *seconds.entry(ev.name.clone()).or_insert(0.0) += ev.value;
            }
        }
        for timer in crate::metrics::KERNEL_TIMERS {
            out.set(
                &format!("hacc-kernels.ops.{timer}"),
                ops.get(timer).copied().unwrap_or(0) as f64,
            );
            out.set(
                &format!("hacc-kernels.modeled_s.{timer}"),
                seconds.get(timer).copied().unwrap_or(0.0),
            );
        }

        self.scheduler_probes(&frontier, choice, out);
        analysis_probes(&frontier, &self.records, self.problem.particles.len(), out);
    }

    fn pins(&self) -> Vec<(String, String)> {
        let mut pins = vec![
            ("checksum".into(), format!("{:#x}", self.checksum)),
            (
                "modeled_device_s".into(),
                format!("{:?}", self.modeled_device_s),
            ),
        ];
        for (key, label, _) in PAPER_PP {
            pins.push((key.into(), format!("{:?}", self.pp(label))));
        }
        pins
    }
}

impl PpSweep {
    /// sycl-sim: what metering costs, what the parallel scheduler buys,
    /// and the ceiling this host puts on the latter — all on the hydro
    /// sequence of this workload's particles.
    fn scheduler_probes(&self, arch: &GpuArch, choice: VariantChoice, out: &mut LayerValues) {
        let p = &self.problem;
        let device = Device::new(arch.clone(), Toolchain::sycl()).expect("SYCL builds everywhere");
        let tree = RcbTree::build(
            &p.particles.pos,
            choice.variant.preferred_leaf_capacity(choice.sg_size),
        );
        let list = InteractionList::build(&tree, p.box_size, p.r_cut);
        let work = WorkLists::build(&tree, &list, choice.sg_size);
        let ordered = p.particles.permuted(&tree.order);
        let hydro = |exec, meter| {
            let launch = LaunchConfig {
                sg_size: choice.sg_size,
                wg_size: 128.max(choice.sg_size),
                grf: choice.grf,
                exec,
                meter,
                bounds: crk_hacc::sycl::LaunchBounds::Default,
            };
            let (device, work, ordered) = (&device, &work, &ordered);
            move || {
                let data = DeviceParticles::upload(ordered);
                run_hydro_step(
                    device,
                    &data,
                    work,
                    choice.variant,
                    p.box_size as f32,
                    launch,
                    &Recorder::new(),
                )
                .expect("fault-free hydro step")
            }
        };
        let serial = ExecutionPolicy::Serial;
        let (full, off) = probe_pair_ms(
            3,
            hydro(serial, MeterPolicy::Full),
            hydro(serial, MeterPolicy::Off),
        );
        out.set("sycl-sim.meter_overhead_x", full / off);
        let (full, par) = probe_pair_ms(
            3,
            hydro(serial, MeterPolicy::Full),
            hydro(ExecutionPolicy::with_threads(2), MeterPolicy::Full),
        );
        out.set("sycl-sim.par_speedup_x", full / par);
        out.set("sycl-sim.host_ceiling_x", host_ceiling());
    }
}

/// Serial over two-thread wall of a pure-compute spin with no shared
/// data: the speed-up this host can physically deliver at two threads.
fn host_ceiling() -> f64 {
    fn spin(iters: u64) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ iters;
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }
    let half = |k: u64| {
        (0..8u64)
            .map(|i| spin(std::hint::black_box(2_000_000 + 2 * i + k)))
            .fold(0u64, u64::wrapping_add)
    };
    let (serial, parallel) = probe_pair_ms(
        3,
        || half(0).wrapping_add(half(1)),
        || {
            std::thread::scope(|s| {
                let other = s.spawn(|| half(1));
                half(0).wrapping_add(other.join().expect("spin thread"))
            })
        },
    );
    serial / parallel
}

/// A `haccmk`-shaped CUDA kernel for the migration probe.
const CUDA_KERNEL: &str = r#"
__global__ void force_KERNEL(float *vx, float *vy, float *vz,
                             const float *xx, const float *yy, const float *zz,
                             const float *mass, int n, float fsrmax, float rsm) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) return;
    float xi = 0.0f, yi = 0.0f, zi = 0.0f;
    float px = __ldg(&xx[i]);
    float py = __ldg(&yy[i]);
    float pz = __ldg(&zz[i]);
    for (int s = 0; s < 16; ++s) {
        float dx = __shfl_xor_sync(0xffffffff, px, 16 + s) - px;
        float dy = __shfl_xor_sync(0xffffffff, py, 16 + s) - py;
        float dz = __shfl_xor_sync(0xffffffff, pz, 16 + s) - pz;
        float r2 = dx * dx + dy * dy + dz * dz;
        float m = r2 < fsrmax ? __ldg(&mass[i]) : 0.0f;
        float f = r2 + rsm;
        f = m * rsqrtf(f * f * f);
        xi += f * dx; yi += f * dy; zi += f * dz;
    }
    atomicAdd(&vx[i], xi);
    atomicAdd(&vy[i], yi);
    atomicAdd(&vz[i], zi);
}

void launch_KERNEL(float *vx, float *vy, float *vz, const float *xx, const float *yy,
                   const float *zz, const float *mass, int n) {
    force_KERNEL<<<n / 128, 128>>>(vx, vy, vz, xx, yy, zz, mass, n, 25.0f, 0.01f);
}
"#;

/// hacc-tune, hacc-metrics and syclomatic-mini: the analysis layers a
/// sweep's numbers pass through on their way to a figure.
fn analysis_probes(arch: &GpuArch, records: &[AppRecord], n: usize, out: &mut LayerValues) {
    // A cache with every tunable timer recorded for every architecture.
    let mut cache = TuneCache::new(
        crk_hacc::kernels::tuning::arch_digest(arch),
        crk_hacc::kernels::tuning::kernel_digest(),
    );
    for a in GpuArch::all() {
        let choice = crk_hacc::kernels::tuning::hand_picked_choice(&a, Variant::Select);
        for band in [SizeBand::Small, SizeBand::Medium, SizeBand::Large] {
            for timer in HYDRO_TIMERS {
                cache.record(&TuneKey::new(timer, a.id, band), &choice, 1e-3);
            }
        }
    }
    let text = cache.to_json();
    out.set(
        "hacc-tune.cache_parse_us",
        1e3 * probe_ms(21, || {
            TuneCache::from_json(&text).expect("own output parses")
        }),
    );
    let mut selector = TunedSelector::new(arch, n, cache, 0.0, false);
    let base = LaunchConfig::defaults_for(arch);
    out.set(
        "hacc-tune.plan_us",
        1e3 * probe_ms(21, || selector.plan(Variant::Select, base, None)),
    );

    out.set(
        "hacc-metrics.inventory_ms",
        probe_ms(3, || {
            RepoInventory::measure(std::path::Path::new(".")).expect("run from the repo root")
        }),
    );
    out.set(
        "hacc-metrics.pp_cascade_us",
        1e3 * probe_ms(21, || {
            records
                .iter()
                .map(|r| (r.pp(), r.cascade()))
                .collect::<Vec<_>>()
        }),
    );

    let mut cuda = String::from("#include <cuda_runtime.h>\n");
    for k in 0..8 {
        cuda.push_str(&CUDA_KERNEL.replace("KERNEL", &format!("k{k}")));
    }
    let klines = cuda.lines().count() as f64 / 1e3;
    out.set(
        "syclomatic-mini.migrate_klines_per_s",
        klines / (1e-3 * probe_ms(3, || crk_hacc::syclomatic::migrate_pipeline(&cuda))),
    );
}
