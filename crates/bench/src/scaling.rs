//! Strong-scaling sweep of the multi-threaded execution engine.
//!
//! Runs the full measured kernel sequence (hydro step + gravity) on one
//! fixed problem while varying the scheduler thread count *and* the
//! metering policy, recording host wall-clock time per step and the
//! bitwise digest of the final device state. Because the
//! deterministic-commit engine replays the serial atomic order and
//! metering is bookkeeping only, every row of the sweep — metered or
//! fast, serial or parallel — must produce the *same* digest, so the
//! sweep doubles as an end-to-end equivalence check of the scheduler
//! and of "bookkeeping never leaks into data".
//!
//! The `figures -- scaling` target renders the table and writes the raw
//! records as `BENCH_scaling.json`; `--big` appends a paper-scale
//! two-species unmetered row.

use crate::experiments::{prepare, BenchProblem, Prepared, VariantChoice};
use hacc_kernels::{HostParticles, Variant};
use hacc_telemetry::{EventKind, Recorder};
use rayon::prelude::*;
use serde::Serialize;
use std::time::Instant;
use sycl_sim::{ExecutionPolicy, GpuArch, LaunchConfig, MeterPolicy, Toolchain};

/// The metering policies the sweep crosses with every execution
/// policy: every op charged (`metered`) and no bookkeeping (`fast`).
const MODES: [(MeterPolicy, &str); 2] =
    [(MeterPolicy::Full, "metered"), (MeterPolicy::Off, "fast")];

/// Host wall-clock attributed to one kernel across a step: the gap
/// from the previous launch-completion timestamp to this kernel's,
/// summed over its launches (so inter-launch host work counts toward
/// the launch it fed).
#[derive(Clone, Debug, Serialize)]
pub struct KernelWall {
    /// Kernel name as launched.
    pub kernel: String,
    /// Wall-clock seconds attributed over the step (best repeat).
    pub seconds: f64,
}

/// One measured configuration of the sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRecord {
    /// Metering mode (`metered` runs the instruction-class profiler on
    /// every sub-group op; `fast` runs the same ops unmetered).
    pub mode: String,
    /// Execution policy label (`serial`, `parallel(N)`).
    pub policy: String,
    /// Scheduler thread count (0 for the serial reference path).
    pub threads: usize,
    /// Best-of-`repeats` wall-clock seconds for one full step.
    pub step_seconds: f64,
    /// Median wall-clock seconds across repeats.
    pub median_seconds: f64,
    /// Speedup of `step_seconds` relative to this mode's serial row.
    pub speedup: f64,
    /// FNV-1a digest of the complete device state after the step (hex).
    pub digest: String,
    /// Whether the digest matches the metered serial reference
    /// bit-for-bit (this gates *across* modes, not just thread counts).
    pub bit_identical: bool,
    /// Per-kernel wall-clock breakdown of the best repeat.
    pub kernel_wall: Vec<KernelWall>,
}

/// One paper-scale unmetered run appended by `--big`: it has no
/// metered twin and records throughput instead of a speedup.
#[derive(Clone, Debug, Serialize)]
pub struct BigRow {
    /// Total particle count (2×n³ for the two-species configuration).
    pub n_particles: usize,
    /// Always `fast` (metering off).
    pub mode: String,
    /// Execution policy label the row ran under.
    pub policy: String,
    /// Wall-clock seconds for one full step.
    pub step_seconds: f64,
    /// Particles advanced per wall-clock second.
    pub particles_per_second: f64,
    /// FNV-1a digest of the final device state (hex) — deterministic,
    /// so reruns anywhere must reproduce it.
    pub digest: String,
}

/// The full sweep result.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingSweep {
    /// Architecture the cost model simulated.
    pub arch: String,
    /// Communication variant measured.
    pub variant: String,
    /// Baryon count of the fixed problem.
    pub n_particles: usize,
    /// Wall-clock repeats per row (best-of is reported).
    pub repeats: usize,
    /// Host threads rayon would use by default on this machine.
    pub host_threads: usize,
    /// Measured parallel throughput ceiling of the host: serial/parallel
    /// wall ratio of a pure-compute spin with no shared data. Cloud and
    /// container hosts are often throttled below their advertised core
    /// count; no engine speedup can exceed this number here.
    pub host_speedup_ceiling: f64,
    /// Wall-clock ratio of the metered serial step to the fast serial
    /// step: what the metering bookkeeping costs.
    pub fast_speedup: f64,
    /// One row per (mode, execution policy) pair.
    pub records: Vec<ScalingRecord>,
    /// The optional `--big` paper-scale fast-mode row.
    pub big: Option<BigRow>,
}

/// Work shared by every row: the Select build's paper-default set-up
/// is built once so each row times only the kernel sequence.
fn prepare_select(arch: &GpuArch, problem: &BenchProblem) -> (Prepared, LaunchConfig) {
    let choice = VariantChoice::paper_default(arch, Variant::Select);
    let prepared = prepare(
        arch,
        Toolchain::sycl(),
        choice.variant,
        choice.sg_size,
        problem,
        None,
    );
    (prepared, choice.launch(arch))
}

/// Measures what parallel speedup this host can physically deliver: a
/// pure-compute spin (no shared memory, no atomics) timed serially and
/// then fanned out over the default pool. Engine rows should be read
/// against this ceiling, not against the nominal core count.
fn host_ceiling() -> f64 {
    // xorshift so the loop has no closed form the optimizer can fold;
    // per-item iteration counts differ so calls cannot be CSE'd.
    fn spin(iters: u64) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ iters;
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }
    let items: Vec<u64> = (0..16u64).map(|i| 2_000_000 + i).collect();
    let t = Instant::now();
    let mut sink = 0u64;
    for &it in &items {
        sink = sink.wrapping_add(spin(std::hint::black_box(it)));
    }
    let serial = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let t = Instant::now();
    let sums: Vec<u64> = items.par_iter().map(|&it| spin(it)).collect();
    let par = t.elapsed().as_secs_f64();
    std::hint::black_box(sums);
    serial / par.max(1e-9)
}

/// Folds a recorder's event stream into per-kernel wall seconds: each
/// `Kernel` event is stamped when its launch completes, so successive
/// timestamps bound each launch's host wall time.
fn kernel_wall(telemetry: &Recorder) -> Vec<KernelWall> {
    let mut out: Vec<KernelWall> = Vec::new();
    let mut prev_ns = 0u64;
    for ev in telemetry.events() {
        if !matches!(ev.kind, EventKind::Kernel) {
            continue;
        }
        let seconds = ev.t_ns.saturating_sub(prev_ns) as f64 * 1e-9;
        prev_ns = ev.t_ns;
        match out.iter_mut().find(|k| k.kernel == ev.name) {
            Some(k) => k.seconds += seconds,
            None => out.push(KernelWall {
                kernel: ev.name.clone(),
                seconds,
            }),
        }
    }
    out
}

/// Runs one full step under `launch`, returning (wall seconds, digest,
/// per-kernel wall breakdown).
fn timed_step(p: &Prepared, launch: LaunchConfig) -> (f64, u64, Vec<KernelWall>) {
    let data = p.upload();
    let telemetry = Recorder::new();
    let t0 = Instant::now();
    p.hydro(&data, launch, &telemetry);
    p.gravity(&data, launch, &telemetry);
    let wall = t0.elapsed().as_secs_f64();
    (wall, data.state_digest(), kernel_wall(&telemetry))
}

/// Doubles an `n³` baryon snapshot into a §3.4.2-style 2×n³
/// two-species configuration: the second species rides the same
/// Zel'dovich displacement field, offset by half the mean
/// inter-particle spacing with periodic wrap (the standard
/// staggered-grid start), so the density doubles without any two
/// particles coinciding.
pub fn two_species(problem: &BenchProblem) -> BenchProblem {
    let p = &problem.particles;
    let off = 0.5 * problem.box_size / (p.len() as f64).cbrt();
    let mut pos = p.pos.clone();
    pos.extend(p.pos.iter().map(|q| {
        [
            (q[0] + off).rem_euclid(problem.box_size),
            (q[1] + off).rem_euclid(problem.box_size),
            (q[2] + off).rem_euclid(problem.box_size),
        ]
    }));
    let mut vel = p.vel.clone();
    vel.extend_from_slice(&p.vel);
    let twice = |v: &[f64]| {
        let mut w = v.to_vec();
        w.extend_from_slice(v);
        w
    };
    BenchProblem {
        particles: HostParticles {
            pos,
            vel,
            mass: twice(&p.mass),
            h: twice(&p.h),
            u: twice(&p.u),
        },
        box_size: problem.box_size,
        r_cut: problem.r_cut,
        poly: problem.poly,
    }
}

/// Runs one unmetered step on a paper-scale problem and records its
/// throughput. There is deliberately no metered twin.
pub fn big_row(arch: &GpuArch, problem: &BenchProblem) -> BigRow {
    // The build's own launch already carries the environment's
    // execution policy; only metering is switched off.
    let (p, launch) = prepare_select(arch, problem);
    let (wall, digest, _) = timed_step(&p, launch.with_meter(MeterPolicy::Off));
    BigRow {
        n_particles: problem.particles.len(),
        mode: "fast".to_string(),
        policy: launch.exec.label(),
        step_seconds: wall,
        particles_per_second: problem.particles.len() as f64 / wall.max(1e-12),
        digest: format!("{digest:016x}"),
    }
}

/// Sweeps (metered, fast) × (serial reference + `thread_counts`),
/// `repeats` times each (best-of wall time is reported; the digest
/// must not vary across repeats, threads, or modes).
pub fn sweep(
    arch: &GpuArch,
    problem: &BenchProblem,
    thread_counts: &[usize],
    repeats: usize,
) -> ScalingSweep {
    let (p, launch) = prepare_select(arch, problem);
    let repeats = repeats.max(1);

    let mut policies = vec![ExecutionPolicy::Serial];
    policies.extend(
        thread_counts
            .iter()
            .map(|&t| ExecutionPolicy::with_threads(t)),
    );

    struct Row {
        meter: MeterPolicy,
        mode: &'static str,
        exec: ExecutionPolicy,
        threads: usize,
        walls: Vec<f64>,
        digest: u64,
        breakdown: Vec<KernelWall>,
    }
    let mut rows: Vec<Row> = MODES
        .iter()
        .flat_map(|&(meter, mode)| {
            policies.iter().map(move |&exec| Row {
                meter,
                mode,
                exec,
                threads: match exec {
                    ExecutionPolicy::Serial => 0,
                    ExecutionPolicy::Parallel { threads } => threads,
                },
                walls: Vec::with_capacity(repeats),
                digest: 0,
                breakdown: Vec::new(),
            })
        })
        .collect();
    // Repeats are interleaved round-robin across rows: shared hosts
    // throttle on a seconds timescale, and back-to-back repeats would
    // hand whole configurations a slow window. Interleaving spreads
    // each window across every row, so best-of compares like with like.
    for r in 0..repeats {
        for row in &mut rows {
            let (wall, d, kw) = timed_step(&p, launch.with_exec(row.exec).with_meter(row.meter));
            if r == 0 {
                row.digest = d;
            } else {
                assert_eq!(
                    d, row.digest,
                    "digest drifted between repeats of {}/{:?}",
                    row.mode, row.exec
                );
            }
            if row.walls.iter().all(|&w| wall < w) {
                row.breakdown = kw;
            }
            row.walls.push(wall);
        }
    }

    let best_of = |row: &Row| row.walls.iter().copied().fold(f64::INFINITY, f64::min);
    // The metered serial row is the bitwise reference for *every*
    // other row, fast mode included.
    let reference_digest = rows[0].digest;
    // Per-mode serial bests anchor the thread-scaling speedup column;
    // their ratio is what the metering bookkeeping costs.
    let serial_best: Vec<f64> = MODES
        .iter()
        .map(|&(_, mode)| {
            rows.iter()
                .find(|r| r.mode == mode && r.threads == 0)
                .map(best_of)
                .expect("each mode sweeps a serial row")
        })
        .collect();
    let fast_speedup = serial_best[0] / serial_best[1].max(1e-12);
    let records = rows
        .into_iter()
        .map(|mut row| {
            row.walls.sort_by(f64::total_cmp);
            let best = row.walls[0];
            let mode_serial = serial_best[MODES.iter().position(|&(_, m)| m == row.mode).unwrap()];
            ScalingRecord {
                mode: row.mode.to_string(),
                policy: row.exec.label(),
                threads: row.threads,
                step_seconds: best,
                median_seconds: row.walls[row.walls.len() / 2],
                speedup: mode_serial / best,
                digest: format!("{:016x}", row.digest),
                bit_identical: row.digest == reference_digest,
                kernel_wall: row.breakdown,
            }
        })
        .collect();

    ScalingSweep {
        arch: arch.system.to_string(),
        variant: Variant::Select.label().to_string(),
        n_particles: problem.particles.len(),
        repeats,
        host_threads: rayon::current_num_threads(),
        host_speedup_ceiling: host_ceiling(),
        fast_speedup,
        records,
        big: None,
    }
}

/// Renders the sweep as a console table.
pub fn render(sweep: &ScalingSweep) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "strong scaling: {} baryons, variant={}, arch={}, best of {} \
         (host: {} threads, measured parallel ceiling {:.2}x)\n",
        sweep.n_particles,
        sweep.variant,
        sweep.arch,
        sweep.repeats,
        sweep.host_threads,
        sweep.host_speedup_ceiling
    ));
    out.push_str(&format!(
        "unmetered vs metered (serial step): {:.2}x\n",
        sweep.fast_speedup
    ));
    out.push_str(&format!(
        "{:<9} {:<14} {:>10} {:>12} {:>9} {:>18} {:>8}\n",
        "mode", "policy", "threads", "step [ms]", "speedup", "digest", "bitwise"
    ));
    for r in &sweep.records {
        out.push_str(&format!(
            "{:<9} {:<14} {:>10} {:>12.3} {:>8.2}x {:>18} {:>8}\n",
            r.mode,
            r.policy,
            if r.threads == 0 {
                "-".to_string()
            } else {
                r.threads.to_string()
            },
            r.step_seconds * 1e3,
            r.speedup,
            r.digest,
            if r.bit_identical { "ok" } else { "DIVERGED" }
        ));
    }
    if let Some(big) = &sweep.big {
        out.push_str(&format!(
            "big row: {} particles ({}, {}): {:.3} s/step, {:.3e} particles/s, digest {}\n",
            big.n_particles,
            big.mode,
            big.policy,
            big.step_seconds,
            big.particles_per_second,
            big.digest
        ));
    }
    out.push_str("\nper-kernel wall [ms] (best repeat):\n");
    for r in &sweep.records {
        out.push_str(&format!("{:<9} {:<14}", r.mode, r.policy));
        for k in &r.kernel_wall {
            out.push_str(&format!(" {}={:.1}", k.kernel, k.seconds * 1e3));
        }
        out.push('\n');
    }
    out
}

/// Serializes the sweep for `BENCH_scaling.json`.
pub fn to_json(sweep: &ScalingSweep) -> String {
    serde_json::to_string_pretty(sweep).expect("serialize scaling sweep")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::workload;

    #[test]
    fn sweep_rows_are_bit_identical_across_modes_and_json_round_trips() {
        let problem = workload(6, 7);
        let sweep = sweep(&GpuArch::frontier(), &problem, &[2, 4], 1);
        // (metered, fast) × (serial, 2, 4).
        assert_eq!(sweep.records.len(), 6);
        assert!(sweep.host_speedup_ceiling > 0.0);
        // bit_identical compares every row — fast rows included —
        // against the metered serial digest.
        assert!(sweep.records.iter().all(|r| r.bit_identical));
        assert!(sweep.records.iter().all(|r| r.step_seconds > 0.0));
        for mode in ["metered", "fast"] {
            assert_eq!(sweep.records.iter().filter(|r| r.mode == mode).count(), 3);
        }
        for r in &sweep.records {
            assert!(!r.kernel_wall.is_empty(), "no kernels attributed");
            let attributed: f64 = r.kernel_wall.iter().map(|k| k.seconds).sum();
            assert!(
                attributed > 0.0 && attributed <= r.step_seconds * 1.5,
                "per-kernel wall breakdown inconsistent: {attributed} vs {}",
                r.step_seconds
            );
        }
        let text = to_json(&sweep);
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["records"].as_array().unwrap().len(), 6);
        assert_eq!(back["records"][0]["mode"].as_str(), Some("metered"));
        assert!(back["fast_speedup"].as_f64().unwrap() > 0.0);
        assert!(render(&sweep).contains("strong scaling"));
    }

    #[test]
    fn two_species_doubles_the_snapshot_in_the_same_box() {
        let problem = workload(4, 7);
        let doubled = two_species(&problem);
        let n = problem.particles.len();
        assert_eq!(doubled.particles.len(), 2 * n);
        assert_eq!(doubled.box_size, problem.box_size);
        assert!(doubled
            .particles
            .pos
            .iter()
            .all(|q| q.iter().all(|&c| (0.0..problem.box_size).contains(&c))));
        // The staggered species must not coincide with the first.
        for i in 0..n {
            assert_ne!(doubled.particles.pos[i], doubled.particles.pos[n + i]);
        }
        // And the big row runs it end to end, unmetered.
        let big = big_row(&GpuArch::frontier(), &doubled);
        assert_eq!(big.n_particles, 2 * n);
        assert_eq!(big.mode, "fast");
        assert!(big.step_seconds > 0.0 && big.particles_per_second > 0.0);
    }
}
