//! The repo benchmark: four named workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark --list      # every metric: unit, direction, where it works, what it moves
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod expected;
mod metrics;
mod native;
mod stats;
mod trace;
mod workloads;

use metrics::{LayerValues, END_TO_END, LAYERS};
use stats::{median, tail_percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Samples, Workload, DEFAULT_SEED, NAMES};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed ops every run completes whatever `--seconds` says.
const MIN_OPS: usize = 3;
/// Environment switches `Simulation::new` and the launch layer read;
/// cleared so the workloads' own settings are the only ones.
const CLEARED_ENV: [&str; 5] = [
    "HACC_EXEC",
    "HACC_METER",
    "HACC_ASYNC",
    "HACC_TUNE",
    "HACC_TUNE_EPSILON",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(&v).ok_or(format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            NAMES.join(", ")
        ));
    }
    if args.seconds.is_nan() {
        args.seconds = if args.smoke { 0.0 } else { 12.0 };
    }
    Ok(args)
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut inside = false;
    let mut table = BTreeMap::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside && !line.starts_with('#') {
            if let Some((k, v)) = line.split_once('=') {
                table.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
    }
    table
}

/// Refuses to measure a build whose optimisation settings differ from
/// the repo's own release build.
fn check_build_parity() -> Result<(), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let root = release_profile(&read("Cargo.toml")?);
    let ours = release_profile(&read("benchmark/Cargo.toml")?);
    if root != ours {
        return Err(format!(
            "[profile.release] differs: root {root:?}, benchmark {ours:?}"
        ));
    }
    if cfg!(debug_assertions) {
        return Err("built without optimisation; use benchmark/run.sh".into());
    }
    Ok(())
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match id.trim() {
        "" => "unknown".into(),
        id => id.chars().take(12).collect(),
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs rounds until `seconds` have passed and [`MIN_OPS`] ops are timed.
fn measure(w: &mut dyn Workload, t: &mut Tracer, samples: &mut Samples, seconds: f64) -> f64 {
    let first = samples.op_ms.len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || samples.op_ms.len() - first < MIN_OPS {
        w.round(t, samples);
    }
    start.elapsed().as_secs_f64()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Prints the report lines and, last, the result object.
fn finish(samples: &Samples, values: &[(&str, &str, f64)]) -> ExitCode {
    for m in &samples.messages {
        println!("FAILED CHECK: {m}");
    }
    println!("{:<44} {:>18}  unit", "metric", "value");
    for (name, unit, v) in values {
        println!("{name:<44} {v:>18.6}  {unit}");
    }
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.failed == 0,
        samples.attempted,
        samples.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn run(args: &Args) -> ExitCode {
    let name = args.workload.as_str();
    let threads = workloads::THREADS;
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    println!(
        "benchmark {name}: commit {} nproc {} threads {threads} seed {:#x} seconds {} trace {} smoke {}",
        commit(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );

    if args.trace {
        return run_traced(args);
    }
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::new();
    let mut built = None;
    // The smoke sizes measure nothing, so one set-up is enough there.
    for _ in 0..if args.smoke { 1 } else { SETUP_REPEATS } {
        drop(built.take());
        let mut samples = Samples::default();
        let t0 = Instant::now();
        let w = workloads::setup(name, args.seed, args.smoke, &mut samples);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((w, samples));
    }
    let (mut w, mut samples) = built.expect("SETUP_REPEATS is positive");
    let wall = measure(w.as_mut(), &mut tracer, &mut samples, args.seconds);
    let ops = samples.op_ms.len();
    println!("timed ops {ops} in {wall:.3} s; set-ups {setups:.3?} s");
    for (k, v) in w.pins() {
        println!("pin {name}.{k} = {v}");
    }
    let op_p50 = median(&samples.op_ms);
    let measured = [
        median(&setups),
        op_p50,
        // At the median op wall: the mean would put the host's stalls
        // into the throughput.
        w.particle_steps_per_op() / (op_p50 * 1e-3),
        peak_rss_mb(),
    ];
    let values: Vec<_> = END_TO_END
        .iter()
        .zip(measured)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    finish(&samples, &values)
}

/// The traced run: a third of the time untraced (the overhead base), a
/// third under spans, then the workload's checks and layer probes.
fn run_traced(args: &Args) -> ExitCode {
    let name = args.workload.as_str();
    let mut samples = Samples::default();
    let mut w = workloads::setup(name, args.seed, args.smoke, &mut samples);
    let mut out = LayerValues::default();

    let mut plain = Tracer::new(false);
    measure(w.as_mut(), &mut plain, &mut samples, args.seconds / 3.0);
    let untraced = std::mem::take(&mut samples.op_ms);
    let mut tracer = Tracer::new(true);
    measure(w.as_mut(), &mut tracer, &mut samples, args.seconds / 3.0);
    let traced = std::mem::take(&mut samples.op_ms);
    println!(
        "untraced ops {}, traced ops {}",
        untraced.len(),
        traced.len()
    );

    // Per-op busy time of every span named after a layer metric, and
    // the share of the op wall those spans account for.
    let n_ops = traced.len() as f64;
    out.set_from_spans(tracer.spans(), n_ops);
    let self_ns = trace::self_times_ns(tracer.spans());
    let (mut op_ns, mut op_self_ns) = (0u64, 0u64);
    for (s, own) in tracer.spans().iter().zip(&self_ns) {
        if s.name == "op" {
            op_ns += s.dur_ns();
            op_self_ns += own;
        }
    }
    out.set(
        "harness.op_attributed_share",
        1.0 - op_self_ns as f64 / op_ns as f64,
    );
    let op_p50 = median(&traced);
    let kernel_ms: f64 = metrics::KERNEL_TIMERS
        .iter()
        .map(|k| out.get(&format!("hacc-kernels.wall_ms.{k}")))
        .sum();
    out.set(
        "harness.kernel_share",
        kernel_ms * n_ops / traced.iter().sum::<f64>(),
    );
    out.set(
        "harness.trace_overhead_share",
        op_p50 / median(&untraced) - 1.0,
    );
    let all: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
    out.set(
        "harness.op_wall_ms_p90",
        tail_percentile(&all, 0.90).unwrap_or(0.0),
    );

    w.layers(&mut tracer, &mut samples, &mut out);
    // Probe spans run once each; what `layers` set itself stays.
    let probes: Vec<_> = tracer
        .spans()
        .iter()
        .filter(|s| s.op == trace::PROBE_OP)
        .cloned()
        .collect();
    out.set_from_spans(&probes, 1.0);

    let path = format!("benchmark/results/{name}.trace.json");
    match trace::write_chrome(std::path::Path::new(&path), tracer.spans()) {
        Ok(()) => println!("trace: {path} ({} spans)", tracer.spans().len()),
        Err(e) => println!("trace not written: {path}: {e}"),
    }
    let self_ms = trace::self_time_by_name(tracer.spans());
    println!("self time by span name (ms, whole run):");
    for (span, ns) in &self_ms {
        println!("  {span:<42} {:>12.3}", *ns as f64 * 1e-6);
    }
    for (k, v) in w.pins() {
        println!("pin {name}.{k} = {v}");
    }
    let values: Vec<_> = LAYERS
        .iter()
        .map(|m| (m.name, m.unit, out.get(m.name)))
        .collect();
    finish(&samples, &values)
}

/// `--workload all`: one child process per workload, so no workload
/// inherits another's heap, caches or thread pools.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut code = ExitCode::SUCCESS;
    for name in NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name}: exited with {s}");
                code = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// `--list`: the metric tables, tab-separated.
fn list_metrics() {
    println!("kind\tname\tunit\tbetter\ton\tmoves");
    for m in &END_TO_END {
        println!(
            "end_to_end\t{}\t{}\t{}\tevery workload\t-",
            m.name, m.unit, m.better
        );
    }
    for m in LAYERS {
        println!(
            "per_layer\t{}\t{}\t{}\t{}\t{}",
            m.name, m.unit, m.better, m.on, m.moves
        );
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--list") {
        list_metrics();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_build_parity() {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        run_all(&args)
    } else {
        run(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_u64("12648430"), Some(DEFAULT_SEED));
        assert_eq!(parse_u64("0xC0FFEE"), Some(DEFAULT_SEED));
        assert_eq!(parse_u64("-1"), None);
        assert_eq!(parse_u64("0x"), None);
    }

    #[test]
    fn release_profile_reads_only_its_own_table() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\ndebug = true\n\
                        # why thin LTO\nlto = \"thin\"\ncodegen-units = 1\n\n[profile.bench]\ndebug = false\n";
        let table = release_profile(manifest);
        assert_eq!(table.len(), 3);
        assert_eq!(table["lto"], "\"thin\"");
        assert_eq!(table["debug"], "true");
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn this_package_builds_with_the_root_release_profile() {
        let root = include_str!("../../Cargo.toml");
        let ours = include_str!("../Cargo.toml");
        assert!(!release_profile(root).is_empty());
        assert_eq!(release_profile(root), release_profile(ours));
    }

    #[test]
    fn non_finite_values_print_as_valid_json() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(f64::INFINITY), "0.0");
    }
}
