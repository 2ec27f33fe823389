//! The cross-rank performance health report (`figures -- health`).
//!
//! One collection pass drives the whole analysis plane end to end and
//! folds the result into a single serializable [`HealthReport`]:
//!
//! * a **kernel profile run** per architecture (the §5.4 hydro-step
//!   sequence plus gravity) supplies per-launch [`KernelProfile`]s,
//!   which the [`hacc_telemetry::roofline`] pass places against each
//!   machine's compute peak and memory bandwidth — one point per
//!   kernel per architecture;
//! * a **multi-rank run** per architecture (8 ranks, the paper's node)
//!   emits the `step`/`rank.<r>`/`phase.*` span tree, which the
//!   [`hacc_telemetry::analysis`] pass folds into per-step critical
//!   paths with compute/exchange/wait attribution;
//! * both event streams feed one [`Registry`] per architecture, whose
//!   snapshot is the metric surface [`against`] compares with the
//!   committed `tests/observe_baseline.json`.
//!
//! The report serializes as `BENCH_observe.json`; [`dashboard`]
//! renders the same data, and the gate's verdict, as a
//! dependency-free single-file HTML page (inline SVG, no scripts).

use crate::experiments::{measure, workload, VariantChoice};
use crate::gate::{Gate, Values};
use hacc_core::{MultiRankProblem, MultiRankSim};
use hacc_kernels::Variant;
use hacc_telemetry::analysis::{critical_paths, RankAttribution, StepCriticalPath};
use hacc_telemetry::registry::{MetricSummary, Registry};
use hacc_telemetry::roofline::{place_profiles, RooflinePoint};
use hacc_telemetry::{KernelProfile, Recorder};
use serde::{Deserialize, Serialize};
use sycl_sim::{FaultConfig, GpuArch, Toolchain};

/// Schema version of `BENCH_observe.json`.
pub const HEALTH_SCHEMA: u32 = 1;

/// Ranks in the health report's multi-rank run (the paper's node).
pub const HEALTH_RANKS: usize = 8;

/// One architecture's slice of the health report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArchHealth {
    /// Architecture id (`pvc`, `a100`, `mi250x`).
    pub arch: String,
    /// System name (Aurora, Polaris, Frontier).
    pub system: String,
    /// Per-step critical-path attribution from the multi-rank run.
    pub critical_paths: Vec<StepCriticalPath>,
    /// One roofline point per kernel launched in the profile run.
    pub roofline: Vec<RooflinePoint>,
    /// Registry snapshot over both event streams, name-sorted.
    pub metrics: Vec<MetricSummary>,
}

/// The full health report, serialized as `BENCH_observe.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HealthReport {
    /// Schema version ([`HEALTH_SCHEMA`]).
    pub schema: u32,
    /// Particles in the multi-rank problem.
    pub n_particles: usize,
    /// Ranks in the multi-rank run.
    pub ranks: usize,
    /// Steps advanced per architecture.
    pub steps: u64,
    /// IC seed shared by both runs.
    pub seed: u64,
    /// One slice per architecture, in [`GpuArch::all`] order.
    pub archs: Vec<ArchHealth>,
}

/// True for metrics carrying host wall-clock (scheduler busy/barrier
/// times, queue depths under OS scheduling) — never gated, because
/// they are not reproducible across machines.
fn is_volatile(name: &str) -> bool {
    name.starts_with("sched.")
}

/// Collects the health report, with `fault` installed on the profile
/// run's device when given. `FaultConfig::slow_kernels` manufactures a
/// known kernel-level regression for gate acceptance tests.
pub fn collect_faulty(
    size: usize,
    steps: u64,
    seed: u64,
    fault: Option<FaultConfig>,
) -> HealthReport {
    let problem = workload(size, seed);
    let n = size * size * size;
    let mr_problem = MultiRankProblem::small(n, seed);
    let mut archs = Vec::new();
    for arch in GpuArch::all() {
        let choice = VariantChoice::paper_default(&arch, Variant::Select);
        let kernel_rec = measure(
            &arch,
            Toolchain::sycl(),
            choice.variant,
            choice.launch(&arch),
            &problem,
            fault.clone(),
        );
        let mut sim = MultiRankSim::new(HEALTH_RANKS, arch.clone(), mr_problem);
        let rank_rec = Recorder::new();
        sim.set_recorder(rank_rec.clone());
        sim.run(steps).expect("fault-free health run must complete");

        let kernel_events = kernel_rec.events();
        let rank_events = rank_rec.events();
        let profiles: Vec<KernelProfile> = kernel_events
            .iter()
            .filter_map(|e| e.kernel.as_deref().cloned())
            .collect();
        let roofline = place_profiles(
            &profiles,
            arch.id,
            arch.fp32_peak_tflops * 1e3,
            arch.mem_gbps,
        );
        let mut reg = Registry::new();
        reg.ingest(&kernel_events);
        reg.ingest(&rank_events);
        archs.push(ArchHealth {
            arch: arch.id.to_string(),
            system: arch.system.to_string(),
            critical_paths: critical_paths(&rank_events),
            roofline,
            metrics: reg.snapshot(),
        });
    }
    HealthReport {
        schema: HEALTH_SCHEMA,
        n_particles: n,
        ranks: HEALTH_RANKS,
        steps,
        seed,
        archs,
    }
}

/// The critical paths of architecture `arch` (none when it is absent).
fn paths<'a>(r: &'a HealthReport, arch: &str) -> &'a [StepCriticalPath] {
    let slice = r.archs.iter().find(|a| a.arch == arch);
    slice.map_or(&[], |a| &a.critical_paths)
}

/// Names what moved behind a failing metric of architecture `arch`:
/// the kernel, the (step, rank) that moved most for a phase, or the
/// layer.
fn explain(report: &HealthReport, baseline: &HealthReport, arch: &str, name: &str) -> String {
    let phase: fn(&RankAttribution) -> f64 = match name {
        "phase.migrate" => |a| a.migrate_seconds,
        "phase.interior" => |a| a.interior_seconds,
        "phase.halo" => |a| a.halo_seconds,
        "phase.boundary" => |a| a.boundary_seconds,
        _ => {
            return match name.split_once('.') {
                None => format!("kernel {name}"),
                Some(("kernel", _)) => format!("kernel {}", name.split('.').nth(1).unwrap_or(name)),
                Some(("comm", _)) => "transport layer (α–β link model)".to_string(),
                Some(_) => "multi-rank engine accounting".to_string(),
            }
        }
    };
    let mut best: Option<(f64, usize, usize, f64, f64)> = None;
    for (sc, sb) in paths(report, arch).iter().zip(paths(baseline, arch)) {
        for (rc, rb) in sc.per_rank.iter().zip(&sb.per_rank) {
            let d = (phase(rc) - phase(rb)).abs();
            if best.is_none_or(|b| d > b.0) {
                best = Some((d, sc.step, rc.rank, phase(rb), phase(rc)));
            }
        }
    }
    match best {
        Some((d, step, rank, b, c)) if d > 0.0 => {
            format!("largest mover: rank {rank} at step {step}, {b:.4e} s -> {c:.4e} s")
        }
        _ => "the phase moved uniformly across ranks".to_string(),
    }
}

/// Gates `report` against the committed `baseline` report: the sum of
/// every non-volatile registry metric per architecture, each failure
/// naming what moved. A moved critical rank is a note.
pub fn against(report: &HealthReport, baseline: &HealthReport) -> Gate {
    let config = |r: &HealthReport| {
        let (n, ranks, steps, seed) = (r.n_particles, r.ranks, r.steps, r.seed);
        format!("n_particles {n}, ranks {ranks}, steps {steps}, seed {seed}")
    };
    Gate::pinned(config(report), config(baseline), |gate| {
        gate.header("schema", report.schema, baseline.schema);
        let sums = |r: &HealthReport| {
            let mut sums = Values::new();
            for a in &r.archs {
                for m in a.metrics.iter().filter(|m| !is_volatile(&m.name)) {
                    sums.insert((a.arch.clone(), m.name.clone()), m.sum);
                }
            }
            sums
        };
        gate.compare(&sums(report), &sums(baseline));
        for row in gate.rows.iter_mut().filter(|r| !r.ok()) {
            row.why = explain(report, baseline, &row.place, &row.metric);
        }
        for a in &report.archs {
            for (sc, sb) in a.critical_paths.iter().zip(paths(baseline, &a.arch)) {
                if sc.critical_rank != sb.critical_rank {
                    let (was, now) = (sb.critical_rank, sc.critical_rank);
                    let note = format!(
                        "{} step {}: critical rank moved {was} -> {now}",
                        a.arch, sc.step
                    );
                    gate.notes.push(note);
                }
            }
        }
    })
}

/// Renders the report as a console summary.
pub fn render(report: &HealthReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== Performance health: {} particles over {} ranks, {} steps ==\n",
        report.n_particles, report.ranks, report.steps
    ));
    for a in &report.archs {
        let node: f64 = a.critical_paths.iter().map(|s| s.node_seconds).sum();
        let crit = a
            .critical_paths
            .last()
            .map(|s| s.critical_rank)
            .unwrap_or(0);
        out.push_str(&format!(
            "\n{} ({}) — node {:.3} ms over {} steps, critical rank {}\n",
            a.system,
            a.arch,
            node * 1e3,
            a.critical_paths.len(),
            crit
        ));
        out.push_str(&format!(
            "  {:<12} {:>9} {:>12} {:>12} {:>8} {:>8}\n",
            "kernel", "AI", "GF/s", "roof GF/s", "eff", "bound"
        ));
        for p in &a.roofline {
            out.push_str(&format!(
                "  {:<12} {:>9.3} {:>12.1} {:>12.1} {:>7.1}% {:>8}\n",
                p.kernel,
                p.ai,
                p.achieved_gflops,
                p.attainable_gflops,
                p.efficiency * 100.0,
                p.bound
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- HTML

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

const PHASE_COLORS: [(&str, &str); 5] = [
    ("migrate", "#8e44ad"),
    ("interior", "#2e86c1"),
    ("exchange", "#e67e22"),
    ("boundary", "#27ae60"),
    ("wait", "#bdc3c7"),
];

/// Per-rank phase timeline for one architecture: one stacked horizontal
/// bar per rank, phases summed over all steps, width scaled to the
/// total node time.
fn timeline_svg(a: &ArchHealth) -> String {
    let ranks = a
        .critical_paths
        .first()
        .map(|s| s.per_rank.len())
        .unwrap_or(0);
    if ranks == 0 {
        return "<p>no multi-rank telemetry</p>".to_string();
    }
    let node_total: f64 = a.critical_paths.iter().map(|s| s.node_seconds).sum();
    let (w, bar_h, gap, left) = (640.0f64, 18.0f64, 6.0f64, 64.0f64);
    let h = ranks as f64 * (bar_h + gap) + gap;
    let mut svg = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" font-family="monospace" font-size="11">"#,
        w + left + 8.0,
        h + 4.0
    );
    for r in 0..ranks {
        // [migrate, interior, exchange(exposed), boundary, wait] summed
        // over steps for this rank.
        let mut seg = [0.0f64; 5];
        for s in &a.critical_paths {
            if let Some(att) = s.per_rank.iter().find(|x| x.rank == r) {
                seg[0] += att.migrate_seconds;
                seg[1] += att.interior_seconds;
                seg[2] += att.exposed_exchange_seconds;
                seg[3] += att.boundary_seconds;
                seg[4] += att.wait_seconds;
            }
        }
        let y = gap + r as f64 * (bar_h + gap);
        svg.push_str(&format!(
            r#"<text x="0" y="{:.1}">rank {r}</text>"#,
            y + bar_h - 5.0
        ));
        let mut x = left;
        for (i, &(_, color)) in PHASE_COLORS.iter().enumerate() {
            let frac = if node_total > 0.0 {
                seg[i] / node_total
            } else {
                0.0
            };
            let bw = frac * w;
            if bw > 0.0 {
                svg.push_str(&format!(
                    r#"<rect x="{x:.2}" y="{y:.1}" width="{bw:.2}" height="{bar_h}" fill="{color}"><title>{}: {:.3e} s</title></rect>"#,
                    PHASE_COLORS[i].0, seg[i]
                ));
            }
            x += bw;
        }
    }
    svg.push_str("</svg>");
    let legend: String = PHASE_COLORS
        .iter()
        .map(|(name, color)| {
            format!(r#"<span style="color:{color}">&#9632;</span> {name}&nbsp;&nbsp;"#)
        })
        .collect();
    format!("{svg}<div>{legend}</div>")
}

/// Log-log roofline scatter for one architecture: bandwidth slope,
/// compute ceiling, one labeled point per kernel.
fn roofline_svg(a: &ArchHealth) -> String {
    if a.roofline.is_empty() {
        return "<p>no kernel profiles</p>".to_string();
    }
    let peak = a.roofline[0].peak_gflops;
    let bw = a.roofline[0].mem_gbps;
    let (w, h, ml, mb) = (420.0f64, 260.0f64, 48.0f64, 28.0f64);
    // Log-space bounds padded one decade past the data and the ridge.
    let ridge = a.roofline[0].ridge_ai.max(1e-3);
    let mut x_min: f64 = (ridge / 100.0).log10();
    let mut x_max: f64 = (ridge * 10.0).log10();
    let mut y_min: f64 = (peak / 1e5).log10();
    let y_max: f64 = (peak * 3.0).log10();
    for p in &a.roofline {
        if p.ai > 0.0 {
            x_min = x_min.min(p.ai.log10() - 0.5);
            x_max = x_max.max(p.ai.log10() + 0.5);
        }
        if p.achieved_gflops > 0.0 {
            y_min = y_min.min(p.achieved_gflops.log10() - 0.5);
        }
    }
    let px = |ai_log: f64| ml + (ai_log - x_min) / (x_max - x_min) * (w - ml - 8.0);
    let py = |gf_log: f64| (h - mb) - (gf_log - y_min) / (y_max - y_min) * (h - mb - 8.0);
    let mut svg = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" font-family="monospace" font-size="10">"#
    );
    // Roof: bandwidth slope up to the ridge, then the flat peak.
    let roof_at = |ai_log: f64| (10f64.powf(ai_log) * bw).min(peak).log10();
    let mut pts = String::new();
    let steps = 64;
    for i in 0..=steps {
        let ai_log = x_min + (x_max - x_min) * i as f64 / steps as f64;
        pts.push_str(&format!("{:.1},{:.1} ", px(ai_log), py(roof_at(ai_log))));
    }
    svg.push_str(&format!(
        r##"<polyline points="{}" fill="none" stroke="#555" stroke-width="1.5"/>"##,
        pts.trim_end()
    ));
    // Axes labels.
    svg.push_str(&format!(
        r#"<text x="{:.0}" y="{:.0}">AI [flop/byte], log</text>"#,
        w / 2.0 - 40.0,
        h - 6.0
    ));
    svg.push_str(&format!(
        r#"<text x="2" y="12">GF/s, log (peak {peak:.0}, bw {bw:.0} GB/s)</text>"#
    ));
    for p in &a.roofline {
        if p.ai <= 0.0 || p.achieved_gflops <= 0.0 {
            continue;
        }
        let (x, y) = (px(p.ai.log10()), py(p.achieved_gflops.log10()));
        svg.push_str(&format!(
            r##"<circle cx="{x:.1}" cy="{y:.1}" r="3" fill="#c0392b"><title>{}: AI {:.3}, {:.1} GF/s, {:.1}% of roof</title></circle>"##,
            esc(&p.kernel),
            p.ai,
            p.achieved_gflops,
            p.efficiency * 100.0
        ));
        svg.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}">{}</text>"#,
            x + 5.0,
            y + 3.0,
            esc(&p.kernel)
        ));
    }
    svg.push_str("</svg>");
    svg
}

fn metrics_table(a: &ArchHealth) -> String {
    let mut rows = String::new();
    for m in &a.metrics {
        let q = |v: Option<f64>| v.map(|x| format!("{x:.3e}")).unwrap_or_default();
        rows.push_str(&format!(
            "<tr><td>{}</td><td>{:?}</td><td>{}</td><td>{:.6e}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&m.name),
            m.kind,
            m.count,
            m.sum,
            q(m.p50),
            q(m.p95),
            q(m.p99)
        ));
    }
    format!(
        "<details><summary>{} metrics</summary><table>\
         <tr><th>name</th><th>kind</th><th>count</th><th>sum</th>\
         <th>p50</th><th>p95</th><th>p99</th></tr>{rows}</table></details>",
        a.metrics.len()
    )
}

/// Renders the report, and the gate's verdict on it when there is one,
/// as one self-contained HTML page: inline SVG only, no scripts, no
/// external assets.
pub fn dashboard(report: &HealthReport, gate: Option<&Gate>) -> String {
    let mut body = format!(
        "<h1>Performance health</h1>\
         <p>{} particles over {} ranks, {} steps, seed {} — schema v{}</p>",
        report.n_particles, report.ranks, report.steps, report.seed, report.schema
    );
    body.push_str(&match gate {
        Some(g) => format!(
            "<h2>Verdict vs baseline</h2><pre>{}</pre>",
            esc(&g.render("health"))
        ),
        None => "<p><em>no baseline read — verdict omitted</em></p>".to_string(),
    });
    for a in &report.archs {
        body.push_str(&format!(
            "<h2>{} ({})</h2><h3>Phase timeline per rank</h3>{}\
             <h3>Roofline</h3>{}{}",
            esc(&a.system),
            esc(&a.arch),
            timeline_svg(a),
            roofline_svg(a),
            metrics_table(a)
        ));
    }
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
         <title>Performance health</title><style>\
         body{{font-family:monospace;margin:24px;max-width:900px}}\
         table{{border-collapse:collapse}}\
         td,th{{border:1px solid #ccc;padding:2px 8px;text-align:right}}\
         th{{background:#eee}}td:first-child,td:nth-child(2){{text-align:left}}\
         </style></head><body>{body}</body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> HealthReport {
        collect_faulty(8, 2, 9, None)
    }

    #[test]
    fn report_covers_every_kernel_on_every_arch() {
        let report = small_report();
        assert_eq!(report.archs.len(), 3);
        // The kernel set is identical across architectures — one
        // roofline point per registered kernel per machine.
        let kernels = |a: &ArchHealth| {
            a.roofline
                .iter()
                .map(|p| p.kernel.clone())
                .collect::<std::collections::BTreeSet<_>>()
        };
        let first = kernels(&report.archs[0]);
        assert!(first.contains("upGeo") && first.contains("upGrav"));
        for a in &report.archs[1..] {
            assert_eq!(kernels(a), first, "{} kernel set diverged", a.arch);
        }
        for a in &report.archs {
            for p in &a.roofline {
                assert!(p.seconds > 0.0 && p.bytes > 0.0, "{}/{}", a.arch, p.kernel);
                assert!(p.attainable_gflops > 0.0);
            }
        }
    }

    #[test]
    fn attribution_fractions_partition_every_rank() {
        let report = small_report();
        for a in &report.archs {
            assert_eq!(a.critical_paths.len(), 2, "one path per step");
            for s in &a.critical_paths {
                assert_eq!(s.per_rank.len(), HEALTH_RANKS);
                for r in &s.per_rank {
                    let total = r.frac_compute_interior
                        + r.frac_compute_boundary
                        + r.frac_exchange
                        + r.frac_wait;
                    assert!(
                        (total - 1.0).abs() < 1e-9,
                        "{} step {} rank {}: fractions sum to {total}",
                        a.arch,
                        s.step,
                        r.rank
                    );
                }
            }
        }
    }

    #[test]
    fn json_roundtrip_preserves_the_report() {
        let report = small_report();
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: HealthReport = serde_json::from_str(&text).expect("re-read own serialization");
        assert_eq!(back.schema, HEALTH_SCHEMA);
        assert_eq!(back.archs.len(), report.archs.len());
        for (b, r) in back.archs.iter().zip(&report.archs) {
            assert_eq!(b.arch, r.arch);
            assert_eq!(b.roofline, r.roofline);
            assert_eq!(b.critical_paths, r.critical_paths);
            assert_eq!(b.metrics, r.metrics);
        }
    }

    #[test]
    fn slowed_kernel_tops_the_regressions() {
        let base = collect_faulty(8, 1, 9, None);
        let slowed = collect_faulty(
            8,
            1,
            9,
            Some(FaultConfig {
                slow_kernels: vec![("upGeo".to_string(), 5.0)],
                ..FaultConfig::default()
            }),
        );
        let gate = against(&slowed, &base);
        assert!(!gate.passed(), "a 5x slowdown must fail the gate");
        for arch in ["pvc", "a100", "mi250x"] {
            let top = gate.rows.iter().find(|r| r.place == arch).unwrap();
            assert!(
                top.metric.contains("upGeo") && top.why == "kernel upGeo",
                "{arch}: top mover must name the slowed kernel, got {top:?}"
            );
            assert!(top.delta() > 3.0, "5x slowdown ⇒ ≈ +400%");
        }
        // No phantom movers: every moved value traces to the knob.
        for r in gate.rows.iter().filter(|r| r.delta() != 0.0) {
            assert!(r.metric.contains("upGeo"), "unexpected mover {r:?}");
        }
    }

    #[test]
    fn dashboard_is_self_contained_html() {
        let report = small_report();
        let html = dashboard(&report, None);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("upGeo"));
        assert!(html.contains("no baseline read"));
        assert!(!html.contains("<script"), "dashboard must not need JS");
        assert!(!html.contains("http://") || html.contains("www.w3.org"));

        let with_gate = dashboard(&report, Some(&against(&report, &report)));
        assert!(with_gate.contains("health gate: no gateable metric moved"));
    }

    #[test]
    fn volatile_metrics_are_never_gated() {
        let report = small_report();
        let mut other = report.clone();
        for a in &mut other.archs {
            for m in &mut a.metrics {
                if is_volatile(&m.name) {
                    m.sum *= 100.0;
                }
            }
        }
        let gate = against(&other, &report);
        assert!(gate.passed(), "{}", gate.render("health"));
        assert!(
            gate.rows.iter().all(|r| !is_volatile(&r.metric)),
            "sched.* wall-clock noise must never be gated"
        );
    }
}
