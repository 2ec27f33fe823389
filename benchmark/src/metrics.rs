//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for layer metrics — where it does work and which
//! end-to-end metric it should move. `BENCHMARK.json` lists the same
//! names (a unit test holds the two together); this file adds the
//! interaction mapping the JSON contract has no key for.

use std::collections::BTreeMap;

/// An end-to-end metric: measured with tracing off, on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// What a user of the system sees.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "op_wall_ms_p50",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "particle_steps_per_s",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// A per-layer metric: measured in the traced run.
pub struct Layer {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Workloads on which the layer does work; the metric reads 0 on
    /// the others, which is the "must not move" prediction.
    pub on: &'static str,
    /// End-to-end metrics it should move there.
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        on,
        moves,
    }
}

const WALL: &str = "op_wall_ms_p50 particle_steps_per_s";
const MODELED: &str = "none (modeled clock: a host-speed change must leave it bit-identical)";
const CONTEXT: &str = "none (context for reading the neighbouring metric)";

/// Every per-layer metric, grouped by crate.
pub const LAYERS: &[Layer] = &[
    // hacc-kernels: the interpreted CRK-SPH + gravity kernels.
    l(
        "hacc-kernels.wall_ms.upGeo",
        "ms",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "hacc-kernels.wall_ms.upCor",
        "ms",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "hacc-kernels.wall_ms.upBarEx",
        "ms",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "hacc-kernels.wall_ms.upBarAc",
        "ms",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "hacc-kernels.wall_ms.upBarAcF",
        "ms",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "hacc-kernels.wall_ms.upBarDu",
        "ms",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "hacc-kernels.wall_ms.upBarDuF",
        "ms",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "hacc-kernels.wall_ms.upGrav",
        "ms",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "hacc-kernels.ops.upGeo",
        "count",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.ops.upCor",
        "count",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.ops.upBarEx",
        "count",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.ops.upBarAc",
        "count",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.ops.upBarAcF",
        "count",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.ops.upBarDu",
        "count",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.ops.upBarDuF",
        "count",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.ops.upGrav",
        "count",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.modeled_s.upGeo",
        "s",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.modeled_s.upCor",
        "s",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.modeled_s.upBarEx",
        "s",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.modeled_s.upBarAc",
        "s",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.modeled_s.upBarAcF",
        "s",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.modeled_s.upBarDu",
        "s",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.modeled_s.upBarDuF",
        "s",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.modeled_s.upGrav",
        "s",
        "lower",
        "sim_fast pp_sweep",
        MODELED,
    ),
    l(
        "hacc-kernels.ops_per_step",
        "count",
        "lower",
        "sim_fast",
        MODELED,
    ),
    l(
        "hacc-kernels.bytes_moved_per_step",
        "count",
        "lower",
        "sim_fast",
        MODELED,
    ),
    l("hacc-kernels.ns_per_op", "ns", "lower", "sim_fast", WALL),
    l(
        "hacc-kernels.worklist_build_ms",
        "ms",
        "lower",
        "sim_fast host_mesh",
        WALL,
    ),
    l(
        "hacc-kernels.worklist_tiles",
        "count",
        "lower",
        "sim_fast host_mesh",
        CONTEXT,
    ),
    l("hacc-kernels.upload_ms", "ms", "lower", "sim_fast", WALL),
    l("hacc-kernels.download_ms", "ms", "lower", "sim_fast", WALL),
    l(
        "hacc-kernels.upGrav_native_ms",
        "ms",
        "lower",
        "sim_fast",
        CONTEXT,
    ),
    l(
        "hacc-kernels.upGrav_interp_overhead_x",
        "ratio",
        "lower",
        "sim_fast",
        WALL,
    ),
    // sycl-sim: the simulated device, scheduler and task graph.
    l(
        "sycl-sim.meter_overhead_x",
        "ratio",
        "lower",
        "pp_sweep",
        WALL,
    ),
    l(
        "sycl-sim.par_speedup_x",
        "ratio",
        "higher",
        "pp_sweep",
        WALL,
    ),
    l(
        "sycl-sim.host_ceiling_x",
        "ratio",
        "higher",
        "pp_sweep",
        CONTEXT,
    ),
    l("sycl-sim.launch_fixed_us", "us", "lower", "sim_fast", WALL),
    l(
        "sycl-sim.taskgraph_us_per_task",
        "us",
        "lower",
        "ranks8_async",
        WALL,
    ),
    // hacc-mesh / hacc-fft / hacc-cosmo: the long-range host layers.
    l("hacc-mesh.ics_ms", "ms", "lower", "host_mesh", "setup_s"),
    l("hacc-mesh.cic_deposit_ms", "ms", "lower", "host_mesh", WALL),
    l(
        "hacc-mesh.poisson_force_ms",
        "ms",
        "lower",
        "host_mesh",
        WALL,
    ),
    l("hacc-mesh.cic_interp_ms", "ms", "lower", "host_mesh", WALL),
    l(
        "hacc-mesh.pm_accel_ms",
        "ms",
        "lower",
        "sim_fast host_mesh",
        WALL,
    ),
    l(
        "hacc-mesh.measure_power_ms",
        "ms",
        "lower",
        "host_mesh",
        CONTEXT,
    ),
    l(
        "hacc-fft.fft3d_roundtrip_ms",
        "ms",
        "lower",
        "host_mesh",
        WALL,
    ),
    l(
        "hacc-fft.fft3d_mcells_per_s",
        "1/s",
        "higher",
        "host_mesh",
        WALL,
    ),
    l(
        "hacc-cosmo.kdk_factors_us",
        "us",
        "lower",
        "sim_fast host_mesh",
        WALL,
    ),
    // hacc-tree: RCB tree, leaf-pair lists, halo finder.
    l(
        "hacc-tree.rcb_build_ms",
        "ms",
        "lower",
        "sim_fast host_mesh",
        WALL,
    ),
    l(
        "hacc-tree.rcb_leaves",
        "count",
        "lower",
        "sim_fast host_mesh",
        CONTEXT,
    ),
    l(
        "hacc-tree.ilist_build_ms",
        "ms",
        "lower",
        "sim_fast host_mesh",
        WALL,
    ),
    l(
        "hacc-tree.ilist_pairs",
        "count",
        "lower",
        "sim_fast host_mesh",
        CONTEXT,
    ),
    l(
        "hacc-tree.ilist_ns_per_pair",
        "ns",
        "lower",
        "host_mesh",
        WALL,
    ),
    l("hacc-tree.fof_ms", "ms", "lower", "host_mesh", CONTEXT),
    // hacc-comm: the simulated MPI transport.
    l(
        "hacc-comm.exchange_us_per_msg",
        "us",
        "lower",
        "ranks8_async",
        WALL,
    ),
    l(
        "hacc-comm.msgs_per_step",
        "count",
        "lower",
        "ranks8_async",
        CONTEXT,
    ),
    l(
        "hacc-comm.bytes_per_step",
        "count",
        "lower",
        "ranks8_async",
        CONTEXT,
    ),
    l(
        "hacc-comm.allreduce_us",
        "us",
        "lower",
        "ranks8_async",
        WALL,
    ),
    l(
        "hacc-comm.stats_seconds_variants",
        "count",
        "lower",
        "ranks8_async",
        "none (1 is correct; more is the ROADMAP item-1 accounting hole)",
    ),
    // core: drivers and checkpoint codecs.
    l("core.sim_new_ms", "ms", "lower", "sim_fast", "setup_s"),
    l(
        "core.step_unattributed_share",
        "ratio",
        "lower",
        "sim_fast",
        WALL,
    ),
    l(
        "core.hck2_encode_mb_per_s",
        "MB/s",
        "higher",
        "sim_fast",
        CONTEXT,
    ),
    l(
        "core.hck2_decode_mb_per_s",
        "MB/s",
        "higher",
        "sim_fast",
        CONTEXT,
    ),
    l(
        "core.hck3_encode_mb_per_s",
        "MB/s",
        "higher",
        "ranks8_async",
        WALL,
    ),
    l(
        "core.hck3_decode_mb_per_s",
        "MB/s",
        "higher",
        "ranks8_async",
        WALL,
    ),
    l("core.hck3_bytes", "count", "lower", "ranks8_async", CONTEXT),
    l("core.restore_ms", "ms", "lower", "ranks8_async", WALL),
    l("core.guard_check_us", "us", "lower", "sim_fast", CONTEXT),
    l(
        "core.multirank_step_ms",
        "ms",
        "lower",
        "ranks8_async",
        WALL,
    ),
    l(
        "core.modeled_wait_s_per_step",
        "s",
        "lower",
        "ranks8_async",
        MODELED,
    ),
    // hacc-telemetry: the event stream and its exporters.
    l(
        "hacc-telemetry.emit_ns_per_event",
        "ns",
        "lower",
        "sim_fast",
        "op_wall_ms_p50 (on pp_sweep, where every launch emits)",
    ),
    l(
        "hacc-telemetry.events_per_step",
        "count",
        "lower",
        "sim_fast",
        "peak_rss_mb",
    ),
    l(
        "hacc-telemetry.jsonl_mb_per_s",
        "MB/s",
        "higher",
        "sim_fast",
        CONTEXT,
    ),
    l(
        "hacc-telemetry.chrome_export_ms",
        "ms",
        "lower",
        "sim_fast",
        CONTEXT,
    ),
    l(
        "hacc-telemetry.sink_overhead_share",
        "ratio",
        "lower",
        "sim_fast",
        WALL,
    ),
    // The analysis crates and the sweep machinery.
    l(
        "hacc-tune.cache_parse_us",
        "us",
        "lower",
        "pp_sweep",
        CONTEXT,
    ),
    l("hacc-tune.plan_us", "us", "lower", "pp_sweep", CONTEXT),
    l(
        "hacc-metrics.inventory_ms",
        "ms",
        "lower",
        "pp_sweep",
        CONTEXT,
    ),
    l(
        "hacc-metrics.pp_cascade_us",
        "us",
        "lower",
        "pp_sweep",
        CONTEXT,
    ),
    l(
        "syclomatic-mini.migrate_klines_per_s",
        "1/s",
        "higher",
        "pp_sweep",
        CONTEXT,
    ),
    l("bench.arch_sweep_ms.pvc", "ms", "lower", "pp_sweep", WALL),
    l("bench.arch_sweep_ms.a100", "ms", "lower", "pp_sweep", WALL),
    l(
        "bench.arch_sweep_ms.mi250x",
        "ms",
        "lower",
        "pp_sweep",
        WALL,
    ),
    // The modeled clock (the paper's numbers): exact, checked, and
    // pinned for the default seed.
    l(
        "modeled.device_s",
        "s",
        "lower",
        "sim_fast pp_sweep ranks8_async",
        MODELED,
    ),
    l(
        "modeled.pp_specialized",
        "ratio",
        "higher",
        "pp_sweep",
        MODELED,
    ),
    l(
        "modeled.pp_single_source",
        "ratio",
        "higher",
        "pp_sweep",
        MODELED,
    ),
    l("modeled.pp_unified", "ratio", "higher", "pp_sweep", MODELED),
    l(
        "modeled.wait_share",
        "ratio",
        "lower",
        "ranks8_async",
        MODELED,
    ),
    // The harness itself.
    l(
        "harness.op_wall_ms_p90",
        "ms",
        "lower",
        "sim_fast pp_sweep host_mesh ranks8_async",
        "none (0 until a run holds 100 timed ops: ten samples must lie beyond it)",
    ),
    l(
        "harness.trace_overhead_share",
        "ratio",
        "lower",
        "sim_fast pp_sweep host_mesh ranks8_async",
        "none (traced over untraced op_wall_ms_p50, minus one)",
    ),
    l(
        "harness.op_attributed_share",
        "ratio",
        "higher",
        "sim_fast host_mesh",
        "none (share of the op wall the layer spans account for)",
    ),
    l(
        "harness.kernel_share",
        "ratio",
        "lower",
        "sim_fast host_mesh",
        "none (share of the op wall spent interpreting kernels)",
    ),
];

/// The eight kernel timers, in the paper's order plus gravity.
pub const KERNEL_TIMERS: [&str; 8] = [
    "upGeo", "upCor", "upBarEx", "upBarAc", "upBarAcF", "upBarDu", "upBarDuF", "upGrav",
];

/// Layer-metric values collected by one traced run. Names outside
/// [`LAYERS`] are a harness bug and panic at once.
#[derive(Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Sets `name` (an entry of [`LAYERS`]) to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = LAYERS
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not in the layer-metric table"));
        self.0.insert(entry.name, value);
    }

    /// Sets every still-unset `ms`/`us` metric that has spans of its
    /// own name among `spans` to the spans' total duration over `per`
    /// (ops, replays): the layer's busy time per op.
    pub fn set_from_spans(&mut self, spans: &[crate::trace::Span], per: f64) {
        for m in LAYERS {
            let scale = match m.unit {
                "ms" => 1e-6,
                "us" => 1e-3,
                _ => continue,
            };
            let ns: u64 = spans
                .iter()
                .filter(|s| s.name == m.name)
                .map(|s| s.dur_ns())
                .sum();
            if ns > 0 && !self.0.contains_key(m.name) {
                self.0.insert(m.name, ns as f64 * scale / per);
            }
        }
    }

    /// The value of `name`; 0 when the layer did no work on this run.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(LAYERS.iter().map(|m| (m.name, m.unit, m.better)))
        {
            assert!(name_ok(name), "bad metric name `{name}`");
            assert!(unit_ok(unit), "bad unit `{unit}` on `{name}`");
            assert!(matches!(better, "lower" | "higher"), "{name}");
            assert!(seen.insert(name), "`{name}` is listed twice");
        }
        assert!(LAYERS.len() <= 128);
        for m in LAYERS {
            assert!(
                m.on.split(' ')
                    .all(|w| crate::workloads::NAMES.contains(&w)),
                "`{}` names an unknown workload",
                m.name
            );
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` array");
        };
        let field = |m: &Value, k: &str| match m.get(k) {
            Some(Value::String(s)) => s.clone(),
            _ => panic!("`{key}` entry without `{k}`"),
        };
        items
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let ours =
            |it: &mut dyn Iterator<Item = (&str, &str, &str)>| -> Vec<(String, String, String)> {
                it.map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                    .collect()
            };
        assert_eq!(
            listed(&doc, "end_to_end"),
            ours(&mut END_TO_END.iter().map(|m| (m.name, m.unit, m.better)))
        );
        assert_eq!(
            listed(&doc, "per_layer"),
            ours(&mut LAYERS.iter().map(|m| (m.name, m.unit, m.better)))
        );
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::String(s)) => s.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn layer_values_default_to_zero_and_reject_unknown_names() {
        let mut v = LayerValues::default();
        assert_eq!(v.get("hacc-tree.fof_ms"), 0.0);
        v.set("hacc-tree.fof_ms", 2.5);
        assert_eq!(v.get("hacc-tree.fof_ms"), 2.5);
        assert!(std::panic::catch_unwind(move || v.set("no.such_metric", 1.0)).is_err());
    }
}
