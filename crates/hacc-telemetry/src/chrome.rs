//! Chrome trace-event exporter (Perfetto / `chrome://tracing` loadable).
//!
//! Layout: each event group (typically one per architecture) becomes a
//! trace *process*; inside a process, tid 0 carries the span hierarchy
//! and counters, and every timer bucket (`upGeo`, `upGrav`, …) gets its
//! own thread track so per-kernel launches line up visually. Multi-rank
//! runs add one further level: every `rank.<N>` span subtree is lifted
//! into its own trace process (`<group> rank.<N>`), so each simulated
//! rank's phase timers render as a separate lane instead of
//! interleaving on one track. Span durations are host wall-clock;
//! kernel durations are the cost model's *simulated* seconds, which is
//! the quantity the paper's figures plot.

use serde_json::Value;

use crate::{Event, EventKind, INSTR_CLASS_LABELS, SCHEMA_VERSION};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn us(t_ns: u64) -> Value {
    Value::F64(t_ns as f64 / 1_000.0)
}

fn profile_args(profile: &crate::KernelProfile) -> Value {
    let mut fields = vec![
        ("timer", Value::String(profile.timer.clone())),
        ("variant", Value::String(profile.variant.clone())),
        ("arch", Value::String(profile.arch.clone())),
        ("sg_size", Value::U64(profile.sg_size)),
        ("wg_size", Value::U64(profile.wg_size)),
        ("n_subgroups", Value::U64(profile.n_subgroups)),
        ("peak_regs", Value::U64(profile.peak_regs)),
        ("spilled_regs", Value::U64(profile.spilled_regs)),
        ("local_bytes_per_wg", Value::U64(profile.local_bytes_per_wg)),
        ("bytes_moved", Value::U64(profile.bytes_moved)),
        ("est_seconds", Value::F64(profile.est_seconds)),
        ("stall_mult", Value::F64(profile.stall_mult)),
        ("occupancy", Value::F64(profile.occupancy)),
    ];
    for (label, count) in INSTR_CLASS_LABELS.iter().zip(profile.instr.iter()) {
        fields.push((label, Value::U64(*count)));
    }
    obj(fields)
}

/// Renders one event group as a complete Chrome trace JSON document.
pub fn chrome_trace(events: &[Event]) -> String {
    chrome_trace_named(&[("run", events)])
}

/// Renders several named event groups (e.g. one per architecture) into
/// one Chrome trace document, one trace process per group.
pub fn chrome_trace_named(groups: &[(&str, &[Event])]) -> String {
    let mut trace_events: Vec<(f64, Value)> = Vec::new();
    let mut metadata: Vec<Value> = Vec::new();
    // Rank lanes claim pids after every group's base pid, so bases stay
    // stable (1, 2, …) whether or not a trace is multi-rank.
    let mut next_rank_pid = groups.len() as u64 + 1;

    for (gi, (group_name, events)) in groups.iter().enumerate() {
        let base_pid = gi as u64 + 1;
        metadata.push(process_meta(base_pid, group_name));
        metadata.push(thread_meta(base_pid, 0, "spans"));

        // Stable tid per (pid, timer bucket), in order of first appearance.
        let mut tids: Vec<(u64, String)> = Vec::new();
        let mut tid_of = |pid: u64, track: &str, metadata: &mut Vec<Value>| -> u64 {
            if let Some(pos) = tids.iter().position(|(p, t)| *p == pid && t == track) {
                return tids[..=pos].iter().filter(|(p, _)| *p == pid).count() as u64;
            }
            tids.push((pid, track.to_string()));
            let tid = tids.iter().filter(|(p, _)| *p == pid).count() as u64;
            metadata.push(thread_meta(pid, tid, track));
            tid
        };

        // Per-rank process lanes: a `rank.<N>` span switches the current
        // lane for everything nested inside it.
        let mut rank_pids: Vec<(String, u64)> = Vec::new();
        let mut rank_stack: Vec<(u64, u64)> = Vec::new(); // (span id, lane to restore)
        let mut lane = base_pid;

        // Pair up span begin/end by id, remembering each span's lane.
        let mut open: Vec<(u64, &Event, u64)> = Vec::new();
        for ev in events.iter() {
            match ev.kind {
                EventKind::SpanBegin => {
                    if ev.name.starts_with("rank.") {
                        let rank_pid = match rank_pids.iter().find(|(n, _)| *n == ev.name) {
                            Some((_, p)) => *p,
                            None => {
                                let p = next_rank_pid;
                                next_rank_pid += 1;
                                rank_pids.push((ev.name.clone(), p));
                                metadata
                                    .push(process_meta(p, &format!("{group_name} {}", ev.name)));
                                metadata.push(thread_meta(p, 0, "spans"));
                                p
                            }
                        };
                        rank_stack.push((ev.id, lane));
                        lane = rank_pid;
                    }
                    open.push((ev.id, ev, lane));
                }
                EventKind::SpanEnd => {
                    if let Some(pos) = open.iter().rposition(|(id, _, _)| *id == ev.parent) {
                        let (_, begin, span_lane) = open.remove(pos);
                        if let Some(&(rank_id, restore)) = rank_stack.last() {
                            if rank_id == begin.id {
                                rank_stack.pop();
                                lane = restore;
                            }
                        }
                        trace_events.push((
                            begin.t_ns as f64 / 1_000.0,
                            obj(vec![
                                ("name", Value::String(begin.name.clone())),
                                ("ph", Value::String("X".to_string())),
                                ("pid", Value::U64(span_lane)),
                                ("tid", Value::U64(0)),
                                ("ts", us(begin.t_ns)),
                                ("dur", Value::F64((ev.t_ns - begin.t_ns) as f64 / 1_000.0)),
                            ]),
                        ));
                    }
                }
                EventKind::Counter => {
                    trace_events.push((
                        ev.t_ns as f64 / 1_000.0,
                        obj(vec![
                            ("name", Value::String(ev.name.clone())),
                            ("ph", Value::String("C".to_string())),
                            ("pid", Value::U64(lane)),
                            ("tid", Value::U64(0)),
                            ("ts", us(ev.t_ns)),
                            ("args", obj(vec![("value", Value::F64(ev.value))])),
                        ]),
                    ));
                }
                EventKind::Kernel => {
                    let profile = ev.kernel.as_ref();
                    let track = profile
                        .map(|p| {
                            if p.timer.is_empty() {
                                p.kernel.clone()
                            } else {
                                p.timer.clone()
                            }
                        })
                        .unwrap_or_else(|| ev.name.clone());
                    let tid = tid_of(lane, &track, &mut metadata);
                    let mut fields = vec![
                        ("name", Value::String(ev.name.clone())),
                        ("ph", Value::String("X".to_string())),
                        ("pid", Value::U64(lane)),
                        ("tid", Value::U64(tid)),
                        ("ts", us(ev.t_ns)),
                        ("dur", Value::F64(ev.value * 1e6)),
                    ];
                    if let Some(p) = profile {
                        fields.push(("args", profile_args(p)));
                    }
                    trace_events.push((ev.t_ns as f64 / 1_000.0, obj(fields)));
                }
                EventKind::Timer => {
                    let tid = tid_of(lane, &ev.name, &mut metadata);
                    trace_events.push((
                        ev.t_ns as f64 / 1_000.0,
                        obj(vec![
                            ("name", Value::String(ev.name.clone())),
                            ("ph", Value::String("X".to_string())),
                            ("pid", Value::U64(lane)),
                            ("tid", Value::U64(tid)),
                            ("ts", us(ev.t_ns)),
                            ("dur", Value::F64(ev.value * 1e6)),
                            ("args", obj(vec![("seconds", Value::F64(ev.value))])),
                        ]),
                    ));
                }
                EventKind::Fault => {
                    // Faults render as instants so recovery activity is
                    // visible on the span track.
                    let mut args = vec![("count", Value::F64(ev.value))];
                    if let Some(info) = &ev.fault {
                        args.push(("kind", Value::String(info.kind.clone())));
                        args.push(("kernel", Value::String(info.kernel.clone())));
                        args.push(("variant", Value::String(info.variant.clone())));
                        args.push(("detail", Value::String(info.detail.clone())));
                    }
                    trace_events.push((
                        ev.t_ns as f64 / 1_000.0,
                        obj(vec![
                            ("name", Value::String(ev.name.clone())),
                            ("ph", Value::String("i".to_string())),
                            ("s", Value::String("p".to_string())),
                            ("pid", Value::U64(lane)),
                            ("tid", Value::U64(0)),
                            ("ts", us(ev.t_ns)),
                            ("args", obj(args)),
                        ]),
                    ));
                }
            }
        }
        // Spans still open at export time get a zero-length marker so
        // they do not vanish from the trace.
        for (_, begin, span_lane) in open {
            trace_events.push((
                begin.t_ns as f64 / 1_000.0,
                obj(vec![
                    ("name", Value::String(format!("{} (unclosed)", begin.name))),
                    ("ph", Value::String("X".to_string())),
                    ("pid", Value::U64(span_lane)),
                    ("tid", Value::U64(0)),
                    ("ts", us(begin.t_ns)),
                    ("dur", Value::F64(0.0)),
                ]),
            ));
        }
    }

    trace_events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut all: Vec<Value> = metadata;
    all.extend(trace_events.into_iter().map(|(_, v)| v));

    let doc = obj(vec![
        ("traceEvents", Value::Array(all)),
        ("displayTimeUnit", Value::String("ms".to_string())),
        (
            "otherData",
            obj(vec![
                ("schema_version", Value::U64(SCHEMA_VERSION as u64)),
                ("generator", Value::String("hacc-telemetry".to_string())),
            ]),
        ),
    ]);
    doc.to_string()
}

/// Counts the events of a Chrome trace document. The error says why
/// `text` is not a trace, or that it holds no event.
pub fn event_count(text: &str) -> Result<usize, String> {
    let doc = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    match doc.get("traceEvents").and_then(Value::as_array) {
        Some(events) if !events.is_empty() => Ok(events.len()),
        Some(_) => Err("`traceEvents` is empty".to_string()),
        None => Err("no `traceEvents` array".to_string()),
    }
}

fn process_meta(pid: u64, name: &str) -> Value {
    obj(vec![
        ("name", Value::String("process_name".to_string())),
        ("ph", Value::String("M".to_string())),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(0)),
        ("args", obj(vec![("name", Value::String(name.to_string()))])),
    ])
}

fn thread_meta(pid: u64, tid: u64, name: &str) -> Value {
    obj(vec![
        ("name", Value::String("thread_name".to_string())),
        ("ph", Value::String("M".to_string())),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
        ("args", obj(vec![("name", Value::String(name.to_string()))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample_profile, Recorder};

    fn sample_recorder() -> Recorder {
        let rec = Recorder::new();
        let run = rec.span("run");
        for seed in 0..4 {
            let step = rec.span("step");
            rec.kernel(sample_profile("CrkSphGeometry", "upGeo", seed));
            rec.timer("upGeo", 1e-3 * (seed + 1) as f64);
            rec.counter("xfer.h2d.bytes", 4096.0);
            drop(step);
        }
        drop(run);
        rec
    }

    #[test]
    fn trace_is_valid_json_with_monotonic_timestamps() {
        let rec = sample_recorder();
        let text = chrome_trace(&rec.events());
        let doc: Value = serde_json::from_str(&text).expect("trace must be valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert!(!events.is_empty());
        let mut last_ts = f64::MIN;
        let mut timed = 0;
        for ev in events {
            if ev["ph"].as_str() == Some("M") {
                continue; // metadata records carry no timestamp
            }
            let ts = ev["ts"].as_f64().expect("ts present");
            assert!(ts >= last_ts, "timestamps must be sorted");
            last_ts = ts;
            timed += 1;
        }
        assert!(
            timed >= 13,
            "span + 4×(kernel, timer, counter) events expected"
        );
        assert_eq!(
            doc["otherData"]["schema_version"].as_u64(),
            Some(SCHEMA_VERSION as u64)
        );
    }

    #[test]
    fn kernel_args_carry_instruction_histogram() {
        let rec = sample_recorder();
        let text = chrome_trace(&rec.events());
        let doc: Value = serde_json::from_str(&text).unwrap();
        let kernel = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["name"].as_str() == Some("CrkSphGeometry"))
            .expect("kernel slice present");
        for label in INSTR_CLASS_LABELS {
            assert!(
                !kernel["args"][label].is_null(),
                "missing histogram slot {label}"
            );
        }
        assert_eq!(kernel["args"]["variant"].as_str(), Some("Select"));
    }

    #[test]
    fn rank_spans_get_their_own_process_lanes() {
        let rec = Recorder::new();
        let step = rec.span("step");
        for r in 0..2 {
            let rank = rec.span(&format!("rank.{r}"));
            rec.timer("phase.interior", 1e-3);
            rec.timer("phase.halo", 2e-3);
            drop(rank);
        }
        drop(step);
        let text = chrome_trace_named(&[("pvc", &rec.events())]);
        let doc: Value = serde_json::from_str(&text).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();

        // Three processes: the group plus one lane per rank.
        let processes: Vec<(u64, String)> = events
            .iter()
            .filter(|e| e["name"].as_str() == Some("process_name"))
            .map(|e| {
                (
                    e["pid"].as_u64().unwrap(),
                    e["args"]["name"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(
            processes,
            vec![
                (1, "pvc".to_string()),
                (2, "pvc rank.0".to_string()),
                (3, "pvc rank.1".to_string()),
            ]
        );

        // Phase timers land on their rank's lane; the step span stays
        // on the group lane; each rank span renders inside its lane.
        let pid_of = |name: &str, nth: usize| -> u64 {
            events
                .iter()
                .filter(|e| e["name"].as_str() == Some(name) && e["ph"].as_str() == Some("X"))
                .nth(nth)
                .unwrap_or_else(|| panic!("missing slice {name}[{nth}]"))["pid"]
                .as_u64()
                .unwrap()
        };
        assert_eq!(pid_of("step", 0), 1);
        assert_eq!(pid_of("rank.0", 0), 2);
        assert_eq!(pid_of("rank.1", 0), 3);
        assert_eq!(pid_of("phase.interior", 0), 2);
        assert_eq!(pid_of("phase.interior", 1), 3);
        assert_eq!(pid_of("phase.halo", 1), 3);

        // Timer tracks are per-lane: each rank lane numbers its own tids.
        let tracks: Vec<(u64, u64, String)> = events
            .iter()
            .filter(|e| e["name"].as_str() == Some("thread_name"))
            .map(|e| {
                (
                    e["pid"].as_u64().unwrap(),
                    e["tid"].as_u64().unwrap(),
                    e["args"]["name"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert!(tracks.contains(&(2, 1, "phase.interior".to_string())));
        assert!(tracks.contains(&(2, 2, "phase.halo".to_string())));
        assert!(tracks.contains(&(3, 1, "phase.interior".to_string())));
        assert!(tracks.contains(&(3, 2, "phase.halo".to_string())));
    }

    #[test]
    fn one_thread_track_per_timer() {
        let rec = Recorder::new();
        rec.timer("upGeo", 1e-3);
        rec.timer("upGrav", 1e-3);
        rec.timer("upGeo", 1e-3);
        let text = chrome_trace_named(&[("pvc", &rec.events())]);
        let doc: Value = serde_json::from_str(&text).unwrap();
        let names: Vec<String> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("thread_name"))
            .map(|e| e["args"]["name"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["spans", "upGeo", "upGrav"]);
    }
}
