//! Critical-path extraction and wall-time attribution over the
//! recorded span tree.
//!
//! The multi-rank engine emits, for every step, one `step` span
//! containing a `rank.<r>` span per rank, and under each rank span the
//! modeled phase timers:
//!
//! * `phase.migrate`  — particle migration (exchange, blocking)
//! * `phase.interior` — interior compute, overlapped with the halo
//! * `phase.halo`     — halo exchange in flight during the interior
//! * `phase.boundary` — boundary compute after ghosts land
//!
//! This pass folds those into a per-rank attribution of the step's
//! node time to **compute-interior / compute-boundary / exchange /
//! wait**. The algebra mirrors the engine's step model exactly: with
//! `exposed = max(halo − interior, 0)` (the part of the exchange not
//! hidden behind interior compute),
//!
//! ```text
//! step_r = migrate + interior + exposed + boundary
//!        = migrate + max(halo, interior) + boundary
//! node   = max over ranks of step_r
//! wait_r = node − step_r          (slack to the critical rank)
//! ```
//!
//! so the four fractions partition `node` per rank; `wait` is reported
//! as one minus the other three, making the per-rank sum exactly 1 up
//! to a last-place rounding. The **critical path** of the step is the
//! phase sequence of the rank with the largest `step_r` — the rank
//! every other rank waits for.

use serde::{Deserialize, Serialize};

use crate::{Event, EventKind};

/// Phase timer names the multi-rank engine emits under each rank span.
pub const PHASE_TIMERS: [&str; 4] = [
    "phase.migrate",
    "phase.interior",
    "phase.halo",
    "phase.boundary",
];

/// One rank's share of one step: raw phase seconds plus the four
/// attribution fractions of the node's step time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RankAttribution {
    /// Rank index.
    pub rank: usize,
    /// Migration seconds (blocking exchange).
    pub migrate_seconds: f64,
    /// Interior-compute seconds (overlap window).
    pub interior_seconds: f64,
    /// Halo-exchange seconds (in flight during the interior).
    pub halo_seconds: f64,
    /// Boundary-compute seconds.
    pub boundary_seconds: f64,
    /// Exchange seconds not hidden behind interior compute.
    pub exposed_exchange_seconds: f64,
    /// This rank's serialized step time.
    pub step_seconds: f64,
    /// Barrier idle time: node step time minus this rank's.
    pub wait_seconds: f64,
    /// Fraction of node time in interior compute.
    pub frac_compute_interior: f64,
    /// Fraction of node time in boundary compute.
    pub frac_compute_boundary: f64,
    /// Fraction of node time in exposed exchange (migrate + exposed halo).
    pub frac_exchange: f64,
    /// Fraction of node time in slack to the critical rank (1 − the others).
    pub frac_wait: f64,
}

/// One segment of a step's critical path.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PathSegment {
    /// Rank the segment executes on.
    pub rank: usize,
    /// Segment label (`migrate`, `compute-interior`,
    /// `exchange-exposed`, `compute-boundary`).
    pub phase: String,
    /// Segment length in seconds.
    pub seconds: f64,
}

/// Critical-path analysis of one step across all ranks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepCriticalPath {
    /// Step index (encounter order in the stream, 0-based).
    pub step: usize,
    /// Node step time: the slowest rank's serialized step seconds.
    pub node_seconds: f64,
    /// The rank that sets `node_seconds` (lowest index on ties).
    pub critical_rank: usize,
    /// Phase sequence of the critical rank; segment seconds sum to
    /// `node_seconds`.
    pub path: Vec<PathSegment>,
    /// Per-rank attribution, rank-sorted.
    pub per_rank: Vec<RankAttribution>,
}

fn attribution(
    rank: usize,
    migrate: f64,
    interior: f64,
    halo: f64,
    boundary: f64,
) -> RankAttribution {
    let exposed = (halo - interior).max(0.0);
    let step = migrate + interior + exposed + boundary;
    RankAttribution {
        rank,
        migrate_seconds: migrate,
        interior_seconds: interior,
        halo_seconds: halo,
        boundary_seconds: boundary,
        exposed_exchange_seconds: exposed,
        step_seconds: step,
        wait_seconds: 0.0,
        frac_compute_interior: 0.0,
        frac_compute_boundary: 0.0,
        frac_exchange: 0.0,
        frac_wait: 0.0,
    }
}

fn finish_step(step: usize, mut ranks: Vec<RankAttribution>) -> StepCriticalPath {
    ranks.sort_by_key(|r| r.rank);
    let node = ranks.iter().fold(0.0f64, |a, r| a.max(r.step_seconds));
    let critical = ranks
        .iter()
        .filter(|r| r.step_seconds == node)
        .map(|r| r.rank)
        .next()
        .unwrap_or(0);
    for r in &mut ranks {
        r.wait_seconds = (node - r.step_seconds).max(0.0);
        if node > 0.0 {
            r.frac_compute_interior = r.interior_seconds / node;
            r.frac_compute_boundary = r.boundary_seconds / node;
            r.frac_exchange = (r.migrate_seconds + r.exposed_exchange_seconds) / node;
            // Reported as the complement so the four fractions sum to
            // 1 exactly (up to one last-place rounding per rank).
            r.frac_wait =
                (1.0 - r.frac_compute_interior - r.frac_compute_boundary - r.frac_exchange)
                    .max(0.0);
        }
    }
    let path = ranks
        .iter()
        .find(|r| r.rank == critical)
        .map(|r| {
            vec![
                PathSegment {
                    rank: critical,
                    phase: "migrate".to_string(),
                    seconds: r.migrate_seconds,
                },
                PathSegment {
                    rank: critical,
                    phase: "compute-interior".to_string(),
                    seconds: r.interior_seconds,
                },
                PathSegment {
                    rank: critical,
                    phase: "exchange-exposed".to_string(),
                    seconds: r.exposed_exchange_seconds,
                },
                PathSegment {
                    rank: critical,
                    phase: "compute-boundary".to_string(),
                    seconds: r.boundary_seconds,
                },
            ]
        })
        .unwrap_or_default();
    StepCriticalPath {
        step,
        node_seconds: node,
        critical_rank: critical,
        path,
        per_rank: ranks,
    }
}

/// Walks the span tree of a recorded event stream and extracts the
/// critical path of every `step` span (see the module docs for the
/// expected shape). Steps are numbered in encounter order.
pub fn critical_paths(events: &[Event]) -> Vec<StepCriticalPath> {
    // step span id → step index, rank span id → (step index, rank).
    let mut step_ids: Vec<u64> = Vec::new();
    let mut rank_of_span: std::collections::HashMap<u64, (usize, usize)> =
        std::collections::HashMap::new();
    // (step, rank) → [migrate, interior, halo, boundary]
    let mut phases: std::collections::HashMap<(usize, usize), [f64; 4]> =
        std::collections::HashMap::new();

    for ev in events {
        match ev.kind {
            EventKind::SpanBegin if ev.name == "step" => step_ids.push(ev.id),
            EventKind::SpanBegin => {
                if let Some(r) = ev.name.strip_prefix("rank.").and_then(|s| s.parse().ok()) {
                    if let Some(step) = step_ids.iter().position(|&id| id == ev.parent) {
                        rank_of_span.insert(ev.id, (step, r));
                    }
                }
            }
            EventKind::Timer => {
                if let Some(&(step, rank)) = rank_of_span.get(&ev.parent) {
                    if let Some(slot) = PHASE_TIMERS.iter().position(|&p| p == ev.name) {
                        phases.entry((step, rank)).or_insert([0.0; 4])[slot] += ev.value;
                    }
                }
            }
            _ => {}
        }
    }

    let mut per_step: Vec<Vec<RankAttribution>> = vec![Vec::new(); step_ids.len()];
    let mut keys: Vec<(usize, usize)> = phases.keys().copied().collect();
    keys.sort_unstable();
    for (step, rank) in keys {
        let [m, i, h, b] = phases[&(step, rank)];
        per_step[step].push(attribution(rank, m, i, h, b));
    }
    per_step
        .into_iter()
        .enumerate()
        .filter(|(_, ranks)| !ranks.is_empty())
        .map(|(step, ranks)| finish_step(step, ranks))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn emit_step(rec: &Recorder, ranks: &[[f64; 4]]) {
        let _step = rec.span("step");
        for (r, [m, i, h, b]) in ranks.iter().enumerate() {
            let _rank = rec.span(&format!("rank.{r}"));
            rec.timer("phase.migrate", *m);
            rec.timer("phase.interior", *i);
            rec.timer("phase.halo", *h);
            rec.timer("phase.boundary", *b);
        }
    }

    #[test]
    fn fractions_partition_node_time() {
        let rec = Recorder::new();
        emit_step(
            &rec,
            &[
                [0.1, 1.0, 0.4, 0.3], // halo hidden: step = 0.1+1.0+0.3
                [0.2, 0.5, 0.9, 0.1], // halo exposed by 0.4: step = 0.2+0.5+0.4+0.1
            ],
        );
        let steps = critical_paths(&rec.events());
        assert_eq!(steps.len(), 1);
        let s = &steps[0];
        assert!((s.node_seconds - 1.4).abs() < 1e-12);
        assert_eq!(s.critical_rank, 0);
        for r in &s.per_rank {
            let sum =
                r.frac_compute_interior + r.frac_compute_boundary + r.frac_exchange + r.frac_wait;
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "rank {} fractions sum to {sum}",
                r.rank
            );
        }
        let r1 = &s.per_rank[1];
        assert!((r1.exposed_exchange_seconds - 0.4).abs() < 1e-12);
        assert!((r1.wait_seconds - (1.4 - 1.2)).abs() < 1e-12);
    }

    #[test]
    fn critical_path_follows_the_slowest_rank() {
        let rec = Recorder::new();
        emit_step(&rec, &[[0.0, 0.2, 0.1, 0.1], [0.05, 0.3, 0.6, 0.2]]);
        let steps = critical_paths(&rec.events());
        let s = &steps[0];
        assert_eq!(s.critical_rank, 1);
        let path_total: f64 = s.path.iter().map(|p| p.seconds).sum();
        assert!(
            (path_total - s.node_seconds).abs() < 1e-12,
            "critical-path segments sum to node time"
        );
        assert_eq!(s.path.len(), 4);
        assert!(s.path.iter().all(|p| p.rank == 1));
    }

    #[test]
    fn multiple_steps_number_in_order() {
        let rec = Recorder::new();
        emit_step(&rec, &[[0.0, 1.0, 0.0, 0.0]]);
        emit_step(&rec, &[[0.0, 2.0, 0.0, 0.0]]);
        emit_step(&rec, &[[0.0, 3.0, 0.0, 0.0]]);
        let steps = critical_paths(&rec.events());
        assert_eq!(steps.len(), 3);
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.step, i);
            assert!((s.node_seconds - (i + 1) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn single_rank_has_no_wait() {
        let rec = Recorder::new();
        emit_step(&rec, &[[0.1, 0.5, 0.2, 0.3]]);
        let s = &critical_paths(&rec.events())[0];
        assert_eq!(s.per_rank.len(), 1);
        assert_eq!(s.per_rank[0].wait_seconds, 0.0);
        assert!(s.per_rank[0].frac_wait.abs() < 1e-12);
    }

    #[test]
    fn unrelated_events_are_ignored() {
        let rec = Recorder::new();
        rec.timer("upGeo", 1.0);
        {
            let _other = rec.span("run");
            rec.timer("phase.migrate", 5.0); // not under a rank span
        }
        emit_step(&rec, &[[0.0, 1.0, 0.5, 0.25]]);
        let steps = critical_paths(&rec.events());
        assert_eq!(steps.len(), 1);
        assert!((steps[0].node_seconds - 1.25).abs() < 1e-12);
    }
}
