//! Acceptance tests for the cross-rank analysis plane.
//!
//! Two contracts (the third, the telemetry overhead budget, is timed
//! alone in `telemetry_budget.rs`):
//!
//! 1. **Counter conservation** — every wire byte the transport charges
//!    appears exactly once on each side of the ledger: the
//!    `comm.bytes_sent` and `comm.bytes_recv` counter totals agree at
//!    every rank count, and both reproduce the transport's own
//!    aggregate statistics.
//! 2. **Span/stats reconciliation** — per-link telemetry (one
//!    `link.<src>-><dst>` span plus α/β-decomposed counters per
//!    message) sums back to the transport's message count and modeled
//!    seconds; nothing is double-charged or dropped.

use crk_hacc::core::{MultiRankProblem, MultiRankSim};
use crk_hacc::sycl::GpuArch;
use crk_hacc::telemetry::{counter_total, timer_totals, EventKind, Recorder};

/// Rank counts the conservation contract names.
const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];
const STEPS: u64 = 3;

fn problem() -> MultiRankProblem {
    MultiRankProblem::small(512, 0x0B5E)
}

/// Runs `ranks` ranks with a recorder attached, returning the events
/// and the transport's aggregate statistics.
fn run_instrumented(ranks: usize) -> (Vec<crk_hacc::telemetry::Event>, MultiRankSim) {
    let mut sim = MultiRankSim::new(ranks, GpuArch::frontier(), problem());
    let rec = Recorder::new();
    sim.set_recorder(rec.clone());
    sim.run(STEPS).expect("fault-free run must complete");
    (rec.events(), sim)
}

#[test]
fn bytes_sent_equals_bytes_recv_at_every_rank_count() {
    for ranks in RANK_COUNTS {
        let (events, sim) = run_instrumented(ranks);
        let sent = counter_total(&events, "comm.bytes_sent");
        let recv = counter_total(&events, "comm.bytes_recv");
        assert_eq!(sent, recv, "{ranks} ranks: byte ledger out of balance");
        assert_eq!(
            sent as u64,
            sim.comm_stats().bytes,
            "{ranks} ranks: counters diverged from transport stats"
        );
        if ranks > 1 {
            assert!(sent > 0.0, "{ranks} ranks must exchange halos");
        } else {
            assert_eq!(sent, 0.0, "1 rank has nobody to talk to");
        }
    }
}

#[test]
fn link_span_totals_reconcile_with_transport_stats() {
    for ranks in RANK_COUNTS {
        let (events, sim) = run_instrumented(ranks);
        let stats = sim.comm_stats();

        // One link span per delivered message, no more, no fewer.
        let link_spans = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin && e.name.starts_with("link."))
            .count() as u64;
        assert_eq!(
            link_spans, stats.messages,
            "{ranks} ranks: link spans must match delivered messages"
        );

        // Modeled seconds: the per-message `comm.link` timers plus the
        // allreduce charges recover the transport's aggregate exactly
        // (up to summation-order rounding).
        let timers = timer_totals(&events);
        let total = |name: &str| {
            timers
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, s, _)| s)
                .unwrap_or(0.0)
        };
        let recovered = total("comm.link") + total("comm.allreduce");
        assert!(
            (recovered - stats.seconds).abs() <= 1e-9 * stats.seconds.max(1.0),
            "{ranks} ranks: timers recovered {recovered:e}s, stats say {:e}s",
            stats.seconds
        );

        // The α–β decomposition partitions the link timer: latency
        // charges plus serialization charges equal the total wire time.
        let alpha = counter_total(&events, "comm.link.alpha_s");
        let beta = counter_total(&events, "comm.link.beta_s");
        let link_seconds = total("comm.link");
        assert!(
            (alpha + beta - link_seconds).abs() <= 1e-9 * link_seconds.max(1.0),
            "{ranks} ranks: alpha {alpha:e} + beta {beta:e} != link {link_seconds:e}"
        );
        if ranks > 1 {
            let util_events = events
                .iter()
                .filter(|e| e.name == "comm.link.utilization")
                .count() as u64;
            assert_eq!(
                util_events, stats.messages,
                "one utilization sample per message"
            );
            assert!(events
                .iter()
                .filter(|e| e.name == "comm.link.utilization")
                .all(|e| (0.0..=1.0).contains(&e.value)));
        }
    }
}
