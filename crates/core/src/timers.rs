//! HACC-style named accumulating timers.
//!
//! CRK-HACC brackets its operations with `MPI_Wtime()` timers (§3.4.4);
//! here each offloaded operation charges *simulated device seconds*
//! from the cost model as a typed `Timer` telemetry event. The event
//! stream is the one accumulator: [`Timers`] is a read-only table
//! folded from it on demand, and its total is the paper's "all GPU
//! kernels" measurement in Figure 2.

use hacc_telemetry::{timer_totals, Event};
use serde::Serialize;

/// One timer's accumulated state.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct TimerValue {
    /// Accumulated seconds.
    pub seconds: f64,
    /// Number of bracketed invocations.
    pub calls: u64,
}

/// The `Timer` events of one stream, summed per name in event order
/// and held sorted by name.
#[derive(Clone, Debug, Default)]
pub struct Timers {
    by_name: Vec<(String, TimerValue)>,
}

impl Timers {
    /// Folds the `Timer` events of `events` (every other kind is
    /// ignored).
    ///
    /// # Panics
    /// On a negative or non-finite total: modeled seconds are cost-model
    /// outputs, so either means a broken estimate upstream.
    pub fn from_events(events: &[Event]) -> Self {
        let by_name = timer_totals(events)
            .into_iter()
            .map(|(name, seconds, calls)| {
                assert!(
                    seconds >= 0.0 && seconds.is_finite(),
                    "bad timer value {seconds} for {name}"
                );
                (name, TimerValue { seconds, calls })
            })
            .collect();
        Self { by_name }
    }

    /// Reads one timer (zero if never touched).
    pub fn get(&self, name: &str) -> TimerValue {
        self.by_name
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_default()
    }

    /// Total over all timers, summed in name order.
    pub fn total_seconds(&self) -> f64 {
        self.by_name.iter().map(|(_, v)| v.seconds).sum()
    }

    /// Every timer, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, TimerValue)> {
        self.by_name.clone()
    }

    /// Renders a report table (name, calls, seconds) like HACC's
    /// end-of-run timing summary.
    pub fn render(&self) -> String {
        let mut out = String::from("timer                      calls      seconds\n");
        for (name, v) in &self.by_name {
            out.push_str(&format!("{name:<24} {:>8} {:>12.6}\n", v.calls, v.seconds));
        }
        out.push_str(&format!(
            "{:<24} {:>8} {:>12.6}\n",
            "TOTAL",
            "",
            self.total_seconds()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_telemetry::Recorder;

    #[test]
    fn folds_timer_events_only_and_counts_calls() {
        let rec = Recorder::new();
        rec.timer("upGeo", 0.5);
        rec.timer("upGeo", 0.25);
        rec.timer("upCor", 1.0);
        rec.counter("xfer.h2d.bytes", 4096.0); // must not become a timer
        let _span = rec.span("step");
        let t = Timers::from_events(&rec.events());
        assert_eq!(t.get("upGeo").calls, 2);
        assert!((t.get("upGeo").seconds - 0.75).abs() < 1e-12);
        assert!((t.total_seconds() - 1.75).abs() < 1e-12);
        let names: Vec<String> = t.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["upCor", "upGeo"]);
    }

    #[test]
    fn untouched_timer_is_zero() {
        let t = Timers::default();
        assert_eq!(t.get("nothing").calls, 0);
        assert_eq!(t.get("nothing").seconds, 0.0);
        assert_eq!(t.total_seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad timer value")]
    fn rejects_negative_time() {
        let rec = Recorder::new();
        rec.timer("x", -1.0);
        Timers::from_events(&rec.events());
    }

    #[test]
    fn render_contains_entries() {
        let rec = Recorder::new();
        rec.timer("upBarAc", 2.0);
        let s = Timers::from_events(&rec.events()).render();
        assert!(s.contains("upBarAc"));
        assert!(s.contains("TOTAL"));
    }
}
