//! Typed metrics registry: counters and log-bucketed histograms with
//! p50/p95/p99, fed either directly or by ingesting a recorded
//! [`Event`] stream.
//!
//! The registry is the aggregation side of the analysis plane: the
//! emitting layers (scheduler, transport, multi-rank engine) keep
//! writing flat events into a [`crate::Recorder`]; a [`Registry`]
//! folds that stream into per-name summaries that reports and gates
//! consume. Keeping ingestion here (rather than pushing aggregates
//! from below) preserves the crate's leaf position and keeps the hot
//! emit path a plain `Vec` push.
//!
//! Histograms are log₂-bucketed: an observation `v > 0` lands in the
//! bucket whose bound is `2^floor(log2 v)`, so the buckets span twelve
//! decades in ~80 sparse slots and quantiles are exact to within one
//! octave (reported at the bucket's geometric midpoint, clamped to the
//! exact observed min/max). Everything stored is a count or a sum, so
//! two registries fed the same events agree bit-for-bit.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{Event, EventKind};

/// How a metric accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonic sum of increments (`sum` is the total).
    Counter,
    /// Log-bucketed distribution with quantile estimates.
    Histogram,
}

/// Exponent range of the log₂ buckets: 2⁻⁴⁰ (≈ 9e-13) … 2⁴⁰ (≈ 1.1e12)
/// covers nanosecond-scale timer charges through multi-gigabyte byte
/// counts. Values outside land in the edge buckets.
const MIN_EXP: i32 = -40;
/// Upper exponent bound; see [`MIN_EXP`].
const MAX_EXP: i32 = 40;

fn bucket_of(v: f64) -> i32 {
    if v <= 0.0 {
        return MIN_EXP - 1; // dedicated ≤0 bucket
    }
    (v.log2().floor() as i32).clamp(MIN_EXP, MAX_EXP)
}

/// One registered metric: identity, running summary statistics, and
/// (for histograms) the sparse log₂ bucket counts. Only the
/// [`MetricSummary`] view leaves the registry; the raw buckets stay
/// in-process.
#[derive(Clone, Debug)]
struct Metric {
    kind: MetricKind,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
    /// Sparse log₂ buckets: exponent → observation count. Only
    /// populated for histograms.
    buckets: BTreeMap<i32, u64>,
}

impl Metric {
    fn new(kind: MetricKind) -> Self {
        Self {
            kind,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            buckets: BTreeMap::new(),
        }
    }

    fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
        if self.kind == MetricKind::Histogram {
            *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        }
    }

    /// Quantile estimate from the log buckets (`q` in `[0, 1]`).
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// `q`-th observation and reports its geometric midpoint, clamped
    /// to the exact observed `[min, max]`. `None` when empty or not a
    /// histogram.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.kind != MetricKind::Histogram || self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&exp, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                let mid = if exp < MIN_EXP {
                    0.0
                } else {
                    // Geometric midpoint of [2^exp, 2^(exp+1)).
                    (2f64).powi(exp) * std::f64::consts::SQRT_2
                };
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// One row of [`Registry::snapshot`]: a metric's name plus its summary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Metric name (dotted, e.g. `sched.queue_depth`).
    pub name: String,
    /// Accumulation semantics.
    pub kind: MetricKind,
    /// Number of updates.
    pub count: u64,
    /// Sum of all values.
    pub sum: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
    /// Most recent value.
    pub last: f64,
    /// Median estimate (histograms only).
    pub p50: Option<f64>,
    /// 95th-percentile estimate (histograms only).
    pub p95: Option<f64>,
    /// 99th-percentile estimate (histograms only).
    pub p99: Option<f64>,
}

/// The typed metrics registry. Single-writer by design: analysis code
/// owns one and folds event streams (or direct updates) into it.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn metric(&mut self, name: &str, kind: MetricKind) -> &mut Metric {
        self.metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::new(kind))
    }

    /// Adds `v` to the named counter.
    pub fn inc(&mut self, name: &str, v: f64) {
        self.metric(name, MetricKind::Counter).update(v);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.metric(name, MetricKind::Histogram).update(v);
    }

    /// Folds a recorded event stream into the registry.
    ///
    /// * `Counter` and `Timer` events become histograms under the
    ///   event name — `sum` recovers the counter/timer total while the
    ///   buckets expose the per-event distribution (queue depths,
    ///   per-link latencies, …).
    /// * `Kernel` events feed `kernel.<name>.seconds` (estimate
    ///   distribution) and the `kernel.<name>.bytes` counter.
    /// * `Fault` events become plain counters under the event label.
    /// * Spans carry no value and are left to the critical-path pass
    ///   in [`crate::analysis`].
    pub fn ingest(&mut self, events: &[Event]) {
        for ev in events {
            match ev.kind {
                EventKind::Counter | EventKind::Timer => self.observe(&ev.name, ev.value),
                EventKind::Kernel => {
                    if let Some(profile) = &ev.kernel {
                        self.observe(
                            &format!("kernel.{}.seconds", profile.kernel),
                            profile.est_seconds,
                        );
                        self.inc(
                            &format!("kernel.{}.bytes", profile.kernel),
                            profile.bytes_moved as f64,
                        );
                    }
                }
                EventKind::Fault => self.inc(&ev.name, ev.value),
                EventKind::SpanBegin | EventKind::SpanEnd => {}
            }
        }
    }

    /// One summary row per registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSummary> {
        self.metrics
            .iter()
            .map(|(name, m)| MetricSummary {
                name: name.clone(),
                kind: m.kind,
                count: m.count,
                sum: m.sum,
                min: if m.count == 0 { 0.0 } else { m.min },
                max: if m.count == 0 { 0.0 } else { m.max },
                last: m.last,
                p50: m.quantile(0.50),
                p95: m.quantile(0.95),
                p99: m.quantile(0.99),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    /// Looks up a snapshot row by name.
    fn row<'a>(snap: &'a [MetricSummary], name: &str) -> &'a MetricSummary {
        snap.iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric named {name}"))
    }

    #[test]
    fn counter_and_histogram_semantics() {
        let mut reg = Registry::new();
        reg.inc("bytes", 10.0);
        reg.inc("bytes", 32.0);
        for v in [1.0, 2.0, 4.0, 1024.0] {
            reg.observe("lat", v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].name < snap[1].name, "rows are name-sorted");
        let bytes = row(&snap, "bytes");
        assert_eq!(bytes.kind, MetricKind::Counter);
        assert_eq!(bytes.sum, 42.0);
        assert_eq!(bytes.count, 2);
        assert_eq!(bytes.last, 32.0);
        assert!(bytes.p50.is_none(), "counters report no quantiles");
        let lat = row(&snap, "lat");
        assert_eq!(lat.kind, MetricKind::Histogram);
        assert_eq!(lat.count, 4);
        assert_eq!(lat.min, 1.0);
        assert_eq!(lat.max, 1024.0);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut reg = Registry::new();
        // 99 small observations and one enormous outlier: the median
        // must stay small and p99 must reach for the outlier's bucket.
        for _ in 0..99 {
            reg.observe("v", 1.0);
        }
        reg.observe("v", 1.0e6);
        let m = &reg.metrics["v"];
        assert!(
            m.quantile(0.50).unwrap() < 2.0,
            "median stays in the 1.0 octave"
        );
        assert!(
            m.quantile(0.95).unwrap() < 2.0,
            "p95 stays in the 1.0 octave"
        );
        let p99 = m.quantile(0.999).unwrap();
        assert!(p99 > 1e5, "extreme quantile reaches the outlier, got {p99}");
    }

    #[test]
    fn quantile_bucket_resolution_is_one_octave() {
        let mut reg = Registry::new();
        for i in 1..=1000 {
            reg.observe("u", i as f64 * 1e-6);
        }
        let m = &reg.metrics["u"];
        // Exact p50 is 500.5e-6; one octave of slack either side.
        let p50 = m.quantile(0.5).unwrap();
        assert!(
            (2.5e-4..=1.0e-3).contains(&p50),
            "p50 within an octave: {p50}"
        );
        assert!(m.quantile(1.0).unwrap() <= m.max);
        assert!(m.quantile(0.0).unwrap() >= m.min);
    }

    #[test]
    fn nonpositive_values_do_not_panic() {
        let mut reg = Registry::new();
        reg.observe("z", 0.0);
        reg.observe("z", -3.0);
        reg.observe("z", 8.0);
        let m = &reg.metrics["z"];
        assert_eq!(m.count, 3);
        // The ≤0 bucket sorts first, so low quantiles land at its
        // 0.0 midpoint (within the observed [-3, 8] envelope).
        assert_eq!(m.quantile(0.01).unwrap(), 0.0);
    }

    #[test]
    fn ingest_recovers_counter_and_timer_totals() {
        let rec = Recorder::new();
        rec.counter("comm.bytes_sent", 100.0);
        rec.counter("comm.bytes_sent", 28.0);
        rec.timer("upGeo", 0.5);
        rec.timer("upGeo", 0.25);
        rec.kernel(crate::sample_profile("CRKSPH::geometry", "upGeo", 3));
        let mut reg = Registry::new();
        reg.ingest(&rec.events());
        let snap = reg.snapshot();
        assert_eq!(row(&snap, "comm.bytes_sent").sum, 128.0);
        assert_eq!(row(&snap, "upGeo").sum, 0.75);
        assert_eq!(row(&snap, "upGeo").count, 2);
        let k = row(&snap, "kernel.CRKSPH::geometry.seconds");
        assert_eq!(k.count, 1);
        assert!(row(&snap, "kernel.CRKSPH::geometry.bytes").sum > 0.0);
    }

    #[test]
    fn two_registries_fed_the_same_stream_agree() {
        let rec = Recorder::new();
        for i in 0..50 {
            rec.counter("c", (i * 17 % 13) as f64);
            rec.timer("t", 1e-6 * (i + 1) as f64);
        }
        let events = rec.events();
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.ingest(&events);
        b.ingest(&events);
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
