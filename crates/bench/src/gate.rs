//! The one comparison rule of the `ranks`, `health` and `autotune`
//! targets. Each baseline is an accepted report (`perf_baseline.json` is
//! a `BENCH_ranks.json`, …), read through the type that wrote it. A
//! report run at the baseline's configuration is gated value by value at
//! ±`TOLERANCE` (exactly when the baseline is 0); a row the report
//! lacks fails, and a row new to the report is a note.

use hacc_metrics::find_workspace_root;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::Path;

/// Relative tolerance on every gated value.
const TOLERANCE: f64 = 0.25;

/// Gated values by (place, metric).
pub(crate) type Values = BTreeMap<(String, String), f64>;

/// One compared value.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// A sweep row (`a100/strong/2`), architecture or winner (`pvc/upGeo`).
    pub place: String,
    /// The field or metric compared.
    pub metric: String,
    /// The baseline's value.
    pub baseline: f64,
    /// The report's value, `None` when the row disappeared.
    pub current: Option<f64>,
    /// What moved behind a failing value: kernel, (step, rank) or layer.
    pub why: String,
}

impl Verdict {
    /// Relative change; infinite if a zero baseline moved or the row went.
    pub fn delta(&self) -> f64 {
        match self.current {
            None => f64::INFINITY,
            Some(c) if self.baseline == 0.0 && c != 0.0 => f64::INFINITY.copysign(c),
            Some(_) if self.baseline == 0.0 => 0.0,
            Some(c) => (c - self.baseline) / self.baseline,
        }
    }

    /// Within tolerance.
    pub fn ok(&self) -> bool {
        self.delta().abs() <= TOLERANCE
    }

    fn line(&self) -> String {
        let (current, delta) = match self.current {
            None => ("-".to_string(), "missing".to_string()),
            Some(c) if self.baseline == 0.0 && c != 0.0 => (format!("{c:.6e}"), "from 0".into()),
            Some(c) => (format!("{c:.6e}"), format!("{:+.1}%", self.delta() * 100.0)),
        };
        let status = if self.ok() { "ok" } else { "FAIL" };
        let (place, metric, base) = (&self.place, &self.metric, self.baseline);
        let line = format!("{place} {metric}: {base:.6e} -> {current} ({delta}) {status}");
        [line, self.why.clone()].join(if self.why.is_empty() { "" } else { " — " })
    }
}

/// One report's verdict against its baseline.
#[derive(Debug, Default)]
pub struct Gate {
    /// Why nothing was compared: the report ran at another configuration.
    pub not_gated: Option<String>,
    /// Every compared value, largest |Δ| first.
    pub rows: Vec<Verdict>,
    /// Violations that are not a value: a header field or a knob.
    pub mismatches: Vec<String>,
    /// Printed, never failing: new rows, a moved critical rank.
    pub notes: Vec<String>,
}

impl Gate {
    /// Judges a report run at configuration `current` with `judge`, or
    /// not at all when its baseline ran at another.
    pub(crate) fn pinned(current: String, baseline: String, judge: impl FnOnce(&mut Gate)) -> Self {
        let mut gate = Gate::default();
        if current == baseline {
            judge(&mut gate);
        } else {
            gate.not_gated = Some(format!("ran at {current}; the baseline pins {baseline}"));
        }
        gate
    }

    /// Records a header field that must equal the baseline's.
    pub(crate) fn header<T: PartialEq + Debug>(&mut self, field: &str, current: T, baseline: T) {
        if current != baseline {
            let m = format!("{field} is {current:?}; the baseline has {baseline:?}");
            self.mismatches.push(m);
        }
    }

    /// Compares every value of `baseline` with `current`'s, keeping the
    /// rows largest |Δ| first.
    pub(crate) fn compare(&mut self, current: &Values, baseline: &Values) {
        for ((place, metric), &base) in baseline {
            self.rows.push(Verdict {
                place: place.clone(),
                metric: metric.clone(),
                baseline: base,
                current: current.get(&(place.clone(), metric.clone())).copied(),
                why: String::new(),
            });
        }
        for (place, metric) in current.keys().filter(|k| !baseline.contains_key(*k)) {
            let note = format!("{place} {metric}: new in the report, not in the baseline");
            self.notes.push(note);
        }
        self.rows
            .sort_by(|a, b| b.delta().abs().total_cmp(&a.delta().abs()));
    }

    /// Every violation, one line each.
    pub fn failures(&self) -> Vec<String> {
        let rows = self.rows.iter().filter(|r| !r.ok()).map(Verdict::line);
        self.mismatches.iter().cloned().chain(rows).collect()
    }

    /// Nothing failed (a report that was not gated compared nothing).
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// The verdict for the console and the dashboard: the top 3 movers,
    /// every violation, the notes, and one closing line.
    pub fn render(&self, what: &str) -> String {
        if let Some(why) = &self.not_gated {
            return format!("{what} gate: not gated: {why}\n");
        }
        let moved = self.rows.iter().filter(|r| r.delta() != 0.0);
        let moved: Vec<String> = moved.map(Verdict::line).collect();
        let mut lines = vec![if moved.is_empty() {
            format!("{what} gate: no gateable metric moved against the baseline")
        } else {
            let top = moved[..moved.len().min(3)].join("\n  ");
            let gated = format!("gated at ±{:.0}%", TOLERANCE * 100.0);
            format!("{what} gate: top 3 movers ({gated}):\n  {top}")
        }];
        let failures = self.failures();
        if !failures.is_empty() {
            lines.push(format!("{what} gate: {} violation(s):", failures.len()));
            lines.extend(failures.iter().map(|f| format!("  - {f}")));
        }
        lines.extend(self.notes.iter().map(|n| format!("note: {n}")));
        let verdict = if failures.is_empty() { "ok" } else { "FAIL" };
        lines.push(format!(
            "{what} gate: checked {} values — {verdict}",
            self.rows.len()
        ));
        lines.join("\n") + "\n"
    }
}

/// Reads the committed baseline `tests/<file>` through the report type
/// that wrote it. The error names the file.
pub fn load<T: Deserialize>(file: &str) -> Result<T, String> {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let path = root.ok_or("no workspace root")?.join("tests").join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}
