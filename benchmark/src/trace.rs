//! Harness-side span recorder: spans are opened around the calls into
//! each crate's public functions, kept in memory, and written out as a
//! Chrome trace when the run ends. A disabled tracer costs one branch
//! per span, so the untraced run times the program alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`hacc-tree.rcb_build`, `op`, …).
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation the span belongs to (spans of one op share it).
    pub op: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Op id of spans opened by the layer probes, outside any timed op.
pub const PROBE_OP: u64 = u64::MAX;

/// In-memory span store with an open-span stack.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records (`true`) or only forwards the calls.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. `f` gets the tracer back so it can open child spans.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval (one the program timed
    /// itself, such as a kernel-timer span from its event stream) as a
    /// child of span `parent`, whose op id it inherits.
    pub fn import(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: usize) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            op: self.spans[parent].op,
        });
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover (children are sequential, so their durations add).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += ns;
    }
    out
}

/// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// one complete (`X`) event per span, timestamps in microseconds.
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns as f64 * 1e-3,
            s.dur_ns() as f64 * 1e-3,
            s.op,
            i,
            parent
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // op: 100 − (30 + 40); a: 30 − 10; grandchildren do not count twice.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], 30);
        assert_eq!(
            by_name.values().sum::<u64>(),
            100,
            "self times tile the root"
        );
    }

    #[test]
    fn children_longer_than_the_parent_saturate_at_zero() {
        let spans = vec![span("op", 0, 10, None), span("a", 0, 12, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_and_stamps_the_op() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let v = t.span("op", |t| {
            t.span("child", |_| 1) + t.span("child", |t| t.span("leaf", |_| 2))
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].dur_ns() >= s[1].dur_ns() + s[2].dur_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |t| t.span("x", |_| 5)), 5);
        t.import("k", 0, 1, 0);
        assert!(t.spans().is_empty());
    }
}
