//! End-of-run text profile table.
//!
//! Aggregates the event stream into one row per timer bucket: launch
//! count, estimated seconds, share of total, dominant instruction
//! class, time-weighted stall multiplier, and peak register pressure —
//! the quantities §6 of the paper discusses per kernel.

use std::collections::BTreeMap;

use crate::{Event, EventKind, KernelProfile, INSTR_CLASS_LABELS, N_INSTR_CLASSES};

/// Aggregated statistics for one timer bucket.
#[derive(Clone, Debug, Default)]
pub(crate) struct TimerRow {
    /// Timer bracket charges (what `Timers` counts as calls).
    pub calls: u64,
    /// Individual kernel launches inside the bracket.
    pub launches: u64,
    /// Seconds charged through `Timer` events.
    pub seconds: f64,
    /// Summed instruction histogram over all launches.
    pub instr: [u64; N_INSTR_CLASSES],
    /// Maximum peak register count over all launches.
    pub peak_regs: u64,
    /// Maximum spill count over all launches.
    pub spilled_regs: u64,
    /// Time-weighted mean stall multiplier.
    pub stall_mult: f64,
    /// Total bytes moved by the launches.
    pub bytes_moved: u64,
}

impl TimerRow {
    fn absorb(&mut self, profile: &KernelProfile) {
        self.launches += 1;
        for (slot, c) in self.instr.iter_mut().zip(profile.instr.iter()) {
            *slot += c;
        }
        self.peak_regs = self.peak_regs.max(profile.peak_regs);
        self.spilled_regs = self.spilled_regs.max(profile.spilled_regs);
        self.bytes_moved += profile.bytes_moved;
        // Accumulate est-seconds-weighted stall multiplier; finalized
        // in `aggregate`.
        self.stall_mult += profile.stall_mult * profile.est_seconds;
    }

    /// Label and share of the dominant instruction class.
    fn dominant_class(&self) -> (&'static str, f64) {
        let total: u64 = self.instr.iter().sum();
        let (idx, &count) = self
            .instr
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .unwrap_or((0, &0));
        let share = if total > 0 {
            count as f64 / total as f64
        } else {
            0.0
        };
        (INSTR_CLASS_LABELS[idx], share)
    }
}

/// Collapses the event stream into per-timer rows.
///
/// `Timer` events provide `calls` and `seconds`; `Kernel` events (keyed
/// by their profile's `timer` field, falling back to the kernel name)
/// provide launches, histograms, and register pressure.
pub(crate) fn aggregate(events: &[Event]) -> BTreeMap<String, TimerRow> {
    let mut rows: BTreeMap<String, TimerRow> = BTreeMap::new();
    let mut est_weight: BTreeMap<String, f64> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::Timer => {
                let row = rows.entry(ev.name.clone()).or_default();
                row.calls += 1;
                row.seconds += ev.value;
            }
            EventKind::Kernel => {
                if let Some(profile) = &ev.kernel {
                    let key = if profile.timer.is_empty() {
                        profile.kernel.clone()
                    } else {
                        profile.timer.clone()
                    };
                    rows.entry(key.clone()).or_default().absorb(profile);
                    *est_weight.entry(key).or_insert(0.0) += profile.est_seconds;
                }
            }
            _ => {}
        }
    }
    for (name, row) in rows.iter_mut() {
        let w = est_weight.get(name).copied().unwrap_or(0.0);
        row.stall_mult = if w > 0.0 { row.stall_mult / w } else { 0.0 };
    }
    rows
}

/// Renders the per-timer profile table.
pub fn profile_table(title: &str, events: &[Event]) -> String {
    let rows = aggregate(events);
    let total: f64 = rows.values().map(|r| r.seconds).sum();
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<10} {:>6} {:>9} {:>12} {:>7}  {:<22} {:>6} {:>6} {:>10}\n",
        "timer",
        "calls",
        "launches",
        "seconds",
        "%",
        "dominant class",
        "regs",
        "spill",
        "MiB moved"
    ));
    let mut ordered: Vec<(&String, &TimerRow)> = rows.iter().collect();
    ordered.sort_by(|a, b| {
        b.1.seconds
            .partial_cmp(&a.1.seconds)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (name, row) in &ordered {
        let (class, share) = row.dominant_class();
        let pct = if total > 0.0 {
            100.0 * row.seconds / total
        } else {
            0.0
        };
        let dominant = if row.launches > 0 {
            format!("{} ({:.0}%)", class, 100.0 * share)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<10} {:>6} {:>9} {:>12.6} {:>6.1}%  {:<22} {:>6} {:>6} {:>10.2}\n",
            name,
            row.calls,
            row.launches,
            row.seconds,
            pct,
            dominant,
            row.peak_regs,
            row.spilled_regs,
            row.bytes_moved as f64 / (1024.0 * 1024.0),
        ));
    }
    out.push_str(&format!(
        "{:<10} {:>6} {:>9} {:>12.6} {:>6.1}%\n",
        "total",
        rows.values().map(|r| r.calls).sum::<u64>(),
        rows.values().map(|r| r.launches).sum::<u64>(),
        total,
        if total > 0.0 { 100.0 } else { 0.0 },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample_profile, Recorder};

    fn recorder_with_rows() -> Recorder {
        let rec = Recorder::new();
        for seed in 0..3 {
            rec.kernel(sample_profile("CrkSphGeometry", "upGeo", seed));
        }
        rec.timer("upGeo", 0.25);
        rec.timer("upGeo", 0.75);
        rec.kernel(sample_profile("GravityShort", "upGrav", 7));
        rec.timer("upGrav", 1.0);
        rec
    }

    #[test]
    fn aggregates_calls_launches_and_seconds() {
        let rows = aggregate(&recorder_with_rows().events());
        let geo = &rows["upGeo"];
        assert_eq!(geo.calls, 2);
        assert_eq!(geo.launches, 3);
        assert!((geo.seconds - 1.0).abs() < 1e-12);
        let grav = &rows["upGrav"];
        assert_eq!(grav.calls, 1);
        assert_eq!(grav.launches, 1);
        assert!(grav.stall_mult > 0.0);
    }

    #[test]
    fn table_lists_every_timer_and_total_percent() {
        let text = profile_table("profile: pvc", &recorder_with_rows().events());
        assert!(text.contains("upGeo"));
        assert!(text.contains("upGrav"));
        assert!(text.contains("100.0%"));
        assert!(text.lines().count() >= 5, "title + header + 2 rows + total");
    }

    #[test]
    fn dominant_class_share_is_normalized() {
        let rows = aggregate(&recorder_with_rows().events());
        for row in rows.values() {
            let (_, share) = row.dominant_class();
            assert!((0.0..=1.0).contains(&share));
        }
    }
}
