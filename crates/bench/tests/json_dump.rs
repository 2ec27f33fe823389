//! The machine-readable evaluation dump must be complete and
//! self-consistent: every configuration, every platform, every timer —
//! and it must serialize to valid JSON.

use hacc_bench::experiments::workload;
use hacc_bench::figures::{all_configs, evaluation_dump, portability_data};
use hacc_metrics::{find_workspace_root, RepoInventory};
use std::path::Path;

#[test]
fn dump_is_complete_and_serializable() {
    let problem = workload(6, 21);
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let inventory = RepoInventory::measure(&root).unwrap();
    let dump = evaluation_dump(&problem, &portability_data(&problem), &inventory);

    // Figure 2: three systems, each with ≥2 builds.
    assert_eq!(dump.fig2.len(), 3);
    for (system, rows) in &dump.fig2 {
        assert!(rows.len() >= 2, "{system} needs multiple builds");
        for (_, secs) in rows {
            assert!(*secs > 0.0 && secs.is_finite());
        }
    }

    // Raw variant data: 3 systems × (4 or 5 variants) × 8 timers.
    assert_eq!(dump.variant_seconds.len(), 3);
    for (system, per_variant) in &dump.variant_seconds {
        let want_variants = if system == "Aurora" { 5 } else { 4 };
        assert_eq!(per_variant.len(), want_variants, "{system}");
        for timers in per_variant.values() {
            assert_eq!(timers.len(), 8, "7 hydro timers + gravity");
        }
    }

    // Figures 12–13 cover every configuration, in the same order.
    assert_eq!(dump.fig12.len(), all_configs().len());
    assert_eq!(dump.fig13.len(), all_configs().len());
    for ((name, conv, pp), record) in dump.fig13.iter().zip(&dump.fig12) {
        assert_eq!(name, &record.name);
        assert!((0.0..=1.0).contains(conv), "{name}: convergence {conv}");
        assert!((0.0..=1.0).contains(pp), "{name}: PP {pp}");
        assert!((pp - record.pp()).abs() < 1e-12);
    }

    // Table 2 sums to its own total.
    let total = dump.table2.last().unwrap().1;
    let sum: u32 = dump.table2[..dump.table2.len() - 1]
        .iter()
        .map(|r| r.1)
        .sum();
    assert_eq!(sum, total);

    // Round-trips through JSON.
    let text = serde_json::to_string(&dump).unwrap();
    let value: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert!(value["fig12"].as_array().unwrap().len() == all_configs().len());
    assert!(
        value["variant_seconds"]["Polaris"]["Select"]["upGrav"]
            .as_f64()
            .unwrap()
            > 0.0
    );
}
