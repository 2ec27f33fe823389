#![warn(missing_docs)]
//! # hacc-metrics
//!
//! Performance-portability and productivity analysis, reimplementing the
//! papers' metrics (the P3HPC analysis library + Code Base Investigator
//! substitutes):
//!
//! * [`pp`] — the Pennycook performance-portability metric (Eq. 1),
//!   application efficiency, cascade series (Figure 12),
//! * [`divergence`] — code divergence as mean pairwise Jaccard distance
//!   over per-platform source-line sets (Eqs. 2–3) and code convergence
//!   (Figure 13),
//! * [`cbi`] — a mini Code Base Investigator that measures the SLOC a
//!   build compiles and extracts brace-balanced regions from its sources,
//! * [`inventory`] — the one rule, by crate and anchored region, mapping
//!   files to the paper's configuration sets (Table 2, Figure 13),
//! * [`render`] — text rendering of the paper's chart types.

pub mod cbi;
pub mod divergence;
pub mod inventory;
pub mod pp;
pub mod render;

pub use inventory::{
    find_workspace_root, BodyLang, ConfigKind, Mechanism, Platform, RepoInventory, ALL_PLATFORMS,
};
pub use pp::{app_efficiency, performance_portability, AppRecord};
pub use render::{cascade_plot, grouped_bars, navigation_chart};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::divergence::{code_divergence, jaccard_distance, SourceSet};
    use proptest::prelude::*;

    proptest! {
        /// PP is bounded by the minimum and maximum efficiency.
        #[test]
        fn pp_bounds(effs in prop::collection::vec(0.01f64..1.0, 1..6)) {
            let opts: Vec<Option<f64>> = effs.iter().copied().map(Some).collect();
            let pp = performance_portability(&opts);
            let min = effs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = effs.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(pp >= min - 1e-12 && pp <= max + 1e-12);
        }

        /// PP is ≤ the arithmetic mean (harmonic–arithmetic inequality).
        #[test]
        fn pp_below_arithmetic_mean(effs in prop::collection::vec(0.01f64..1.0, 2..6)) {
            let opts: Vec<Option<f64>> = effs.iter().copied().map(Some).collect();
            let pp = performance_portability(&opts);
            let mean = effs.iter().sum::<f64>() / effs.len() as f64;
            prop_assert!(pp <= mean + 1e-12);
        }

        /// Jaccard distance is a metric: bounded, symmetric, zero on
        /// identical sets, triangle inequality.
        #[test]
        fn jaccard_metric_axioms(
            a in prop::collection::btree_set((0u32..4, 0u32..40), 0..60),
            b in prop::collection::btree_set((0u32..4, 0u32..40), 0..60),
            c in prop::collection::btree_set((0u32..4, 0u32..40), 0..60),
        ) {
            let dab = jaccard_distance(&a, &b);
            let dba = jaccard_distance(&b, &a);
            let dac = jaccard_distance(&a, &c);
            let dcb = jaccard_distance(&c, &b);
            prop_assert!((0.0..=1.0).contains(&dab));
            prop_assert!((dab - dba).abs() < 1e-15);
            prop_assert_eq!(jaccard_distance(&a, &a.clone()), 0.0);
            prop_assert!(dab <= dac + dcb + 1e-12);
        }

        /// Divergence of identical platforms is zero; adding a disjoint
        /// platform strictly increases it.
        #[test]
        fn divergence_monotone(lines in 1u32..100) {
            let shared: SourceSet = (0..lines).map(|l| (0, l)).collect();
            let disjoint: SourceSet = (0..lines).map(|l| (1, l)).collect();
            let same = code_divergence(&[shared.clone(), shared.clone()]);
            prop_assert_eq!(same, 0.0);
            let mixed = code_divergence(&[shared.clone(), shared, disjoint]);
            prop_assert!(mixed > 0.0);
        }
    }
}
