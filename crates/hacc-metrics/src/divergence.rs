//! Code divergence (paper §3.3, Eqs. 2–3).
//!
//! ```text
//!   CD(a, p, H) = (|H| choose 2)⁻¹ Σ_{i<j} d_ij        (average pairwise)
//!   d_ij = 1 − |c_i ∩ c_j| / |c_i ∪ c_j|               (Jaccard distance)
//! ```
//!
//! where `c_i` is the set of source lines used to build for platform `i`.
//! Code convergence (Figure 13's x-axis) is `1 − CD`.

use std::collections::BTreeSet;

/// A platform's source set: identifiers of the lines compiled for it.
/// Lines are identified as (unit id, line index) pairs encoded by the
/// caller; any stable encoding works for the set algebra.
pub(crate) type SourceSet = BTreeSet<(u32, u32)>;

/// Jaccard distance between two source sets. Two empty sets are
/// identical (distance 0).
pub(crate) fn jaccard_distance(a: &SourceSet, b: &SourceSet) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.union(b).count();
    if union == 0 {
        0.0
    } else {
        1.0 - inter as f64 / union as f64
    }
}

/// Code divergence: mean pairwise Jaccard distance over all platform
/// pairs. A single platform has divergence 0 by convention.
pub(crate) fn code_divergence(sets: &[SourceSet]) -> f64 {
    let n = sets.len();
    assert!(n >= 1, "divergence needs at least one platform");
    if n == 1 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += jaccard_distance(&sets[i], &sets[j]);
            pairs += 1;
        }
    }
    sum / pairs as f64
}

/// Code convergence `1 − CD` (Figure 13's x-axis).
pub(crate) fn code_convergence(sets: &[SourceSet]) -> f64 {
    1.0 - code_divergence(sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The set of `(unit, line)` pairs of units `(id, line_count)`.
    fn set(units: &[(u32, u32)]) -> SourceSet {
        let lines = |&(id, n): &(u32, u32)| (0..n).map(move |l| (id, l));
        units.iter().flat_map(lines).collect()
    }

    #[test]
    fn identical_sets_have_zero_distance() {
        let a = set(&[(0, 100), (1, 50)]);
        assert_eq!(jaccard_distance(&a, &a.clone()), 0.0);
    }

    #[test]
    fn disjoint_sets_have_distance_one() {
        let a = set(&[(0, 10)]);
        let b = set(&[(1, 10)]);
        assert_eq!(jaccard_distance(&a, &b), 1.0);
    }

    #[test]
    fn half_overlap() {
        // a = 100 shared lines; b = same 100 plus 100 more: d = 1 − 100/200.
        let a = set(&[(0, 100)]);
        let b = set(&[(0, 100), (1, 100)]);
        assert!((jaccard_distance(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn divergence_averages_pairs() {
        let shared = set(&[(0, 90)]);
        let mut with_special = shared.clone();
        for l in 0..10 {
            with_special.insert((1, l));
        }
        // Three platforms: two identical, one with 10 extra lines.
        let sets = vec![shared.clone(), shared.clone(), with_special];
        let d01 = 0.0;
        let d02 = 1.0 - 90.0 / 100.0;
        let cd = code_divergence(&sets);
        assert!((cd - (d01 + d02 + d02) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_platform_has_zero_divergence() {
        assert_eq!(code_divergence(&[set(&[(0, 10)])]), 0.0);
    }

    #[test]
    fn convergence_is_one_minus_divergence() {
        let sets = vec![set(&[(0, 10)]), set(&[(1, 10)])];
        assert_eq!(code_convergence(&sets), 0.0);
        let sets = vec![set(&[(0, 10)]), set(&[(0, 10)])];
        assert_eq!(code_convergence(&sets), 1.0);
    }

    #[test]
    fn metric_axioms_hold() {
        // Symmetry and triangle inequality on a few concrete sets.
        let a = set(&[(0, 30), (1, 5)]);
        let b = set(&[(0, 30), (2, 10)]);
        let c = set(&[(0, 15), (3, 20)]);
        assert_eq!(jaccard_distance(&a, &b), jaccard_distance(&b, &a));
        assert!(
            jaccard_distance(&a, &c) <= jaccard_distance(&a, &b) + jaccard_distance(&b, &c) + 1e-12
        );
        assert_eq!(jaccard_distance(&a, &a.clone()), 0.0);
    }
}
