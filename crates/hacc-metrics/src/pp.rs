//! The performance-portability metric (paper §3.2, Eq. 1).
//!
//! ```text
//!   PP(a, p, H) = |H| / Σ_{i∈H} 1/e_i(a, p)     if e_i ≠ 0 for all i
//!               = 0                              otherwise
//! ```
//!
//! the harmonic mean of an application's efficiency over the platform
//! set, zero when any platform is unsupported.

use serde::Serialize;

/// Efficiency of one application on one platform: `None`/0 means the
/// application does not run there.
type Efficiency = Option<f64>;

/// Computes PP over a platform set. Every entry must lie in `[0, 1]`
/// when present.
pub fn performance_portability(efficiencies: &[Efficiency]) -> f64 {
    assert!(!efficiencies.is_empty(), "PP needs at least one platform");
    let mut sum_inv = 0.0;
    for e in efficiencies {
        match e {
            Some(v) if *v > 0.0 => {
                assert!(*v <= 1.0 + 1e-9, "efficiency {v} exceeds 1");
                sum_inv += 1.0 / v;
            }
            _ => return 0.0,
        }
    }
    efficiencies.len() as f64 / sum_inv
}

/// Application efficiency: `best_time / time` (both positive).
pub fn app_efficiency(time: f64, best_time: f64) -> f64 {
    assert!(time > 0.0 && best_time > 0.0, "times must be positive");
    (best_time / time).min(1.0)
}

/// One application's record across the platform set, for cascade plots.
#[derive(Clone, Debug, Serialize)]
pub struct AppRecord {
    /// Application / configuration name.
    pub name: String,
    /// Platform names, aligned with `efficiencies`.
    pub platforms: Vec<String>,
    /// Efficiency per platform.
    pub efficiencies: Vec<Efficiency>,
}

impl AppRecord {
    /// PP over all platforms.
    pub fn pp(&self) -> f64 {
        performance_portability(&self.efficiencies)
    }

    /// The cascade series: efficiencies sorted descending (unsupported
    /// platforms at the end as zero), plus the running harmonic mean —
    /// the "cascade" of Sewall et al. that Figure 12 plots.
    pub fn cascade(&self) -> Vec<(usize, f64, f64)> {
        let mut effs: Vec<f64> = self.efficiencies.iter().map(|e| e.unwrap_or(0.0)).collect();
        effs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mut out = Vec::new();
        let mut sum_inv = 0.0;
        let mut dead = false;
        for (k, e) in effs.iter().enumerate() {
            if *e > 0.0 && !dead {
                sum_inv += 1.0 / e;
            } else {
                dead = true;
            }
            let hm = if dead { 0.0 } else { (k + 1) as f64 / sum_inv };
            out.push((k + 1, *e, hm));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_efficiencies_give_that_value() {
        let pp = performance_portability(&[Some(0.8), Some(0.8), Some(0.8)]);
        assert!((pp - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unsupported_platform_zeroes_pp() {
        assert_eq!(performance_portability(&[Some(1.0), None, Some(0.9)]), 0.0);
        assert_eq!(performance_portability(&[Some(1.0), Some(0.0)]), 0.0);
    }

    #[test]
    fn harmonic_mean_is_below_arithmetic() {
        let effs = [Some(0.9), Some(0.5), Some(0.7)];
        let pp = performance_portability(&effs);
        let arith = (0.9 + 0.5 + 0.7) / 3.0;
        assert!(pp < arith);
        assert!(pp > 0.5, "harmonic mean is above the minimum");
    }

    #[test]
    fn known_value() {
        // 2/(1/0.5 + 1/1.0) = 2/3.
        let pp = performance_portability(&[Some(0.5), Some(1.0)]);
        assert!((pp - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn app_efficiency_caps_at_one() {
        assert_eq!(app_efficiency(2.0, 1.0), 0.5);
        assert_eq!(app_efficiency(1.0, 2.0), 1.0);
    }

    #[test]
    fn cascade_runs_descending_with_harmonic_tail() {
        let rec = AppRecord {
            name: "x".into(),
            platforms: vec!["a".into(), "b".into(), "c".into()],
            efficiencies: vec![Some(0.5), Some(1.0), Some(0.25)],
        };
        let c = rec.cascade();
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].1, 1.0);
        assert_eq!(c[1].1, 0.5);
        assert_eq!(c[2].1, 0.25);
        // Final harmonic mean equals PP.
        assert!((c[2].2 - rec.pp()).abs() < 1e-12);
        // Running harmonic means decrease.
        assert!(c[0].2 >= c[1].2 && c[1].2 >= c[2].2);
    }

    #[test]
    fn cascade_with_unsupported_platform_ends_at_zero() {
        let rec = AppRecord {
            name: "cuda".into(),
            platforms: vec!["polaris".into(), "aurora".into()],
            efficiencies: vec![Some(0.9), None],
        };
        let c = rec.cascade();
        assert_eq!(c[1].1, 0.0);
        assert_eq!(c[1].2, 0.0);
        assert_eq!(rec.pp(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one platform")]
    fn empty_platform_set_panics() {
        performance_portability(&[]);
    }
}
