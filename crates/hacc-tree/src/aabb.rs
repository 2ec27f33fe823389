//! Axis-aligned bounding boxes and periodic distance helpers.

/// An axis-aligned bounding box in 3D.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: [f64; 3],
    /// Maximum corner.
    pub max: [f64; 3],
}

impl Aabb {
    /// An empty box (inverted bounds), the identity for [`Aabb::grow`].
    pub const EMPTY: Aabb = Aabb {
        min: [f64::INFINITY; 3],
        max: [f64::NEG_INFINITY; 3],
    };

    /// The tight box around a point set. Panics on an empty set.
    pub fn from_points<'a, I: IntoIterator<Item = &'a [f64; 3]>>(points: I) -> Self {
        let mut b = Self::EMPTY;
        let mut any = false;
        for p in points {
            b.grow(p);
            any = true;
        }
        assert!(any, "bounding box of empty point set");
        b
    }

    /// Expands the box to contain `p`.
    #[inline]
    pub fn grow(&mut self, p: &[f64; 3]) {
        for c in 0..3 {
            self.min[c] = self.min[c].min(p[c]);
            self.max[c] = self.max[c].max(p[c]);
        }
    }

    /// Extent along each axis.
    #[inline]
    pub fn extent(&self) -> [f64; 3] {
        [
            self.max[0] - self.min[0],
            self.max[1] - self.min[1],
            self.max[2] - self.min[2],
        ]
    }

    /// Index of the widest axis (split axis for RCB).
    #[inline]
    pub fn widest_axis(&self) -> usize {
        let e = self.extent();
        if e[0] >= e[1] && e[0] >= e[2] {
            0
        } else if e[1] >= e[2] {
            1
        } else {
            2
        }
    }

    /// Minimum squared distance between two boxes in a periodic domain of
    /// side `period` (same for all axes). Zero if they overlap (including
    /// through the periodic seam).
    pub fn min_dist_sq_periodic(&self, other: &Aabb, period: f64) -> f64 {
        let mut d2 = 0.0;
        for c in 0..3 {
            // Gap between intervals [a0,a1] and [b0,b1] on a circle of
            // circumference `period`: try the direct gap and both wrapped
            // configurations, take the smallest non-negative gap.
            let direct = interval_gap(self.min[c], self.max[c], other.min[c], other.max[c]);
            let wrap_hi = interval_gap(
                self.min[c] + period,
                self.max[c] + period,
                other.min[c],
                other.max[c],
            );
            let wrap_lo = interval_gap(
                self.min[c] - period,
                self.max[c] - period,
                other.min[c],
                other.max[c],
            );
            let g = direct.min(wrap_hi).min(wrap_lo);
            d2 += g * g;
        }
        d2
    }
}

/// Gap between 1D intervals (zero when overlapping).
#[inline]
fn interval_gap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    if a1 < b0 {
        b0 - a1
    } else if b1 < a0 {
        a0 - b1
    } else {
        0.0
    }
}

/// Minimum-image displacement `b − a` in a periodic cube of side `period`.
#[inline]
pub fn min_image(a: &[f64; 3], b: &[f64; 3], period: f64) -> [f64; 3] {
    let mut d = [0.0; 3];
    for c in 0..3 {
        let mut x = b[c] - a[c];
        if x > 0.5 * period {
            x -= period;
        } else if x < -0.5 * period {
            x += period;
        }
        d[c] = x;
    }
    d
}

/// Squared minimum-image distance.
#[inline]
pub fn dist_sq_periodic(a: &[f64; 3], b: &[f64; 3], period: f64) -> f64 {
    let d = min_image(a, b, period);
    d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_is_tight() {
        let pts = [[0.0, 1.0, 2.0], [3.0, -1.0, 5.0], [1.0, 0.0, 0.0]];
        let b = Aabb::from_points(pts.iter());
        assert_eq!(b.min, [0.0, -1.0, 0.0]);
        assert_eq!(b.max, [3.0, 1.0, 5.0]);
    }

    #[test]
    fn widest_axis_selection() {
        let b = Aabb {
            min: [0.0; 3],
            max: [1.0, 5.0, 2.0],
        };
        assert_eq!(b.widest_axis(), 1);
    }

    #[test]
    fn min_image_wraps() {
        let d = min_image(&[0.5, 0.0, 0.0], &[9.5, 0.0, 0.0], 10.0);
        assert!(
            (d[0] + 1.0).abs() < 1e-12,
            "wrapped displacement should be −1, got {}",
            d[0]
        );
    }

    #[test]
    fn periodic_box_distance_through_seam() {
        let a = Aabb {
            min: [0.0, 0.0, 0.0],
            max: [1.0, 1.0, 1.0],
        };
        let b = Aabb {
            min: [9.0, 0.0, 0.0],
            max: [9.9, 1.0, 1.0],
        };
        let d2 = a.min_dist_sq_periodic(&b, 10.0);
        // Through the seam: gap = 10 − 9.9 = 0.1.
        assert!((d2 - 0.01).abs() < 1e-12, "d² = {d2}");
    }

    #[test]
    fn overlapping_boxes_have_zero_distance() {
        let a = Aabb {
            min: [0.0; 3],
            max: [2.0; 3],
        };
        let b = Aabb {
            min: [1.0; 3],
            max: [3.0; 3],
        };
        assert_eq!(a.min_dist_sq_periodic(&b, 100.0), 0.0);
    }
}
