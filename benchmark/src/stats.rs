//! Order statistics for timing samples and the bit-exact checksum the
//! output checks compare.

/// Median of the samples (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has run at least one op.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Samples that must lie beyond a reported tail percentile for it to
/// mean anything (the choosing-metrics rule).
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (nearest rank, `0 < p < 1`), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie strictly beyond its rank — p90 needs
/// 100 samples, p99 needs 1000.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile outside (0, 1)");
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// FNV-1a over the little-endian bytes of each word — the same hash
/// the simulation digests use, so a checksum mismatch means a bit
/// moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one 64-bit word in.
    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the bit patterns of a float slice in.
    pub fn eat_f64s(&mut self, values: &[f64]) {
        for v in values {
            self.eat(v.to_bits());
        }
    }

    /// Folds a vec3 slice in.
    pub fn eat_vec3s(&mut self, values: &[[f64; 3]]) {
        for v in values {
            self.eat_f64s(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten samples beyond.
        assert_eq!(tail_percentile(&s, 0.90), Some(90.0));
        // One sample fewer leaves only nine beyond rank 90.
        assert_eq!(tail_percentile(&s[..99], 0.90), None);
        // p99 needs a thousand.
        assert_eq!(tail_percentile(&s, 0.99), None);
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&k, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // FNV-1a 64 of the empty input is the offset basis.
        assert_eq!(Fnv::default().0, 0xcbf2_9ce4_8422_2325);
        // FNV-1a 64 of the single byte 'a' is 0xaf63dc4c8601ec8c; the
        // seven trailing zero bytes of the word each multiply once more.
        let mut h = Fnv::default();
        h.eat(u64::from(b'a'));
        let mut expect = 0xaf63_dc4c_8601_ec8cu64;
        for _ in 0..7 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.0, expect);
    }

    #[test]
    fn fnv_sees_a_single_flipped_bit() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.eat_vec3s(&[[1.0, 2.0, 3.0]]);
        b.eat_vec3s(&[[1.0, 2.0, f64::from_bits(3.0f64.to_bits() ^ 1)]]);
        assert_ne!(a, b);
        // -0.0 and 0.0 compare equal as floats but not as bits.
        let mut c = Fnv::default();
        let mut d = Fnv::default();
        c.eat_f64s(&[0.0]);
        d.eat_f64s(&[-0.0]);
        assert_ne!(c, d);
    }
}
