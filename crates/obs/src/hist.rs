//! [`LogHistogram`]: the one log₂ bucket layout and the one quantile
//! estimator behind every distribution the workspace reports.

use crate::sample::HistogramSummary;

/// Number of log₂ buckets; bucket 0 holds the value 0, bucket `i > 0`
/// holds values in `[2^(i-1), 2^i)`, and the last bucket is open-ended.
pub(crate) const BUCKETS: usize = 64;

/// The bucket holding `v`: one per bit length, capped at the last.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Geometric midpoint of bucket `i` (`0` for the zero bucket).
fn bucket_estimate(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    // Bucket i spans [2^(i-1), 2^i); midpoint ≈ 2^(i-1) · √2.
    let lo = 1u64 << (i - 1);
    (lo as f64 * std::f64::consts::SQRT_2).round() as u64
}

/// A log₂-bucketed distribution of `u64` observations: a plain,
/// mergeable value, compiled in whether or not instrumentation is.
///
/// The atomic [`Histogram`](crate::Histogram) snapshots into one for its
/// summaries; code that must report a distribution even with
/// instrumentation compiled out (the serve ack latencies) records into
/// one per thread and merges the copies. `count`, `sum`, `min` and `max`
/// are exact, and merging two histograms gives exactly the histogram of
/// both value sets. Quantiles are estimated (see
/// [`LogHistogram::quantile`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    pub(crate) buckets: [u64; BUCKETS],
    pub(crate) count: u64,
    pub(crate) sum: u64,
    pub(crate) min: u64,
    pub(crate) max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        LogHistogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        if let Some(b) = self.buckets.get_mut(bucket_index(v)) {
            *b += 1;
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` in: afterwards `self` is the histogram of both
    /// value sets.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, rounded down (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimated value at quantile `q` (`0.0..=1.0`, e.g. `0.999` for
    /// p999): the geometric midpoint of the bucket holding rank
    /// `⌈q·count⌉`, clamped to the observed min/max. `q ≥ 1` returns the
    /// exact maximum. Returns 0 with no observations.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // max/min rather than clamp: a torn atomic snapshot may
                // see min > max, and a summary must not panic on it.
                return bucket_estimate(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Count, sum, min, max and the p50/p90/p99 estimates (all zero
    /// when empty).
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const QUANTILES: [f64; 8] = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0, 2.0];

    fn of(values: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn exact_stats_and_order_of_magnitude_percentiles() {
        let s = of(&[1, 2, 3, 100]).summary();
        assert_eq!((s.count, s.sum, s.min, s.max), (4, 106, 1, 100));
        let mut values = vec![10; 90];
        values.extend([1000; 10]);
        let s = of(&values).summary();
        // p50 lands in the bucket holding 10 ([8, 16)); p99 in the one
        // holding 1000, clamped to the max.
        assert!((8..=16).contains(&s.p50), "p50 = {}", s.p50);
        assert!((512..=1000).contains(&s.p99), "p99 = {}", s.p99);
    }

    #[test]
    fn quantiles_reach_the_tail_and_the_exact_max() {
        let mut values = vec![100; 998];
        values.extend([90_000, 100_000]);
        let h = of(&values);
        assert_eq!(h.count(), 1000);
        assert!((64..=128).contains(&h.quantile(0.5)), "p50 {}", h.quantile(0.5));
        let p999 = h.quantile(0.999);
        assert!((65_536..=100_000).contains(&p999), "p999 {p999}");
        // The bucket estimate of 100_000 would be 92_682; q ≥ 1 is exact.
        assert_eq!(h.quantile(1.0), 100_000, "max is exact");
        assert_eq!(h.quantile(7.0), 100_000);
        assert!(h.mean() > 100 && h.mean() < 1_000);
        let s = h.summary();
        assert_eq!((h.quantile(0.5), h.quantile(0.99)), (s.p50, s.p99));
    }

    #[test]
    fn merge_carries_a_shards_tail() {
        let mut a = of(&[10]);
        a.merge(&of(&[1_000_000, 20]));
        assert_eq!(a.count(), 3);
        assert!(a.quantile(0.99) > 100_000, "tail from the merged shard: {}", a.quantile(0.99));
    }

    #[test]
    fn zero_huge_and_empty() {
        let h = of(&[0, u64::MAX]);
        let s = h.summary();
        assert_eq!((s.min, s.max, s.p50), (0, u64::MAX, 0));
        let empty = LogHistogram::new();
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.quantile(1.0), 0);
        assert_eq!(empty.mean(), 0);
        assert_eq!(
            empty.summary(),
            HistogramSummary { count: 0, sum: 0, min: 0, max: 0, p50: 0, p90: 0, p99: 0 }
        );
    }

    proptest! {
        /// Merging per-shard histograms is recording every value into
        /// one: the exact fields agree and so does every quantile.
        #[test]
        fn merged_shards_equal_one_histogram(
            // Magnitudes from 0 to 2^54, so values spread over the buckets
            // and 200 of them cannot overflow the sum.
            values in proptest::collection::vec(
                (0u64..1 << 54, 0u32..55).prop_map(|(v, shift)| v >> shift),
                0..200,
            ),
            shards in 1usize..5,
        ) {
            let mut parts = vec![LogHistogram::new(); shards];
            for (i, &v) in values.iter().enumerate() {
                parts[i % shards].record(v);
            }
            let mut merged = LogHistogram::new();
            for p in &parts {
                merged.merge(p);
            }
            let whole = of(&values);
            prop_assert_eq!(merged.count(), values.len() as u64);
            prop_assert_eq!(merged.summary(), whole.summary());
            if let (Some(&lo), Some(&hi)) = (values.iter().min(), values.iter().max()) {
                prop_assert_eq!((merged.min, merged.max), (lo, hi));
                prop_assert_eq!(merged.sum, values.iter().sum::<u64>());
            }
            for q in QUANTILES {
                prop_assert_eq!(merged.quantile(q), whole.quantile(q), "q = {}", q);
            }
            prop_assert_eq!(merged, whole);
        }
    }
}
