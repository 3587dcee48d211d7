//! Order statistics over a run's samples: the median, the tail
//! percentile and the quartiles the spread check uses.

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The `p`-th percentile (`0 < p <= 100`) by nearest rank: the smallest
/// sample with at least `p` % of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    Some(s[rank(p, s.len()).clamp(1, s.len()) - 1])
}

/// Nearest rank of the `p`-th percentile among `n` samples,
/// `⌈p·n/100⌉`, immune to `0.999 · 10000` rounding up past 9990.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The tail percentiles a run may report, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile in {99.9, 99, 90, 50} that leaves at least ten
/// of `n` samples strictly beyond it; `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= 1 && n.saturating_sub(rank(p, n).max(1)) >= 10)
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// `exclusive` method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let n = 4;
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, len - 1);
        // Signed: the clamp can push `j` past `i·m/n` for tiny samples,
        // where Python extrapolates too.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the spread the
/// benchmark's bounds are set against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med.abs() > 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from Python 3:
        //   statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        //   statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        //   statistics.quantiles([7, 1], n=4)       == [-0.5, 4.0, 8.5]
        //   statistics.quantiles([3, 1, 2], n=4)    == [1.0, 2.0, 3.0]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some([1.25, 3.0, 7.0]));
        assert_eq!(quartiles(&[7.0, 1.0]), Some([-0.5, 4.0, 8.5]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        // (8.25 - 2.75) / 5.5
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        // 100 samples: p90 is rank 90, so exactly ten lie beyond it.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..3_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[2.0, 1.0], 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
