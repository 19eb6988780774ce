//! Order statistics. Every timing the ledger reports is a median or a
//! nearest-rank percentile over all samples of a phase, never a best-of.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p`th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize)
        .clamp(1, n.max(1))
        .min(n)
}

/// A percentile may be reported only with [`TAIL_SAMPLES`] beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= TAIL_SAMPLES
}

/// [`percentile`] of samples in any order.
pub fn percentile_of(v: &[f64], p: f64) -> f64 {
    percentile(&sorted(v), p)
}

/// Median by nearest rank (the lower middle sample when `n` is even).
pub fn median(v: &[f64]) -> f64 {
    percentile_of(v, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method:
/// position `i·(n+1)/4`, linear between neighbours, clamped to the ends).
/// The acceptance check is written in those terms, so `diff` computes its
/// spreads the same way.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two samples");
    let s = sorted(v);
    let n = s.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [q(1), q(2), q(3)]
}

/// Interquartile range as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0, 5.0]), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples is the 190th: exactly ten lie beyond it
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past two samples
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
