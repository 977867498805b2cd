//! Order statistics for benchmark samples: median, quartiles, MAD, and
//! the rule that a percentile is reported only when at least ten samples
//! lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(v, n=4)` does (the exclusive method), because
/// that is what the acceptance rule for this benchmark is stated in.
/// Needs two samples; fewer give `None`.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn iqr_share(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `v`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= TAIL_SAMPLES).then(|| s[rank - 1])
}

/// The `p`-quantile if enough samples lie beyond it; otherwise the
/// highest of p95/p90/p75/p50 that qualifies, with the percentile
/// actually used. Falls back to the median of whatever there is.
pub fn percentile_or_lower(v: &[f64], p: f64) -> (f64, f64) {
    for q in [p, 0.95, 0.90, 0.75, 0.50] {
        if q <= p {
            if let Some(x) = percentile(v, q) {
                return (x, q);
            }
        }
    }
    (median(v), 0.50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0]), Some((2.0, 7.0, 10.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 1000.0]), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // One sample fewer and only nine lie beyond rank 990.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..999], 0.95), Some(950.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_falls_back_to_a_lower_one() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 would leave 2 beyond; p95 leaves exactly 10.
        assert_eq!(percentile_or_lower(&v, 0.99), (190.0, 0.95));
        let few = [1.0, 2.0, 3.0];
        assert_eq!(percentile_or_lower(&few, 0.99), (2.0, 0.50));
    }
}
