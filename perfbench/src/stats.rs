//! Order statistics shared by the workloads and the steadiness command.

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// (the default of Python's `statistics.quantiles(values, n=4)`), so
/// spreads printed here match the ones an outside checker computes.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let m = s.len() + 1;
    let cut = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (cut(1), median(xs), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    (q3 - q1) / med.abs()
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the standard tail percentiles that has at least ten
/// samples beyond it, as `(percentile, value)`. `None` when even p75 would
/// rest on fewer than ten samples (under forty samples): the median is
/// then the only honest summary.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| xs.len() as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| (p, percentile(xs, p)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: below
        // three samples the method extrapolates past the data.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let n = |k: usize| -> Vec<f64> { (1..=k).map(|i| i as f64).collect() };
        assert_eq!(tail(&n(39)), None);
        assert_eq!(tail(&n(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&n(99)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&n(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&n(199)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&n(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&n(999)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&n(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&n(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&n(1000)).map(|t| t.1), Some(990.0));
    }
}
