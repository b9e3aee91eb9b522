//! Order statistics: the percentile rule of the `choosing-metrics` guide and
//! the quartiles the A/A comparison uses.

/// Sorts a sample in place (total order; the harness never records NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending sample by the
/// nearest-rank rule: the smallest value with at least `p·n` samples at or
/// below it. Nearest rank returns a value that was measured, so a p50 is a
/// real request and not the mid-point of a gap between two modes.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// The conventional median of a handful of run results — the mean of the
/// two middle values when their number is even, as Python's
/// `statistics.median` gives it. (Per-request p50s use nearest rank; a set
/// of ten runs has no modes to fall between.)
pub fn median_of_runs(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The tail percentiles the harness will report, lowest first.
pub const TAIL_PERCENTILES: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the lowest
/// has not (`n < 100`).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rfind(|p| samples_beyond(n, *p) >= MIN_BEYOND)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `p`-quantile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The three quartile cut points of a sample by the exclusive method —
/// the same numbers Python's `statistics.quantiles(values, n=4)` gives, so
/// `compare` and the driver's A/A check agree on a spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (the "spread" of the
/// A/A criterion).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median_of_runs(values).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_a_measured_value() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.5), 2.0);
        assert_eq!(quantile_sorted(&v, 0.75), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_of_runs(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_of_runs(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(samples_beyond(300, 0.95), 15);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }
}
