//! Order statistics over latency samples and repetitions.

use crate::metrics::Better;

/// Percentiles the reports may quote, ascending.
const PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it is worth reporting.
const MIN_BEYOND: f64 = 10.0;

/// The `p`-th percentile (nearest rank) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps an exact rank (95% of 200 = 190) from rounding up
    // to the next one through floating-point noise.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest quotable percentile with at least ten of `n` samples
/// beyond it; `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 + 1e-9 >= MIN_BEYOND)
}

/// Sort a copy ascending (latencies are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range over the median — how far the repetitions of one
/// run disagree, by the measure the benchmark driver applies to runs.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = median(&v);
    if mid == 0.0 {
        return 0.0;
    }
    (percentile(&v, 75.0) - percentile(&v, 25.0)) / mid
}

/// The value at the better quartile of `values`: of five, the second
/// best. For samples the host can only make worse, and makes much worse
/// now and then, it follows the program where the median of a few
/// follows the host.
pub fn better_quartile(values: &[f64], better: Better) -> f64 {
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    v[v.len().div_ceil(4).max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_exact_on_a_known_vector() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn better_quartile_is_the_second_best_of_five() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(better_quartile(&v, Better::Lower), 3.0);
        assert_eq!(better_quartile(&v, Better::Higher), 10.0);
        assert_eq!(better_quartile(&v[..5], Better::Lower), 2.0);
        assert_eq!(better_quartile(&v[..6], Better::Higher), 5.0);
        assert_eq!(better_quartile(&[7.0], Better::Lower), 7.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[8.0, 9.0, 10.0, 11.0, 30.0]), 0.2);
        assert_eq!(spread(&[]), 0.0);
    }
}
