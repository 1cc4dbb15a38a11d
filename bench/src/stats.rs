//! Order statistics for timed samples.
//!
//! A timing sampled more than once is reported as its median; a tail
//! percentile is reported only when the sample leaves at least ten
//! observations beyond it, so a p99 is never read off a handful of
//! requests.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: a metric without a sample is a
/// harness bug, not a measurement.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles the harness may report, in per-mille,
/// lowest first (integers so "ten beyond" is exact arithmetic).
pub const TAILS_PER_MILLE: [usize; 3] = [900, 990, 999];

/// The highest of [`TAILS_PER_MILLE`] that a sample of `n` supports:
/// at least ten observations lie beyond it. `None` when even p90 has
/// fewer.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|&pm| pm as f64 / 1000.0)
}

/// `n`, min and max of a sample, as printed beside its median.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(5), None);
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(999), Some(0.90));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        // The short-scripts request phase: 2000 samples leave 20
        // beyond p99 and only 2 beyond p99.9.
        assert_eq!(highest_supported_tail(2000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_extremes() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.n, s.min, s.max), (3, 2.0, 9.0));
    }
}
