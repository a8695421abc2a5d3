//! Order statistics over round samples.
//!
//! Every timing the benchmark reports is a median over rounds, printed with
//! its minimum, maximum and sample count; latency classes report a
//! percentile per round first. The quartile spread is the repeatability
//! measure the repeat tool prints: the distance between the first and third
//! quartile as a share of the median, with the quartiles computed as Python's
//! `statistics.quantiles(values, n=4)` computes them.

/// Ascending copy of `values`. Samples are wall times and counts, never NaN.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile by the "exclusive" method.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// What one metric's samples reduce to in the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        Summary {
            median: median(values),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
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
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_keeps_extremes_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!(
            s,
            Summary {
                median: 4.0,
                min: 2.0,
                max: 9.0,
                n: 3
            }
        );
    }
}
