//! Order statistics over client-side samples.
//!
//! Every latency the benchmark reports is an exact order statistic of
//! timings taken where the call was made, never a histogram bucket bound.

/// Median and quartiles of a sample, by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so in-run spreads read the same way
/// as the spreads computed over whole runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarises `values` (any order).
///
/// # Panics
/// Panics on an empty sample: every metric is measured at least once.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return Summary {
            q1: v[0],
            median,
            q3: v[0],
            n,
        };
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Summary {
        q1: cut(1),
        median,
        q3: cut(3),
        n,
    }
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of a sorted sample: the
/// smallest value with at least a `p` share of the sample at or below it.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample for [`percentile_sorted`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted((1..=200).map(f64::from).collect());
        assert_eq!(percentile_sorted(&v, 0.5), 100.0);
        // p95 of 200 samples leaves exactly 10 above it.
        assert_eq!(percentile_sorted(&v, 0.95), 190.0);
        assert_eq!(percentile_sorted(&v, 1.0), 200.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }
}
