//! Order statistics over small samples (rounds of a run, runs of a set).

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance
/// check of the benchmark uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Median over rounds of `during / steady`, each ratio taken between
/// the two adjacent windows of one round. Rounds whose steady value is
/// not positive are skipped.
pub fn median_round_ratio(steady: &[f64], during: &[f64]) -> f64 {
    let ratios: Vec<f64> = steady
        .iter()
        .zip(during)
        .filter(|(s, _)| **s > 0.0)
        .map(|(s, d)| d / s)
        .collect();
    median(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_ratio_is_per_round_not_pooled() {
        // One slow round (host at half speed in both windows) must not
        // move the ratio: pooled sums would give 0.542, rounds give 0.5.
        let steady = [1000.0, 1000.0, 100.0];
        let during = [500.0, 500.0, 90.0];
        assert_eq!(median_round_ratio(&steady, &during), 0.5);
        assert_eq!(median_round_ratio(&[0.0, 10.0], &[5.0, 5.0]), 0.5);
    }
}
