//! Order statistics and means used by every metric.

/// Median of `v` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller guarantees samples.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it: `(value, percentile)`. With fewer than eleven samples no
/// percentile qualifies and the maximum is reported as percentile 100.
pub fn high_percentile(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return (s[n - 1], 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Percentile `p` (0..=100) by nearest rank.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Interquartile range as a share of the median — the spread the
/// driver computes (`statistics.quantiles(v, n=4)`, exclusive method).
pub fn iqr_share(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        // Python's exclusive method: position k(n+1)/4, 1-based,
        // clamped into the sample, linearly interpolated.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = median(&s);
    if med == 0.0 {
        return 0.0;
    }
    (q(3) - q(1)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let (val, pct) = high_percentile(&v);
        assert_eq!(val, 11.0);
        assert!((pct - 100.0 * 11.0 / 21.0).abs() < 1e-9);
        assert_eq!(high_percentile(&[5.0, 9.0]), (9.0, 100.0));
        assert_eq!(percentile(&v, 50.0), 11.0);
        assert_eq!(percentile(&v, 99.0), 21.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
