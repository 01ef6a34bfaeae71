//! Order statistics shared by every workload.

/// The `q`-quantile of `values` by nearest rank on the sorted sample
/// (`q = 0.5` is the median); `NaN` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The median of `values` (nearest rank); `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean; `NaN` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(min, median, max)` of a non-empty sample.
pub fn min_median_max(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(values), max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(median(&[]).is_nan());
        assert_eq!(min_median_max(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
