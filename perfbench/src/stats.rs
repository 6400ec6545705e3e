//! Order statistics over wall-time samples.

/// Nearest-rank percentile of `values` (sorted in place): the smallest
/// sample with at least `q` of the sample at or below it. `0.0` for an
/// empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let idx = ((values.len() as f64 * q).ceil() as usize).saturating_sub(1);
    values[idx.min(values.len() - 1)]
}

/// Median of `values` (sorted in place); `0.0` for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.9), 90.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
    }
}
