//! Order statistics over request latencies.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`, and how many values
/// lie strictly beyond its rank. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> (f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), (50.0, 50));
        assert_eq!(quantile(&v, 0.9), (90.0, 10));
        assert_eq!(quantile(&v, 1.0), (100.0, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
