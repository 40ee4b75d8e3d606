//! Order statistics over run samples.

/// The median of `values` (the mean of the middle pair for an even
/// count); `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` that has at least ten samples
/// above it, as `(value, percentile)`. Up to 21 samples that percentile
/// would not exceed the median (or would not exist), so the maximum is
/// reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 21 {
        return (sorted[n - 1], 100.0);
    }
    let rank = n - 11;
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        // Ten samples (31..=40) lie above the 30th value.
        assert_eq!(tail(&values), (30.0, 75.0));
        assert_eq!(tail(&values[..21]), (21.0, 100.0));
        assert_eq!(tail(&values[..22]), (12.0, 100.0 * 12.0 / 22.0));
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (5.0, 100.0));
    }
}
