//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q ∈ (0, 1]` of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest percentile that still has at least ten samples above it:
/// returns `(value, percentile)`. With ten or fewer samples no such
/// percentile exists, and the maximum is returned with percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let k = n - 10;
    (v[k - 1], (100.0 * k as f64 / n as f64).floor())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 has exactly ten samples (31..=40) above it.
        assert_eq!(tail(&xs), (30.0, 75.0));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
