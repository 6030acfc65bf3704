//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest order statistic with at least ten samples above it, never
/// below the median: with fewer than twenty samples that is the median
/// itself. Returns `(value, percentile)`.
#[must_use]
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 20 {
        return (median(xs), 50.0);
    }
    // s[k] has n - 1 - k samples above it.
    let k = n - 11;
    #[allow(clippy::cast_precision_loss)]
    let pct = 100.0 * (k + 1) as f64 / n as f64;
    (s[k], pct)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[5.0, 1.0, 3.0]).0, 3.0);
    }
}
