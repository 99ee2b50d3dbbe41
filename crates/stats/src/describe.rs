//! Descriptive statistics: mean, variance, median, quantiles.

/// Arithmetic mean; `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample variance (n − 1 denominator); `None` for fewer than two values.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median (average of central pair for even n); `None` for empty input or
/// a NaN.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Quantile via linear interpolation between order statistics (R type 7,
/// the default of R/NumPy). `q` must be in [0, 1]; `None` for empty input or
/// a NaN (no order exists).
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile requires q in [0,1]");
    if xs.is_empty() || xs.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected above"));
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        // Var of [2,4,4,4,5,5,7,9] is 32/7 with sample denominator.
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((v - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), None);
        let sd = std_dev(&[1.0, 3.0]).unwrap();
        assert!((sd - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quantiles_type7() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.25), Some(1.75)); // R: quantile(1:4, .25) = 1.75
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
    }

    #[test]
    fn nan_is_none() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), None);
        assert_eq!(quantile(&[f64::NAN], 0.25), None);
        assert_eq!(quantile(&[2.0, 1.0, f64::NAN, 4.0], 1.0), None);
    }

    #[test]
    #[should_panic(expected = "q in [0,1]")]
    fn quantile_out_of_range_panics() {
        let _ = quantile(&[1.0], 1.5);
    }
}
