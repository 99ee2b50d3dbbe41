//! Shapiro–Wilk normality test, after Royston's AS R94 algorithm (1995),
//! which extends the original test to 3 ≤ n ≤ 5000.
//!
//! The paper reports that "all Shapiro–Wilk tests of normal distribution,
//! for all attributes, produced p-values lower than 0.007" — our replication
//! runs the same test over the corpus measures.

use crate::dist::{normal_quantile, normal_sf};

/// Result of a Shapiro–Wilk test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapiroResult {
    /// The W statistic in (0, 1]; values near 1 indicate normality.
    pub w: f64,
    /// Upper-tail p-value (small ⇒ reject normality).
    pub p_value: f64,
}

/// Why a Shapiro–Wilk test could not be run on a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapiroError {
    /// Fewer than 3 observations — the test is undefined.
    TooFew {
        /// The offending sample size.
        n: usize,
    },
    /// More than 5000 observations — outside Royston's calibrated range.
    TooMany {
        /// The offending sample size.
        n: usize,
    },
    /// The sample contains a NaN or infinite value.
    NotFinite,
    /// All observations are equal, so W is undefined (zero variance).
    Constant,
}

impl std::fmt::Display for ShapiroError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFew { n } => write!(f, "shapiro_wilk requires n >= 3, got n = {n}"),
            Self::TooMany { n } => write!(f, "shapiro_wilk requires n <= 5000, got n = {n}"),
            Self::NotFinite => write!(f, "shapiro_wilk requires finite input, got NaN/inf"),
            Self::Constant => write!(f, "shapiro_wilk is undefined on a constant sample"),
        }
    }
}

impl std::error::Error for ShapiroError {}

/// Run the Shapiro–Wilk test. Requires 3 ≤ n ≤ 5000 and a non-constant
/// sample; returns `None` otherwise (see [`shapiro_wilk_checked`] for the
/// precise reason).
pub fn shapiro_wilk(sample: &[f64]) -> Option<ShapiroResult> {
    shapiro_wilk_checked(sample).ok()
}

/// Run the Shapiro–Wilk test, reporting *why* an unusable sample was
/// rejected instead of collapsing every failure mode into `None`.
pub fn shapiro_wilk_checked(sample: &[f64]) -> Result<ShapiroResult, ShapiroError> {
    test_sample(&ShapiroWeights::new(sample.len())?, sample)
}

/// [`shapiro_wilk`] with the weights for the sample's size computed
/// beforehand: callers testing many samples of one size compute them once.
/// Returns `None` for a non-finite or constant sample.
///
/// # Panics
///
/// If `weights` are not for `sample.len()` observations.
pub fn shapiro_wilk_with(weights: &ShapiroWeights, sample: &[f64]) -> Option<ShapiroResult> {
    test_sample(weights, sample).ok()
}

/// Royston's coefficients `a` for samples of one size n, 3 ≤ n ≤ 5000: the
/// expensive, sample-independent part of the test (n normal quantiles).
#[derive(Debug, Clone, PartialEq)]
pub struct ShapiroWeights {
    a: Vec<f64>,
}

impl ShapiroWeights {
    /// The weights for samples of `n` observations.
    pub fn new(n: usize) -> Result<Self, ShapiroError> {
        if n < 3 {
            return Err(ShapiroError::TooFew { n });
        }
        if n > 5000 {
            return Err(ShapiroError::TooMany { n });
        }
        // Expected values of normal order statistics (Blom approximation used
        // by Royston): m_i = Φ⁻¹((i − 3/8) / (n + 1/4)).
        let nf = n as f64;
        let m: Vec<f64> =
            (1..=n).map(|i| normal_quantile((i as f64 - 0.375) / (nf + 0.25))).collect();
        let ssq_m: f64 = m.iter().map(|v| v * v).sum();
        let rsn = 1.0 / nf.sqrt();

        // Weights: start from c = m / ||m||, then Royston's polynomial
        // corrections for the one or two extreme weights.
        let norm = ssq_m.sqrt();
        let mut a: Vec<f64> = m.iter().map(|v| v / norm).collect();

        if n > 5 {
            let c_n = a[n - 1];
            let c_n1 = a[n - 2];
            let a_n = c_n
                + poly(&[0.0, 0.221_157, -0.147_981, -2.071_190, 4.434_685, -2.706_056], rsn);
            let a_n1 = c_n1
                + poly(&[0.0, 0.042_981, -0.293_762, -1.752_461, 5.682_633, -3.582_633], rsn);
            // Re-normalize the interior weights (Royston's phi).
            let phi = (ssq_m - 2.0 * m[n - 1] * m[n - 1] - 2.0 * m[n - 2] * m[n - 2])
                / (1.0 - 2.0 * a_n * a_n - 2.0 * a_n1 * a_n1);
            let phi_sqrt = phi.sqrt();
            for (ai, mi) in a.iter_mut().zip(m.iter()).take(n - 2).skip(2) {
                *ai = mi / phi_sqrt;
            }
            a[n - 1] = a_n;
            a[n - 2] = a_n1;
            a[0] = -a_n;
            a[1] = -a_n1;
        } else {
            let c_n = a[n - 1];
            let a_n = c_n
                + poly(&[0.0, 0.221_157, -0.147_981, -2.071_190, 4.434_685, -2.706_056], rsn);
            let phi = (ssq_m - 2.0 * m[n - 1] * m[n - 1]) / (1.0 - 2.0 * a_n * a_n);
            let phi_sqrt = phi.sqrt();
            for (ai, mi) in a.iter_mut().zip(m.iter()).take(n - 1).skip(1) {
                *ai = mi / phi_sqrt;
            }
            a[n - 1] = a_n;
            a[0] = -a_n;
        }
        Ok(Self { a })
    }
}

/// The test on a sample of exactly as many observations as `weights` are for.
fn test_sample(
    weights: &ShapiroWeights,
    sample: &[f64],
) -> Result<ShapiroResult, ShapiroError> {
    let n = sample.len();
    assert_eq!(n, weights.a.len(), "shapiro_wilk_with: weights for another sample size");
    if sample.iter().any(|v| !v.is_finite()) {
        return Err(ShapiroError::NotFinite);
    }
    let mut x: Vec<f64> = sample.to_vec();
    // Total order is safe: non-finite values were rejected above.
    x.sort_by(|a, b| a.partial_cmp(b).expect("finite values are totally ordered"));
    let range = x[n - 1] - x[0];
    if range <= 0.0 {
        return Err(ShapiroError::Constant);
    }

    // W = (Σ a_i x_(i))² / Σ (x_i − x̄)².
    let nf = n as f64;
    let mean = x.iter().sum::<f64>() / nf;
    let ssd: f64 = x.iter().map(|v| (v - mean) * (v - mean)).sum();
    let b: f64 = weights.a.iter().zip(&x).map(|(ai, xi)| ai * xi).sum();
    let w = (b * b / ssd).min(1.0);

    // P-value via Royston's normalizing transformations.
    let p_value = if n == 3 {
        // Exact for n = 3.
        let pi6 = 6.0 / std::f64::consts::PI;
        let stqr = (0.75f64).sqrt().asin();
        (pi6 * (w.sqrt().asin() - stqr)).clamp(0.0, 1.0)
    } else if n <= 11 {
        let g = poly(&[-2.273, 0.459], nf);
        let mu = poly(&[0.544_0, -0.399_78, 0.025_054, -6.714e-4], nf);
        let sigma = poly(&[1.382_2, -0.778_57, 0.062_767, -0.002_032_2], nf).exp();
        let y = -((g - (1.0 - w).ln()).ln());
        normal_sf((y - mu) / sigma)
    } else {
        let ln_n = nf.ln();
        let mu = poly(&[-1.586_1, -0.310_82, -0.083_751, 0.003_891_5], ln_n);
        let sigma = poly(&[-0.480_3, -0.082_676, 0.003_030_2], ln_n).exp();
        let y = (1.0 - w).ln();
        normal_sf((y - mu) / sigma)
    };

    Ok(ShapiroResult { w, p_value })
}

/// Evaluate a polynomial with coefficients in ascending-power order.
fn poly(coefs: &[f64], x: f64) -> f64 {
    coefs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::normal_quantile;

    /// A deterministic sample that is normal by construction: the expected
    /// normal order statistics themselves.
    fn normal_scores(n: usize) -> Vec<f64> {
        (1..=n).map(|i| normal_quantile((i as f64 - 0.375) / (n as f64 + 0.25))).collect()
    }

    #[test]
    fn normal_scores_have_high_w_and_p() {
        for n in [12, 50, 195, 500] {
            let r = shapiro_wilk(&normal_scores(n)).unwrap();
            assert!(r.w > 0.99, "n={n}: W={}", r.w);
            assert!(r.p_value > 0.5, "n={n}: p={}", r.p_value);
        }
    }

    #[test]
    fn exponential_shape_rejected() {
        // Deterministic exponential quantiles: clearly non-normal.
        let n = 100;
        let sample: Vec<f64> =
            (1..=n).map(|i| -(1.0 - (i as f64 - 0.5) / n as f64).ln()).collect();
        let r = shapiro_wilk(&sample).unwrap();
        assert!(r.w < 0.92, "W={}", r.w);
        assert!(r.p_value < 1e-4, "p={}", r.p_value);
    }

    #[test]
    fn heavy_discreteness_rejected() {
        // A two-point distribution at n=195 — the shape of many of the
        // study's bounded measures — must strongly reject normality.
        let mut sample = vec![0.0; 100];
        sample.extend(vec![1.0; 95]);
        let r = shapiro_wilk(&sample).unwrap();
        assert!(r.p_value < 0.007, "p={}", r.p_value);
    }

    #[test]
    fn uniform_shape_rejected_at_large_n() {
        let n = 500;
        let sample: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let r = shapiro_wilk(&sample).unwrap();
        assert!(r.p_value < 0.01, "p={}", r.p_value);
    }

    #[test]
    fn small_samples() {
        // n = 3 exact branch.
        let r = shapiro_wilk(&[1.0, 2.0, 3.0]).unwrap();
        assert!(r.w > 0.99);
        assert!(r.p_value > 0.9);
        // n in 4..=11 branch.
        let r = shapiro_wilk(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap();
        assert!(r.w > 0.95);
        assert!(r.p_value > 0.5);
    }

    #[test]
    fn skewed_small_sample() {
        let r = shapiro_wilk(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 20.0]).unwrap();
        assert!(r.p_value < 0.01, "p={}", r.p_value);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(shapiro_wilk(&[1.0, 2.0]).is_none());
        assert!(shapiro_wilk(&[]).is_none());
        assert!(shapiro_wilk(&[5.0, 5.0, 5.0, 5.0]).is_none());
        assert!(shapiro_wilk(&vec![0.5; 6000]).is_none());
    }

    #[test]
    fn checked_variant_reports_the_reason() {
        assert_eq!(shapiro_wilk_checked(&[]), Err(ShapiroError::TooFew { n: 0 }));
        assert_eq!(shapiro_wilk_checked(&[1.0, 2.0]), Err(ShapiroError::TooFew { n: 2 }));
        assert_eq!(
            shapiro_wilk_checked(&vec![0.5; 6000]),
            Err(ShapiroError::TooMany { n: 6000 })
        );
        assert_eq!(shapiro_wilk_checked(&[7.0; 9]), Err(ShapiroError::Constant));
        assert!(shapiro_wilk_checked(&[3.0, 1.0, 4.0, 1.5, 5.0]).is_ok());
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        assert_eq!(
            shapiro_wilk_checked(&[1.0, f64::NAN, 3.0, 4.0]),
            Err(ShapiroError::NotFinite)
        );
        assert_eq!(
            shapiro_wilk_checked(&[1.0, 2.0, f64::INFINITY]),
            Err(ShapiroError::NotFinite)
        );
        assert_eq!(
            shapiro_wilk_checked(&[f64::NEG_INFINITY, 2.0, 3.0]),
            Err(ShapiroError::NotFinite)
        );
        // The Option API degrades to None rather than panicking in the sort.
        assert!(shapiro_wilk(&[1.0, f64::NAN, 3.0, 4.0]).is_none());
    }

    #[test]
    fn error_display_is_informative() {
        let e: Box<dyn std::error::Error> = Box::new(ShapiroError::TooFew { n: 2 });
        assert!(e.to_string().contains("n >= 3"));
        assert!(ShapiroError::NotFinite.to_string().contains("NaN"));
    }

    #[test]
    fn w_is_in_unit_interval() {
        let samples: &[&[f64]] =
            &[&[1.0, 5.0, 2.0, 8.0, 3.0], &[0.1, 0.2, 0.2, 0.3, 9.0, 9.5, 10.0]];
        for s in samples {
            let r = shapiro_wilk(s).unwrap();
            assert!(r.w > 0.0 && r.w <= 1.0);
            assert!((0.0..=1.0).contains(&r.p_value));
        }
    }

    #[test]
    fn precomputed_weights_give_the_same_bits() {
        for n in [3, 4, 7, 11, 12, 195] {
            let weights = ShapiroWeights::new(n).unwrap();
            let sample: Vec<f64> = (0..n).map(|i| ((i * 7919) % 101) as f64 / 7.0).collect();
            assert_eq!(shapiro_wilk_with(&weights, &sample), shapiro_wilk(&sample), "n={n}");
        }
        assert_eq!(ShapiroWeights::new(2), Err(ShapiroError::TooFew { n: 2 }));
        assert_eq!(ShapiroWeights::new(5001), Err(ShapiroError::TooMany { n: 5001 }));
        let weights = ShapiroWeights::new(4).unwrap();
        assert!(shapiro_wilk_with(&weights, &[1.0, f64::NAN, 3.0, 4.0]).is_none());
        assert!(shapiro_wilk_with(&weights, &[2.0; 4]).is_none());
    }

    #[test]
    #[should_panic(expected = "another sample size")]
    fn weights_for_another_size_panic() {
        let _ = shapiro_wilk_with(&ShapiroWeights::new(5).unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sort_insensitivity() {
        let a = shapiro_wilk(&[3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]).unwrap();
        let b = shapiro_wilk(&[9.0, 1.0, 5.0, 2.6, 3.0, 1.5, 4.0]).unwrap();
        assert_eq!(a, b);
    }
}
