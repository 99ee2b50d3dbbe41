//! Mann–Whitney U test (two-sample Wilcoxon rank-sum), used as the post-hoc
//! pairwise follow-up to a significant Kruskal–Wallis taxon effect.

use crate::dist::normal_sf;
use crate::rank::{rank_with_ties, tie_group_sizes};

/// Result of a two-sided Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitneyResult {
    /// U statistic of the first sample.
    pub u: f64,
    /// Two-sided p-value via the tie-corrected normal approximation.
    pub p_value: f64,
}

/// Two-sided Mann–Whitney U with tie-corrected normal approximation
/// (adequate for the study's group sizes; exact tables matter only under
/// n ≈ 10). Returns `None` when either sample is empty, all pooled
/// observations are identical, or a value is NaN (no ranking exists).
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<MannWhitneyResult> {
    let n1 = a.len();
    let n2 = b.len();
    if n1 == 0 || n2 == 0 || a.iter().chain(b).any(|v| v.is_nan()) {
        return None;
    }
    let pooled: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    let ranks = rank_with_ties(&pooled);
    let r1: f64 = ranks[..n1].iter().sum();
    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let u1 = r1 - n1f * (n1f + 1.0) / 2.0;

    let n = n1f + n2f;
    let tie_sum: f64 = tie_group_sizes(&pooled)
        .iter()
        .map(|&t| {
            let t = t as f64;
            t * t * t - t
        })
        .sum();
    let variance = n1f * n2f / 12.0 * ((n + 1.0) - tie_sum / (n * (n - 1.0)));
    if variance <= 0.0 {
        return None; // all observations identical
    }
    let mean = n1f * n2f / 2.0;
    // Continuity correction toward the mean.
    let diff = u1 - mean;
    let corrected = if diff > 0.5 {
        diff - 0.5
    } else if diff < -0.5 {
        diff + 0.5
    } else {
        0.0
    };
    let z = corrected / variance.sqrt();
    let p = (2.0 * normal_sf(z.abs())).min(1.0);
    Some(MannWhitneyResult { u: u1, p_value: p })
}

/// Spearman rank correlation ρ: Pearson correlation of the midrank
/// transforms. Returns `None` for fewer than two pairs, when either
/// variable is constant, or when a value is NaN (no ranking exists).
pub fn spearman_rho(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "spearman_rho: length mismatch");
    if x.len() < 2 || x.iter().chain(y).any(|v| v.is_nan()) {
        return None;
    }
    let rx = rank_with_ties(x);
    let ry = rank_with_ties(y);
    pearson(&rx, &ry)
}

fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|v| (v - mx) * (v - mx)).sum();
    let syy: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_not_significant() {
        let a = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0];
        let b = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value > 0.5, "p = {}", r.p_value);
    }

    #[test]
    fn separated_samples_significant() {
        let a: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..15).map(|i| 100.0 + i as f64).collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert_eq!(r.u, 0.0); // a is entirely below b
        assert!(r.p_value < 1e-4, "p = {}", r.p_value);
    }

    #[test]
    fn hand_computed_u() {
        // a = [1,2], b = [3,4]: ranks of a = 1,2 → R1 = 3, U1 = 3 − 3 = 0.
        let r = mann_whitney_u(&[1.0, 2.0], &[3.0, 4.0]).unwrap();
        assert_eq!(r.u, 0.0);
        // a = [3,4], b = [1,2]: U1 = n1·n2 = 4.
        let r = mann_whitney_u(&[3.0, 4.0], &[1.0, 2.0]).unwrap();
        assert_eq!(r.u, 4.0);
    }

    #[test]
    fn symmetry_of_p() {
        let a = [1.0, 5.0, 7.0, 2.0, 8.0];
        let b = [3.0, 4.0, 9.0, 10.0, 11.0, 2.5];
        let r1 = mann_whitney_u(&a, &b).unwrap();
        let r2 = mann_whitney_u(&b, &a).unwrap();
        assert!((r1.p_value - r2.p_value).abs() < 1e-10);
        // U1 + U2 = n1·n2.
        assert!((r1.u + r2.u - (a.len() * b.len()) as f64).abs() < 1e-10);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(mann_whitney_u(&[1.0], &[]).is_none());
        assert!(mann_whitney_u(&[2.0, 2.0], &[2.0, 2.0]).is_none());
    }

    #[test]
    fn nan_is_none() {
        assert!(mann_whitney_u(&[1.0, f64::NAN], &[3.0, 4.0]).is_none());
        assert!(mann_whitney_u(&[1.0, 2.0], &[f64::NAN]).is_none());
        assert!(spearman_rho(&[1.0, 2.0, 3.0], &[1.0, f64::NAN, 2.0]).is_none());
        assert!(spearman_rho(&[f64::NAN, 2.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn spearman_perfect_monotone() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [10.0, 100.0, 1000.0, 10000.0]; // nonlinear but monotone
        assert!((spearman_rho(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let y_desc = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman_rho(&x, &y_desc).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_with_ties() {
        let x = [1.0, 1.0, 2.0, 3.0];
        let y = [2.0, 2.0, 4.0, 6.0];
        assert!((spearman_rho(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_degenerate() {
        assert!(spearman_rho(&[1.0], &[1.0]).is_none());
        assert!(spearman_rho(&[1.0, 1.0], &[1.0, 2.0]).is_none());
    }
}
