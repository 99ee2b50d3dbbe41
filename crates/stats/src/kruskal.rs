//! Kruskal–Wallis H test (one-way ANOVA on ranks), with tie correction and
//! the chi-square approximation for the p-value — the test the paper uses
//! for taxon effects on synchronicity (p ≈ 0.003) and attainment (p ≈ 0.006).

use crate::dist::chi2_sf;
use crate::rank::{rank_with_ties, tie_group_sizes};

/// Result of a Kruskal–Wallis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KruskalResult {
    /// The tie-corrected H statistic.
    pub h: f64,
    /// Degrees of freedom (k − 1).
    pub df: usize,
    /// Upper-tail chi-square p-value.
    pub p_value: f64,
}

/// Run the test over `groups` (each a sample of one factor level).
///
/// Returns `None` when fewer than two non-empty groups exist, when the total
/// sample is smaller than 3, when all observations are identical (H
/// undefined: the tie correction divides by zero), or when a value is NaN
/// (no ranking exists).
pub fn kruskal_wallis(groups: &[&[f64]]) -> Option<KruskalResult> {
    kruskal_wallis_with(groups, true)
}

/// [`kruskal_wallis`] with the tie correction as an explicit knob — the
/// study's synchronicity data is heavily tied (many projects share exact
/// fractional values), making this the ablation DESIGN.md §7 calls out.
pub fn kruskal_wallis_with(groups: &[&[f64]], tie_correction: bool) -> Option<KruskalResult> {
    let groups: Vec<&[f64]> = groups.iter().copied().filter(|g| !g.is_empty()).collect();
    let k = groups.len();
    if k < 2 || groups.iter().any(|g| g.iter().any(|v| v.is_nan())) {
        return None;
    }
    let n: usize = groups.iter().map(|g| g.len()).sum();
    if n < 3 {
        return None;
    }

    // Pool, rank, and un-pool.
    let pooled: Vec<f64> = groups.iter().flat_map(|g| g.iter().copied()).collect();
    let ranks = rank_with_ties(&pooled);

    let nf = n as f64;
    let mut h = 0.0;
    let mut offset = 0;
    for g in &groups {
        let r_sum: f64 = ranks[offset..offset + g.len()].iter().sum();
        h += r_sum * r_sum / g.len() as f64;
        offset += g.len();
    }
    h = 12.0 / (nf * (nf + 1.0)) * h - 3.0 * (nf + 1.0);

    // Tie correction: divide by 1 − Σ(t³−t)/(n³−n).
    let tie_sum: f64 = tie_group_sizes(&pooled)
        .iter()
        .map(|&t| {
            let t = t as f64;
            t * t * t - t
        })
        .sum();
    let correction = 1.0 - tie_sum / (nf * nf * nf - nf);
    if correction <= 0.0 {
        return None; // all observations identical
    }
    if tie_correction {
        h /= correction;
    }

    let df = k - 1;
    Some(KruskalResult { h, df, p_value: chi2_sf(h, df as f64) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn textbook_no_tie_example() {
        // Groups [1,2,3], [4,5,6], [7,8,9]: rank sums 6, 15, 24.
        // H = 12/(9·10) · (36/3 + 225/3 + 576/3) − 3·10 = 7.2.
        // p = exp(−7.2/2) with df=2 → 0.02732…
        let r =
            kruskal_wallis(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        close(r.h, 7.2, 1e-12);
        assert_eq!(r.df, 2);
        close(r.p_value, (-3.6_f64).exp(), 1e-12);
    }

    #[test]
    fn identical_groups_h_zero() {
        // Same distribution in both groups by symmetry → small H.
        let r = kruskal_wallis(&[&[1.0, 3.0, 5.0, 7.0], &[2.0, 4.0, 6.0, 8.0]]).unwrap();
        assert!(r.h < 1.0);
        assert!(r.p_value > 0.3);
    }

    #[test]
    fn tie_correction_increases_h() {
        // With ties, the corrected H must be ≥ uncorrected H. Construct the
        // uncorrected value by hand: groups [1,1,2] and [2,3,3].
        // ranks: 1→1.5,1.5; 2→3.5,3.5; 3→5.5,5.5.
        // R1 = 1.5+1.5+3.5 = 6.5; R2 = 3.5+5.5+5.5 = 14.5; n = 6.
        // H_unc = 12/42 · (42.25/3 + 210.25/3) − 21 = 12/42·84.1666… − 21
        //       = 24.047619 − 21 = 3.047619…
        // ties: three pairs → Σ(t³−t) = 3·6 = 18; corr = 1 − 18/210 = 0.914285…
        // H = 3.047619/0.9142857 = 3.3333…
        let r = kruskal_wallis(&[&[1.0, 1.0, 2.0], &[2.0, 3.0, 3.0]]).unwrap();
        close(r.h, 10.0 / 3.0, 1e-9);
    }

    #[test]
    fn uncorrected_h_is_smaller_with_ties() {
        let groups: [&[f64]; 2] = [&[1.0, 1.0, 2.0], &[2.0, 3.0, 3.0]];
        let corrected = kruskal_wallis_with(&groups, true).unwrap();
        let raw = kruskal_wallis_with(&groups, false).unwrap();
        assert!(corrected.h > raw.h);
        // Without ties the two agree exactly.
        let clean: [&[f64]; 2] = [&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]];
        assert_eq!(kruskal_wallis_with(&clean, true), kruskal_wallis_with(&clean, false));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(kruskal_wallis(&[]).is_none());
        assert!(kruskal_wallis(&[&[1.0, 2.0]]).is_none());
        assert!(kruskal_wallis(&[&[1.0], &[]]).is_none());
        // All identical observations: undefined.
        assert!(kruskal_wallis(&[&[5.0, 5.0], &[5.0, 5.0]]).is_none());
    }

    #[test]
    fn nan_is_none() {
        assert!(kruskal_wallis(&[&[1.0, 2.0, f64::NAN], &[4.0, 5.0, 6.0]]).is_none());
        assert!(kruskal_wallis_with(&[&[1.0, 2.0], &[f64::NAN, 5.0]], false).is_none());
    }

    #[test]
    fn empty_groups_are_dropped() {
        let with_empty =
            kruskal_wallis(&[&[1.0, 2.0, 3.0], &[], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]])
                .unwrap();
        let without =
            kruskal_wallis(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        assert_eq!(with_empty, without);
    }

    #[test]
    fn strong_separation_is_significant() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| 100.0 + i as f64).collect();
        let r = kruskal_wallis(&[&a, &b]).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
    }
}
