//! The network walk behind `fisher_exact_rx2` and the certificate
//! `fisher_certificate_log10`, against the complete enumeration the walk
//! replaced, kept here verbatim as the test oracle.

use coevo_stats::dist::ln_gamma;
use coevo_stats::{fisher_certificate_log10, fisher_exact_rx2, fisher_rx2_monte_carlo_shared};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Oracle: the seed's enumerator. Its `max_tables` bounds the crude size
/// ∏(min(rs, c1) + 1), not the work of the network walk.
fn oracle_fisher_exact_rx2(rows: &[(u64, u64)], max_tables: u64) -> Option<f64> {
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

fn assert_close(got: f64, want: f64, rel: f64, what: &str) {
    assert!(
        (got - want).abs() <= rel * want.abs(),
        "{what}: {got:e} vs {want:e} (relative {:e})",
        (got - want).abs() / want.abs()
    );
}

/// A random r×2 table with total at most `max_n`, shaped to hit the edge
/// cases: empty rows, zero cells, rows equal to each other, a one-sided
/// column-1 share near 0 or 1.
fn random_table(rng: &mut ChaCha8Rng, rows: usize, max_n: u64) -> Vec<(u64, u64)> {
    let mut table: Vec<(u64, u64)> = Vec::with_capacity(rows);
    let share: f64 = match rng.gen_range(0..4u32) {
        0 => 0.05,
        1 => 0.95,
        _ => rng.gen_range(0.1..0.9),
    };
    let per_row = (max_n / rows as u64).max(1);
    for _ in 0..rows {
        if !table.is_empty() && rng.gen_bool(0.2) {
            let copy = table[rng.gen_range(0..table.len())];
            table.push(copy);
            continue;
        }
        if rng.gen_bool(0.1) {
            table.push((0, 0));
            continue;
        }
        let size = rng.gen_range(0..=per_row);
        let a = (0..size).filter(|_| rng.gen_bool(share)).count() as u64;
        table.push((a, size - a));
    }
    table
}

#[test]
fn network_equals_enumeration_and_certificate_bounds_it() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0F15_4E72);
    let mut checked = [0usize; 7];
    let mut degenerate = 0usize;
    let mut over_ten = 0usize;
    for case in 0..1_500 {
        let r = 2 + case % 5;
        let rows = random_table(&mut rng, r, 80);
        // Only tables the oracle enumerates quickly in a debug build.
        let Some(want) = oracle_fisher_exact_rx2(&rows, 200_000) else {
            let degenerate_table = fisher_certificate_log10(&rows).is_none();
            if degenerate_table {
                degenerate += 1;
                assert_eq!(fisher_exact_rx2(&rows, u64::MAX), None, "{rows:?}");
            }
            continue;
        };
        checked[r] += 1;
        let got = fisher_exact_rx2(&rows, u64::MAX).expect("unlimited budget");
        assert_close(got, want, 1e-12, &format!("network vs enumeration on {rows:?}"));

        let bound = 10f64.powf(fisher_certificate_log10(&rows).expect("non-degenerate"));
        assert!(
            bound >= want * (1.0 - 1e-12),
            "certificate {bound:e} < p {want:e} on {rows:?}"
        );

        // A budget only withholds an answer, never changes one.
        match fisher_exact_rx2(&rows, 10) {
            Some(p) => assert_eq!(p.to_bits(), got.to_bits(), "{rows:?}"),
            None => over_ten += 1,
        }
    }
    for (r, &n) in checked.iter().enumerate().skip(2) {
        assert!(n >= 50, "only {n} enumerable tables with {r} rows");
    }
    assert!(degenerate >= 10, "only {degenerate} degenerate tables");
    assert!(over_ten >= 500, "a budget of 10 nodes withheld only {over_ten} answers");
}

/// Section 7's three taxon × always-in-advance tables on the paper corpus
/// (`CorpusSpec::paper()`, n = 195), rows in `Taxon::ALL` order.
const PAPER_LAG_TABLES: [[(u64, u64); 6]; 3] = [
    [(15, 12), (37, 21), (14, 17), (15, 30), (2, 16), (1, 15)],
    [(15, 12), (31, 27), (9, 22), (10, 35), (3, 15), (1, 15)],
    [(15, 12), (31, 27), (9, 22), (10, 35), (2, 16), (1, 15)],
];

/// Release only: the unlimited enumeration takes about a second per table.
/// `cargo test --release -p coevo-stats --test fisher_network -- --ignored`
#[test]
#[ignore]
fn paper_lag_tables_network_equals_enumeration_and_monte_carlo_agrees() {
    let refs: Vec<&[(u64, u64)]> = PAPER_LAG_TABLES.iter().map(|t| t.as_slice()).collect();
    let samples = 100_000u32;
    let simulated = fisher_rx2_monte_carlo_shared(&refs, samples, 0xF15E);
    for (rows, mc) in refs.iter().zip(simulated) {
        let want = oracle_fisher_exact_rx2(rows, u64::MAX).expect("enumerable");
        let got = fisher_exact_rx2(rows, 2_000_000).expect("within the study's budget");
        assert_close(got, want, 1e-9, &format!("network vs enumeration on {rows:?}"));
        let mc = mc.expect("non-degenerate");
        let se = (want * (1.0 - want) / samples as f64).sqrt();
        assert!(
            (mc - want).abs() <= 4.0 * se,
            "Monte Carlo {mc:e} vs exact {want:e}, SE {se:e}"
        );
    }
}
