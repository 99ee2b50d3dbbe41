//! Bit-equality of the fast Section 7 kernels against the straightforward
//! ones they replaced, kept here verbatim as test oracles: the per-table
//! Monte Carlo Fisher kernel and the O(n²) Kendall pair counter.

use coevo_stats::dist::ln_gamma;
use coevo_stats::fisher::Remainder;
use coevo_stats::{fisher_rx2_monte_carlo, fisher_rx2_monte_carlo_shared, kendall_tau_b};
use proptest::prelude::*;

fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Oracle: one Monte Carlo run per table over a `bool` pool, `%` for the
/// Fisher–Yates draw and `ln_choose` per row per sample.
fn oracle_fisher_rx2_monte_carlo(rows: &[(u64, u64)], samples: u32, seed: u64) -> Option<f64> {
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
    let n = (col1 + col2) as usize;

    let lp_obs: f64 = rows.iter().zip(&row_sums).map(|(&(a, _), &rs)| ln_choose(rs, a)).sum();

    // A small deterministic xorshift generator: no external dependency, and
    // statistical-quality requirements here are modest.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    // Pool of membership labels: true = column 1.
    let mut pool: Vec<bool> = Vec::with_capacity(n);
    pool.extend(std::iter::repeat_n(true, col1 as usize));
    pool.extend(std::iter::repeat_n(false, col2 as usize));

    let mut hits = 0u64;
    for _ in 0..samples {
        // Fisher–Yates shuffle.
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            pool.swap(i, j);
        }
        // Partition into rows and compute the table's log-probability term.
        let mut lp = 0.0;
        let mut offset = 0usize;
        for &rs in &row_sums {
            let a = pool[offset..offset + rs as usize].iter().filter(|&&b| b).count() as u64;
            lp += ln_choose(rs, a);
            offset += rs as usize;
        }
        if lp <= lp_obs + 1e-7 {
            hits += 1;
        }
    }
    Some((1.0 + hits as f64) / (1.0 + samples as f64))
}

/// Oracle: Kendall's τ-b by counting every pair.
fn oracle_kendall_tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "kendall_tau_b: length mismatch");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64; // tied in x only
    let mut ties_y = 0i64; // tied in y only
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i].partial_cmp(&x[j]).expect("NaN in x");
            let dy = y[i].partial_cmp(&y[j]).expect("NaN in y");
            use std::cmp::Ordering::Equal;
            match (dx, dy) {
                (Equal, Equal) => {}
                (Equal, _) => ties_x += 1,
                (_, Equal) => ties_y += 1,
                (a, b) if a == b => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    // Tied-in-both pairs reduce both denominator terms.
    let tied_both = n0 - concordant - discordant - ties_x - ties_y;
    let denom_x = (n0 - ties_x - tied_both) as f64;
    let denom_y = (n0 - ties_y - tied_both) as f64;
    if denom_x <= 0.0 || denom_y <= 0.0 {
        return None;
    }
    Some((concordant - discordant) as f64 / (denom_x * denom_y).sqrt())
}

fn bits(p: Option<f64>) -> Option<u64> {
    p.map(f64::to_bits)
}

/// Column-1 counts for rows of sizes `row_sums`: `mode` 0 and 1 draw each
/// row's count from `fractions`, 2 empties column 1, 3 empties column 2.
fn table(row_sums: &[u64], fractions: &[f64], mode: u8) -> Vec<(u64, u64)> {
    row_sums
        .iter()
        .zip(fractions.iter().cycle())
        .map(|(&rs, &f)| {
            let a = match mode {
                2 => 0,
                3 => rs,
                _ => ((rs + 1) as f64 * f).floor().min(rs as f64) as u64,
            };
            (a, rs - a)
        })
        .collect()
}

/// The divisors' test draws: a xorshift stream plus the edge values.
fn draws() -> Vec<u64> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut out: Vec<u64> = (0..48)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    out.extend([0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 32) - 1, 1 << 32]);
    out
}

#[test]
fn remainder_matches_modulo_for_every_divisor_to_20000() {
    let draws = draws();
    for d in 1..=20_000u64 {
        let r = Remainder::new(d);
        for &x in draws.iter().chain(&[d - 1, d, d + 1, d * 7919, u64::MAX / d * d]) {
            assert_eq!(r.of(x), x % d, "{x} % {d}");
        }
    }
}

#[test]
fn remainder_matches_modulo_for_large_divisors() {
    let draws = draws();
    for &d in &[u32::MAX as u64, (1 << 32) + 1, u64::MAX / 3, u64::MAX - 1, u64::MAX] {
        let r = Remainder::new(d);
        for &x in &draws {
            assert_eq!(r.of(x), x % d, "{x} % {d}");
        }
    }
}

#[test]
fn monte_carlo_matches_oracle_on_degenerate_tables() {
    let cases: &[&[(u64, u64)]] = &[
        &[],
        &[(5, 5)],
        &[(5, 5), (0, 0)],
        &[(0, 0), (0, 0)],
        &[(5, 0), (3, 0)],
        &[(0, 4), (0, 0), (0, 7)],
        &[(3, 1), (1, 3)],
        &[(0, 0), (3, 1), (0, 0), (1, 3)],
    ];
    for rows in cases {
        let want = oracle_fisher_rx2_monte_carlo(rows, 500, 0xF15E);
        assert_eq!(bits(fisher_rx2_monte_carlo(rows, 500, 0xF15E)), bits(want), "{rows:?}");
    }
    let shared = fisher_rx2_monte_carlo_shared(cases, 500, 0xF15E);
    for (rows, p) in cases.iter().zip(shared) {
        assert_eq!(bits(p), bits(oracle_fisher_rx2_monte_carlo(rows, 500, 0xF15E)), "{rows:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_monte_carlo_is_bit_identical_to_one_call_per_table(
        sums_a in prop::collection::vec(0u64..25, 1..7),
        sums_b in prop::collection::vec(0u64..25, 2..4),
        tables in prop::collection::vec(
            (prop::collection::vec(0.0f64..1.0, 6), 0u8..4, any::<bool>()),
            1..6,
        ),
        samples in 1u32..300,
        seed in any::<u64>(),
    ) {
        // Each table takes `sums_a` or `sums_b`: two groups in one call.
        let tables: Vec<Vec<(u64, u64)>> = tables
            .iter()
            .map(|(fractions, mode, second)| {
                table(if *second { &sums_b } else { &sums_a }, fractions, *mode)
            })
            .collect();
        let refs: Vec<&[(u64, u64)]> = tables.iter().map(|t| t.as_slice()).collect();
        let shared = fisher_rx2_monte_carlo_shared(&refs, samples, seed);
        prop_assert_eq!(shared.len(), tables.len());
        for (rows, p) in tables.iter().zip(shared) {
            let want = oracle_fisher_rx2_monte_carlo(rows, samples, seed);
            prop_assert_eq!(bits(p), bits(want), "shared, {:?}", rows);
            prop_assert_eq!(bits(fisher_rx2_monte_carlo(rows, samples, seed)), bits(want));
        }
    }

    #[test]
    fn knight_matches_pair_counter_on_tie_heavy_samples(
        levels_x in 1usize..=5,
        levels_y in 1usize..=5,
        picks in prop::collection::vec((0usize..5, 0usize..5), 0..=300),
    ) {
        // -0.0 and 0.0 are one level to `partial_cmp`, and both appear.
        let level = |i: usize| [-0.0, 0.0, 1.5, -2.0, 7.0][i];
        let x: Vec<f64> = picks.iter().map(|p| level(p.0 % levels_x)).collect();
        let y: Vec<f64> = picks.iter().map(|p| level(p.1 % levels_y)).collect();
        prop_assert_eq!(bits(kendall_tau_b(&x, &y)), bits(oracle_kendall_tau_b(&x, &y)));
    }

    #[test]
    fn knight_matches_pair_counter_on_continuous_samples(
        pairs in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..200)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        prop_assert_eq!(bits(kendall_tau_b(&x, &y)), bits(oracle_kendall_tau_b(&x, &y)));
    }

    #[test]
    fn knight_is_none_on_a_constant_column(
        c in -3.0f64..3.0,
        ys in prop::collection::vec(-3.0f64..3.0, 0..100),
    ) {
        let x = vec![c; ys.len()];
        prop_assert_eq!(kendall_tau_b(&x, &ys), None);
        prop_assert_eq!(kendall_tau_b(&ys, &x), None);
        prop_assert_eq!(oracle_kendall_tau_b(&x, &ys), None);
    }
}
