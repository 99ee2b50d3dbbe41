//! Kendall rank correlation τ-b (tie-corrected).
//!
//! The paper reports Kendall correlations between its co-evolution measures:
//! 0.67 between 5%- and 10%-synchronicity, 0.75 between schema advance over
//! time and over source.

/// Kendall's τ-b of two paired samples. Returns `None` when fewer than two
/// pairs exist, when either variable is constant (τ undefined), or when a
/// value is NaN (no ranking exists).
///
/// Knight's O(n log n) algorithm: sort the pairs by (x, y), then count the
/// exchanges a merge sort by y makes — each is one discordant pair. With
/// n0 = n(n−1)/2, n1 and n2 the pairs tied in x and in y, and n3 those tied
/// in both, S = n0 − n1 − n2 + n3 − 2·exchanges. These are the integer
/// counts a loop over all pairs would find, so τ is the same to the bit.
/// Section 7 makes a dozen calls per study, at the corpus size.
pub fn kendall_tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "kendall_tau_b: length mismatch");
    let n = x.len();
    if n < 2 || x.iter().chain(y).any(|v| v.is_nan()) {
        return None;
    }
    // No NaN remains, so `partial_cmp` is total (and -0.0 ties 0.0).
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN filtered above");
    let mut pairs: Vec<(f64, f64)> = x.iter().copied().zip(y.iter().copied()).collect();
    pairs.sort_unstable_by(|a, b| cmp(&a.0, &b.0).then_with(|| cmp(&a.1, &b.1)));

    let tied_x = tied_pairs(&pairs, |a, b| a.0 == b.0);
    let tied_xy = tied_pairs(&pairs, |a, b| a == b);
    let mut ys: Vec<f64> = pairs.into_iter().map(|p| p.1).collect();
    let exchanges = merge_sort_exchanges(&mut ys);
    let tied_y = tied_pairs(&ys, |a, b| a == b);

    let n0 = (n * (n - 1) / 2) as i64;
    let s = n0 - tied_x - tied_y + tied_xy - 2 * exchanges;
    let denom_x = (n0 - tied_x) as f64;
    let denom_y = (n0 - tied_y) as f64;
    if denom_x <= 0.0 || denom_y <= 0.0 {
        return None;
    }
    Some(s as f64 / (denom_x * denom_y).sqrt())
}

/// Pairs within runs of consecutive equal elements: Σ t(t−1)/2 over runs.
fn tied_pairs<T>(sorted: &[T], equal: impl Fn(&T, &T) -> bool) -> i64 {
    let mut total = 0i64;
    let mut run = 1i64;
    for w in sorted.windows(2) {
        if equal(&w[0], &w[1]) {
            run += 1;
        } else {
            total += run * (run - 1) / 2;
            run = 1;
        }
    }
    total + run * (run - 1) / 2
}

/// Sort `v` ascending by a stable bottom-up merge sort and return the number
/// of exchanges: pairs `i < j` with `v[i] > v[j]` (equal values never count).
fn merge_sort_exchanges(v: &mut [f64]) -> i64 {
    let n = v.len();
    let mut buf = vec![0.0f64; n];
    let mut exchanges = 0i64;
    let mut width = 1;
    while width < n {
        for lo in (0..n).step_by(2 * width) {
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            let (mut i, mut j, mut k) = (lo, mid, lo);
            while i < mid && j < hi {
                if v[j] < v[i] {
                    exchanges += (mid - i) as i64;
                    buf[k] = v[j];
                    j += 1;
                } else {
                    buf[k] = v[i];
                    i += 1;
                }
                k += 1;
            }
            buf[k..k + (mid - i)].copy_from_slice(&v[i..mid]);
            k += mid - i;
            buf[k..hi].copy_from_slice(&v[j..hi]);
        }
        v.copy_from_slice(&buf);
        width *= 2;
    }
    exchanges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn perfect_concordance() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [10.0, 20.0, 30.0, 40.0, 50.0];
        close(kendall_tau_b(&x, &y).unwrap(), 1.0);
    }

    #[test]
    fn perfect_discordance() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        close(kendall_tau_b(&x, &y).unwrap(), -1.0);
    }

    #[test]
    fn hand_computed_example() {
        // x = [1,2,3,4], y = [2,1,4,3]: pairs (12)(13)(14)(23)(24)(34)
        // concordant: (13)(14)(23)(24) = 4, discordant: (12)(34) = 2.
        // τ = (4−2)/6 = 1/3.
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 1.0, 4.0, 3.0];
        close(kendall_tau_b(&x, &y).unwrap(), 1.0 / 3.0);
    }

    #[test]
    fn tau_b_with_ties() {
        // x = [1,1,2], y = [1,2,3]:
        // pairs: (1,2): x tie → ties_x; (1,3): C; (2,3): C.
        // n0 = 3, C = 2, D = 0, tx = 1, ty = 0, tied_both = 0.
        // τb = 2 / sqrt((3−1)(3−0)) = 2/sqrt(6).
        let x = [1.0, 1.0, 2.0];
        let y = [1.0, 2.0, 3.0];
        close(kendall_tau_b(&x, &y).unwrap(), 2.0 / 6.0_f64.sqrt());
    }

    #[test]
    fn constant_variable_is_none() {
        assert!(kendall_tau_b(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(kendall_tau_b(&[1.0], &[1.0]).is_none());
        assert!(kendall_tau_b(&[], &[]).is_none());
    }

    #[test]
    fn nan_is_none() {
        assert!(kendall_tau_b(&[1.0, f64::NAN, 3.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(kendall_tau_b(&[1.0, 2.0, 3.0], &[3.0, 2.0, f64::NAN]).is_none());
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0];
        let a = kendall_tau_b(&x, &y).unwrap();
        let b = kendall_tau_b(&y, &x).unwrap();
        close(a, b);
    }

    #[test]
    fn bounded_in_unit_interval() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0, 3.0, 9.0];
        let y = [2.0, 2.0, 6.0, 1.0, 3.0, 7.0, 7.0];
        let t = kendall_tau_b(&x, &y).unwrap();
        assert!((-1.0..=1.0).contains(&t));
    }
}
