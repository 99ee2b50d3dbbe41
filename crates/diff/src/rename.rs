//! Scored column-rename detection: pair ejected and injected attributes of
//! a surviving table by a composite similarity score.
//!
//! The paper's by-name matching reports a renamed attribute as one ejection
//! plus one injection. Under [`crate::MatchPolicy::RenameDetection`] this
//! module additionally pairs unmatched old/new attributes whose composite
//! score clears a confidence threshold, following the column-matching
//! methodology of statistically validated rename studies: every component is
//! a from-scratch, dependency-free metric, and the whole matcher is
//! validated against generator-planted ground truth by `coevo-oracle`.
//!
//! # Scoring
//!
//! For an ejected column *o* and an injected column *n* of the same table:
//!
//! ```text
//! score(o, n) = 0.60 · name(o, n) + 0.25 · type(o, n) + 0.15 · pos(o, n)
//! ```
//!
//! - **name** — the mean of bigram Dice similarity and Jaro-Winkler
//!   similarity over the case-folded column keys;
//! - **type** — `1.0` for equivalent types, [`SAME_FAMILY_TYPE_SCORE`] when
//!   the types sit on one widening ladder (see [`type_transition`]), and a
//!   *disqualifier* for incomparable families: a column that changed its
//!   name **and** crossed type families is never a rename;
//! - **pos** — ordinal proximity in the declared column list, normalized by
//!   the larger column count.
//!
//! # Assignment
//!
//! Candidate pairs at or above the threshold are resolved best-score-first:
//! edges are sorted by descending score with deterministic lexicographic
//! name tie-breaks, then greedily accepted while both endpoints are free.
//! Two properties follow by construction and are enforced by the rename
//! oracle family:
//!
//! - **threshold monotonicity** — the edge order is threshold-independent,
//!   so raising the threshold only truncates a suffix of the candidate
//!   list; the surviving prefix decisions are unchanged and the match set
//!   under a higher threshold is a subset of the one under a lower;
//! - **permutation determinism** — ties break on column *keys*, never on
//!   enumeration order, so shuffling the candidate lists cannot change the
//!   assignment. (Declared column position is a genuine scoring signal, so
//!   *reordering columns* is a semantic input change; reordering *tables*
//!   never is.)

use crate::changes::AttributeChange;
use crate::history::SchemaHistory;
use coevo_ddl::{SqlType, Table};
use serde::{Deserialize, Serialize};

/// The default confidence threshold of `MatchPolicy::RenameDetection`:
/// unrelated same-type columns at equal positions score ≈ 0.45, genuine
/// renames ≥ 0.75 on the planted corpora, so 0.6 splits them with margin.
pub const DEFAULT_RENAME_THRESHOLD: f64 = 0.6;

/// Weight of the name-similarity component.
const NAME_WEIGHT: f64 = 0.60;
/// Weight of the type-compatibility component.
const TYPE_WEIGHT: f64 = 0.25;
/// Weight of the positional-evidence component.
const POS_WEIGHT: f64 = 0.15;

/// Type score for a same-family (widened or narrowed) transition — a
/// rename+retype along one ladder is still a plausible rename.
pub const SAME_FAMILY_TYPE_SCORE: f64 = 0.6;

/// How a type change compares within the widening partial order. This is
/// the single source of truth for the widening ladders: `coevo-compat`'s
/// rule table classifies with it, and the rename scorer reuses it as its
/// type-compatibility evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeTransition {
    /// Strictly wider within one family: every old value still fits.
    Widened,
    /// Same family, not wider: values can be truncated or rejected.
    Narrowed,
    /// Different families: nothing can be promised.
    Incomparable,
}

/// Integer family rank; `None` for non-integer types.
pub fn int_rank(name: &str) -> Option<u8> {
    match name {
        "TINYINT" => Some(1),
        "SMALLINT" => Some(2),
        "MEDIUMINT" => Some(3),
        "INT" | "INTEGER" => Some(4),
        "BIGINT" => Some(5),
        _ => None,
    }
}

/// Character family rank; parameterized lengths compare within one rank.
pub fn char_rank(name: &str) -> Option<u8> {
    match name {
        "CHAR" => Some(1),
        "VARCHAR" => Some(2),
        "TEXT" | "MEDIUMTEXT" | "LONGTEXT" | "CLOB" => Some(3),
        _ => None,
    }
}

fn first_param(t: &SqlType) -> Option<u64> {
    t.params.first().and_then(|p| p.as_str().parse().ok())
}

/// Classify a type change. Widening is only claimed when it is provable
/// from the names and parameters; everything else is conservative.
pub fn type_transition(from: &SqlType, to: &SqlType) -> TypeTransition {
    let (f, t) = (from.name.key().to_ascii_uppercase(), to.name.key().to_ascii_uppercase());
    if from.modifiers != to.modifiers {
        return TypeTransition::Incomparable; // UNSIGNED flips change the domain
    }
    if let (Some(rf), Some(rt)) = (int_rank(&f), int_rank(&t)) {
        return if rt > rf { TypeTransition::Widened } else { TypeTransition::Narrowed };
    }
    if let (Some(rf), Some(rt)) = (char_rank(&f), char_rank(&t)) {
        return match rt.cmp(&rf) {
            std::cmp::Ordering::Greater => TypeTransition::Widened,
            std::cmp::Ordering::Less => TypeTransition::Narrowed,
            std::cmp::Ordering::Equal => {
                // Same kind: compare declared lengths (absent = unbounded
                // only for the TEXT rank, which has no parameters anyway).
                match (first_param(from), first_param(to)) {
                    (Some(a), Some(b)) if b > a => TypeTransition::Widened,
                    (Some(_), Some(_)) => TypeTransition::Narrowed,
                    _ => TypeTransition::Narrowed,
                }
            }
        };
    }
    if f == "DECIMAL" && t == "DECIMAL" || f == "NUMERIC" && t == "NUMERIC" {
        let precision = |ty: &SqlType, i: usize| {
            ty.params.get(i).and_then(|p| p.as_str().parse::<u64>().ok()).unwrap_or(0)
        };
        let wider = precision(to, 0) >= precision(from, 0)
            && precision(to, 1) >= precision(from, 1)
            && (precision(to, 0) > precision(from, 0) || precision(to, 1) > precision(from, 1));
        return if wider { TypeTransition::Widened } else { TypeTransition::Narrowed };
    }
    TypeTransition::Incomparable
}

/// Dice coefficient over character bigrams of the two (pre-folded) strings:
/// `2·|A ∩ B| / (|A| + |B|)` with multiset intersection. Strings shorter
/// than two characters have no bigrams; two such strings compare by
/// equality.
pub fn bigram_dice(a: &str, b: &str) -> f64 {
    let bigrams = |s: &str| {
        let chars: Vec<char> = s.chars().collect();
        let mut out: Vec<[char; 2]> = chars.windows(2).map(|w| [w[0], w[1]]).collect();
        out.sort_unstable();
        out
    };
    let (mut xs, ys) = (bigrams(a), bigrams(b));
    if xs.is_empty() && ys.is_empty() {
        return if a == b { 1.0 } else { 0.0 };
    }
    if xs.is_empty() || ys.is_empty() {
        return 0.0;
    }
    let total = xs.len() + ys.len();
    let mut common = 0usize;
    // Multiset intersection: consume one x per matching y.
    for y in &ys {
        if let Ok(pos) = xs.binary_search(y) {
            xs.remove(pos);
            common += 1;
        }
    }
    2.0 * common as f64 / total as f64
}

/// Jaro similarity of two strings, the base of Jaro-Winkler.
fn jaro(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_taken = vec![false; b.len()];
    let mut a_matched = vec![false; a.len()];
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == ca {
                b_taken[j] = true;
                a_matched[i] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Transpositions: matched characters of both sides, in order.
    let a_seq: Vec<char> =
        a.iter().zip(&a_matched).filter(|(_, &m)| m).map(|(&c, _)| c).collect();
    let b_seq: Vec<char> =
        b.iter().zip(&b_taken).filter(|(_, &m)| m).map(|(&c, _)| c).collect();
    let transposed = a_seq.iter().zip(&b_seq).filter(|(x, y)| x != y).count();
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transposed as f64 / 2.0) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by up to four characters of common
/// prefix when the base similarity already exceeds 0.7.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let (ac, bc): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let base = jaro(&ac, &bc);
    if base <= 0.7 {
        return base;
    }
    let prefix = ac.iter().zip(&bc).take(4).take_while(|(x, y)| x == y).count();
    base + prefix as f64 * 0.1 * (1.0 - base)
}

/// Name similarity: the mean of the two metrics, on case-folded keys.
fn name_similarity(a: &str, b: &str) -> f64 {
    (bigram_dice(a, b) + jaro_winkler(a, b)) / 2.0
}

/// One side of a potential rename pair: the case-folded key, the declared
/// type, and the declared ordinal in its column list.
#[derive(Debug, Clone)]
pub struct RenameField<'a> {
    /// Case-folded column key (the matcher's identity).
    pub key: &'a str,
    /// The declared SQL type.
    pub sql_type: &'a SqlType,
    /// Declared position in the column list.
    pub ordinal: usize,
}

/// The composite score of one old/new pair, or `None` when the pair is
/// disqualified (incomparable type families). `old_len`/`new_len` are the
/// two sides' total column counts, normalizing the positional component.
pub fn rename_score(
    old: &RenameField<'_>,
    new: &RenameField<'_>,
    old_len: usize,
    new_len: usize,
) -> Option<f64> {
    let type_score = if old.sql_type.equivalent(new.sql_type) {
        1.0
    } else {
        match type_transition(old.sql_type, new.sql_type) {
            TypeTransition::Widened | TypeTransition::Narrowed => SAME_FAMILY_TYPE_SCORE,
            TypeTransition::Incomparable => return None,
        }
    };
    let span = old_len.max(new_len).max(1) as f64;
    let pos_score = 1.0 - (old.ordinal as f64 - new.ordinal as f64).abs() / span;
    let name_score = name_similarity(old.key, new.key);
    Some(NAME_WEIGHT * name_score + TYPE_WEIGHT * type_score + POS_WEIGHT * pos_score)
}

/// Pair ejected (`old`) against injected (`new`) fields: every candidate
/// edge at or above `threshold` enters a best-score-first greedy assignment.
/// Returns `(old_slice_index, new_slice_index)` pairs sorted by the old
/// field's ordinal. Deterministic under any permutation of either input
/// slice: ordering depends only on scores and keys.
pub fn pair_renames(
    old: &[RenameField<'_>],
    new: &[RenameField<'_>],
    old_len: usize,
    new_len: usize,
    threshold: f64,
) -> Vec<(usize, usize)> {
    let mut edges: Vec<(f64, usize, usize)> = Vec::new();
    for (i, o) in old.iter().enumerate() {
        for (j, n) in new.iter().enumerate() {
            if let Some(score) = rename_score(o, n, old_len, new_len) {
                if score >= threshold {
                    edges.push((score, i, j));
                }
            }
        }
    }
    // Descending score; ties break on the pair's keys (then ordinals for
    // pathological duplicate-key tables), never on enumeration order.
    edges.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| old[a.1].key.cmp(old[b.1].key))
            .then_with(|| new[a.2].key.cmp(new[b.2].key))
            .then_with(|| old[a.1].ordinal.cmp(&old[b.1].ordinal))
            .then_with(|| new[a.2].ordinal.cmp(&new[b.2].ordinal))
    });
    let mut old_used = vec![false; old.len()];
    let mut new_used = vec![false; new.len()];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (_, i, j) in edges {
        if !old_used[i] && !new_used[j] {
            old_used[i] = true;
            new_used[j] = true;
            pairs.push((i, j));
        }
    }
    pairs.sort_by_key(|&(i, _)| old[i].ordinal);
    pairs
}

/// The shared rename step of [`crate::diff_tables`] and
/// [`crate::diff_tables_legacy`]: pair the ejected/injected column indices
/// of a surviving-table diff, emit [`AttributeChange::Renamed`] (plus a
/// [`AttributeChange::TypeChanged`] when the pair also retyped along a
/// ladder) for each accepted pair, and drop the paired indices from the
/// eject/inject lists. Both diff paths call exactly this function, so the
/// incremental and legacy outputs stay bit-identical under every policy.
pub(crate) fn apply_rename_pairing(
    old: &Table,
    new: &Table,
    ejected: &mut Vec<usize>,
    injected: &mut Vec<usize>,
    changes: &mut Vec<AttributeChange>,
    threshold: f64,
) {
    if ejected.is_empty() || injected.is_empty() {
        return;
    }
    let old_fields: Vec<RenameField<'_>> = ejected
        .iter()
        .map(|&i| RenameField {
            key: old.columns[i].key(),
            sql_type: &old.columns[i].sql_type,
            ordinal: i,
        })
        .collect();
    let new_fields: Vec<RenameField<'_>> = injected
        .iter()
        .map(|&j| RenameField {
            key: new.columns[j].key(),
            sql_type: &new.columns[j].sql_type,
            ordinal: j,
        })
        .collect();
    let pairs =
        pair_renames(&old_fields, &new_fields, old.columns.len(), new.columns.len(), threshold);
    let mut paired_old: Vec<usize> = Vec::new();
    let mut paired_new: Vec<usize> = Vec::new();
    for (oi, nj) in pairs {
        let (i, j) = (ejected[oi], injected[nj]);
        let (old_col, new_col) = (&old.columns[i], &new.columns[j]);
        changes.push(AttributeChange::Renamed {
            from: old_col.name.to_string(),
            to: new_col.name.to_string(),
            sql_type: old_col.sql_type.clone(),
        });
        if !old_col.sql_type.equivalent(&new_col.sql_type) {
            // Rename + retype along one ladder: one rename plus one type
            // change — still ≤ the two units by-name matching would report.
            changes.push(AttributeChange::TypeChanged {
                name: new_col.name.to_string(),
                from: old_col.sql_type.clone(),
                to: new_col.sql_type.clone(),
            });
        }
        paired_old.push(i);
        paired_new.push(j);
    }
    ejected.retain(|i| !paired_old.contains(i));
    injected.retain(|j| !paired_new.contains(j));
}

/// The rename tallies of a history's evolution steps — the per-taxon rename
/// profile of `coevo study --renames`. The birth step is excluded: with no
/// old columns there is nothing to rename. Plain sums, so per-project
/// counts merge into per-taxon profiles in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RenameCounts {
    /// Evolution steps examined.
    pub steps: u64,
    /// Steps on which at least one rename was detected.
    pub steps_with_renames: u64,
    /// Detected `Renamed` changes.
    pub renames: u64,
    /// Rename-aware Total Activity over the same steps.
    pub activity: u64,
}

impl RenameCounts {
    /// Tally every non-birth step of `history`.
    pub fn of_history(history: &SchemaHistory) -> Self {
        let mut c = Self::default();
        for d in history.deltas().iter().skip(1) {
            let renamed = d.breakdown.attrs_renamed;
            c.steps += 1;
            c.steps_with_renames += u64::from(renamed > 0);
            c.renames += renamed;
            c.activity += d.breakdown.total();
        }
        c
    }

    /// Fold another tally into this one (used for taxon roll-ups).
    pub fn merge(&mut self, other: &Self) {
        self.steps += other.steps;
        self.steps_with_renames += other.steps_with_renames;
        self.renames += other.renames;
        self.activity += other.activity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int() -> SqlType {
        SqlType::simple("INT")
    }

    fn field<'a>(key: &'a str, ty: &'a SqlType, ordinal: usize) -> RenameField<'a> {
        RenameField { key, sql_type: ty, ordinal }
    }

    #[test]
    fn dice_basics() {
        assert_eq!(bigram_dice("night", "night"), 1.0);
        assert_eq!(bigram_dice("abc", "xyz"), 0.0);
        let s = bigram_dice("user_name", "username");
        assert!(s > 0.7 && s < 1.0, "{s}");
        // Single-character strings: equality decides.
        assert_eq!(bigram_dice("a", "a"), 1.0);
        assert_eq!(bigram_dice("a", "b"), 0.0);
        // Symmetry.
        assert_eq!(bigram_dice("night", "nacht"), bigram_dice("nacht", "night"));
    }

    #[test]
    fn jaro_winkler_basics() {
        assert_eq!(jaro_winkler("martha", "martha"), 1.0);
        assert_eq!(jaro_winkler("abc", "xyz"), 0.0);
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.9611).abs() < 1e-3, "{jw}");
        let plain = jaro_winkler("dwayne", "duane");
        assert!((plain - 0.84).abs() < 1e-2, "{plain}");
        // The prefix boost lifts shared-prefix pairs.
        assert!(jaro_winkler("created", "created_at") > jaro_winkler("reated", "reated_atc"));
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("", "abc"), 0.0);
    }

    #[test]
    fn similarity_is_bounded() {
        for (a, b) in [("user_name", "username"), ("a", "zzzz"), ("", ""), ("x", "")] {
            for s in [bigram_dice(a, b), jaro_winkler(a, b)] {
                assert!((0.0..=1.0).contains(&s), "{a} vs {b}: {s}");
            }
        }
    }

    #[test]
    fn cross_family_pairs_are_disqualified() {
        let (i, t) = (int(), SqlType::simple("TEXT"));
        let score = rename_score(&field("amount", &i, 0), &field("amount2", &t, 0), 1, 1);
        assert_eq!(score, None);
    }

    #[test]
    fn genuine_rename_outscores_unrelated_sibling() {
        let i = int();
        let old = field("user_name", &i, 1);
        let renamed = field("username", &i, 1);
        let sibling = field("batch_code", &i, 2);
        let hit = rename_score(&old, &renamed, 4, 4).unwrap();
        let miss = rename_score(&old, &sibling, 4, 4).unwrap();
        assert!(hit > DEFAULT_RENAME_THRESHOLD, "{hit}");
        assert!(miss < DEFAULT_RENAME_THRESHOLD, "{miss}");
    }

    #[test]
    fn assignment_is_permutation_stable() {
        let i = int();
        let olds =
            vec![field("total_price", &i, 0), field("unit_count", &i, 1), field("rank", &i, 2)];
        let news = vec![
            field("unit_counts", &i, 1),
            field("total_price_cents", &i, 0),
            field("owner_ref", &i, 2),
        ];
        let base = pair_renames(&olds, &news, 3, 3, DEFAULT_RENAME_THRESHOLD);
        // Shuffle both candidate lists; the pairs (as key pairs) must not move.
        let olds_rev: Vec<_> = olds.iter().rev().cloned().collect();
        let news_rev: Vec<_> = news.iter().rev().cloned().collect();
        let rev = pair_renames(&olds_rev, &news_rev, 3, 3, DEFAULT_RENAME_THRESHOLD);
        let keys = |pairs: &[(usize, usize)], o: &[RenameField<'_>], n: &[RenameField<'_>]| {
            pairs
                .iter()
                .map(|&(a, b)| (o[a].key.to_string(), n[b].key.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&base, &olds, &news), keys(&rev, &olds_rev, &news_rev));
    }

    #[test]
    fn threshold_is_monotone() {
        let i = int();
        let olds = vec![field("user_name", &i, 0), field("created", &i, 1)];
        let news = vec![field("username", &i, 0), field("created_at", &i, 1)];
        let mut last = usize::MAX;
        for t in [0.0, 0.3, 0.6, 0.8, 0.95, 1.0] {
            let n = pair_renames(&olds, &news, 2, 2, t).len();
            assert!(n <= last, "threshold {t} matched {n} > {last}");
            last = n;
        }
    }

    #[test]
    fn ambiguous_same_type_pair_resolves_by_score_not_order() {
        // Two ejected INT columns, one injected INT column whose name is
        // close to the *second* ejected one: the naive first-match-wins
        // pairing would bind the first. The scorer must bind `unit_count`.
        let i = int();
        let a = field("total_price", &i, 0);
        let b = field("unit_count", &i, 1);
        let target = field("unit_counts", &i, 1);
        let fwd =
            pair_renames(&[a.clone(), b.clone()], std::slice::from_ref(&target), 2, 1, 0.5);
        let rev = pair_renames(&[b, a], &[target], 2, 1, 0.5);
        assert_eq!(fwd.len(), 1);
        assert_eq!(rev.len(), 1);
        assert_eq!(fwd[0].0, 1, "forward order binds unit_count");
        assert_eq!(rev[0].0, 0, "reversed order still binds unit_count");
    }

    #[test]
    fn ladder_reuse_matches_compat_semantics() {
        let widen = type_transition(&SqlType::simple("INT"), &SqlType::simple("BIGINT"));
        assert_eq!(widen, TypeTransition::Widened);
        let narrow = type_transition(&SqlType::simple("BIGINT"), &SqlType::simple("INT"));
        assert_eq!(narrow, TypeTransition::Narrowed);
        let cross = type_transition(&SqlType::simple("INT"), &SqlType::simple("TEXT"));
        assert_eq!(cross, TypeTransition::Incomparable);
    }

    #[test]
    fn rename_counts_skip_the_birth_and_merge_by_addition() {
        let history = SchemaHistory::from_ddl_texts_with(
            [
                ("2020-01-01 00:00:00 +0000", "CREATE TABLE t (id INT, user_name INT);"),
                ("2020-02-01 00:00:00 +0000", "CREATE TABLE t (id INT, username INT);"),
                ("2020-03-01 00:00:00 +0000", "CREATE TABLE t (id INT, username INT, x INT);"),
            ]
            .map(|(d, s)| (coevo_heartbeat::DateTime::parse(d).unwrap(), s)),
            coevo_ddl::Dialect::Generic,
            crate::MatchPolicy::rename_detection(),
        )
        .unwrap()
        .unwrap();
        let c = RenameCounts::of_history(&history);
        assert_eq!(
            c,
            RenameCounts { steps: 2, steps_with_renames: 1, renames: 1, activity: 2 }
        );
        let mut total = RenameCounts::default();
        total.merge(&c);
        total.merge(&c);
        assert_eq!(
            total,
            RenameCounts { steps: 4, steps_with_renames: 2, renames: 2, activity: 4 }
        );
    }
}
