//! Deterministic, composable history mutators and their declared
//! metamorphic invariants.
//!
//! Each [`Mutator`] rewrites a project's raw artifacts (DDL version texts,
//! git log, version dates) in a way that — per its declared [`Invariant`] —
//! must not change what the measurement pipeline computes. A mutation that
//! *does* change the measures is a bug in either the pipeline or the
//! mutator's invariant claim, and the harness reports it with a minimized
//! reproducer either way.
//!
//! All mutators are seeded: `apply_seeded(p, seed)` with equal inputs
//! rewrites equal outputs, so every reported violation replays exactly.

use coevo_corpus::ProjectArtifacts;
use coevo_ddl::{parse_schema, print_schema, Ident, Schema, TableConstraint};
use coevo_heartbeat::{DateTime, YearMonth};
use coevo_vcs::{parse_log, write_log, Commit, Repository};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The metamorphic relation a mutator promises to preserve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every field of the project's measures is bit-identical: Total
    /// Activity, monthly heartbeats, θ-synchronicity, advance, attainment,
    /// taxon — everything.
    IdenticalMeasures,
    /// Both Total Activities and the (pre-assigned) taxon are bit-identical.
    /// Time-axis scaling stretches the month axis, so every month-indexed
    /// measure (synchronicity, advance, attainment — `time_progress` is
    /// `(i+1)/months`, which integer scaling does not fix) legitimately
    /// moves; but activity is conserved, so the totals may not.
    IdenticalTotals,
}

impl Invariant {
    /// Short human label.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::IdenticalMeasures => "identical measures",
            Invariant::IdenticalTotals => "identical totals + taxon",
        }
    }
}

/// One deterministic history rewrite paired with its declared invariant.
pub struct Mutator {
    /// Mutator name (stable: serialized into reproducers).
    pub name: &'static str,
    /// The metamorphic relation this rewrite preserves.
    pub invariant: Invariant,
    apply: fn(&mut ProjectArtifacts, &mut ChaCha8Rng) -> bool,
}

impl std::fmt::Debug for Mutator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutator")
            .field("name", &self.name)
            .field("invariant", &self.invariant)
            .finish()
    }
}

impl Mutator {
    /// Apply this mutator under a fresh ChaCha stream for `seed`. Returns
    /// whether anything changed (a mutator may be inapplicable — e.g. no
    /// commit has two files to split).
    pub fn apply_seeded(&self, p: &mut ProjectArtifacts, seed: u64) -> bool {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (self.apply)(p, &mut rng)
    }

    /// Look a mutator up by its serialized name.
    pub fn by_name(name: &str) -> Option<&'static Mutator> {
        all_mutators().iter().find(|m| m.name == name)
    }
}

/// The full mutator registry, in the order the harness applies them.
pub fn all_mutators() -> &'static [Mutator] {
    const MUTATORS: &[Mutator] = &[
        Mutator {
            name: "permute-tables",
            invariant: Invariant::IdenticalMeasures,
            apply: permute_tables,
        },
        Mutator {
            name: "permute-columns",
            invariant: Invariant::IdenticalMeasures,
            apply: permute_columns,
        },
        Mutator {
            name: "case-fold",
            invariant: Invariant::IdenticalMeasures,
            apply: case_fold,
        },
        Mutator {
            name: "comment-churn",
            invariant: Invariant::IdenticalMeasures,
            apply: comment_churn,
        },
        Mutator {
            name: "whitespace-churn",
            invariant: Invariant::IdenticalMeasures,
            apply: whitespace_churn,
        },
        Mutator {
            name: "noop-ddl-version",
            invariant: Invariant::IdenticalMeasures,
            apply: noop_ddl_version,
        },
        Mutator {
            name: "split-commit",
            invariant: Invariant::IdenticalMeasures,
            apply: split_commit,
        },
        Mutator {
            name: "merge-commits",
            invariant: Invariant::IdenticalMeasures,
            apply: merge_commits,
        },
        Mutator {
            name: "shift-time",
            invariant: Invariant::IdenticalMeasures,
            apply: shift_time,
        },
        Mutator {
            name: "scale-time",
            invariant: Invariant::IdenticalTotals,
            apply: scale_time,
        },
    ];
    MUTATORS
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// In-place Fisher–Yates (the vendored rand has no `shuffle`).
fn shuffle<T>(xs: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

/// Rewrite every DDL version through a schema-model transformation,
/// reprinting with the project's own dialect. Versions that fail to parse
/// are left untouched (the pipeline will report them itself).
fn map_schemas(
    p: &mut ProjectArtifacts,
    rng: &mut ChaCha8Rng,
    mut f: impl FnMut(&mut Schema, &mut ChaCha8Rng) -> bool,
) -> bool {
    let mut changed = false;
    for (_, text) in &mut p.ddl_versions {
        let Ok(mut schema) = parse_schema(text, p.dialect) else { continue };
        if f(&mut schema, rng) {
            *text = print_schema(&schema, p.dialect);
            changed = true;
        }
    }
    changed
}

/// Parse → transform → re-render the git log. Returns false when the log is
/// unparsable or the transform declines.
fn map_repo(
    p: &mut ProjectArtifacts,
    rng: &mut ChaCha8Rng,
    f: impl FnOnce(&mut Repository, &mut ChaCha8Rng) -> bool,
) -> bool {
    let Ok(mut repo) = parse_log(&p.git_log) else { return false };
    if !f(&mut repo, rng) {
        return false;
    }
    p.git_log = write_log(&repo);
    true
}

// ---------------------------------------------------------------------------
// Schema-text mutators
// ---------------------------------------------------------------------------

/// Reorder `CREATE TABLE` statements. Tables are matched by name, so
/// declaration order carries no signal.
fn permute_tables(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    map_schemas(p, rng, |schema, rng| {
        if schema.tables.len() < 2 {
            return false;
        }
        shuffle(&mut schema.tables, rng);
        true
    })
}

/// Reorder column declarations within each table. Columns are matched by
/// case-folded name, so position carries no signal.
fn permute_columns(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    map_schemas(p, rng, |schema, rng| {
        let mut any = false;
        for t in schema.tables.iter_mut().map(Arc::make_mut) {
            if t.columns.len() >= 2 {
                shuffle(&mut t.columns, rng);
                any = true;
            }
        }
        any
    })
}

/// Case-fold every identifier (tables, columns, constraint and index names
/// and their column references) with one style for the whole history.
/// Identifier matching is case-insensitive end to end, so a consistent
/// refold is rename-preserving: every cross-version match survives.
fn case_fold(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    let upper = rng.gen_bool(0.5);
    let fold = move |s: &mut Ident| {
        let refolded = if upper {
            s.to_ascii_uppercase()
        } else {
            // Title-case: first byte upper, rest lower.
            let lower = s.to_ascii_lowercase();
            let mut out = String::with_capacity(lower.len());
            let mut chars = lower.chars();
            if let Some(c) = chars.next() {
                out.push(c.to_ascii_uppercase());
            }
            out.extend(chars);
            out
        };
        *s = Ident::new(&refolded);
    };
    map_schemas(p, rng, |schema, _| {
        for t in schema.tables.iter_mut().map(Arc::make_mut) {
            fold(&mut t.name);
            for c in &mut t.columns {
                fold(&mut c.name);
            }
            for con in &mut t.constraints {
                match con {
                    TableConstraint::PrimaryKey { name, columns }
                    | TableConstraint::Unique { name, columns } => {
                        if let Some(n) = name {
                            fold(n);
                        }
                        columns.iter_mut().for_each(&fold);
                    }
                    TableConstraint::ForeignKey(fk) => {
                        if let Some(n) = &mut fk.name {
                            fold(n);
                        }
                        fk.columns.iter_mut().for_each(&fold);
                        fold(&mut fk.foreign_table);
                        fk.foreign_columns.iter_mut().for_each(&fold);
                    }
                    TableConstraint::Check { .. } => {}
                }
            }
            for idx in &mut t.indexes {
                if let Some(n) = &mut idx.name {
                    fold(n);
                }
                idx.columns.iter_mut().for_each(&fold);
            }
        }
        true
    })
}

/// Sprinkle `--` comment lines through every version text. Comments are
/// lexer whitespace; nothing downstream may notice.
fn comment_churn(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    for (i, (_, text)) in p.ddl_versions.iter_mut().enumerate() {
        let mut out = String::with_capacity(text.len() + 64);
        out.push_str(&format!("-- churn header v{i}\n"));
        for (k, line) in text.lines().enumerate() {
            if rng.gen_bool(0.25) {
                out.push_str(&format!("-- churn {k}\n"));
            }
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("-- churn footer\n");
        *text = out;
    }
    !p.ddl_versions.is_empty()
}

/// Add blank lines and trailing spaces after statement-safe line endings.
fn whitespace_churn(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    for (_, text) in &mut p.ddl_versions {
        let mut out = String::with_capacity(text.len() + 64);
        for line in text.lines() {
            out.push_str(line);
            let end = line.trim_end().chars().last();
            if matches!(end, Some(';' | ',' | '(')) && rng.gen_bool(0.4) {
                out.push_str("  ");
            }
            out.push('\n');
            if rng.gen_bool(0.2) {
                out.push('\n');
            }
        }
        out.push('\n');
        *text = out;
    }
    !p.ddl_versions.is_empty()
}

/// One second later, if that stays within the same day (and hence month)
/// and strictly inside the version ordering.
fn plus_one_second(dt: &DateTime) -> Option<DateTime> {
    if (dt.hour, dt.minute, dt.second) == (23, 59, 59) {
        return None;
    }
    let (mut h, mut m, mut s) = (dt.hour, dt.minute, dt.second + 1);
    if s == 60 {
        s = 0;
        m += 1;
    }
    if m == 60 {
        m = 0;
        h += 1;
    }
    let mut out = DateTime::new(dt.date, h, m, s).ok()?;
    out.utc_offset_minutes = dt.utc_offset_minutes;
    Some(out)
}

/// Duplicate one version's text one second later: a no-op DDL commit. The
/// duplicate is byte-identical and lands in the same month, so neither the
/// activity series nor any measure may move.
fn noop_ddl_version(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    let n = p.ddl_versions.len();
    let sites: Vec<usize> = (0..n)
        .filter(|&i| {
            let Some(bumped) = plus_one_second(&p.ddl_versions[i].0) else { return false };
            match p.ddl_versions.get(i + 1) {
                Some((next, _)) => next.unix_seconds() > bumped.unix_seconds(),
                None => true,
            }
        })
        .collect();
    if sites.is_empty() {
        return false;
    }
    let i = sites[rng.gen_range(0..sites.len())];
    let (date, text) = p.ddl_versions[i].clone();
    let bumped = plus_one_second(&date).expect("site was validated");
    p.ddl_versions.insert(i + 1, (bumped, text));
    true
}

// ---------------------------------------------------------------------------
// Git-log mutators
// ---------------------------------------------------------------------------

/// Split one multi-file commit into two commits at the same timestamp. The
/// monthly heartbeat counts files updated per month, so the split is
/// invisible.
fn split_commit(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    map_repo(p, rng, |repo, rng| {
        let candidates: Vec<usize> =
            (0..repo.commits.len()).filter(|&i| repo.commits[i].changes.len() >= 2).collect();
        if candidates.is_empty() {
            return false;
        }
        let i = candidates[rng.gen_range(0..candidates.len())];
        let orig = repo.commits[i].clone();
        let k = rng.gen_range(1..orig.changes.len());
        let first = Commit::builder(&orig.author, orig.date)
            .message(&orig.message)
            .changes(orig.changes[..k].iter().cloned())
            .build();
        let second = Commit::builder(&orig.author, orig.date)
            .message("split remainder")
            .changes(orig.changes[k..].iter().cloned())
            .build();
        repo.commits[i] = first;
        repo.commits.insert(i + 1, second);
        true
    })
}

/// Merge two adjacent same-month commits into one. Total files updated per
/// month is unchanged, so the heartbeat (and everything downstream) is too.
fn merge_commits(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    map_repo(p, rng, |repo, rng| {
        let candidates: Vec<usize> = (0..repo.commits.len().saturating_sub(1))
            .filter(|&i| {
                YearMonth::of(repo.commits[i].date.date)
                    == YearMonth::of(repo.commits[i + 1].date.date)
            })
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let i = candidates[rng.gen_range(0..candidates.len())];
        let a = repo.commits[i].clone();
        let b = repo.commits.remove(i + 1);
        let merged = Commit::builder(&a.author, a.date)
            .message(&a.message)
            .changes(a.changes.iter().cloned().chain(b.changes.iter().cloned()))
            .build();
        repo.commits[i] = merged;
        true
    })
}

/// Re-date every event (DDL version and commit) onto a new month axis.
///
/// `month_map` maps each source month to its target month and must be
/// strictly increasing over the months that occur. Within a target month,
/// events keep their source order but are re-dated to day 1 at consecutive
/// seconds. The pipeline only ever reads an event's *month* and the
/// *relative order* of versions, so the re-dating itself is
/// measure-neutral; this sidesteps the day-of-month hazards of calendar
/// arithmetic (a day-29 event and a day-28 event clamped into a shorter
/// month would otherwise swap).
fn redate_history(
    p: &mut ProjectArtifacts,
    month_map: impl Fn(YearMonth) -> YearMonth,
) -> bool {
    let Ok(mut repo) = parse_log(&p.git_log) else { return false };
    // (unix, stream, index) orders events globally; the stream tag keeps
    // version/commit interleaving deterministic on unix-second ties.
    let mut events: Vec<(i64, u8, usize)> = p
        .ddl_versions
        .iter()
        .enumerate()
        .map(|(i, (d, _))| (d.unix_seconds(), 0, i))
        .chain(repo.commits.iter().enumerate().map(|(i, c)| (c.date.unix_seconds(), 1, i)))
        .collect();
    events.sort_unstable();
    if events.len() >= 86_400 {
        return false; // cannot fit one month's events into day 1
    }

    let mut ranks: std::collections::HashMap<(i32, u8), u32> = std::collections::HashMap::new();
    for (_, stream, index) in events {
        let dt = match stream {
            0 => &p.ddl_versions[index].0,
            _ => &repo.commits[index].date,
        };
        let ym = YearMonth::of(dt.date);
        let rank = ranks.entry((ym.year, ym.month)).or_insert(0);
        let r = *rank;
        *rank += 1;
        let (h, mi, s) = ((r / 3600) as u8, ((r / 60) % 60) as u8, (r % 60) as u8);
        let mut out = DateTime::new(month_map(ym).first_day(), h, mi, s)
            .expect("rank < 86400 is a valid time of day");
        out.utc_offset_minutes = dt.utc_offset_minutes;
        match stream {
            0 => p.ddl_versions[index].0 = out,
            _ => repo.commits[index].date = out,
        }
    }
    p.git_log = write_log(&repo);
    true
}

/// Translate the whole history — every commit and every DDL version — by
/// the same number of months. All measures are calendar-free, so nothing
/// may move.
fn shift_time(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    let k = rng.gen_range(1i64..=24);
    redate_history(p, |ym| ym.plus(k))
}

/// Stretch the month axis by an integer factor about the history's first
/// month. Every month-indexed measure legitimately moves (the axis
/// stretched), but activity is conserved: both Total Activities and the
/// pre-assigned taxon must survive bit-for-bit.
fn scale_time(p: &mut ProjectArtifacts, rng: &mut ChaCha8Rng) -> bool {
    let k = rng.gen_range(2i64..=3);
    let Ok(repo) = parse_log(&p.git_log) else { return false };
    let months: Vec<YearMonth> = p
        .ddl_versions
        .iter()
        .map(|(d, _)| YearMonth::of(d.date))
        .chain(repo.commits.iter().map(|c| YearMonth::of(c.date.date)))
        .collect();
    let Some(origin) = months.iter().min().copied() else { return false };
    let span = months.iter().map(|ym| ym.months_since(&origin)).max().unwrap_or(0);
    if span == 0 {
        return false; // single-month history: scaling is the identity
    }
    redate_history(p, |ym| origin.plus(ym.months_since(&origin) * k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_corpus::{generate_corpus, CorpusSpec};

    fn sample() -> Vec<ProjectArtifacts> {
        generate_corpus(&CorpusSpec::paper().with_per_taxon(1))
            .iter()
            .map(ProjectArtifacts::from_generated)
            .collect()
    }

    #[test]
    fn registry_has_at_least_eight_named_mutators() {
        let names: Vec<&str> = all_mutators().iter().map(|m| m.name).collect();
        assert!(names.len() >= 8, "{names:?}");
        let dedup: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(dedup.len(), names.len(), "duplicate mutator names");
        for name in names {
            assert!(Mutator::by_name(name).is_some());
        }
    }

    #[test]
    fn mutators_are_deterministic_under_a_seed() {
        for p in sample() {
            for m in all_mutators() {
                let mut a = p.clone();
                let mut b = p.clone();
                assert_eq!(
                    m.apply_seeded(&mut a, 42),
                    m.apply_seeded(&mut b, 42),
                    "{}",
                    m.name
                );
                assert_eq!(a, b, "{} must be deterministic on {}", m.name, p.name);
            }
        }
    }

    #[test]
    fn mutators_apply_to_generated_projects() {
        // Every mutator must be applicable to (and actually change) at
        // least one project of the 6-project sample.
        let projects = sample();
        for m in all_mutators() {
            let mut hit = false;
            for p in &projects {
                let mut q = p.clone();
                if m.apply_seeded(&mut q, 7) {
                    assert_ne!(&q, p, "{} claimed change but left {} intact", m.name, p.name);
                    hit = true;
                }
            }
            assert!(hit, "{} never applied", m.name);
        }
    }

    #[test]
    fn mutated_histories_stay_well_formed() {
        for p in sample() {
            for m in all_mutators() {
                let mut q = p.clone();
                if !m.apply_seeded(&mut q, 11) {
                    continue;
                }
                parse_log(&q.git_log).unwrap_or_else(|e| {
                    panic!("{} broke the git log of {}: {e:?}", m.name, p.name)
                });
                for (i, (_, text)) in q.ddl_versions.iter().enumerate() {
                    parse_schema(text, q.dialect)
                        .unwrap_or_else(|e| panic!("{} broke {} v{i}: {e:?}", m.name, p.name));
                }
                for w in q.ddl_versions.windows(2) {
                    assert!(
                        w[0].0.unix_seconds() < w[1].0.unix_seconds(),
                        "{} broke version ordering of {}",
                        m.name,
                        p.name
                    );
                }
            }
        }
    }
}
