//! Generating one project: an evolving DDL history plus a source repository
//! whose commit stream matches the taxon's generative parameters.

use crate::schema_gen::EvolvingSchema;
use crate::spec::TaxonSpec;
use coevo_ddl::{print_schema, Dialect};
use coevo_heartbeat::{Date, DateTime, YearMonth};
use coevo_vcs::{Commit, FileChange, Repository};
use rand::Rng;

/// Canonical path of the schema DDL file in generated repositories.
pub const SCHEMA_PATH: &str = "db/schema.sql";

const SOURCE_DIRS: &[&str] = &["src", "lib", "app", "server", "web", "api", "scripts", "test"];
const SOURCE_EXTS: &[&str] = &["js", "py", "rb", "go", "java", "php", "ts", "css", "html"];
const OWNERS: &[&str] =
    &["mapbox", "acme", "dbworks", "openkit", "nightowl", "redstack", "plasma", "quartz"];
const AUTHORS: &[&str] = &[
    "Alice Doe <alice@example.org>",
    "Bob Ray <bob@example.org>",
    "Carol Im <carol@example.org>",
    "Dave Xu <dave@example.org>",
];

/// One generated project: the DDL version history, the repository, and the
/// labels the study needs.
#[derive(Debug, Clone)]
pub struct RawProject {
    /// The name, as written in the source.
    pub name: String,
    /// The evolution taxon.
    pub taxon: coevo_taxa::Taxon,
    /// The SQL dialect.
    pub dialect: Dialect,
    /// Dated DDL texts, oldest first (version 0 = file creation).
    pub ddl_versions: Vec<(DateTime, String)>,
    /// The repo.
    pub repo: Repository,
}

/// A scheduled schema change: month index and activity budget.
#[derive(Debug, Clone, Copy)]
struct ScheduledChange {
    month: usize,
    budget: u64,
}

/// Generate one project under the given taxon spec.
pub fn generate_project<R: Rng>(rng: &mut R, spec: &TaxonSpec, index: usize) -> RawProject {
    let duration = if index < spec.single_month_count {
        1
    } else {
        rng.gen_range(spec.duration_months.0..=spec.duration_months.1).max(1)
    };
    let dialect = if rng.gen_bool(0.62) { Dialect::MySql } else { Dialect::Postgres };
    let start = YearMonth::new(rng.gen_range(2008..=2016), rng.gen_range(1..=12) as u8)
        .expect("month in range");
    let name = format!(
        "{}/{}-{}",
        OWNERS[rng.gen_range(0..OWNERS.len())],
        spec.taxon.slug().replace('_', "-"),
        index
    );

    // The DDL file may be born after the project (the paper's non-eligible
    // "always in advance" cases).
    let schema_birth_month = if duration > 3 && rng.gen_bool(spec.schema_birth_delay_prob) {
        // At least two months after the project's birth: the advance
        // measures skip the creation month, so a 1-month delay would
        // quantize away.
        ((frac_to_month(rng, spec.schema_birth_delay_range, duration)).max(2)).min(duration - 2)
    } else {
        0
    };

    // ---- schema history -------------------------------------------------
    // "Grow-as-you-go" projects start from a small stub schema and collect
    // most of their structure during life; front-defined projects start with
    // their near-final schema and tweak.
    let grower = rng.gen_bool(spec.grower_prob.clamp(0.0, 1.0));
    let (init_tables, init_cols, change_exp, size_mult) = if grower {
        // Exponent < 1 skews change times late: growers accumulate schema
        // structure across (and towards the end of) their lives.
        (
            (1usize, 3usize),
            (2usize, 4usize),
            (spec.change_time_exponent * 0.4).clamp(0.72, 1.0),
            2,
        )
    } else {
        (spec.initial_tables, spec.initial_cols, spec.change_time_exponent, 1)
    };
    let tables = rng.gen_range(init_tables.0..=init_tables.1);
    let mut schema =
        EvolvingSchema::initial(rng, tables.max(1), init_cols.0.max(1), init_cols.1.max(1));

    // Schema change times live in the life span after the schema's birth.
    let change_span = (duration - schema_birth_month) as f64;
    let mut changes: Vec<ScheduledChange> = Vec::new();
    let n_changes = rng.gen_range(spec.change_events.0..=spec.change_events.1);
    for _ in 0..n_changes {
        let u: f64 = rng.gen_range(0.0..1.0);
        let frac = u.powf(change_exp);
        let month = schema_birth_month
            + ((frac * change_span) as usize).min(duration - 1 - schema_birth_month);
        let budget =
            size_mult * rng.gen_range(spec.change_size.0.max(1)..=spec.change_size.1.max(1));
        changes.push(ScheduledChange { month, budget });
    }
    let n_spikes = rng.gen_range(spec.spikes.0..=spec.spikes.1);
    for _ in 0..n_spikes {
        // Spike times squared toward the early end of their window.
        let u: f64 = rng.gen_range(0.0..1.0);
        let frac = spec.spike_time_range.0
            + u * u * (spec.spike_time_range.1 - spec.spike_time_range.0);
        let month = schema_birth_month
            + ((frac * change_span) as usize).min(duration - 1 - schema_birth_month);
        let budget = rng.gen_range(spec.spike_size.0.max(1)..=spec.spike_size.1.max(1));
        changes.push(ScheduledChange { month, budget });
    }
    changes.sort_by_key(|c| c.month);

    // Emit version texts: version 0 at the schema's birth month, then one
    // version per change commit.
    let project_birth_date = date_in_month(rng, start, 0, duration);
    let schema_birth_date = if schema_birth_month == 0 {
        project_birth_date
    } else {
        date_in_month(rng, start, schema_birth_month, duration)
    };
    let mut ddl_versions: Vec<(DateTime, String)> = Vec::new();
    ddl_versions.push((schema_birth_date, print_schema(&schema.schema, dialect)));
    let mut schema_commit_dates: Vec<DateTime> = vec![schema_birth_date];
    let mut last_date = schema_birth_date;
    for ch in &changes {
        schema.spend_budget(rng, ch.budget);
        let mut date = date_in_month(rng, start, ch.month, duration);
        // Keep version dates strictly increasing.
        if date.unix_seconds() <= last_date.unix_seconds() {
            date = bump_seconds(last_date, 3600 + rng.gen_range(0..86_400));
        }
        last_date = date;
        ddl_versions.push((date, print_schema(&schema.schema, dialect)));
        schema_commit_dates.push(date);
    }

    // ---- source repository ----------------------------------------------
    let mut repo = Repository::new(&name);
    let rate = rng.gen_range(spec.commits_per_month.0..=spec.commits_per_month.1);
    let total_commits = ((duration as f64 * rate) as usize).max(2);
    let exponent = rng.gen_range(spec.project_time_exponent.0..=spec.project_time_exponent.1);

    // Commit dates: front-loaded via the exponent, plus pinned commits at
    // birth and in the final month so the project's lifetime spans the
    // intended duration.
    let mut commit_dates: Vec<DateTime> = Vec::with_capacity(total_commits + 2);
    commit_dates.push(project_birth_date);
    let event_months: Vec<usize> = changes.iter().map(|c| c.month).collect();
    for _ in 0..total_commits {
        // A coupled fraction of source commits clusters in schema-event
        // months (development bursts around schema changes).
        let month = if !event_months.is_empty()
            && rng.gen_bool(spec.source_burst_coupling.clamp(0.0, 1.0))
        {
            event_months[rng.gen_range(0..event_months.len())]
        } else {
            let u: f64 = rng.gen_range(0.0..1.0);
            let frac = u.powf(exponent);
            ((frac * duration as f64) as usize).min(duration - 1)
        };
        commit_dates.push(date_in_month(rng, start, month, duration));
    }
    commit_dates.push(date_in_month(rng, start, duration - 1, duration));
    commit_dates.sort();
    commit_dates.dedup_by(|a, b| a.unix_seconds() == b.unix_seconds());

    for (ci, &date) in commit_dates.iter().enumerate() {
        let mut b = Commit::builder(AUTHORS[rng.gen_range(0..AUTHORS.len())], date)
            .message(commit_message(rng, ci));
        if ci == 0 {
            // Repository birth: initial sources (plus the schema file when
            // it is born with the project).
            if schema_birth_month == 0 {
                b = b.change(FileChange::added(SCHEMA_PATH));
            }
            let n = rng.gen_range(2..=spec.files_per_commit.1.max(2));
            for k in 0..n {
                b = b.change(FileChange::added(source_path(rng, k)));
            }
            repo.push_commit(b.build());
            continue;
        }
        let n = rng.gen_range(spec.files_per_commit.0.max(1)..=spec.files_per_commit.1.max(1));
        for k in 0..n {
            b = b.change(FileChange::modified(source_path(rng, k)));
        }
        repo.push_commit(b.build());
    }

    // Schema commits: the birth commit (when delayed, the file is Added
    // mid-life) and one commit per later version, usually with source
    // co-changes.
    for (vi, &date) in schema_commit_dates.iter().enumerate() {
        if vi == 0 && schema_birth_month == 0 {
            continue; // already part of the repository birth commit
        }
        let mut b = Commit::builder(AUTHORS[rng.gen_range(0..AUTHORS.len())], date)
            .message(if vi == 0 { "add database schema" } else { "update schema" });
        b = b.change(if vi == 0 {
            FileChange::added(SCHEMA_PATH)
        } else {
            FileChange::modified(SCHEMA_PATH)
        });
        let co_changes = rng.gen_range(0..=3);
        for k in 0..co_changes {
            b = b.change(FileChange::modified(source_path(rng, k)));
        }
        repo.push_commit(b.build());
    }
    repo.commits.sort_by_key(|c| c.date.unix_seconds());

    RawProject { name, taxon: spec.taxon, dialect, ddl_versions, repo }
}

/// Draw a life fraction uniformly from `range` and quantize to a month.
fn frac_to_month<R: Rng>(rng: &mut R, range: (f64, f64), duration: usize) -> usize {
    let frac = rng.gen_range(range.0..=range.1);
    (frac * duration as f64) as usize
}

/// A date in month `month_idx` (0-based) of a project starting at `start`.
fn date_in_month<R: Rng>(
    rng: &mut R,
    start: YearMonth,
    month_idx: usize,
    _duration: usize,
) -> DateTime {
    let ym = start.plus(month_idx as i64);
    let day = rng.gen_range(1..=28u8);
    let date = Date::new(ym.year, ym.month, day).expect("day ≤ 28 always valid");
    DateTime::new(
        date,
        rng.gen_range(0..24) as u8,
        rng.gen_range(0..60) as u8,
        rng.gen_range(0..60) as u8,
    )
    .expect("valid time")
}

fn bump_seconds(dt: DateTime, secs: i64) -> DateTime {
    let total = dt.unix_seconds() + secs;
    let days = total.div_euclid(86_400);
    let rem = total.rem_euclid(86_400);
    DateTime::new(
        Date::from_days_from_epoch(days),
        (rem / 3600) as u8,
        ((rem / 60) % 60) as u8,
        (rem % 60) as u8,
    )
    .expect("valid time")
}

fn source_path<R: Rng>(rng: &mut R, salt: usize) -> String {
    format!(
        "{}/{}_{}.{}",
        SOURCE_DIRS[rng.gen_range(0..SOURCE_DIRS.len())],
        "module",
        rng.gen_range(0..40) + salt,
        SOURCE_EXTS[rng.gen_range(0..SOURCE_EXTS.len())],
    )
}

fn commit_message<R: Rng>(rng: &mut R, i: usize) -> String {
    const VERBS: &[&str] = &["fix", "add", "refactor", "improve", "clean up", "extend"];
    const NOUNS: &[&str] =
        &["parser", "api", "tests", "docs", "build", "config", "ui", "handler"];
    if i == 0 {
        "initial import".to_string()
    } else {
        format!(
            "{} {}",
            VERBS[rng.gen_range(0..VERBS.len())],
            NOUNS[rng.gen_range(0..NOUNS.len())]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::paper_spec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn generates_all_taxa() {
        let mut r = rng(7);
        for spec in paper_spec() {
            let p = generate_project(&mut r, &spec, 0);
            assert_eq!(p.taxon, spec.taxon);
            assert!(!p.ddl_versions.is_empty());
            assert!(p.repo.commits.len() >= 2);
            // Version count = 1 (birth) + changes + spikes.
            let expected_min = 1 + spec.change_events.0 + spec.spikes.0;
            let expected_max = 1 + spec.change_events.1 + spec.spikes.1;
            assert!(
                (expected_min..=expected_max).contains(&p.ddl_versions.len()),
                "{}: {} versions",
                spec.taxon,
                p.ddl_versions.len()
            );
        }
    }

    #[test]
    fn version_dates_strictly_increase() {
        let mut r = rng(11);
        for spec in paper_spec() {
            for i in 0..3 {
                let p = generate_project(&mut r, &spec, i);
                for w in p.ddl_versions.windows(2) {
                    assert!(w[0].0.unix_seconds() < w[1].0.unix_seconds());
                }
            }
        }
    }

    #[test]
    fn repo_commits_are_ordered_and_first_adds_schema() {
        let mut r = rng(13);
        let spec = &paper_spec()[3]; // Moderate
        let p = generate_project(&mut r, spec, 0);
        for w in p.repo.commits.windows(2) {
            assert!(w[0].date.unix_seconds() <= w[1].date.unix_seconds());
        }
        assert!(p.repo.commits[0].touches(SCHEMA_PATH));
        // Schema-change commits exist for every later version.
        let schema_commits = p.repo.commits_touching(SCHEMA_PATH).count();
        assert!(schema_commits >= p.ddl_versions.len());
    }

    #[test]
    fn ddl_versions_parse_in_declared_dialect() {
        let mut r = rng(17);
        for spec in paper_spec() {
            let p = generate_project(&mut r, &spec, 0);
            for (_, text) in &p.ddl_versions {
                coevo_ddl::parse_schema(text, p.dialect).expect("generated DDL parses");
            }
        }
    }

    #[test]
    fn determinism() {
        let spec = &paper_spec()[1];
        let a = generate_project(&mut rng(99), spec, 5);
        let b = generate_project(&mut rng(99), spec, 5);
        assert_eq!(a.name, b.name);
        assert_eq!(a.ddl_versions, b.ddl_versions);
        assert_eq!(a.repo, b.repo);
    }
}
