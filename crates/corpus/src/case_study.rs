//! A scripted replica of the paper's case study (§3.3):
//! `mapbox/osm-comments-parser`.
//!
//! The published facts this history reproduces:
//! - project update period 22 months, schema update period 20 months;
//! - 119 commits, 259 file updates;
//! - 13 schema commits, of which 9 active;
//! - the schema starts with **48% of its change at start-up**, stabilizes
//!   until about half the project's life, then attains 50% of schema change
//!   at ≈55% of life and 80% at ≈68% of life, with two flat-line periods
//!   connected by a period of incremental change;
//! - 10%-synchronicity around 43% of the months.

use crate::project_gen::SCHEMA_PATH;
use crate::schema_gen::EvolvingSchema;
use coevo_ddl::{print_schema, Dialect};
use coevo_heartbeat::{Date, DateTime};
use coevo_vcs::{write_log, Commit, FileChange, Repository};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The case-study project as raw artifacts (git log text + DDL versions),
/// ready for the measurement pipeline.
pub struct CaseStudy {
    /// The name, as written in the source.
    pub name: &'static str,
    /// `git log --name-status --no-merges --date=iso` text.
    pub git_log: String,
    /// Dated DDL texts, oldest first.
    pub ddl_versions: Vec<(DateTime, String)>,
    /// The SQL dialect.
    pub dialect: Dialect,
}

/// Commits per month, months 0..=21 (sums to 119).
const COMMITS_PER_MONTH: [usize; 22] =
    [10, 9, 8, 8, 7, 7, 6, 5, 5, 4, 4, 4, 5, 5, 5, 3, 3, 4, 4, 5, 4, 4];

/// Schema events: (month, commit-of-month, activity budget).
/// Zero-budget entries are the inactive schema commits (file touched, no
/// logical change). Totals: 13 schema commits, 9 active (birth + 8),
/// post-birth activity 13 on top of a 12-attribute initial schema → the
/// birth carries 12/25 = 48% of all schema activity.
const SCHEMA_EVENTS: [(usize, usize, u64); 12] = [
    (3, 0, 0), // inactive
    (7, 0, 0), // inactive
    (12, 0, 1),
    (12, 1, 1),
    (13, 0, 2),
    (13, 1, 1),
    (14, 0, 2),
    (14, 1, 1),
    (16, 0, 2),
    (17, 0, 0), // inactive
    (19, 0, 3),
    (19, 1, 0), // inactive
];

/// Build the scripted case-study artifacts. Deterministic: the schema
/// mutations draw from a fixed ChaCha stream.
pub fn case_study_project() -> CaseStudy {
    let start = Date::new(2015, 2, 1).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0x0905_2015);

    // Initial schema: 3 tables × 4 columns = 12 attributes (48% of the 25
    // total activity units this history accumulates).
    let mut schema = EvolvingSchema::initial(&mut rng, 3, 4, 4);
    assert_eq!(schema.attribute_count(), 12);

    let dialect = Dialect::Postgres; // the real project stored into Postgres
    let mut ddl_versions: Vec<(DateTime, String)> = Vec::new();
    let mut repo = Repository::new("mapbox/osm-comments-parser");

    let mut schema_events = SCHEMA_EVENTS.iter().peekable();
    let mut extra_file_budget = 259usize - 119 * 2; // commits with a 3rd file

    for (month, &commits) in COMMITS_PER_MONTH.iter().enumerate() {
        for k in 0..commits {
            // Deterministic intra-month spacing keeps dates increasing.
            let day = (1 + k * 27 / commits.max(1)).min(27) as u8 + 1;
            let date = DateTime::new(
                Date::new(
                    start.year + ((start.month as usize - 1 + month) / 12) as i32,
                    ((start.month as usize - 1 + month) % 12) as u8 + 1,
                    day,
                )
                .unwrap(),
                10,
                (k % 60) as u8,
                0,
            )
            .unwrap();

            let is_schema_commit = matches!(
                schema_events.peek(),
                Some(&&(m, c, _)) if m == month && c == k
            );
            let is_birth = month == 0 && k == 0;

            let mut b =
                Commit::builder("OSM Dev <osm@mapbox.example>", date).message(if is_birth {
                    "initial import"
                } else if is_schema_commit {
                    "update schema"
                } else {
                    "work on parsers"
                });

            // File payload: 2 files per commit, 3 for the first
            // `extra_file_budget` non-birth commits (total = 259).
            let mut files = 2usize;
            if !is_birth && extra_file_budget > 0 {
                files = 3;
                extra_file_budget -= 1;
            }
            if is_birth {
                b = b.change(FileChange::added(SCHEMA_PATH));
                b = b.change(FileChange::added("parsers/notes.js"));
                ddl_versions.push((date, print_schema(&schema.schema, dialect)));
            } else if is_schema_commit {
                let (_, _, budget) = **schema_events.peek().unwrap();
                schema_events.next();
                if budget > 0 {
                    schema.spend_budget(&mut rng, budget);
                }
                b = b.change(FileChange::modified(SCHEMA_PATH));
                for f in 1..files {
                    b = b.change(FileChange::modified(format!("parsers/mod_{month}_{f}.js")));
                }
                ddl_versions.push((date, print_schema(&schema.schema, dialect)));
            } else {
                for f in 0..files {
                    b = b.change(FileChange::modified(format!(
                        "parsers/file_{}_{}.js",
                        (month * 7 + k) % 23,
                        f
                    )));
                }
            }
            repo.push_commit(b.build());
        }
    }

    CaseStudy {
        name: "mapbox/osm-comments-parser",
        git_log: write_log(&repo),
        ddl_versions,
        dialect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_core::synchronicity::theta_synchronicity;
    use coevo_core::ProjectData;
    use coevo_diff::SchemaHistory;
    use coevo_vcs::monthly::{project_heartbeat, repo_stats};
    use coevo_vcs::parse_log;

    /// The case study measured by the library calls the engine's pipeline
    /// makes (this crate cannot depend on the engine).
    fn measured() -> ProjectData {
        let cs = case_study_project();
        let repo = parse_log(&cs.git_log).unwrap();
        let history = SchemaHistory::from_ddl_texts(
            cs.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
            cs.dialect,
        )
        .unwrap()
        .unwrap();
        let birth_activity = history.deltas()[0].breakdown.total();
        let project_hb = project_heartbeat(&repo).unwrap();
        ProjectData::new(cs.name, project_hb, history.heartbeat(), birth_activity)
    }

    #[test]
    fn headline_counts_match_paper() {
        let cs = case_study_project();
        let repo = parse_log(&cs.git_log).unwrap();
        let stats = repo_stats(&repo, SCHEMA_PATH);
        assert_eq!(stats.commits, 119, "total commits");
        assert_eq!(stats.file_updates, 259, "total file updates");
        assert_eq!(stats.path_commits, 13, "schema commits");
        assert_eq!(cs.ddl_versions.len(), 13);
    }

    #[test]
    fn schema_activity_profile_matches_paper() {
        let data = measured();
        // 22-month project, 20-month schema update period.
        let jp = data.joint_progress();
        assert_eq!(jp.months(), 22);
        assert_eq!(data.schema.months(), 20);
        // Birth carries 48% of total schema activity.
        assert_eq!(data.birth_activity, 12);
        assert_eq!(data.schema.total(), 25);
        assert!((jp.schema[0] - 0.48).abs() < 1e-9);
        // 9 active schema commits (bursts of activity), 13 versions.
        let active_months = data.schema.active_months();
        assert_eq!(active_months, 6); // m0, m12, m13, m14, m16, m19
    }

    #[test]
    fn attainment_matches_paper_narrative() {
        let data = measured();
        let m = data.measures(&coevo_taxa::TaxonomyConfig::default());
        // "50% of the schema changes at 55% of its life" (we measure 12/21).
        let a50 = m.attainment.at_50.unwrap();
        assert!((a50 - 0.55).abs() < 0.05, "50% attainment at {a50}");
        // "80% of the schema changes at 68% of its life" (we measure 14/21).
        let a80 = m.attainment.at_80.unwrap();
        assert!((a80 - 0.68).abs() < 0.05, "80% attainment at {a80}");
    }

    #[test]
    fn synchronicity_in_paper_ballpark() {
        let data = measured();
        let jp = data.joint_progress();
        let sync = theta_synchronicity(&jp.project, &jp.schema, 0.10);
        // Paper: close for 43% of the time.
        assert!((0.30..=0.60).contains(&sync), "sync10 = {sync}");
    }

    #[test]
    fn active_commit_count_matches() {
        let cs = case_study_project();
        let history = coevo_diff::SchemaHistory::from_ddl_texts(
            cs.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
            cs.dialect,
        )
        .unwrap()
        .unwrap();
        assert_eq!(history.commits(), 13);
        assert_eq!(history.active_commits(), 9);
    }
}
