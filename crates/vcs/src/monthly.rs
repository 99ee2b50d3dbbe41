//! Monthly activity extraction: from a repository to the study's heartbeats.

use crate::model::Repository;
use crate::parse::CommitActivity;
use coevo_heartbeat::{Date, Heartbeat};

/// The **Project (Monthly) Heartbeat**: number of files updated per month
/// across all non-merge commits. Returns `None` for a repository with no
/// commits.
pub fn project_heartbeat(repo: &Repository) -> Option<Heartbeat> {
    Heartbeat::from_events(repo.non_merge_commits().map(|c| (c.date.date, c.files_updated())))
}

/// [`project_heartbeat`] from a [`commit_activity`](crate::commit_activity)
/// fold: the same series, without the [`Repository`].
pub fn activity_heartbeat(commits: &[CommitActivity]) -> Option<Heartbeat> {
    Heartbeat::from_events(
        commits.iter().filter(|c| !c.is_merge).map(|c| (c.date.date, c.files_updated)),
    )
}

/// Like [`project_heartbeat`] but counting line churn (insertions +
/// deletions) instead of file counts — the finer unit of change from the
/// paper's future-work section. Commits lacking numstat data contribute
/// their file count as a fallback so mixed histories stay measurable.
pub fn project_heartbeat_lines(repo: &Repository) -> Option<Heartbeat> {
    Heartbeat::from_events(
        repo.non_merge_commits()
            .map(|c| (c.date.date, c.line_churn().unwrap_or_else(|| c.files_updated()))),
    )
}

/// The dates of the commits that touched a specific path (e.g. the schema
/// DDL file), oldest first — the raw material of a schema history.
pub fn file_touch_dates(repo: &Repository, path: &str) -> Vec<Date> {
    let mut dates: Vec<Date> = repo.commits_touching(path).map(|c| c.date.date).collect();
    dates.sort();
    dates
}

/// Commit statistics the paper reports for its case study: total commits,
/// total file updates, and commits touching a given path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepoStats {
    /// The commits.
    pub commits: usize,
    /// The file updates.
    pub file_updates: u64,
    /// The path commits.
    pub path_commits: usize,
}

/// Compute [`RepoStats`] for a repository and a tracked path.
pub fn repo_stats(repo: &Repository, path: &str) -> RepoStats {
    RepoStats {
        commits: repo.non_merge_commits().count(),
        file_updates: repo.total_file_updates(),
        path_commits: repo.commits_touching(path).count(),
    }
}

/// Author concentration: the fraction of non-merge commits made by the most
/// prolific author (the paper's case study notes "90% of the studied updates
/// were performed by the same developer"). `None` for empty repositories.
pub fn author_concentration(repo: &Repository) -> Option<f64> {
    use std::collections::HashMap;
    let mut counts: HashMap<&str, usize> = HashMap::new();
    let mut total = 0usize;
    for c in repo.non_merge_commits() {
        *counts.entry(c.author.as_str()).or_insert(0) += 1;
        total += 1;
    }
    if total == 0 {
        return None;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    Some(max as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Commit, FileChange};
    use coevo_heartbeat::{DateTime, YearMonth};

    fn commit(date: &str, files: &[&str]) -> Commit {
        let mut b = Commit::builder("D <d@x.io>", DateTime::parse(date).unwrap());
        for f in files {
            b = b.change(FileChange::modified(*f));
        }
        b.build()
    }

    fn repo() -> Repository {
        let mut r = Repository::new("o/p");
        r.push_commit(commit("2015-01-03 10:00:00 +0000", &["schema.sql", "a.js"]));
        r.push_commit(commit("2015-01-20 10:00:00 +0000", &["a.js"]));
        r.push_commit(commit("2015-03-07 10:00:00 +0000", &["schema.sql", "a.js", "b.js"]));
        r
    }

    #[test]
    fn project_heartbeat_counts_files_per_month() {
        let hb = project_heartbeat(&repo()).unwrap();
        assert_eq!(hb.start(), YearMonth::new(2015, 1).unwrap());
        assert_eq!(hb.activity(), &[3, 0, 3]);
    }

    #[test]
    fn empty_repo_has_no_heartbeat() {
        assert!(project_heartbeat(&Repository::new("x")).is_none());
    }

    #[test]
    fn merge_commits_excluded() {
        let mut r = repo();
        r.push_commit(
            Commit::builder(
                "D <d@x.io>",
                DateTime::parse("2015-03-20 10:00:00 +0000").unwrap(),
            )
            .merge(true)
            .change(FileChange::modified("a.js"))
            .build(),
        );
        let hb = project_heartbeat(&r).unwrap();
        assert_eq!(hb.activity(), &[3, 0, 3]);
    }

    #[test]
    fn file_touch_dates_filters_and_sorts() {
        let dates = file_touch_dates(&repo(), "schema.sql");
        assert_eq!(dates.len(), 2);
        assert!(dates[0] < dates[1]);
        assert_eq!(dates[0].month, 1);
        assert_eq!(dates[1].month, 3);
    }

    #[test]
    fn stats_match_case_study_shape() {
        let s = repo_stats(&repo(), "schema.sql");
        assert_eq!(s.commits, 3);
        assert_eq!(s.file_updates, 6);
        assert_eq!(s.path_commits, 2);
    }

    #[test]
    fn author_concentration_measures_dominance() {
        let mut r = Repository::new("o/p");
        for (author, date) in [
            ("A <a@x.io>", "2015-01-01 10:00:00 +0000"),
            ("A <a@x.io>", "2015-01-02 10:00:00 +0000"),
            ("A <a@x.io>", "2015-01-03 10:00:00 +0000"),
            ("B <b@x.io>", "2015-01-04 10:00:00 +0000"),
        ] {
            r.push_commit(
                Commit::builder(author, DateTime::parse(date).unwrap())
                    .change(FileChange::modified("f"))
                    .build(),
            );
        }
        assert_eq!(author_concentration(&r), Some(0.75));
        assert_eq!(author_concentration(&Repository::new("x")), None);
    }

    #[test]
    fn line_heartbeat_uses_numstat_with_fallback() {
        let mut r = Repository::new("o/p");
        r.push_commit(
            Commit::builder(
                "D <d@x.io>",
                DateTime::parse("2015-01-03 10:00:00 +0000").unwrap(),
            )
            .change(FileChange::modified("a").with_lines(100, 20))
            .build(),
        );
        r.push_commit(commit("2015-01-20 10:00:00 +0000", &["a", "b"])); // no numstat → 2 files
        let hb = project_heartbeat_lines(&r).unwrap();
        assert_eq!(hb.activity(), &[122]);
    }
}
