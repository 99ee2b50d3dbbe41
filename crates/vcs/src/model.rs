//! The commit/repository object model.

use coevo_heartbeat::DateTime;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The `--name-status` change letter of one file in one commit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChangeStatus {
    /// File added (`A`).
    Added,
    /// File modified (`M`).
    Modified,
    /// File deleted (`D`).
    Deleted,
    /// Renamed with a similarity score (git prints `R100\told\tnew`).
    /// The from.
    Renamed {
        /// The old name.
        from: String,
        /// Git similarity score (0–100).
        similarity: u8,
    },
    /// Copied with a similarity score (`C075\tsrc\tdst`).
    /// The from.
    Copied {
        /// The old name.
        from: String,
        /// Git similarity score (0–100).
        similarity: u8,
    },
    /// Type change (`T`), e.g. symlink ↔ file.
    TypeChanged,
}

impl ChangeStatus {
    /// The status letter as printed by `git log --name-status`. Only a
    /// rename or copy, which carries its similarity score, allocates.
    pub fn letter(&self) -> Cow<'static, str> {
        match self {
            ChangeStatus::Added => "A".into(),
            ChangeStatus::Modified => "M".into(),
            ChangeStatus::Deleted => "D".into(),
            ChangeStatus::Renamed { similarity, .. } => format!("R{similarity:03}").into(),
            ChangeStatus::Copied { similarity, .. } => format!("C{similarity:03}").into(),
            ChangeStatus::TypeChanged => "T".into(),
        }
    }
}

/// One changed file in a commit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileChange {
    /// The status.
    pub status: ChangeStatus,
    /// Path after the change (the rename/copy destination).
    pub path: String,
    /// Lines added/removed, when numstat information is available. The paper
    /// uses file counts; line counts serve the finer-unit extension.
    pub insertions: Option<u32>,
    /// The deletions.
    pub deletions: Option<u32>,
}

impl FileChange {
    /// Construct a new instance.
    pub fn new(status: ChangeStatus, path: impl Into<String>) -> Self {
        Self { status, path: path.into(), insertions: None, deletions: None }
    }

    /// A file added by the commit.
    pub fn added(path: impl Into<String>) -> Self {
        Self::new(ChangeStatus::Added, path)
    }

    /// A file modified by the commit.
    pub fn modified(path: impl Into<String>) -> Self {
        Self::new(ChangeStatus::Modified, path)
    }

    /// A file deleted by the commit.
    pub fn deleted(path: impl Into<String>) -> Self {
        Self::new(ChangeStatus::Deleted, path)
    }

    /// A file renamed by the commit (similarity 100).
    pub fn renamed(from: &str, to: &str) -> Self {
        Self::new(ChangeStatus::Renamed { from: from.to_string(), similarity: 100 }, to)
    }

    /// Attach line-change counts (the finer change unit of §8's future work).
    pub fn with_lines(mut self, insertions: u32, deletions: u32) -> Self {
        self.insertions = Some(insertions);
        self.deletions = Some(deletions);
        self
    }
}

/// One commit: identity, authorship, timestamp, message, changed files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Commit {
    /// 40-hex commit id. Synthetic repositories derive it deterministically
    /// from the commit contents.
    pub id: String,
    /// `Name <email>` as git prints it.
    pub author: String,
    /// The commit timestamp.
    pub date: DateTime,
    /// Human-readable description.
    pub message: String,
    /// The changes.
    pub changes: Vec<FileChange>,
    /// Merge commits are excluded by the study's `--no-merges`; the model
    /// keeps the flag so the writer/parser can honor it.
    pub is_merge: bool,
}

impl Commit {
    /// Start building a commit; the id is derived from content at `build()`.
    pub fn builder(author: &str, date: DateTime) -> CommitBuilder {
        CommitBuilder {
            author: author.to_string(),
            date,
            message: String::new(),
            changes: Vec::new(),
            is_merge: false,
        }
    }

    /// Number of files updated in this commit — the paper's unit of project
    /// change.
    pub fn files_updated(&self) -> u64 {
        self.changes.len() as u64
    }

    /// True if the commit touches `path` (as destination or rename source).
    pub fn touches(&self, path: &str) -> bool {
        self.changes.iter().any(|c| {
            c.path == path
                || matches!(&c.status,
                    ChangeStatus::Renamed { from, .. } | ChangeStatus::Copied { from, .. }
                        if from == path)
        })
    }

    /// Total line churn (insertions + deletions) when numstat data exists.
    pub fn line_churn(&self) -> Option<u64> {
        let mut total = 0u64;
        for c in &self.changes {
            total += c.insertions? as u64 + c.deletions? as u64;
        }
        Some(total)
    }
}

/// Builder for [`Commit`], deriving a deterministic content-hash id.
pub struct CommitBuilder {
    author: String,
    date: DateTime,
    message: String,
    changes: Vec<FileChange>,
    is_merge: bool,
}

impl CommitBuilder {
    /// Human-readable description.
    pub fn message(mut self, msg: impl Into<String>) -> Self {
        self.message = msg.into();
        self
    }

    /// Append one file change.
    pub fn change(mut self, change: FileChange) -> Self {
        self.changes.push(change);
        self
    }

    /// Append several file changes.
    pub fn changes(mut self, changes: impl IntoIterator<Item = FileChange>) -> Self {
        self.changes.extend(changes);
        self
    }

    /// Mark the commit as a merge (excluded by `--no-merges`).
    pub fn merge(mut self, is_merge: bool) -> Self {
        self.is_merge = is_merge;
        self
    }

    /// Finish the commit, deriving its deterministic content-hash id.
    pub fn build(self) -> Commit {
        let id = content_hash_hex(&self.author, &self.date, &self.message, &self.changes);
        Commit {
            id,
            author: self.author,
            date: self.date,
            message: self.message,
            changes: self.changes,
            is_merge: self.is_merge,
        }
    }
}

/// A repository: named, with commits stored oldest-first.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Repository {
    /// `owner/name` as on GitHub.
    pub name: String,
    /// Oldest-first commit sequence.
    pub commits: Vec<Commit>,
}

impl Repository {
    /// Construct a new instance.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), commits: Vec::new() }
    }

    /// Append a commit (assumed chronologically after the existing ones).
    pub fn push_commit(&mut self, commit: Commit) {
        self.commits.push(commit);
    }

    /// Non-merge commits, oldest first (the study's view of history).
    pub fn non_merge_commits(&self) -> impl Iterator<Item = &Commit> {
        self.commits.iter().filter(|c| !c.is_merge)
    }

    /// Commits touching a specific path, oldest first.
    pub fn commits_touching<'a>(&'a self, path: &'a str) -> impl Iterator<Item = &'a Commit> {
        self.non_merge_commits().filter(move |c| c.touches(path))
    }

    /// Total number of file updates across non-merge commits.
    pub fn total_file_updates(&self) -> u64 {
        self.non_merge_commits().map(|c| c.files_updated()).sum()
    }
}

/// A small deterministic 160-bit content hash rendered as 40 hex chars.
/// This is *not* cryptographic — it only needs to be stable and well spread
/// so synthetic commit ids look and behave like shas.
fn content_hash_hex(
    author: &str,
    date: &DateTime,
    message: &str,
    changes: &[FileChange],
) -> String {
    let mut h =
        [0xcbf2_9ce4_8422_2325u64 ^ 0x9e37_79b9, 0x100_0000_01b3, 0xdead_beef_cafe_f00d];
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            for (i, hi) in h.iter_mut().enumerate() {
                *hi ^= (b as u64).rotate_left((i as u32) * 7);
                *hi = hi.wrapping_mul(0x100_0000_01b3).rotate_left(17);
            }
        }
    };
    mix(author.as_bytes());
    date.with_text(|d| mix(d.as_bytes()));
    mix(message.as_bytes());
    for c in changes {
        mix(c.status.letter().as_bytes());
        mix(c.path.as_bytes());
    }
    // `{:016x}{:016x}{:08x}` of the three words, the last one's high half.
    let mut id = String::with_capacity(40);
    for (word, digits) in [(h[0], 16), (h[1], 16), (h[2] >> 32, 8)] {
        for i in (0..digits).rev() {
            id.push(char::from(b"0123456789abcdef"[(word >> (4 * i)) as usize & 0xf]));
        }
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dt(s: &str) -> DateTime {
        DateTime::parse(s).unwrap()
    }

    fn sample_commit() -> Commit {
        Commit::builder("Ada <ada@x.io>", dt("2015-01-03 10:00:00 +0000"))
            .message("init")
            .change(FileChange::added("schema.sql"))
            .change(FileChange::modified("src/a.js"))
            .build()
    }

    #[test]
    fn commit_ids_are_40_hex_and_deterministic() {
        let a = sample_commit();
        let b = sample_commit();
        assert_eq!(a.id.len(), 40);
        assert!(a.id.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(a.id, b.id);
    }

    #[test]
    fn different_content_different_id() {
        let a = sample_commit();
        let b = Commit::builder("Ada <ada@x.io>", dt("2015-01-03 10:00:00 +0000"))
            .message("init!")
            .change(FileChange::added("schema.sql"))
            .change(FileChange::modified("src/a.js"))
            .build();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn files_updated_counts_changes() {
        assert_eq!(sample_commit().files_updated(), 2);
    }

    #[test]
    fn touches_includes_rename_source() {
        let c = Commit::builder("A <a@b.c>", dt("2020-01-01 00:00:00 +0000"))
            .change(FileChange::renamed("old.sql", "new.sql"))
            .build();
        assert!(c.touches("old.sql"));
        assert!(c.touches("new.sql"));
        assert!(!c.touches("other.sql"));
    }

    #[test]
    fn status_letters() {
        assert_eq!(ChangeStatus::Added.letter(), "A");
        assert_eq!(ChangeStatus::Modified.letter(), "M");
        assert_eq!(ChangeStatus::Deleted.letter(), "D");
        assert_eq!(ChangeStatus::Renamed { from: "x".into(), similarity: 87 }.letter(), "R087");
        assert_eq!(ChangeStatus::Copied { from: "x".into(), similarity: 100 }.letter(), "C100");
        assert_eq!(ChangeStatus::TypeChanged.letter(), "T");
    }

    #[test]
    fn repository_filters_merges() {
        let mut r = Repository::new("o/p");
        r.push_commit(sample_commit());
        r.push_commit(
            Commit::builder("B <b@x.io>", dt("2015-01-04 10:00:00 +0000"))
                .message("Merge branch 'dev'")
                .merge(true)
                .build(),
        );
        assert_eq!(r.commits.len(), 2);
        assert_eq!(r.non_merge_commits().count(), 1);
        assert_eq!(r.total_file_updates(), 2);
    }

    #[test]
    fn commits_touching_path() {
        let mut r = Repository::new("o/p");
        r.push_commit(sample_commit());
        r.push_commit(
            Commit::builder("B <b@x.io>", dt("2015-02-01 10:00:00 +0000"))
                .change(FileChange::modified("src/a.js"))
                .build(),
        );
        assert_eq!(r.commits_touching("schema.sql").count(), 1);
        assert_eq!(r.commits_touching("src/a.js").count(), 2);
    }

    #[test]
    fn line_churn_requires_full_numstat() {
        let full = Commit::builder("A <a@b.c>", dt("2020-01-01 00:00:00 +0000"))
            .change(FileChange::modified("a").with_lines(10, 3))
            .change(FileChange::modified("b").with_lines(1, 1))
            .build();
        assert_eq!(full.line_churn(), Some(15));
        let partial = Commit::builder("A <a@b.c>", dt("2020-01-01 00:00:00 +0000"))
            .change(FileChange::modified("a").with_lines(10, 3))
            .change(FileChange::modified("b"))
            .build();
        assert_eq!(partial.line_churn(), None);
    }
}
