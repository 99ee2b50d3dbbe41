//! Writing the `git log --name-status --date=iso` text format.
//!
//! The writer mirrors git's real output closely enough that our parser —
//! and the original study's extraction scripts — would treat synthetic and
//! real logs identically: newest-first commit order, `commit <sha>` header,
//! `Author:`/`Date:` fields, four-space-indented message lines, and
//! tab-separated name-status entries.

use crate::model::{ChangeStatus, Repository};

/// Render the repository history as `git log --name-status --no-merges
/// --date=iso` would print it (newest commit first, merges omitted).
pub fn write_log(repo: &Repository) -> String {
    let mut out = String::new();
    for commit in repo.commits.iter().rev().filter(|c| !c.is_merge) {
        out.push_str("commit ");
        out.push_str(&commit.id);
        out.push_str("\nAuthor: ");
        out.push_str(&commit.author);
        out.push_str("\nDate:   ");
        commit.date.with_text(|d| out.push_str(d));
        out.push_str("\n\n");
        for line in commit.message.lines() {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        if commit.message.is_empty() {
            out.push('\n');
        }
        out.push('\n');
        for change in &commit.changes {
            out.push_str(&change.status.letter());
            out.push('\t');
            if let ChangeStatus::Renamed { from, .. } | ChangeStatus::Copied { from, .. } =
                &change.status
            {
                out.push_str(from);
                out.push('\t');
            }
            out.push_str(&change.path);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Commit, FileChange};
    use coevo_heartbeat::DateTime;

    fn dt(s: &str) -> DateTime {
        DateTime::parse(s).unwrap()
    }

    #[test]
    fn format_matches_git() {
        let mut r = Repository::new("o/p");
        r.push_commit(
            Commit::builder("Ada Lovelace <ada@x.io>", dt("2015-01-03 10:00:00 +0200"))
                .message("initial import")
                .change(FileChange::added("schema.sql"))
                .build(),
        );
        let log = write_log(&r);
        assert!(log.starts_with("commit "));
        assert!(log.contains("Author: Ada Lovelace <ada@x.io>\n"));
        assert!(log.contains("Date:   2015-01-03 10:00:00 +0200\n"));
        assert!(log.contains("    initial import\n"));
        assert!(log.contains("A\tschema.sql\n"));
    }

    #[test]
    fn newest_first_ordering() {
        let mut r = Repository::new("o/p");
        r.push_commit(
            Commit::builder("A <a@b.c>", dt("2015-01-01 00:00:00 +0000"))
                .message("first")
                .change(FileChange::added("a"))
                .build(),
        );
        r.push_commit(
            Commit::builder("A <a@b.c>", dt("2015-02-01 00:00:00 +0000"))
                .message("second")
                .change(FileChange::modified("a"))
                .build(),
        );
        let log = write_log(&r);
        let first_pos = log.find("first").unwrap();
        let second_pos = log.find("second").unwrap();
        assert!(second_pos < first_pos, "newest commit must come first");
    }

    #[test]
    fn merges_are_omitted() {
        let mut r = Repository::new("o/p");
        r.push_commit(
            Commit::builder("A <a@b.c>", dt("2015-01-01 00:00:00 +0000"))
                .message("work")
                .change(FileChange::added("a"))
                .build(),
        );
        r.push_commit(
            Commit::builder("A <a@b.c>", dt("2015-01-02 00:00:00 +0000"))
                .message("Merge branch x")
                .merge(true)
                .build(),
        );
        let log = write_log(&r);
        assert!(!log.contains("Merge branch"));
    }

    #[test]
    fn renames_print_both_paths() {
        let mut r = Repository::new("o/p");
        r.push_commit(
            Commit::builder("A <a@b.c>", dt("2015-01-01 00:00:00 +0000"))
                .change(FileChange::renamed("db/old.sql", "db/new.sql"))
                .build(),
        );
        let log = write_log(&r);
        assert!(log.contains("R100\tdb/old.sql\tdb/new.sql\n"));
    }

    #[test]
    fn multiline_messages_indent_every_line() {
        let mut r = Repository::new("o/p");
        r.push_commit(
            Commit::builder("A <a@b.c>", dt("2015-01-01 00:00:00 +0000"))
                .message("title\n\nbody line")
                .change(FileChange::added("a"))
                .build(),
        );
        let log = write_log(&r);
        assert!(log.contains("    title\n"));
        assert!(log.contains("    body line\n"));
    }
}
