//! # coevo-vcs — git substrate
//!
//! The paper measures project evolution as "the number of files updated in
//! each commit", extracted with `git log --name-status --no-merges
//! --date=iso`. This crate provides the pieces of git that the study needs,
//! built from scratch:
//!
//! - an in-memory [`Repository`]/[`Commit`] model;
//! - a writer emitting the exact `git log --name-status --date=iso` text
//!   format ([`write_log`]), so synthetic corpora exercise the same parsing
//!   path as real clones;
//! - a parser for that format ([`parse_log`]) accepting real `git log`
//!   output;
//! - a fold over the same format ([`commit_activity`]) that keeps only
//!   what the study measures of a commit — date, files updated, merge flag
//!   — without building a [`Repository`] or allocating per line. It shares
//!   one line classifier with [`parse_log`], so the grammar, its checks and
//!   its error lines live in one place;
//! - monthly activity extraction ([`monthly::project_heartbeat`],
//!   [`monthly::activity_heartbeat`], [`monthly::file_touch_dates`])
//!   feeding the heartbeat pipeline.
//!
//! ```
//! use coevo_vcs::{Commit, FileChange, Repository, write_log, parse_log};
//! use coevo_heartbeat::DateTime;
//!
//! let mut repo = Repository::new("acme/app");
//! repo.push_commit(
//!     Commit::builder("Ada <ada@acme.io>", DateTime::parse("2015-01-03 10:00:00 +0000").unwrap())
//!         .message("initial import")
//!         .change(FileChange::added("schema.sql"))
//!         .change(FileChange::added("src/main.js"))
//!         .build(),
//! );
//! let log = write_log(&repo);
//! let parsed = parse_log(&log).unwrap();
//! assert_eq!(parsed.commits.len(), 1);
//! assert_eq!(parsed.commits[0].changes.len(), 2);
//!
//! let activity = coevo_vcs::commit_activity(&log).unwrap();
//! assert_eq!(activity[0].files_updated, parsed.commits[0].files_updated());
//! ```

#![warn(missing_docs)]

pub mod model;
pub mod monthly;
pub mod parse;
pub mod write;

pub use model::{ChangeStatus, Commit, CommitBuilder, FileChange, Repository};
pub use parse::{commit_activity, parse_log, CommitActivity, LogParseError};
pub use write::write_log;
