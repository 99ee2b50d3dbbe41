//! Structured errors for the execution engine.
//!
//! [`EngineError`] is a typed error that keeps the underlying parser error
//! (with its source position) reachable through
//! [`std::error::Error::source`], and carries the project name and the
//! [`Stage`] at which processing stopped.

use std::fmt;

/// The stages of the study engine, in execution order. Used both as the
/// failure location of an [`EngineError`] and as the key of the per-stage
/// [`crate::Metrics`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Reading raw artifacts (corpus generation, or manifest + files on
    /// disk).
    Load,
    /// Consulting and publishing to the content-addressed result store
    /// (only active when a run is configured with `--store`).
    Store,
    /// Parsing the git log and every DDL version.
    Parse,
    /// Diffing consecutive schema versions into the delta sequence.
    Diff,
    /// Building the project and schema monthly heartbeats.
    Heartbeat,
    /// Deriving the per-project study measures.
    Measure,
    /// Aggregating figures and Section-7 statistics over all survivors.
    Stats,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Load,
        Stage::Store,
        Stage::Parse,
        Stage::Diff,
        Stage::Heartbeat,
        Stage::Measure,
        Stage::Stats,
    ];

    /// The lowercase stage name used in error messages and profile rows.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Load => "load",
            Stage::Store => "store",
            Stage::Parse => "parse",
            Stage::Diff => "diff",
            Stage::Heartbeat => "heartbeat",
            Stage::Measure => "measure",
            Stage::Stats => "stats",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What went wrong, preserving the typed source error where one exists.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineErrorKind {
    /// The git log failed to parse.
    GitLog(coevo_vcs::LogParseError),
    /// A DDL version failed to parse (position information preserved).
    Ddl(coevo_ddl::ParseError),
    /// The project has no commits or no DDL versions.
    Empty(&'static str),
    /// The on-disk artifacts could not be loaded (missing or malformed
    /// manifest, unreadable version file, bad date or dialect).
    Load(String),
    /// The configured result store is unusable (unwritable directory,
    /// failed recovery). Per-entry corruption is *not* an error — corrupt
    /// entries are quarantined and recomputed.
    Store(String),
}

impl fmt::Display for EngineErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::GitLog(e) => write!(f, "{e}"),
            Self::Ddl(e) => write!(f, "{e}"),
            Self::Empty(what) => write!(f, "empty {what}"),
            Self::Load(msg) => write!(f, "{msg}"),
            Self::Store(msg) => write!(f, "{msg}"),
        }
    }
}

/// An engine failure with full context: which project, at which stage, and
/// the typed cause. The wrapped parser errors stay reachable through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineError {
    /// The project the engine was processing.
    pub project: String,
    /// The stage at which processing stopped.
    pub stage: Stage,
    /// The typed cause.
    pub kind: EngineErrorKind,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} stage: {}", self.project, self.stage, self.kind)
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            EngineErrorKind::GitLog(e) => Some(e),
            EngineErrorKind::Ddl(e) => Some(e),
            EngineErrorKind::Empty(_)
            | EngineErrorKind::Load(_)
            | EngineErrorKind::Store(_) => None,
        }
    }
}

/// One project the engine demoted instead of aborting the study: the
/// project name, the stage it failed at, and the typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectFailure {
    /// The project name (or its directory name, when the manifest itself
    /// was unreadable).
    pub project: String,
    /// The stage at which the project failed.
    pub stage: Stage,
    /// The full typed error.
    pub error: EngineError,
}

impl ProjectFailure {
    /// The rendered cause, without the project/stage prefix.
    pub fn cause(&self) -> String {
        self.error.kind.to_string()
    }
}

impl From<EngineError> for ProjectFailure {
    fn from(error: EngineError) -> Self {
        Self { project: error.project.clone(), stage: error.stage, error }
    }
}

impl fmt::Display for ProjectFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)
    }
}

/// What the engine does when a project fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abort the run on the first failure, returning its error.
    FailFast,
    /// Demote failing projects to [`ProjectFailure`] entries and compute
    /// the study from the survivors (the default).
    #[default]
    CollectAndContinue,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_carries_project_and_stage() {
        let e = EngineError {
            project: "g/p".into(),
            stage: Stage::Parse,
            kind: EngineErrorKind::Empty("repository"),
        };
        assert_eq!(e.to_string(), "g/p: parse stage: empty repository");
    }

    #[test]
    fn source_preserves_parser_errors() {
        let ddl_err =
            coevo_ddl::parse_schema("CREATE TABLE t (a INT", coevo_ddl::Dialect::Generic)
                .unwrap_err();
        let e = EngineError {
            project: "g/p".into(),
            stage: Stage::Parse,
            kind: EngineErrorKind::Ddl(ddl_err.clone()),
        };
        let src = e.source().expect("ddl source");
        assert_eq!(src.to_string(), ddl_err.to_string());

        let log_err = coevo_vcs::parse_log("commit abc\nAuthor: A <a@b.c>\n").unwrap_err();
        let e = EngineError {
            project: "g/p".into(),
            stage: Stage::Parse,
            kind: EngineErrorKind::GitLog(log_err.clone()),
        };
        assert_eq!(e.source().unwrap().to_string(), log_err.to_string());

        let e = EngineError {
            project: "g/p".into(),
            stage: Stage::Load,
            kind: EngineErrorKind::Load("bad manifest".into()),
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn failure_from_error_keeps_context() {
        let e = EngineError {
            project: "x/y".into(),
            stage: Stage::Diff,
            kind: EngineErrorKind::Empty("schema history"),
        };
        let f = ProjectFailure::from(e);
        assert_eq!(f.project, "x/y");
        assert_eq!(f.stage, Stage::Diff);
        assert_eq!(f.cause(), "empty schema history");
    }

    #[test]
    fn default_policy_collects() {
        assert_eq!(FailurePolicy::default(), FailurePolicy::CollectAndContinue);
    }
}
