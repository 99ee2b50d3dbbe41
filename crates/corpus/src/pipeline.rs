//! From generated (or loaded) artifacts to study inputs — the measurement
//! pipeline the paper describes: parse the git log, parse every DDL version,
//! diff consecutive versions, and build the two monthly heartbeats.

use coevo_core::ProjectData;
use coevo_ddl::Dialect;
use coevo_diff::SchemaHistory;
use coevo_heartbeat::DateTime;
use coevo_vcs::{monthly::project_heartbeat, parse_log};
use std::fmt;

/// Errors from the measurement pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The git log failed to parse.
    GitLog(String),
    /// A DDL version failed to parse.
    Ddl(String),
    /// The project has no commits or no DDL versions.
    Empty(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::GitLog(e) => write!(f, "git log: {e}"),
            Self::Ddl(e) => write!(f, "DDL: {e}"),
            Self::Empty(what) => write!(f, "empty {what}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Run the full pipeline on raw textual artifacts: a git log dump and a
/// dated DDL version sequence. This is the path both synthetic and real
/// projects take.
///
/// Versions are parsed through [`SchemaHistory::from_ddl_texts`], which
/// content-addresses the texts: byte-identical versions (inactive commits)
/// parse once and share a single `Arc<Schema>`, and the incremental diff
/// core short-circuits them by fingerprint.
pub fn project_from_texts(
    name: &str,
    git_log: &str,
    ddl_versions: &[(DateTime, String)],
    dialect: Dialect,
) -> Result<ProjectData, PipelineError> {
    let repo = parse_log(git_log).map_err(|e| PipelineError::GitLog(e.to_string()))?;
    let project_hb = project_heartbeat(&repo).ok_or(PipelineError::Empty("repository"))?;

    let history = SchemaHistory::from_ddl_texts(
        ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
        dialect,
    )
    .map_err(|e| PipelineError::Ddl(e.to_string()))?
    .ok_or(PipelineError::Empty("schema history"))?;

    let schema_hb = history.heartbeat();
    let birth_activity = history.deltas().first().map(|d| d.breakdown.total()).unwrap_or(0);
    Ok(ProjectData::new(name, project_hb, schema_hb, birth_activity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_corpus, CorpusSpec, GeneratedProject};
    use coevo_taxa::Taxon;

    /// The generated-project pipeline the engine crate wraps with typed
    /// errors: raw texts through `project_from_texts`, taxon label attached.
    fn project_of(p: &GeneratedProject) -> Result<ProjectData, PipelineError> {
        project_from_texts(&p.raw.name, &p.git_log, &p.raw.ddl_versions, p.raw.dialect)
            .map(|d| d.with_taxon(p.raw.taxon))
    }

    fn small_corpus() -> Vec<GeneratedProject> {
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = 2;
        }
        generate_corpus(&spec)
    }

    #[test]
    fn pipeline_runs_on_generated_projects() -> Result<(), PipelineError> {
        for p in small_corpus() {
            let data = project_of(&p)?;
            assert_eq!(data.taxon, Some(p.raw.taxon));
            assert!(data.project.total() > 0);
            assert!(data.schema.total() > 0, "{}", p.raw.name);
            assert!(data.birth_activity > 0);
        }
        Ok(())
    }

    #[test]
    fn schema_heartbeat_reflects_scheduled_activity() {
        for p in small_corpus() {
            let data = project_of(&p).unwrap();
            // Birth activity equals the initial schema's attribute count.
            let initial = coevo_ddl::parse_schema(&p.raw.ddl_versions[0].1, p.raw.dialect)
                .unwrap()
                .attribute_count() as u64;
            assert_eq!(data.birth_activity, initial, "{}", p.raw.name);
            // Frozen projects have no post-birth activity.
            if p.raw.taxon == Taxon::Frozen {
                assert_eq!(data.schema.total(), initial);
            }
        }
    }

    #[test]
    fn project_axis_spans_schema_axis() {
        for p in small_corpus() {
            let data = project_of(&p).unwrap();
            assert!(data.project.start() <= data.schema.start(), "{}", p.raw.name);
        }
    }

    #[test]
    fn classifier_recovers_generated_taxa_mostly() {
        // The rule-based classifier should agree with the generator's labels
        // for a clear majority — they encode the same archetypes.
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = 8;
        }
        let corpus = generate_corpus(&spec);
        let cfg = coevo_taxa::TaxonomyConfig::default();
        let mut agree = 0;
        let mut total = 0;
        for p in &corpus {
            let data = project_of(p).unwrap();
            let mut unlabeled = data.clone();
            unlabeled.taxon = None;
            if unlabeled.effective_taxon(&cfg) == p.raw.taxon {
                agree += 1;
            }
            total += 1;
        }
        assert!(agree * 3 >= total * 2, "classifier agreement too low: {agree}/{total}");
    }

    #[test]
    fn missing_artifacts_error() {
        assert!(matches!(
            project_from_texts("x", "", &[], Dialect::Generic),
            Err(PipelineError::Empty(_))
        ));
    }
}
