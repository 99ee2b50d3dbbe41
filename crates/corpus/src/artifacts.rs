//! Mutator-facing project artifacts: the complete raw input of one project.
//!
//! The oracle (see `coevo-oracle`) rewrites project histories and re-runs
//! them through the measurement pipeline. It needs a value that (a) carries
//! *everything* the pipeline consumes — DDL version texts, the git log, the
//! dialect, the pre-assigned taxon — and (b) serializes, so a failing
//! mutation can be written to disk as a reproducer. [`ProjectArtifacts`] is
//! that value: a flat, owned, serde-friendly projection of a
//! [`GeneratedProject`], of the scripted [`CaseStudy`], or of an on-disk
//! project read by [`crate::loader`].

use crate::case_study::CaseStudy;
use crate::generator::GeneratedProject;
use coevo_ddl::Dialect;
use coevo_heartbeat::DateTime;
use coevo_taxa::Taxon;
use serde::{Deserialize, Serialize};

/// The raw input of one project, exactly as the pipeline consumes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProjectArtifacts {
    /// Project name.
    pub name: String,
    /// Pre-assigned taxon, if any (generated projects carry their intended
    /// taxon; loaded projects may not).
    pub taxon: Option<Taxon>,
    /// SQL dialect of the DDL versions.
    pub dialect: Dialect,
    /// Dated DDL version texts, oldest first.
    pub ddl_versions: Vec<(DateTime, String)>,
    /// `git log --name-status` text.
    pub git_log: String,
}

impl From<GeneratedProject> for ProjectArtifacts {
    /// Owned conversion: moves the version texts and git log instead of
    /// cloning them. The streaming corpus writer generates → converts →
    /// serializes one project at a time, so the clone would double its
    /// (per-project) peak.
    fn from(p: GeneratedProject) -> Self {
        Self {
            name: p.raw.name,
            taxon: Some(p.raw.taxon),
            dialect: p.raw.dialect,
            ddl_versions: p.raw.ddl_versions,
            git_log: p.git_log,
        }
    }
}

impl From<CaseStudy> for ProjectArtifacts {
    /// The case study's artifacts; it carries no taxon label.
    fn from(cs: CaseStudy) -> Self {
        Self {
            name: cs.name.to_string(),
            taxon: None,
            dialect: cs.dialect,
            ddl_versions: cs.ddl_versions,
            git_log: cs.git_log,
        }
    }
}

impl ProjectArtifacts {
    /// Project artifacts of a generated project (borrowing clone).
    pub fn from_generated(p: &GeneratedProject) -> Self {
        Self {
            name: p.raw.name.clone(),
            taxon: Some(p.raw.taxon),
            dialect: p.raw.dialect,
            ddl_versions: p.raw.ddl_versions.clone(),
            git_log: p.git_log.clone(),
        }
    }

    /// The `(history, vcs)` input hashes of these artifacts, matching
    /// [`GeneratedProject::input_hashes`] for an unmutated project.
    pub fn input_hashes(&self) -> (u64, u64) {
        (
            crate::digest::history_hash(
                &self.name,
                self.taxon.map(Taxon::slug),
                self.dialect.name(),
                &self.ddl_versions,
            ),
            crate::digest::vcs_hash(&self.git_log),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_corpus, CorpusSpec};

    #[test]
    fn from_generated_preserves_input_hashes() {
        let spec = CorpusSpec::paper().with_per_taxon(1);
        for p in generate_corpus(&spec) {
            let a = ProjectArtifacts::from_generated(&p);
            assert_eq!(a.input_hashes(), p.input_hashes(), "{}", a.name);
        }
    }

    #[test]
    fn artifacts_round_trip_through_json() {
        let spec = CorpusSpec::paper().with_per_taxon(1);
        let p = &generate_corpus(&spec)[0];
        let a = ProjectArtifacts::from_generated(p);
        let json = serde_json::to_string(&a).unwrap();
        let back: ProjectArtifacts = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
