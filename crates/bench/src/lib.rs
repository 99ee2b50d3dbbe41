//! Shared helpers for the benchmark suite: building the study corpus once
//! and re-deriving the measure set.

#![warn(missing_docs)]

use coevo_core::{ProjectData, Study, StudyResults};
use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_engine::pipeline::project_from_artifacts;
use coevo_engine::{Source, StudyConfig, StudyRunner};

/// Generate the full calibrated 195-project corpus and run its pipeline
/// on the execution engine.
pub fn study_projects() -> Vec<ProjectData> {
    StudyRunner::new(StudyConfig::default()).run(Source::paper()).expect("engine").projects
}

/// A smaller corpus (one project per taxon scaled by `per_taxon`) for
/// micro-benches where the full population would dominate the timing.
pub fn small_projects(per_taxon: usize) -> Vec<ProjectData> {
    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = per_taxon;
    }
    generate_corpus(&spec)
        .into_iter()
        .map(|p| project_from_artifacts(p.into()).expect("pipeline"))
        .collect()
}

/// Run the complete study over a project set.
pub fn run_study(projects: Vec<ProjectData>) -> StudyResults {
    Study::new(projects).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_full_population() {
        let projects = small_projects(1);
        assert_eq!(projects.len(), 6);
        let results = run_study(projects);
        assert_eq!(results.measures.len(), 6);
    }
}
