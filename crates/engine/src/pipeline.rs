//! The typed per-project measurement pipeline the engine's workers run:
//! parse → diff → heartbeat → measure, with per-stage [`Metrics`] spans and
//! [`EngineError`] failures that keep the underlying parser error.
//!
//! [`coevo_corpus::pipeline`] holds a second, stringly-typed pipeline over
//! the same stages; the tests below pin the two to equal results.

use crate::allocs;
use crate::error::{EngineError, EngineErrorKind, Stage};
use crate::metrics::Metrics;
use coevo_core::{ProjectData, ProjectMeasures};
use coevo_corpus::GeneratedProject;
use coevo_ddl::{Dialect, ParseCache};
use coevo_diff::{MatchPolicy, RenameCounts, SchemaHistory, SchemaVersion};
use coevo_heartbeat::DateTime;
use coevo_taxa::{Taxon, TaxonomyConfig};
use coevo_vcs::{monthly::project_heartbeat, parse_log};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One unit of work for the engine's pool: a project's raw artifacts plus
/// its position in the corpus (results are re-assembled in input order, so
/// parallel output is identical to sequential output).
#[derive(Debug, Clone)]
pub(crate) struct WorkItem {
    pub index: usize,
    pub name: String,
    pub git_log: String,
    pub ddl_versions: Vec<(DateTime, String)>,
    pub dialect: Dialect,
    pub taxon: Option<Taxon>,
}

/// One measured project: what the pipeline computes and what a store entry
/// holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ProjectResult {
    /// The measured project (heartbeats, taxon, birth activity).
    pub data: ProjectData,
    /// Its derived study measures.
    pub measures: ProjectMeasures,
    /// The rename tallies of its evolution steps, present only under a
    /// rename-aware match policy — so a by-name result serializes exactly
    /// as it did before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub renames: Option<RenameCounts>,
}

/// Run parse → diff → heartbeat → measure on one project's raw artifacts,
/// recording per-stage spans into `metrics`.
pub(crate) fn process(
    item: &WorkItem,
    cfg: &TaxonomyConfig,
    policy: MatchPolicy,
    metrics: &Metrics,
) -> Result<ProjectResult, EngineError> {
    let fail = |stage: Stage, kind: EngineErrorKind| EngineError {
        project: item.name.clone(),
        stage,
        kind,
    };

    // Parse: the git log, then every DDL version through a per-project
    // content-addressed cache — byte-identical versions (inactive commits)
    // parse once and share one `Arc<Schema>`.
    let a = allocs::snapshot();
    let t = Instant::now();
    let repo =
        parse_log(&item.git_log).map_err(|e| fail(Stage::Parse, EngineErrorKind::GitLog(e)))?;
    let mut cache = ParseCache::new();
    let mut versions = Vec::with_capacity(item.ddl_versions.len());
    for (date, text) in &item.ddl_versions {
        let schema = cache
            .parse(text, item.dialect)
            .map_err(|e| fail(Stage::Parse, EngineErrorKind::Ddl(e)))?;
        versions.push(SchemaVersion { date: *date, schema });
    }
    metrics.record(Stage::Parse, t.elapsed(), 1 + item.ddl_versions.len() as u64);
    metrics.record_cache(Stage::Parse, cache.hits(), cache.misses());
    metrics.record_allocs(Stage::Parse, allocs::snapshot().since(a));

    // Diff: consecutive versions into the delta sequence.
    let a = allocs::snapshot();
    let t = Instant::now();
    let history = SchemaHistory::from_schemas(versions, policy)
        .ok_or_else(|| fail(Stage::Diff, EngineErrorKind::Empty("schema history")))?;
    let renames = policy.rename_threshold().map(|_| RenameCounts::of_history(&history));
    metrics.record(Stage::Diff, t.elapsed(), history.deltas().len() as u64);
    let dstats = history.diff_stats();
    metrics.record_cache(Stage::Diff, dstats.elided(), dstats.tables_diffed);
    metrics.record_allocs(Stage::Diff, allocs::snapshot().since(a));

    // Heartbeat: the two monthly activity series.
    let a = allocs::snapshot();
    let t = Instant::now();
    let project_hb = project_heartbeat(&repo)
        .ok_or_else(|| fail(Stage::Heartbeat, EngineErrorKind::Empty("repository")))?;
    let schema_hb = history.heartbeat();
    let birth_activity = history.deltas().first().map(|d| d.breakdown.total()).unwrap_or(0);
    metrics.record(Stage::Heartbeat, t.elapsed(), 2);
    metrics.record_allocs(Stage::Heartbeat, allocs::snapshot().since(a));

    let mut data = ProjectData::new(&item.name, project_hb, schema_hb, birth_activity);
    if let Some(taxon) = item.taxon {
        data = data.with_taxon(taxon);
    }

    // Measure: the per-project study measures.
    let a = allocs::snapshot();
    let t = Instant::now();
    let measures = data.measures(cfg);
    metrics.record(Stage::Measure, t.elapsed(), 1);
    metrics.record_allocs(Stage::Measure, allocs::snapshot().since(a));

    Ok(ProjectResult { data, measures, renames })
}

/// Run the typed pipeline on raw textual artifacts: a git log dump and a
/// dated DDL version sequence. The structured counterpart of
/// [`coevo_corpus::pipeline::project_from_texts`].
pub fn project_from_texts(
    name: &str,
    git_log: &str,
    ddl_versions: &[(DateTime, String)],
    dialect: Dialect,
) -> Result<ProjectData, EngineError> {
    let item = WorkItem {
        index: 0,
        name: name.to_string(),
        git_log: git_log.to_string(),
        ddl_versions: ddl_versions.to_vec(),
        dialect,
        taxon: None,
    };
    process(&item, &TaxonomyConfig::default(), MatchPolicy::ByName, &Metrics::new())
        .map(|r| r.data)
}

/// Run the typed pipeline on one generated project, attaching the
/// generator's taxon label.
pub fn project_from_generated(p: &GeneratedProject) -> Result<ProjectData, EngineError> {
    let item = WorkItem {
        index: 0,
        name: p.raw.name.clone(),
        git_log: p.git_log.clone(),
        ddl_versions: p.raw.ddl_versions.clone(),
        dialect: p.raw.dialect,
        taxon: Some(p.raw.taxon),
    };
    process(&item, &TaxonomyConfig::default(), MatchPolicy::ByName, &Metrics::new())
        .map(|r| r.data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_corpus::{generate_corpus, CorpusSpec};

    const GOOD_LOG: &str =
        "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tf\n";

    fn dt(s: &str) -> DateTime {
        DateTime::parse(s).unwrap()
    }

    #[test]
    fn matches_corpus_text_pipeline_on_generated_projects() {
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = 1;
        }
        for p in generate_corpus(&spec) {
            let typed = project_from_generated(&p).expect("typed pipeline");
            let reference = coevo_corpus::project_from_texts(
                &p.raw.name,
                &p.git_log,
                &p.raw.ddl_versions,
                p.raw.dialect,
            )
            .map(|d| d.with_taxon(p.raw.taxon))
            .expect("corpus pipeline");
            assert_eq!(typed, reference, "{}", p.raw.name);
        }
    }

    #[test]
    fn inactive_versions_hit_the_parse_and_diff_caches() {
        let same = "CREATE TABLE t (a INT);".to_string();
        let item = WorkItem {
            index: 0,
            name: "x/y".into(),
            git_log: GOOD_LOG.to_string(),
            ddl_versions: vec![
                (dt("2020-01-01 00:00:00 +0000"), same.clone()),
                (dt("2020-02-01 00:00:00 +0000"), same.clone()),
                (dt("2020-03-01 00:00:00 +0000"), same),
                (dt("2020-04-01 00:00:00 +0000"), "CREATE TABLE t (a INT, b INT);".into()),
            ],
            dialect: Dialect::Generic,
            taxon: None,
        };
        let metrics = Metrics::new();
        process(&item, &TaxonomyConfig::default(), MatchPolicy::ByName, &metrics)
            .expect("pipeline");
        let snap = metrics.snapshot(1);
        let parse = snap.stage(Stage::Parse).unwrap();
        // Item accounting is unchanged: 1 git log + 4 versions.
        assert_eq!(parse.items, 5);
        // But only 2 distinct texts parsed; 2 lookups were cache hits.
        assert_eq!((parse.cache_hits, parse.cache_misses), (2, 2));
        let diff = snap.stage(Stage::Diff).unwrap();
        // Versions 2 and 3 short-circuit whole-version; version 4 diffs
        // table `t` for real. (The creation delta has no survivors.)
        assert_eq!((diff.cache_hits, diff.cache_misses), (2, 1));
    }

    #[test]
    fn corrupt_ddl_fails_at_parse_with_position() {
        let versions = vec![
            (dt("2020-01-01 00:00:00 +0000"), "CREATE TABLE t (a INT);".to_string()),
            (dt("2020-02-01 00:00:00 +0000"), "CREATE TABLE t (a INT".to_string()),
        ];
        let err = project_from_texts("x/y", GOOD_LOG, &versions, Dialect::Generic).unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        let EngineErrorKind::Ddl(parse) = &err.kind else {
            panic!("expected Ddl kind, got {:?}", err.kind)
        };
        assert!(parse.line >= 1);
        assert_eq!(err.project, "x/y");
    }

    #[test]
    fn truncated_git_log_fails_at_parse() {
        let versions =
            vec![(dt("2020-01-01 00:00:00 +0000"), "CREATE TABLE t (a INT);".to_string())];
        let err = project_from_texts(
            "x/y",
            "commit abcdef\nAuthor: A <a@b.c>\n",
            &versions,
            Dialect::Generic,
        )
        .unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert!(matches!(err.kind, EngineErrorKind::GitLog(_)));
    }

    #[test]
    fn empty_inputs_fail_with_empty_kind() {
        let err = project_from_texts("x/y", GOOD_LOG, &[], Dialect::Generic).unwrap_err();
        assert_eq!(err.stage, Stage::Diff);
        assert_eq!(err.kind, EngineErrorKind::Empty("schema history"));

        let merge_only = "commit abc\nMerge: 1 2\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    Merge\n\n";
        let versions =
            vec![(dt("2020-01-01 00:00:00 +0000"), "CREATE TABLE t (a INT);".to_string())];
        let err =
            project_from_texts("x/y", merge_only, &versions, Dialect::Generic).unwrap_err();
        assert_eq!(err.stage, Stage::Heartbeat);
        assert_eq!(err.kind, EngineErrorKind::Empty("repository"));
    }
}
