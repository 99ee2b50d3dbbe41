//! The per-project measurement pipeline: parse → diff → heartbeat →
//! measure, with per-stage [`Metrics`] spans and [`EngineError`] failures
//! that keep the underlying parser error.
//!
//! This is the workspace's only pipeline. The engine's workers run it on
//! every project of a study, and [`project_from_artifacts`] runs it on one
//! project's [`ProjectArtifacts`] (generated, loaded from disk by
//! `coevo_corpus::loader`, or built by hand).

use crate::allocs;
use crate::error::{EngineError, EngineErrorKind, Stage};
use crate::metrics::Metrics;
use coevo_core::{ProjectData, ProjectMeasures};
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::ParseCache;
use coevo_diff::{MatchPolicy, RenameCounts, SchemaHistory, SchemaVersion};
use coevo_taxa::TaxonomyConfig;
use coevo_vcs::{commit_activity, monthly::activity_heartbeat};
use serde::{Deserialize, Serialize};
use std::time::Instant;

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
    project: &ProjectArtifacts,
    cfg: &TaxonomyConfig,
    policy: MatchPolicy,
    metrics: &Metrics,
) -> Result<ProjectResult, EngineError> {
    let fail = |stage: Stage, kind: EngineErrorKind| EngineError {
        project: project.name.clone(),
        stage,
        kind,
    };

    // Parse: the git log (folded to per-commit activity: the heartbeat is
    // all the study reads of it), then every DDL version through a
    // per-project content-addressed cache — byte-identical versions
    // (inactive commits) parse once and share one `Arc<Schema>`.
    let a = allocs::snapshot();
    let t = Instant::now();
    let activity = commit_activity(&project.git_log)
        .map_err(|e| fail(Stage::Parse, EngineErrorKind::GitLog(e)))?;
    let mut cache = ParseCache::new();
    let mut versions = Vec::with_capacity(project.ddl_versions.len());
    for (date, text) in &project.ddl_versions {
        let schema = cache
            .parse(text, project.dialect)
            .map_err(|e| fail(Stage::Parse, EngineErrorKind::Ddl(e)))?;
        versions.push(SchemaVersion { date: *date, schema });
    }
    metrics.record(Stage::Parse, t.elapsed(), 1 + project.ddl_versions.len() as u64);
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
    let project_hb = activity_heartbeat(&activity)
        .ok_or_else(|| fail(Stage::Heartbeat, EngineErrorKind::Empty("repository")))?;
    let schema_hb = history.heartbeat();
    let birth_activity = history.deltas().first().map(|d| d.breakdown.total()).unwrap_or(0);
    metrics.record(Stage::Heartbeat, t.elapsed(), 2);
    metrics.record_allocs(Stage::Heartbeat, allocs::snapshot().since(a));

    let mut data = ProjectData::new(&project.name, project_hb, schema_hb, birth_activity);
    if let Some(taxon) = project.taxon {
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

/// Run the pipeline on one project's raw artifacts, attaching its taxon
/// label when it has one.
pub fn project_from_artifacts(project: ProjectArtifacts) -> Result<ProjectData, EngineError> {
    process(&project, &TaxonomyConfig::default(), MatchPolicy::ByName, &Metrics::new())
        .map(|r| r.data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_corpus::{generate_corpus, CorpusSpec};
    use coevo_ddl::Dialect;
    use coevo_heartbeat::DateTime;
    use coevo_taxa::Taxon;
    use coevo_vcs::{monthly::project_heartbeat, parse_log};

    const GOOD_LOG: &str =
        "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tf\n";

    fn dt(s: &str) -> DateTime {
        DateTime::parse(s).unwrap()
    }

    /// An unlabelled generic-dialect project `x/y`.
    fn artifacts(git_log: &str, ddl: &[(&str, &str)]) -> ProjectArtifacts {
        ProjectArtifacts {
            name: "x/y".into(),
            taxon: None,
            dialect: Dialect::Generic,
            ddl_versions: ddl.iter().map(|(d, s)| (dt(d), s.to_string())).collect(),
            git_log: git_log.into(),
        }
    }

    fn small_corpus() -> Vec<ProjectArtifacts> {
        generate_corpus(&CorpusSpec::paper().with_per_taxon(2))
            .into_iter()
            .map(ProjectArtifacts::from)
            .collect()
    }

    /// The reference measurement: the library calls in the order the
    /// pipeline makes them, without its content-addressed parse, per-stage
    /// metrics or typed errors.
    fn reference(p: &ProjectArtifacts) -> ProjectData {
        let repo = parse_log(&p.git_log).unwrap();
        let history = SchemaHistory::from_ddl_texts(
            p.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
            p.dialect,
        )
        .unwrap()
        .unwrap();
        let birth_activity = history.deltas()[0].breakdown.total();
        let data = ProjectData::new(
            &p.name,
            project_heartbeat(&repo).unwrap(),
            history.heartbeat(),
            birth_activity,
        );
        data.with_taxon(p.taxon.unwrap())
    }

    #[test]
    fn matches_corpus_text_pipeline_on_generated_projects() {
        for p in generate_corpus(&CorpusSpec::paper().with_per_taxon(1)) {
            let p = ProjectArtifacts::from(p);
            let measured = project_from_artifacts(p.clone()).expect("pipeline");
            assert_eq!(measured, reference(&p), "{}", p.name);
        }
    }

    #[test]
    fn pipeline_runs_on_generated_projects() {
        for p in small_corpus() {
            let data = project_from_artifacts(p.clone()).expect("pipeline");
            assert_eq!(data.taxon, p.taxon);
            assert!(data.project.total() > 0);
            assert!(data.schema.total() > 0, "{}", p.name);
            assert!(data.birth_activity > 0);
        }
    }

    #[test]
    fn schema_heartbeat_reflects_scheduled_activity() {
        for p in small_corpus() {
            // Birth activity equals the initial schema's attribute count.
            let initial = coevo_ddl::parse_schema(&p.ddl_versions[0].1, p.dialect)
                .unwrap()
                .attribute_count() as u64;
            let (name, taxon) = (p.name.clone(), p.taxon);
            let data = project_from_artifacts(p).unwrap();
            assert_eq!(data.birth_activity, initial, "{name}");
            // Frozen projects have no post-birth activity.
            if taxon == Some(Taxon::Frozen) {
                assert_eq!(data.schema.total(), initial);
            }
        }
    }

    #[test]
    fn project_axis_spans_schema_axis() {
        for p in small_corpus() {
            let data = project_from_artifacts(p).unwrap();
            assert!(data.project.start() <= data.schema.start(), "{}", data.name);
        }
    }

    #[test]
    fn inactive_versions_hit_the_parse_and_diff_caches() {
        let same = "CREATE TABLE t (a INT);";
        let project = artifacts(
            GOOD_LOG,
            &[
                ("2020-01-01 00:00:00 +0000", same),
                ("2020-02-01 00:00:00 +0000", same),
                ("2020-03-01 00:00:00 +0000", same),
                ("2020-04-01 00:00:00 +0000", "CREATE TABLE t (a INT, b INT);"),
            ],
        );
        let metrics = Metrics::new();
        process(&project, &TaxonomyConfig::default(), MatchPolicy::ByName, &metrics)
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
        let project = artifacts(
            GOOD_LOG,
            &[
                ("2020-01-01 00:00:00 +0000", "CREATE TABLE t (a INT);"),
                ("2020-02-01 00:00:00 +0000", "CREATE TABLE t (a INT"),
            ],
        );
        let err = project_from_artifacts(project).unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        let EngineErrorKind::Ddl(parse) = &err.kind else {
            panic!("expected Ddl kind, got {:?}", err.kind)
        };
        assert!(parse.line >= 1);
        assert_eq!(err.project, "x/y");
    }

    #[test]
    fn truncated_git_log_fails_at_parse() {
        let project = artifacts(
            "commit abcdef\nAuthor: A <a@b.c>\n",
            &[("2020-01-01 00:00:00 +0000", "CREATE TABLE t (a INT);")],
        );
        let err = project_from_artifacts(project).unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert!(matches!(err.kind, EngineErrorKind::GitLog(_)));
    }

    #[test]
    fn empty_inputs_fail_with_empty_kind() {
        let err = project_from_artifacts(artifacts(GOOD_LOG, &[])).unwrap_err();
        assert_eq!(err.stage, Stage::Diff);
        assert_eq!(err.kind, EngineErrorKind::Empty("schema history"));

        let merge_only = "commit abc\nMerge: 1 2\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    Merge\n\n";
        let project =
            artifacts(merge_only, &[("2020-01-01 00:00:00 +0000", "CREATE TABLE t (a INT);")]);
        let err = project_from_artifacts(project).unwrap_err();
        assert_eq!(err.stage, Stage::Heartbeat);
        assert_eq!(err.kind, EngineErrorKind::Empty("repository"));
    }

    #[test]
    fn missing_artifacts_error() {
        let err = project_from_artifacts(artifacts("", &[])).unwrap_err();
        assert!(matches!(err.kind, EngineErrorKind::Empty(_)), "{err}");
    }
}
