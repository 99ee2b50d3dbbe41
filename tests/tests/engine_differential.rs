//! Determinism of the execution engine: the parallel study must be
//! byte-identical to the sequential one, both must match the free-function
//! pipeline mapped sequentially, and the incremental diff core must
//! reproduce the pre-refactor accounting exactly — all over the full
//! 195-project corpus.

use coevo_core::Study;
use coevo_engine::pipeline::project_from_artifacts;
use coevo_engine::{Source, StudyConfig, StudyRunner};

#[test]
fn parallel_study_is_byte_identical_to_sequential() {
    let sequential = StudyRunner::new(StudyConfig::default())
        .with_workers(1)
        .run(Source::paper())
        .expect("sequential run");
    let parallel = StudyRunner::new(StudyConfig::default())
        .with_workers(8)
        .run(Source::paper())
        .expect("parallel run");

    assert!(sequential.failures.is_empty());
    assert!(parallel.failures.is_empty());
    assert_eq!(sequential.projects.len(), 195);
    assert_eq!(sequential.projects, parallel.projects);
    assert_eq!(sequential.results, parallel.results);

    // Structural equality could in principle hide float formatting
    // differences downstream; the serialized artifacts must match byte for
    // byte too.
    let seq_json = serde_json::to_string(&sequential.results).unwrap();
    let par_json = serde_json::to_string(&parallel.results).unwrap();
    assert_eq!(seq_json, par_json);
}

#[test]
fn engine_matches_free_function_pipeline_on_full_corpus() {
    let corpus = coevo_corpus::generate_corpus(&coevo_corpus::CorpusSpec::paper());
    let reference_projects: Vec<_> = corpus
        .into_iter()
        .map(|p| project_from_artifacts(p.into()).expect("pipeline"))
        .collect();
    let reference = Study::new(reference_projects.clone()).run();

    let report =
        StudyRunner::new(StudyConfig::default()).run(Source::paper()).expect("engine run");

    assert_eq!(report.projects, reference_projects);
    assert_eq!(report.results, reference);
    assert_eq!(
        serde_json::to_string(&report.results).unwrap(),
        serde_json::to_string(&reference).unwrap()
    );
}

#[test]
fn incremental_diff_matches_legacy_accounting_on_full_corpus() {
    use coevo_diff::{DiffMode, MatchPolicy, SchemaHistory, SchemaVersion};
    use std::sync::Arc;

    let corpus = coevo_corpus::generate_corpus(&coevo_corpus::CorpusSpec::paper());
    assert_eq!(corpus.len(), 195);

    let mut elided_total = 0u64;
    for p in &corpus {
        // Oracle: every version parsed into its own allocation (no tables
        // shared across versions), diffed with the pre-refactor algorithm.
        let oracle_versions: Vec<SchemaVersion> = p
            .raw
            .ddl_versions
            .iter()
            .map(|(date, text)| SchemaVersion {
                date: *date,
                schema: Arc::new(coevo_ddl::parse_schema(text, p.raw.dialect).expect("parse")),
            })
            .collect();
        let oracle = SchemaHistory::from_schemas_mode(
            oracle_versions,
            MatchPolicy::ByName,
            DiffMode::Legacy,
        )
        .expect("non-empty history");

        // Incremental path: shared-Arc parse cache + incremental diff.
        let incremental = SchemaHistory::from_ddl_texts(
            p.raw.ddl_versions.iter().map(|(d, t)| (*d, t.as_str())),
            p.raw.dialect,
        )
        .expect("parse")
        .expect("non-empty history");

        // Byte-identical accounting: deltas, heartbeats, and the serialized
        // wire form all match the oracle exactly.
        assert_eq!(incremental, oracle, "{}", p.raw.name);
        assert_eq!(incremental.heartbeat(), oracle.heartbeat(), "{}", p.raw.name);
        assert_eq!(incremental.active_commits(), oracle.active_commits(), "{}", p.raw.name);
        assert_eq!(
            serde_json::to_string(&incremental).unwrap(),
            serde_json::to_string(&oracle).unwrap(),
            "{}",
            p.raw.name
        );

        // Sanity of the instrumentation: every version was either skipped or
        // produced by real diff work, and the legacy oracle counted nothing.
        let stats = incremental.diff_stats();
        assert_eq!(stats.schema_diffs, incremental.versions().len() as u64, "{}", p.raw.name);
        assert_eq!(oracle.diff_stats(), coevo_diff::DiffStats::default());
        elided_total += stats.elided();
    }
    // The generated corpus contains inactive commits and unchanged tables;
    // the incremental core must actually elide work somewhere, or the whole
    // refactor is dead code.
    assert!(elided_total > 0, "incremental core elided no work across the corpus");
}
