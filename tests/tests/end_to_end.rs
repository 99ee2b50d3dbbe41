//! End-to-end integration: handcrafted SQL + git-log text through the whole
//! measurement pipeline, checked against hand-computed values.

use coevo_core::synchronicity::theta_synchronicity;
use coevo_core::ProjectData;
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::Dialect;
use coevo_engine::pipeline::project_from_artifacts;
use coevo_heartbeat::DateTime;
use coevo_taxa::{Taxon, TaxonomyConfig};

fn dt(s: &str) -> DateTime {
    DateTime::parse(s).unwrap()
}

/// Measure the fixture project `fix/ture` through the study's pipeline.
fn measure(git_log: &str, versions: &[(DateTime, String)], dialect: Dialect) -> ProjectData {
    project_from_artifacts(ProjectArtifacts {
        name: "fix/ture".into(),
        taxon: None,
        dialect,
        ddl_versions: versions.to_vec(),
        git_log: git_log.into(),
    })
    .unwrap()
}

/// A 6-month project: 2 files/month of source work, schema born with 4
/// attributes and gaining 2 in month 3 and 2 in month 5.
fn fixture() -> (String, Vec<(DateTime, String)>) {
    let mut log = String::new();
    // git prints newest first.
    let entries = [
        ("2020-06-15 10:00:00 +0000", vec!["src/f5.js", "src/g5.js"]),
        ("2020-05-15 10:00:00 +0000", vec!["db/schema.sql", "src/f4.js"]),
        ("2020-04-15 10:00:00 +0000", vec!["src/f3.js", "src/g3.js"]),
        ("2020-03-15 10:00:00 +0000", vec!["db/schema.sql", "src/f2.js"]),
        ("2020-02-15 10:00:00 +0000", vec!["src/f1.js", "src/g1.js"]),
        ("2020-01-15 10:00:00 +0000", vec!["db/schema.sql", "src/f0.js"]),
    ];
    for (i, (date, files)) in entries.iter().enumerate() {
        log.push_str(&format!(
            "commit {:040x}\nAuthor: T <t@x.io>\nDate:   {date}\n\n    c{i}\n\n",
            1000 + i
        ));
        for f in files {
            let letter = if *date == "2020-01-15 10:00:00 +0000" { "A" } else { "M" };
            log.push_str(&format!("{letter}\t{f}\n"));
        }
        log.push('\n');
    }

    let versions = vec![
        (
            dt("2020-01-15 10:00:00 +0000"),
            "CREATE TABLE t (a INT, b INT, c INT, d INT);".to_string(),
        ),
        (
            dt("2020-03-15 10:00:00 +0000"),
            "CREATE TABLE t (a INT, b INT, c INT, d INT, e INT, f INT);".to_string(),
        ),
        (
            dt("2020-05-15 10:00:00 +0000"),
            "CREATE TABLE t (a INT, b INT, c INT, d INT, e INT, f INT, g INT, h INT);"
                .to_string(),
        ),
    ];
    (log, versions)
}

#[test]
fn hand_computed_pipeline() {
    let (log, versions) = fixture();
    let data = measure(&log, &versions, Dialect::Generic);

    // Project: 2 files updated every month for 6 months.
    assert_eq!(data.project.activity(), &[2, 2, 2, 2, 2, 2]);
    // Schema: 4 births, then +2 injections twice; the raw heartbeat ends at
    // the last schema event (May) — alignment pads the June tail.
    assert_eq!(data.schema.activity(), &[4, 0, 2, 0, 2]);
    assert_eq!(data.birth_activity, 4);

    let jp = data.joint_progress();
    // Cumulative series, hand-computed.
    let expect_project = [2.0 / 12.0, 4.0 / 12.0, 0.5, 8.0 / 12.0, 10.0 / 12.0, 1.0];
    let expect_schema = [0.5, 0.5, 0.75, 0.75, 1.0, 1.0];
    let expect_time = [1.0 / 6.0, 2.0 / 6.0, 0.5, 4.0 / 6.0, 5.0 / 6.0, 1.0];
    for i in 0..6 {
        assert!((jp.project[i] - expect_project[i]).abs() < 1e-12, "project[{i}]");
        assert!((jp.schema[i] - expect_schema[i]).abs() < 1e-12, "schema[{i}]");
        assert!((jp.time[i] - expect_time[i]).abs() < 1e-12, "time[{i}]");
    }

    // Synchronicity: |p−s| per month = .333, .167, .25, .083, .167, 0
    // → within 10%: months 3 and 5 → 2/6.
    let sync = theta_synchronicity(&jp.project, &jp.schema, 0.10);
    assert!((sync - 2.0 / 6.0).abs() < 1e-12, "sync {sync}");

    let m = data.measures(&TaxonomyConfig::default());
    // Schema ≥ source and ≥ time every month after creation.
    assert_eq!(m.advance.over_source, Some(1.0));
    assert_eq!(m.advance.over_time, Some(1.0));
    assert!(m.advance.always_over_both);

    // Attainment: cum schema = [.5,.5,.75,.75,1,1]; duration 5.
    assert_eq!(m.attainment.at_50, Some(0.0));
    assert!((m.attainment.at_75.unwrap() - 2.0 / 5.0).abs() < 1e-12);
    assert!((m.attainment.at_80.unwrap() - 4.0 / 5.0).abs() < 1e-12);
    assert!((m.attainment.at_100.unwrap() - 4.0 / 5.0).abs() < 1e-12);

    // 4 post-birth activity units, no spike dominance → ALMOST FROZEN.
    assert_eq!(m.taxon, Taxon::AlmostFrozen);
}

#[test]
fn inactive_versions_do_not_create_activity() {
    let (log, mut versions) = fixture();
    // Re-commit the last version unchanged (formatting-only commit).
    let last = versions.last().unwrap().1.clone();
    versions.push((dt("2020-06-01 10:00:00 +0000"), last));
    let data = measure(&log, &versions, Dialect::Generic);
    assert_eq!(data.schema.total(), 8);
    assert_eq!(data.schema.activity(), &[4, 0, 2, 0, 2, 0]); // June version is inactive
}

#[test]
fn dialect_mismatch_still_measures_logical_content() {
    // The generic dialect parses both vendors' files.
    let (log, versions) = fixture();
    for dialect in [Dialect::MySql, Dialect::Postgres, Dialect::Generic] {
        let data = measure(&log, &versions, dialect);
        assert_eq!(data.schema.total(), 8, "{dialect:?}");
    }
}

#[test]
fn study_results_serde_round_trip() {
    let (log, versions) = fixture();
    let data = measure(&log, &versions, Dialect::Generic);
    let results = coevo_core::Study::new(vec![data]).run();
    let json = serde_json::to_string(&results).expect("serialize");
    let back: coevo_core::StudyResults = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(results, back);
}

#[test]
fn figures_render_from_pipeline_output() {
    let (log, versions) = fixture();
    let data = measure(&log, &versions, Dialect::Generic);
    let results = coevo_core::Study::new(vec![data]).run();
    let report = coevo_report::render_all_figures(&results);
    assert!(report.contains("Figure 4"));
    assert!(report.contains("Figure 8"));
    assert!(report.contains("ALMOST FROZEN"));
}
