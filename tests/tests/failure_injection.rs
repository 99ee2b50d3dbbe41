//! Failure injection: malformed inputs at every pipeline stage must produce
//! structured errors (never panics, never silent garbage).

use coevo_corpus::loader::load_project;
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::Dialect;
use coevo_engine::pipeline::project_from_artifacts;
use coevo_engine::{EngineError, EngineErrorKind};
use coevo_heartbeat::DateTime;
use coevo_vcs::parse_log;
use std::fs;

fn dt(s: &str) -> DateTime {
    DateTime::parse(s).unwrap()
}

/// Run the pipeline on project `x/y`; it must fail.
fn pipeline_error(git_log: &str, versions: &[(&str, &str)]) -> EngineError {
    project_from_artifacts(ProjectArtifacts {
        name: "x/y".into(),
        taxon: None,
        dialect: Dialect::Generic,
        ddl_versions: versions.iter().map(|(d, s)| (dt(d), s.to_string())).collect(),
        git_log: git_log.into(),
    })
    .unwrap_err()
}

const GOOD_LOG: &str =
    "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tf\n";

#[test]
fn truncated_git_log_mid_commit() {
    // Header without a Date line: structured error, not a panic.
    let truncated = "commit abcdef\nAuthor: A <a@b.c>\n";
    let err = parse_log(truncated).unwrap_err();
    assert!(err.message.contains("no Date"), "{err}");
}

#[test]
fn git_log_with_garbage_line() {
    let log = "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\n???garbage without tab\n";
    let err = parse_log(log).unwrap_err();
    assert!(err.message.contains("unrecognized"), "{err}");
}

#[test]
fn binary_junk_inputs_do_not_panic() {
    let junk: String = (0u8..=255).map(|b| (b % 94 + 32) as char).collect();
    let _ = parse_log(&junk);
    let _ = coevo_ddl::parse_schema(&junk, Dialect::Generic);
    let _ = coevo_ddl::parse_schema(&junk, Dialect::MySql);
    let _ = coevo_ddl::parse_schema(&junk, Dialect::Postgres);
}

#[test]
fn broken_ddl_version_fails_with_position() {
    let err = pipeline_error(
        GOOD_LOG,
        &[
            ("2020-01-01 00:00:00 +0000", "CREATE TABLE t (a INT);"),
            ("2020-02-01 00:00:00 +0000", "CREATE TABLE t (a INT"), // truncated
        ],
    );
    match err.kind {
        EngineErrorKind::Ddl(e) => assert!(e.to_string().contains("line"), "{e}"),
        other => panic!("expected Ddl error, got {other:?}"),
    }
}

#[test]
fn bad_git_log_fails_pipeline() {
    let err = pipeline_error(
        "M\tfile-before-any-commit\n",
        &[("2020-01-01 00:00:00 +0000", "CREATE TABLE t (a INT);")],
    );
    assert!(matches!(err.kind, EngineErrorKind::GitLog(_)), "{err}");
}

#[test]
fn merge_only_repository_is_empty() {
    let log = "commit abc\nMerge: 1 2\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    Merge\n\n";
    let err = pipeline_error(log, &[("2020-01-01 00:00:00 +0000", "CREATE TABLE t (a INT);")]);
    assert_eq!(err.kind, EngineErrorKind::Empty("repository"));
}

#[test]
fn no_versions_is_empty_history() {
    let err = pipeline_error(GOOD_LOG, &[]);
    assert_eq!(err.kind, EngineErrorKind::Empty("schema history"));
}

fn loader_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("coevo_fail_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("versions")).unwrap();
    dir
}

#[test]
fn loader_corrupt_manifest() {
    let dir = loader_dir("manifest");
    fs::write(dir.join("manifest.json"), "{not json").unwrap();
    fs::write(dir.join("git.log"), GOOD_LOG).unwrap();
    let err = load_project(&dir).unwrap_err();
    assert!(err.to_string().contains("manifest"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn loader_missing_version_file() {
    let dir = loader_dir("missingver");
    fs::write(
        dir.join("manifest.json"),
        r#"{"name":"x","dialect":"mysql","versions":[{"file":"0001.sql","date":"2020-01-01 00:00:00 +0000"}]}"#,
    )
    .unwrap();
    fs::write(dir.join("git.log"), GOOD_LOG).unwrap();
    let err = load_project(&dir).unwrap_err();
    assert!(err.to_string().starts_with("versions/0001.sql: "), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn loader_bad_version_date() {
    let dir = loader_dir("baddate");
    fs::write(
        dir.join("manifest.json"),
        r#"{"name":"x","dialect":"mysql","versions":[{"file":"0001.sql","date":"tomorrow"}]}"#,
    )
    .unwrap();
    fs::write(dir.join("versions/0001.sql"), "CREATE TABLE t (a INT);").unwrap();
    fs::write(dir.join("git.log"), GOOD_LOG).unwrap();
    let err = load_project(&dir).unwrap_err();
    assert_eq!(err.to_string(), "bad date \"tomorrow\"");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn loader_unknown_taxon_is_ignored_not_fatal() {
    let dir = loader_dir("unknowntaxon");
    fs::write(
        dir.join("manifest.json"),
        r#"{"name":"x","dialect":"mysql","taxon":"weird","versions":[{"file":"0001.sql","date":"2020-01-01 00:00:00 +0000"}]}"#,
    )
    .unwrap();
    fs::write(dir.join("versions/0001.sql"), "CREATE TABLE t (a INT);").unwrap();
    fs::write(dir.join("git.log"), GOOD_LOG).unwrap();
    let project = load_project(&dir).unwrap();
    assert_eq!(project.taxon, None); // unknown label → classifier will decide
    assert_eq!(project_from_artifacts(project).unwrap().taxon, None);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ddl_error_positions_are_plausible() {
    let sql = "CREATE TABLE ok (a INT);\nCREATE TABLE broken (a INT,,);";
    let err = coevo_ddl::parse_schema(sql, Dialect::Generic).unwrap_err();
    assert_eq!(err.line, 2, "{err}");
    assert!(err.column > 0);
}

#[test]
fn deeply_nested_parens_survive() {
    // Pathological CHECK expression: deep nesting must not overflow.
    let mut expr = String::new();
    for _ in 0..1_000 {
        expr.push('(');
    }
    expr.push('1');
    for _ in 0..1_000 {
        expr.push(')');
    }
    let sql = format!("CREATE TABLE t (a INT, CHECK ({expr}));");
    let schema = coevo_ddl::parse_schema(&sql, Dialect::Generic).unwrap();
    assert_eq!(schema.tables.len(), 1);
}

#[test]
fn enormous_identifier_is_fine() {
    let name = "c".repeat(100_000);
    let sql = format!("CREATE TABLE t ({name} INT);");
    let schema = coevo_ddl::parse_schema(&sql, Dialect::Generic).unwrap();
    assert_eq!(schema.table("t").unwrap().columns[0].name.len(), 100_000);
}
