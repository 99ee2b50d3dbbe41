//! Integration against *real git*: build an actual repository with the git
//! binary, extract history with the paper's exact command, and run the
//! pipeline on its output. Skipped silently when git is unavailable.

use coevo_corpus::ProjectArtifacts;
use coevo_ddl::Dialect;
use coevo_engine::pipeline::project_from_artifacts;
use coevo_heartbeat::DateTime;
use std::path::Path;
use std::process::Command;

fn git(dir: &Path, args: &[&str], env_date: Option<&str>) -> bool {
    let mut cmd = Command::new("git");
    cmd.current_dir(dir).args(args);
    cmd.env("GIT_AUTHOR_NAME", "Tester")
        .env("GIT_AUTHOR_EMAIL", "t@example.org")
        .env("GIT_COMMITTER_NAME", "Tester")
        .env("GIT_COMMITTER_EMAIL", "t@example.org");
    if let Some(d) = env_date {
        cmd.env("GIT_AUTHOR_DATE", d).env("GIT_COMMITTER_DATE", d);
    }
    cmd.output().map(|o| o.status.success()).unwrap_or(false)
}

fn git_available() -> bool {
    Command::new("git").arg("--version").output().map(|o| o.status.success()).unwrap_or(false)
}

#[test]
fn pipeline_accepts_real_git_log_output() {
    if !git_available() {
        eprintln!("git not available; skipping");
        return;
    }
    let dir = std::env::temp_dir().join(format!("coevo_real_git_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    assert!(git(&dir, &["init", "-q"], None));

    // Commit 1: schema + source, January.
    let v1 = "CREATE TABLE users (id INT PRIMARY KEY, name TEXT);\n";
    std::fs::write(dir.join("schema.sql"), v1).unwrap();
    std::fs::write(dir.join("app.py"), "print('hi')\n").unwrap();
    assert!(git(&dir, &["add", "."], None));
    assert!(git(&dir, &["commit", "-qm", "initial import"], Some("2021-01-10 10:00:00 +0000")));

    // Commit 2: source only, February.
    std::fs::write(dir.join("app.py"), "print('hello')\n").unwrap();
    assert!(git(&dir, &["add", "."], None));
    assert!(git(&dir, &["commit", "-qm", "tweak app"], Some("2021-02-10 10:00:00 +0000")));

    // Commit 3: schema change, April.
    let v2 = "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT);\n";
    std::fs::write(dir.join("schema.sql"), v2).unwrap();
    assert!(git(&dir, &["add", "."], None));
    assert!(git(&dir, &["commit", "-qm", "add email"], Some("2021-04-10 10:00:00 +0000")));

    // The paper's extraction command.
    let out = Command::new("git")
        .current_dir(&dir)
        .args(["log", "--name-status", "--no-merges", "--date=iso"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let log = String::from_utf8(out.stdout).unwrap();

    let data = project_from_artifacts(ProjectArtifacts {
        name: "real/git".into(),
        taxon: None,
        dialect: Dialect::Generic,
        ddl_versions: vec![
            (DateTime::parse("2021-01-10 10:00:00 +0000").unwrap(), v1.to_string()),
            (DateTime::parse("2021-04-10 10:00:00 +0000").unwrap(), v2.to_string()),
        ],
        git_log: log,
    })
    .unwrap();

    // Jan..Apr = 4 months; files updated: Jan 2, Feb 1, Mar 0, Apr 1.
    assert_eq!(data.project.activity(), &[2, 1, 0, 1]);
    // Schema: 2 births + 1 injection.
    assert_eq!(data.schema.activity(), &[2, 0, 0, 1]);
    assert_eq!(data.birth_activity, 2);

    let _ = std::fs::remove_dir_all(&dir);
}
