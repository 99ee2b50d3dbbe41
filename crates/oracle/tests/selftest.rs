//! Oracle self-test: prove the harness actually catches bugs.
//!
//! Built only with `--features oracle-selftest`, which swaps in a
//! deliberately broken `tables_identical` inside `coevo-diff` (it trusts
//! the column *count* instead of equality). The harness must
//! convict that build: a quick seeded check has to report violations and
//! produce minimized, replayable reproducers. Never enable this feature in
//! a normal workspace build — it poisons `coevo-diff` for every dependent.

#![cfg(feature = "oracle-selftest")]

use coevo_oracle::{run_check, CheckConfig, Reproducer};

#[test]
fn injected_diff_bug_is_caught_with_a_minimized_reproducer() {
    let dir = std::env::temp_dir().join(format!("coevo_selftest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = CheckConfig::quick(42);
    cfg.repro_dir = Some(dir.clone());
    let report = run_check(&cfg);

    assert!(
        !report.ok(),
        "the seeded diff bug must produce violations (found none over {} projects)",
        report.projects
    );

    // At least one violation must carry a serialized reproducer that
    // replays deterministically to the stored failing case.
    let with_repro = report
        .violations
        .iter()
        .find_map(|v| v.repro_path.as_ref())
        .expect("at least one violation serialized a reproducer");
    let repro = Reproducer::load(with_repro).expect("reproducer loads back");
    assert_eq!(repro.seed, 42);
    assert!(!repro.violation.is_empty());
    let mutated = repro.mutated().expect("script replays");
    assert_eq!(repro.mutated().unwrap(), mutated, "replay is deterministic");

    // Shrinking must have bitten: the stored artifacts are no larger than a
    // generated project, and the script no longer than the original.
    assert!(repro.script.len() <= 2, "script not minimized: {:?}", repro.script);
    assert!(!repro.artifacts.ddl_versions.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}
