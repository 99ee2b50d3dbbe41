//! Tier-1 smoke coverage for the correctness oracle: a clean build must
//! pass a quick seeded check end to end, through both the harness API and
//! the `coevo check` CLI surface.

use coevo_cli::run;
use coevo_oracle::{all_mutators, per_project_oracles, run_check, CheckConfig};

/// One quick check through the CLI layer: the summary line must state the
/// coverage, the run must be clean, and the process exit code must be 0.
#[test]
fn coevo_check_quick_is_clean_through_the_cli() {
    let repro = std::env::temp_dir().join(format!("coevo_smoke_repro_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&repro);
    let mut out = Vec::new();
    let repro_arg = repro.to_str().expect("UTF-8 temp path");
    let argv = ["check", "--quick", "--seed", "42", "--repro", repro_arg];
    let code = run(&argv, &mut out, &mut std::io::stderr());
    let text = String::from_utf8(out).expect("utf-8 CLI output");
    assert_eq!(code, 0, "quick check must exit 0 on a clean build:\n{text}");
    assert!(text.contains("checked 12 projects"), "{text}");
    assert!(text.contains("no violations"), "{text}");
    // Clean runs write no reproducers.
    let wrote_any = std::fs::read_dir(&repro).map(|d| d.count() > 0).unwrap_or(false);
    assert!(!wrote_any, "clean check must not write reproducers");
    let _ = std::fs::remove_dir_all(&repro);
}

/// The harness must meet the coverage floors the oracle promises: ≥ 8
/// mutators, ≥ 5 per-project differential oracles plus the three
/// corpus-level differentials (1-vs-N workers, batch-vs-incremental study,
/// eager-vs-streamed engine), the compat and rename check families over
/// planted histories, and layer-3 invariant sweeps over every measured
/// project — under an arbitrary seed, not just the CI one.
#[test]
fn run_check_covers_the_promised_floors() {
    assert!(all_mutators().len() >= 8);
    assert!(per_project_oracles().len() >= 5);

    let report = run_check(&CheckConfig::quick(7));
    assert!(report.ok(), "violations on a clean build: {:#?}", report.violations);
    assert_eq!(report.projects, 12);
    assert_eq!(report.mutators, all_mutators().len());
    assert_eq!(
        report.oracles,
        per_project_oracles().len()
            + 3
            + coevo_oracle::COMPAT_CHECKS
            + coevo_oracle::RENAME_CHECKS
    );
    // The compat sweep classifies planted histories with breaking steps.
    assert!(report.compat.steps > 0);
    assert!(report.compat.breaking_steps > 0);
    assert!(report.compat.false_alarm_rate() <= 1.0);
    // The rename sweep validates the scored matcher on planted ground truth.
    assert!(report.rename.steps > 0);
    assert!(report.rename.planted > 0);
    assert!(report.rename.precision() >= coevo_oracle::PRECISION_FLOOR);
    assert!(report.rename.recall() >= coevo_oracle::RECALL_FLOOR);
    assert!(
        report.mutation_runs >= report.projects * 8,
        "expected ≥ 8 applied mutations per project, got {} over {} projects",
        report.mutation_runs,
        report.projects
    );
    // Every applied mutation runs every per-project oracle; the corpus-level
    // differential adds one run per corpus (original + one per mutator).
    assert!(report.oracle_runs >= report.mutation_runs * per_project_oracles().len());
    // One invariant sweep for each baseline and each mutated measurement.
    assert!(report.invariant_checks >= report.projects + report.mutation_runs);
}

/// The full configuration must cover the ≥ 50-project corpus the issue
/// specifies. (Only the config is asserted here — the full run itself is
/// exercised in CI as `coevo check --full --seed 42`.)
#[test]
fn full_config_covers_fifty_projects() {
    let full = CheckConfig::full(42);
    assert!(full.per_taxon * 6 >= 50);
    assert!(full.per_taxon > CheckConfig::quick(42).per_taxon);
}
