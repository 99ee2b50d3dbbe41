//! The check harness: corpora × mutators × oracles × invariants.
//!
//! One [`run_check`] call drives the whole subsystem, exactly as `coevo
//! check` does:
//!
//! 1. generate a seeded corpus and compute every project's **baseline**
//!    measures through the production pipeline;
//! 2. apply every [`Mutator`] (plus one composed two-step script) to every
//!    project and enforce the declared **metamorphic invariant** against
//!    the baseline;
//! 3. run every mutated project through the **differential oracles** (and
//!    the whole corpus through 1-worker vs N-worker engine runs, the
//!    batch-vs-incremental study differential with seeded event-batch
//!    splits, and the batch-cap invariant — cap 1 vs uncapped — with
//!    seeded mid-corpus failure injection);
//! 4. enforce the layer-3 **measure invariants** on everything computed.
//!
//! Any violation is shrunk (ddmin-lite) and — when a reproducer directory
//! is configured — serialized to disk for replay.

use crate::divergence::{first_divergence, totals_divergence};
use crate::invariants::check_measures;
use crate::mutators::{all_mutators, Invariant};
use crate::oracles::{baseline, per_project_oracles, scratch_store_dir, OracleCtx};
use crate::repro::Reproducer;
use crate::shrink::{apply_script, script_label, shrink, MutationStep};
use coevo_core::{ProjectMeasures, StudyResults};
use coevo_corpus::{generate_corpus, CorpusSpec, ProjectArtifacts};
use coevo_engine::{artifacts_to_events, IncrementalStudy, Source, StudyConfig, StudyRunner};
use coevo_taxa::TaxonomyConfig;
use std::path::PathBuf;

/// Configuration of one check run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckConfig {
    /// Corpus seed (also salts every mutation seed).
    pub seed: u64,
    /// Projects per taxon in the generated corpus.
    pub per_taxon: usize,
    /// Where to write reproducers; `None` skips serialization.
    pub repro_dir: Option<PathBuf>,
    /// Predicate-call budget of each shrink.
    pub shrink_budget: usize,
    /// Stop after this many violations (a broken build would otherwise
    /// report every project).
    pub max_violations: usize,
}

impl CheckConfig {
    /// The fast CI configuration: 12 projects (2 per taxon).
    pub fn quick(seed: u64) -> Self {
        Self { seed, per_taxon: 2, repro_dir: None, shrink_budget: 60, max_violations: 5 }
    }

    /// The thorough configuration: 54 projects (9 per taxon).
    pub fn full(seed: u64) -> Self {
        Self { seed, per_taxon: 9, repro_dir: None, shrink_budget: 120, max_violations: 10 }
    }
}

/// One confirmed violation, minimized.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The project (or `corpus:<mutator>` for corpus-level differentials).
    pub project: String,
    /// The minimized mutation script.
    pub script: Vec<MutationStep>,
    /// Which check fired: an oracle name, `metamorphic`,
    /// `measure-invariants`, `workers-1-vs-4`, `batch-cap-1-vs-uncapped`, or
    /// `baseline`.
    pub check: String,
    /// First divergent field / broken invariant, with both values.
    pub detail: String,
    /// Serialized reproducer, when written.
    pub repro_path: Option<PathBuf>,
}

impl Violation {
    /// The script rendered as `a+b` (`-` when empty).
    pub fn mutation_label(&self) -> String {
        script_label(&self.script)
    }
}

/// Everything one check run observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckReport {
    /// Projects in the generated corpus.
    pub projects: usize,
    /// Mutators in the registry.
    pub mutators: usize,
    /// Differential oracles (per-project + corpus-level).
    pub oracles: usize,
    /// Mutation scripts actually applied (inapplicable ones are skipped).
    pub mutation_runs: usize,
    /// Differential oracle executions.
    pub oracle_runs: usize,
    /// Layer-3 invariant sweeps (one per measured project).
    pub invariant_checks: usize,
    /// Evidence counters of the compat family: classified steps, BREAKING
    /// steps, and uncorroborated (false-alarm) BREAKING calls.
    pub compat: crate::compat_oracle::CompatStats,
    /// Detection counters of the rename family: planted renames, true and
    /// false positives, and misses over the planted population.
    pub rename: crate::rename_oracle::RenameStats,
    /// Violations found, in discovery order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// True when no check fired.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Mix a stable per-(project, slot) seed out of the run seed.
fn step_seed(seed: u64, project: usize, slot: u64) -> u64 {
    let mut x = seed
        ^ (project as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ slot.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// The weakest invariant promised by a script: one totals-only step
/// weakens the whole composition.
fn script_invariant(script: &[MutationStep]) -> Invariant {
    let totals_only = script.iter().any(|s| {
        crate::mutators::Mutator::by_name(&s.name)
            .is_some_and(|m| m.invariant == Invariant::IdenticalTotals)
    });
    if totals_only {
        Invariant::IdenticalTotals
    } else {
        Invariant::IdenticalMeasures
    }
}

/// Corpus-level differential: the batch study (production per-project
/// pipeline, measures name-sorted) vs the event-streamed
/// [`IncrementalStudy`], with every project's event list split at a seeded
/// cut and delivered suffix-first — so the second ingest lands out of
/// order and must replay history, not merely append. `None` means the two
/// paths agreed bit-for-bit, down to the serialized JSON.
fn batch_vs_incremental(
    corpus: &[ProjectArtifacts],
    taxonomy: &TaxonomyConfig,
    seed: u64,
) -> Option<String> {
    let mut incremental = IncrementalStudy::new(*taxonomy);
    let mut batch: Vec<ProjectMeasures> = Vec::with_capacity(corpus.len());
    for (pi, p) in corpus.iter().enumerate() {
        let measured = baseline(p, taxonomy).map(|(_, m)| m);
        let streamed = stream_split(&mut incremental, p, step_seed(seed, pi, 300));
        match (measured, streamed) {
            (Ok(m), Ok(())) => batch.push(m),
            (Err(_), Err(_)) => continue, // both paths reject: parity holds
            (Ok(_), Err(e)) => {
                return Some(format!(
                    "{}: event stream failed where batch succeeded: {e}",
                    p.name
                ));
            }
            (Err(e), Ok(())) => {
                return Some(format!(
                    "{}: batch failed where event stream succeeded: {e}",
                    p.name
                ));
            }
        }
    }
    batch.sort_by(|a, b| a.name.cmp(&b.name));
    let batch = StudyResults::from_measures(batch);
    let streamed = incremental.results();
    if batch != streamed {
        let field = batch
            .measures
            .iter()
            .zip(streamed.measures.iter())
            .find_map(|(a, b)| first_divergence(a, b))
            .map(|d| d.to_string())
            .unwrap_or_else(|| "aggregate results disagree".to_string());
        return Some(format!("batch vs incremental study disagree: {field}"));
    }
    let batch_json = serde_json::to_string(&batch).expect("results serialize");
    let streamed_json = serde_json::to_string(&streamed).expect("results serialize");
    if batch_json != streamed_json {
        return Some("batch vs incremental study serialize differently".to_string());
    }
    None
}

/// Corpus-level batch-cap invariant: one pass over the corpus gives the
/// same study whatever the batch cap, so a run capped at one project per
/// batch must match the uncapped run byte for byte. Checked twice: on the
/// corpus as-is, and with one seeded project's DDL corrupted so both runs
/// must demote it to the same structured failure under
/// `CollectAndContinue`. `None` means results, failures and serialized
/// JSON all agreed bit-for-bit.
fn batch_cap_invariance(
    corpus: &[ProjectArtifacts],
    taxonomy: &TaxonomyConfig,
    seed: u64,
) -> Option<String> {
    let compare = |corpus: &[ProjectArtifacts], tag: &str| -> Option<String> {
        let runner =
            StudyRunner::new(StudyConfig { taxonomy: *taxonomy, ..Default::default() });
        let uncapped = runner.run(Source::InMemory(corpus.to_vec()));
        let capped =
            runner.clone().with_max_resident(1).run_streamed(Source::InMemory(corpus.to_vec()));
        match (uncapped, capped) {
            (Ok(u), Ok(c)) => {
                if u.failures != c.failures {
                    return Some(format!(
                        "{tag}: cap 1 vs uncapped failure sets disagree: {} vs {}",
                        c.failures.len(),
                        u.failures.len()
                    ));
                }
                if u.results != c.results {
                    let field = u
                        .results
                        .measures
                        .iter()
                        .zip(c.results.measures.iter())
                        .find_map(|(a, b)| first_divergence(a, b))
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "aggregate results disagree".to_string());
                    return Some(format!("{tag}: cap 1 vs uncapped disagree: {field}"));
                }
                let uj = serde_json::to_string(&u.results).expect("results serialize");
                let cj = serde_json::to_string(&c.results).expect("results serialize");
                if uj != cj {
                    return Some(format!(
                        "{tag}: cap 1 vs uncapped results serialize differently"
                    ));
                }
                None
            }
            (Err(e), Ok(_)) => Some(format!("{tag}: uncapped run failed where cap 1 ran: {e}")),
            (Ok(_), Err(e)) => Some(format!("{tag}: cap 1 run failed where uncapped ran: {e}")),
            (Err(_), Err(_)) => None, // both reject: parity holds
        }
    };

    if let Some(d) = compare(corpus, "clean") {
        return Some(d);
    }
    if corpus.is_empty() {
        return None;
    }
    // Seeded mid-corpus failure injection: truncate the victim's first DDL
    // version so its parse stage fails. Both runs must skip exactly the
    // same project and agree on everything computed from the survivors.
    let victim = (step_seed(seed, corpus.len(), 400) as usize) % corpus.len();
    let mut injected = corpus.to_vec();
    if let Some((_, sql)) = injected[victim].ddl_versions.first_mut() {
        *sql = "CREATE TABLE broken (a INT".to_string();
    }
    compare(&injected, "failure-injected")
}

/// Feed one project into the incremental study as two event batches split
/// at a seeded cut point, suffix first.
fn stream_split(
    study: &mut IncrementalStudy,
    p: &ProjectArtifacts,
    seed: u64,
) -> Result<(), String> {
    let events = artifacts_to_events(p).map_err(|e| e.to_string())?;
    let cut = (seed as usize) % (events.len() + 1);
    let (head, tail) = events.split_at(cut);
    study.ingest(&p.name, p.dialect, p.taxon, tail.to_vec()).map_err(|e| e.to_string())?;
    study.ingest(&p.name, p.dialect, p.taxon, head.to_vec()).map_err(|e| e.to_string())?;
    Ok(())
}

/// Run the whole harness. Deterministic for a given config.
pub fn run_check(cfg: &CheckConfig) -> CheckReport {
    let taxonomy = TaxonomyConfig::default();
    let mut spec = CorpusSpec::paper().with_per_taxon(cfg.per_taxon);
    spec.seed = cfg.seed;
    let projects: Vec<ProjectArtifacts> =
        generate_corpus(&spec).iter().map(ProjectArtifacts::from_generated).collect();

    let store_dir = scratch_store_dir(&format!("check_{:x}", cfg.seed));
    let _ = std::fs::remove_dir_all(&store_dir);
    let ctx = OracleCtx { taxonomy: &taxonomy, store_dir: &store_dir };

    let mutators = all_mutators();
    let oracles = per_project_oracles();
    let mut report = CheckReport {
        projects: projects.len(),
        mutators: mutators.len(),
        // + the three corpus-level differentials + the compat and rename
        // families
        oracles: oracles.len()
            + 3
            + crate::compat_oracle::COMPAT_CHECKS
            + crate::rename_oracle::RENAME_CHECKS,
        ..CheckReport::default()
    };

    let record =
        |report: &mut CheckReport,
         original: &ProjectArtifacts,
         script: &[MutationStep],
         check: &str,
         detail: String,
         reproduces: &mut dyn FnMut(&ProjectArtifacts, &[MutationStep]) -> bool| {
            let (arts, script) = shrink(original, script, cfg.shrink_budget, reproduces);
            let repro = Reproducer {
                seed: cfg.seed,
                check: check.to_string(),
                violation: detail.clone(),
                script: script.clone(),
                artifacts: arts,
            };
            let duplicate = report
                .violations
                .iter()
                .any(|v| v.project == original.name && v.check == check && v.script == script);
            if duplicate {
                return; // several scripts shrank to the same minimal case
            }
            let repro_path = cfg.repro_dir.as_deref().and_then(|d| repro.save(d).ok());
            report.violations.push(Violation {
                project: original.name.clone(),
                script,
                check: check.to_string(),
                detail,
                repro_path,
            });
        };

    'projects: for (pi, p) in projects.iter().enumerate() {
        // Baseline through the production pipeline.
        let (data, base) = match baseline(p, &taxonomy) {
            Ok(x) => x,
            Err(e) => {
                record(&mut report, p, &[], "baseline", e, &mut |arts, _| {
                    baseline(arts, &taxonomy).is_err()
                });
                continue;
            }
        };

        // Layer 3 on the unmutated project.
        report.invariant_checks += 1;
        for msg in check_measures(&data, &base, &taxonomy) {
            record(&mut report, p, &[], "measure-invariants", msg, &mut |arts, script| {
                let Some(m) = apply_script(arts, script) else { return false };
                match baseline(&m, &taxonomy) {
                    Ok((d, b)) => !check_measures(&d, &b, &taxonomy).is_empty(),
                    Err(_) => false,
                }
            });
        }

        // One single-step script per mutator, plus one composed script to
        // exercise composability.
        let mut scripts: Vec<Vec<MutationStep>> = mutators
            .iter()
            .enumerate()
            .map(|(mi, m)| {
                vec![MutationStep {
                    name: m.name.to_string(),
                    seed: step_seed(cfg.seed, pi, mi as u64),
                }]
            })
            .collect();
        scripts.push(vec![
            MutationStep {
                name: "comment-churn".to_string(),
                seed: step_seed(cfg.seed, pi, 100),
            },
            MutationStep {
                name: "permute-tables".to_string(),
                seed: step_seed(cfg.seed, pi, 101),
            },
        ]);

        for script in scripts {
            let Some(mutated) = apply_script(p, &script) else { continue };
            if mutated == *p {
                continue; // inapplicable on this project
            }
            report.mutation_runs += 1;

            let (mdata, mbase) = match baseline(&mutated, &taxonomy) {
                Ok(x) => x,
                Err(e) => {
                    record(
                        &mut report,
                        p,
                        &script,
                        "baseline",
                        format!("mutated history failed the pipeline: {e}"),
                        &mut |arts, script| {
                            apply_script(arts, script)
                                .is_some_and(|m| m != *arts && baseline(&m, &taxonomy).is_err())
                        },
                    );
                    continue;
                }
            };

            // Metamorphic invariant vs the unmutated baseline.
            let invariant = script_invariant(&script);
            let divergence = match invariant {
                Invariant::IdenticalMeasures => first_divergence(&base, &mbase),
                Invariant::IdenticalTotals => totals_divergence(&base, &mbase),
            };
            if let Some(d) = divergence {
                record(
                    &mut report,
                    p,
                    &script,
                    "metamorphic",
                    format!("{} broken: {d}", invariant.name()),
                    &mut |arts, script| {
                        let Some(m) = apply_script(arts, script) else { return false };
                        if m == *arts {
                            return false;
                        }
                        let (Ok((_, b0)), Ok((_, b1))) =
                            (baseline(arts, &taxonomy), baseline(&m, &taxonomy))
                        else {
                            return false;
                        };
                        match script_invariant(script) {
                            Invariant::IdenticalMeasures => {
                                first_divergence(&b0, &b1).is_some()
                            }
                            Invariant::IdenticalTotals => totals_divergence(&b0, &b1).is_some(),
                        }
                    },
                );
            }

            // Layer 3 on the mutated project.
            report.invariant_checks += 1;
            for msg in check_measures(&mdata, &mbase, &taxonomy) {
                record(
                    &mut report,
                    p,
                    &script,
                    "measure-invariants",
                    msg,
                    &mut |arts, script| {
                        let Some(m) = apply_script(arts, script) else { return false };
                        match baseline(&m, &taxonomy) {
                            Ok((d, b)) => !check_measures(&d, &b, &taxonomy).is_empty(),
                            Err(_) => false,
                        }
                    },
                );
            }

            // Differential oracles on the mutated project.
            for oracle in oracles {
                report.oracle_runs += 1;
                let outcome = oracle.check(&mutated, &mbase, &ctx);
                let detail = match outcome {
                    Ok(None) => continue,
                    Ok(Some(d)) => d.to_string(),
                    Err(e) => format!("oracle path failed: {e}"),
                };
                record(&mut report, p, &script, oracle.name, detail, &mut |arts, script| {
                    let Some(m) = apply_script(arts, script) else { return false };
                    let Ok((_, mb)) = baseline(&m, &taxonomy) else { return false };
                    matches!(oracle.check(&m, &mb, &ctx), Ok(Some(_)) | Err(_))
                });
            }

            if report.violations.len() >= cfg.max_violations {
                break 'projects;
            }
        }
    }

    // Corpus-level differentials over the original corpus and over each
    // mutator's fully-mutated corpus: 1-worker vs 4-worker engine runs,
    // the batch study vs the event-streamed incremental study, and a run
    // capped at one project per batch vs the uncapped run (clean and with a
    // seeded mid-corpus failure injected).
    if report.violations.len() < cfg.max_violations {
        let mut corpora: Vec<(String, Vec<ProjectArtifacts>)> =
            vec![("corpus:original".to_string(), projects.clone())];
        for (mi, m) in mutators.iter().enumerate() {
            let mutated: Vec<ProjectArtifacts> = projects
                .iter()
                .enumerate()
                .map(|(pi, q)| {
                    let mut out = q.clone();
                    m.apply_seeded(&mut out, step_seed(cfg.seed, pi, 200 + mi as u64));
                    out
                })
                .collect();
            corpora.push((format!("corpus:{}", m.name), mutated));
        }
        'corpora: for (label, corpus) in corpora {
            let mut failures: Vec<(&'static str, String)> = Vec::new();

            report.oracle_runs += 1;
            let run = |workers: usize| {
                StudyRunner::new(StudyConfig { taxonomy, ..StudyConfig::default() })
                    .with_workers(workers)
                    .run(Source::InMemory(corpus.clone()))
            };
            match (run(1), run(4)) {
                (Ok(one), Ok(four)) => {
                    if one.projects != four.projects || one.results != four.results {
                        let field = one
                            .results
                            .measures
                            .iter()
                            .zip(four.results.measures.iter())
                            .find_map(|(a, b)| first_divergence(a, b))
                            .map(|d| d.to_string())
                            .unwrap_or_else(|| "reports disagree".to_string());
                        failures.push((
                            "workers-1-vs-4",
                            format!("1-worker vs 4-worker runs disagree: {field}"),
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    failures.push(("workers-1-vs-4", format!("engine run failed: {e}")));
                }
            }

            report.oracle_runs += 1;
            if let Some(detail) = batch_vs_incremental(&corpus, &taxonomy, cfg.seed) {
                failures.push(("batch-vs-incremental", detail));
            }

            report.oracle_runs += 1;
            if let Some(detail) = batch_cap_invariance(&corpus, &taxonomy, cfg.seed) {
                failures.push(("batch-cap-1-vs-uncapped", detail));
            }

            for (check, detail) in failures {
                report.violations.push(Violation {
                    project: label.clone(),
                    script: Vec::new(),
                    check: check.to_string(),
                    detail,
                    repro_path: None,
                });
                if report.violations.len() >= cfg.max_violations {
                    break 'corpora;
                }
            }
        }
    }

    // The compat oracle family: ground-truth classification, query-evidence
    // cross-checks, stability, and lattice semantics on planted projects
    // with labeled breaking/benign steps. Stats (including the false-alarm
    // rate) are reported even on a clean run.
    {
        let planted = (cfg.per_taxon * 2).max(4);
        let steps = 10;
        let (violations, stats) =
            crate::compat_oracle::compat_sweep(step_seed(cfg.seed, 0, 500), planted, steps);
        report.oracle_runs += planted * crate::compat_oracle::COMPAT_CHECKS;
        report.compat = stats;
        for (project, check, detail) in violations {
            if report.violations.len() >= cfg.max_violations {
                break;
            }
            report.violations.push(Violation {
                project,
                script: Vec::new(),
                check: check.to_string(),
                detail,
                repro_path: None,
            });
        }
    }

    // The rename oracle family: scored-matcher precision/recall against
    // planted rename ground truth, the ≤-legacy activity bound, flag-off
    // bit-identity, and threshold/permutation stability. Stats are reported
    // even on a clean run.
    {
        let planted = (cfg.per_taxon * 2).max(4);
        let steps = 12;
        let (violations, stats) =
            crate::rename_oracle::rename_sweep(step_seed(cfg.seed, 0, 600), planted, steps);
        report.oracle_runs += planted * crate::rename_oracle::RENAME_CHECKS;
        report.rename = stats;
        for (project, check, detail) in violations {
            if report.violations.len() >= cfg.max_violations {
                break;
            }
            report.violations.push(Violation {
                project,
                script: Vec::new(),
                check: check.to_string(),
                detail,
                repro_path: None,
            });
        }
    }

    let _ = std::fs::remove_dir_all(&store_dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        let q = CheckConfig::quick(42);
        let f = CheckConfig::full(42);
        assert!(q.per_taxon < f.per_taxon);
        assert!(f.per_taxon * 6 >= 50, "full corpus must cover ≥ 50 projects");
    }

    #[test]
    fn step_seed_is_stable_and_spread() {
        assert_eq!(step_seed(42, 3, 7), step_seed(42, 3, 7));
        assert_ne!(step_seed(42, 3, 7), step_seed(42, 3, 8));
        assert_ne!(step_seed(42, 3, 7), step_seed(42, 4, 7));
        assert_ne!(step_seed(42, 3, 7), step_seed(43, 3, 7));
    }

    #[test]
    fn script_invariant_weakens_with_scale_time() {
        let full = vec![MutationStep { name: "case-fold".into(), seed: 1 }];
        assert_eq!(script_invariant(&full), Invariant::IdenticalMeasures);
        let scaled = vec![
            MutationStep { name: "case-fold".into(), seed: 1 },
            MutationStep { name: "scale-time".into(), seed: 2 },
        ];
        assert_eq!(script_invariant(&scaled), Invariant::IdenticalTotals);
    }

    // Full-harness runs live in `tests/` (tier-1 `oracle_smoke`) — they are
    // too slow for a unit-test position but cheap enough for the suite.
}
