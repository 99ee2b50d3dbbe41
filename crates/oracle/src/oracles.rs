//! Differential oracles: independent code paths that must agree bit-for-bit.
//!
//! The production pipeline (the engine's `run_project`: cached parse,
//! incremental diff, store-less) is the *baseline*. Each oracle recomputes
//! the same project's measures through a path the repo already ships for
//! other reasons — the legacy quadratic diff, uncached parsing, the
//! print→reparse round trip, the warm-restart store, the event-streamed
//! incremental study — and any divergence from the baseline is a bug in
//! one of the two paths.

use crate::divergence::{first_divergence, Divergence};
use coevo_core::{ProjectData, ProjectMeasures};
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::{parse_schema, print_schema};
use coevo_diff::{DiffMode, MatchPolicy, SchemaHistory, SchemaVersion};
use coevo_engine::{
    artifacts_to_events, IncrementalStudy, ProjectEvent, StudyConfig, StudyRunner,
};
use coevo_taxa::TaxonomyConfig;
use coevo_vcs::{monthly::project_heartbeat, parse_log};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Shared context for a differential run.
pub struct OracleCtx<'a> {
    /// Taxonomy thresholds (must match the baseline's).
    pub taxonomy: &'a TaxonomyConfig,
    /// Root of the scratch result store used by the store-roundtrip oracle.
    pub store_dir: &'a Path,
}

/// One independent recomputation path.
pub struct Oracle {
    /// Oracle name (stable: serialized into reproducers).
    pub name: &'static str,
    run: fn(&ProjectArtifacts, &OracleCtx<'_>) -> Result<ProjectMeasures, String>,
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle").field("name", &self.name).finish()
    }
}

impl Oracle {
    /// Recompute `p`'s measures through this oracle's independent path and
    /// report the first divergence from `baseline`. `Err` means the path
    /// itself failed — also a violation, of a different kind.
    pub fn check(
        &self,
        p: &ProjectArtifacts,
        baseline: &ProjectMeasures,
        ctx: &OracleCtx<'_>,
    ) -> Result<Option<Divergence>, String> {
        let other = (self.run)(p, ctx)?;
        Ok(first_divergence(baseline, &other))
    }

    /// Look an oracle up by its serialized name.
    pub fn by_name(name: &str) -> Option<&'static Oracle> {
        per_project_oracles().iter().find(|o| o.name == name)
    }
}

/// The per-project differential oracles, in the order the harness runs
/// them. (The corpus-level differentials — 1-worker vs N-worker engine
/// runs, and batch vs event-streamed incremental study — live in the
/// harness, since they need the whole corpus at once.)
pub fn per_project_oracles() -> &'static [Oracle] {
    const ORACLES: &[Oracle] = &[
        Oracle { name: "legacy-diff", run: legacy_diff },
        Oracle { name: "uncached-parse", run: uncached_parse },
        Oracle { name: "print-reparse", run: print_reparse },
        Oracle { name: "store-roundtrip", run: store_roundtrip },
        Oracle { name: "event-stream", run: event_stream },
    ];
    ORACLES
}

/// Rebuild the per-project pipeline from public parts, with a fresh
/// (uncached, unshared) `Arc<Schema>` per version and an explicit diff
/// mode. This is the oracle-side twin of the engine's worker pipeline.
fn independent_measures(
    p: &ProjectArtifacts,
    cfg: &TaxonomyConfig,
    mode: DiffMode,
) -> Result<ProjectMeasures, String> {
    let repo = parse_log(&p.git_log).map_err(|e| e.to_string())?;
    let mut versions = Vec::with_capacity(p.ddl_versions.len());
    for (date, text) in &p.ddl_versions {
        let schema = parse_schema(text, p.dialect).map_err(|e| e.to_string())?;
        versions.push(SchemaVersion { date: *date, schema: Arc::new(schema) });
    }
    let history = SchemaHistory::from_schemas_mode(versions, MatchPolicy::ByName, mode)
        .ok_or("empty schema history")?;
    let project_hb = project_heartbeat(&repo).ok_or("empty repository")?;
    let schema_hb = history.heartbeat();
    let birth = history.deltas().first().map(|d| d.breakdown.total()).unwrap_or(0);
    let mut data = ProjectData::new(&p.name, project_hb, schema_hb, birth);
    if let Some(taxon) = p.taxon {
        data = data.with_taxon(taxon);
    }
    Ok(data.measures(cfg))
}

/// `diff_schemas` vs `diff_schemas_legacy`: the quadratic reference diff,
/// with no short-circuits at all.
fn legacy_diff(p: &ProjectArtifacts, ctx: &OracleCtx<'_>) -> Result<ProjectMeasures, String> {
    independent_measures(p, ctx.taxonomy, DiffMode::Legacy)
}

/// Cached vs uncached parse: every version parsed fresh, so no `Arc` is
/// shared and the incremental diff must prove inactivity by equality
/// instead of pointer identity.
fn uncached_parse(
    p: &ProjectArtifacts,
    ctx: &OracleCtx<'_>,
) -> Result<ProjectMeasures, String> {
    independent_measures(p, ctx.taxonomy, DiffMode::Incremental)
}

/// Parser/printer round trip: reprint every parsed version with the
/// project's dialect and run the printed history through the production
/// pipeline. The model that comes back must measure identically.
fn print_reparse(p: &ProjectArtifacts, ctx: &OracleCtx<'_>) -> Result<ProjectMeasures, String> {
    let mut reprinted = p.clone();
    for (_, text) in &mut reprinted.ddl_versions {
        let schema = parse_schema(text, p.dialect).map_err(|e| e.to_string())?;
        *text = print_schema(&schema, p.dialect);
    }
    baseline_runner(ctx.taxonomy)
        .run_project(&reprinted)
        .map(|(_, m)| m)
        .map_err(|e| e.to_string())
}

/// Store-backed vs store-less engine: run the project twice against a
/// scratch store — the first run computes and publishes, the second must be
/// served from the store — and require cold == warm before returning.
fn store_roundtrip(
    p: &ProjectArtifacts,
    ctx: &OracleCtx<'_>,
) -> Result<ProjectMeasures, String> {
    let runner =
        StudyRunner::new(StudyConfig { taxonomy: *ctx.taxonomy, ..StudyConfig::default() })
            .with_store(ctx.store_dir);
    let (_, cold) = runner.run_project(p).map_err(|e| format!("cold store run: {e}"))?;
    let (_, warm) = runner.run_project(p).map_err(|e| format!("warm store run: {e}"))?;
    if let Some(d) = first_divergence(&cold, &warm) {
        return Err(format!("store cold/warm runs disagree: {d}"));
    }
    Ok(warm)
}

/// Batch vs event-streamed: replay the project's history as typed events
/// through the warm [`IncrementalStudy`] path, deliberately out of order —
/// DDL versions first, then commits newest-first, with folds forced into
/// existence in between so the backfill exercises the bounded-replay path
/// rather than a cold rebuild. The warm measures must equal the batch
/// baseline bit-for-bit.
fn event_stream(p: &ProjectArtifacts, ctx: &OracleCtx<'_>) -> Result<ProjectMeasures, String> {
    let events = artifacts_to_events(p).map_err(|e| e.to_string())?;
    let (mut commits, ddls): (Vec<_>, Vec<_>) =
        events.into_iter().partition(|e| matches!(e, ProjectEvent::Commit { .. }));
    commits.reverse();

    let mut study = IncrementalStudy::new(*ctx.taxonomy);
    study.ingest(&p.name, p.dialect, p.taxon, ddls).map_err(|e| e.to_string())?;
    let _ = study.results(); // materialize folds before the backfill
    study.ingest(&p.name, p.dialect, p.taxon, commits).map_err(|e| e.to_string())?;

    let cfg = *ctx.taxonomy;
    study
        .project_mut(&p.name)
        .and_then(|s| s.measures(&cfg))
        .ok_or_else(|| "event-streamed project is not measurable".to_string())
}

/// The baseline path: the engine's production single-project pipeline.
pub fn baseline_runner(taxonomy: &TaxonomyConfig) -> StudyRunner {
    StudyRunner::new(StudyConfig { taxonomy: *taxonomy, ..StudyConfig::default() })
}

/// Compute the baseline `(data, measures)` for one project.
pub fn baseline(
    p: &ProjectArtifacts,
    taxonomy: &TaxonomyConfig,
) -> Result<(ProjectData, ProjectMeasures), String> {
    baseline_runner(taxonomy).run_project(p).map_err(|e| e.to_string())
}

/// A scratch store directory that is unique per process, for the
/// store-roundtrip oracle.
pub fn scratch_store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("coevo_oracle_store_{tag}_{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_corpus::{generate_corpus, CorpusSpec};

    fn sample() -> Vec<ProjectArtifacts> {
        generate_corpus(&CorpusSpec::paper().with_per_taxon(1))
            .iter()
            .map(ProjectArtifacts::from_generated)
            .collect()
    }

    #[test]
    #[cfg_attr(feature = "oracle-selftest", ignore = "diff bug deliberately injected")]
    fn all_oracles_agree_on_unmutated_projects() {
        let cfg = TaxonomyConfig::default();
        let store = scratch_store_dir("unmutated");
        let _ = std::fs::remove_dir_all(&store);
        let ctx = OracleCtx { taxonomy: &cfg, store_dir: &store };
        for p in sample() {
            let (_, base) = baseline(&p, &cfg).expect("baseline");
            for o in per_project_oracles() {
                let d = o.check(&p, &base, &ctx).expect("oracle path runs");
                assert_eq!(d, None, "{} diverged on {}", o.name, p.name);
            }
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    #[test]
    fn oracle_registry_is_well_formed() {
        let names: Vec<&str> = per_project_oracles().iter().map(|o| o.name).collect();
        assert!(names.len() >= 5, "{names:?}");
        for n in &names {
            assert!(Oracle::by_name(n).is_some());
        }
    }
}
