//! The store-aware stage: consult the result store before running the
//! per-project pipeline, publish on miss.
//!
//! The stage wraps [`crate::pipeline::process`]. For every project it
//! derives the project's [`InputDigest`] (history hash × vcs hash × config
//! hash — see `coevo_corpus::digest` and [`store_config_hash`]) and asks
//! the store:
//!
//! - **hit** — the verified entry is deserialized and returned; parse,
//!   diff, heartbeat and measure are skipped entirely;
//! - **miss / invalidated / quarantined** — the pipeline runs as usual and
//!   the fresh result is published back (best-effort: a failed publish is
//!   counted, never fatal).
//!
//! Because the digest covers every input byte and the configuration, a
//! changed project — or a changed configuration — can never be served a
//! stale result: it simply looks up a key that does not exist. The one
//! stale shape a digest cannot see is an entry from before the store kept
//! rename counts: under a rename-aware policy such an entry lacks them, so
//! it counts as invalidated and is recomputed and republished.

use crate::error::{EngineError, Stage};
use crate::metrics::{Metrics, StoreEvent};
use crate::pipeline::{process, ProjectResult};
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::fingerprint::Fnv1a;
use coevo_diff::MatchPolicy;
use coevo_store::{InputDigest, Lookup, ResultStore};
use coevo_taxa::TaxonomyConfig;
use std::time::Instant;

/// A run's store handle plus the run-wide configuration hash.
#[derive(Debug)]
pub(crate) struct StoreContext {
    pub store: ResultStore,
    pub config_hash: u64,
}

impl StoreContext {
    /// The input digest of one project under this run's configuration.
    pub fn digest(&self, project: &ProjectArtifacts) -> InputDigest {
        let (history, vcs) = project.input_hashes();
        InputDigest::new(history, vcs, self.config_hash)
    }
}

/// Hash everything configuration-side that feeds a result: the taxonomy
/// thresholds (canonical JSON), the column-matching policy of the diff
/// stage, the measure parameters baked into the pipeline (synchronicity
/// thetas, attainment alphas), and the store format version. Any change
/// produces different digests for *every* project — a config change is a
/// full miss, never a partial reuse.
pub(crate) fn store_config_hash(taxonomy: &TaxonomyConfig, policy: MatchPolicy) -> u64 {
    let mut h = Fnv1a::new();
    h.tag(0xC5);
    h.write_str(&serde_json::to_string(taxonomy).expect("taxonomy config serializes"));
    h.write_str(&policy.digest_tag());
    h.write_str(&format!("{:?}", [0.05f64, 0.10])); // synchronicity thetas
    h.write_str(&format!("{:?}", coevo_core::ATTAINMENT_ALPHAS));
    h.write_u64(u64::from(coevo_store::FORMAT_VERSION));
    h.finish().0
}

/// Run one project through the store-aware pipeline: serve a verified hit,
/// otherwise compute and publish.
pub(crate) fn process_with_store(
    project: &ProjectArtifacts,
    cfg: &TaxonomyConfig,
    policy: MatchPolicy,
    metrics: &Metrics,
    ctx: &StoreContext,
) -> Result<ProjectResult, EngineError> {
    let digest = ctx.digest(project);

    let t = Instant::now();
    let lookup = ctx.store.get::<ProjectResult>(&digest);
    metrics.record(Stage::Store, t.elapsed(), 1);
    match lookup {
        Lookup::Hit(stored)
            if stored.renames.is_some() || policy.rename_threshold().is_none() =>
        {
            metrics.record_store(StoreEvent::Hit);
            metrics.record_cache(Stage::Store, 1, 0);
            return Ok(stored);
        }
        Lookup::Hit(_) | Lookup::Invalidated => metrics.record_store(StoreEvent::Invalidated),
        Lookup::Miss => metrics.record_store(StoreEvent::Miss),
        Lookup::Quarantined => metrics.record_store(StoreEvent::Quarantined),
    }
    metrics.record_cache(Stage::Store, 0, 1);

    let result = process(project, cfg, policy, metrics)?;

    let t = Instant::now();
    match ctx.store.put(&digest, &result) {
        Ok(()) => metrics.record_store(StoreEvent::Published),
        Err(_) => metrics.record_store(StoreEvent::PublishFailure),
    }
    metrics.record(Stage::Store, t.elapsed(), 0);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StoreMetrics;
    use coevo_ddl::Dialect;
    use coevo_heartbeat::DateTime;

    /// `store_config_hash(&TaxonomyConfig::default(), MatchPolicy::ByName)`.
    const BY_NAME_CONFIG_HASH: u64 = 15_205_919_251_039_850_139;

    const GOOD_LOG: &str =
        "commit abc\nAuthor: A <a@b.c>\nDate:   2020-01-01 00:00:00 +0000\n\n    m\n\nM\tf\n";

    fn item(name: &str) -> ProjectArtifacts {
        ProjectArtifacts {
            name: name.into(),
            git_log: GOOD_LOG.to_string(),
            ddl_versions: vec![
                (
                    DateTime::parse("2020-01-01 00:00:00 +0000").unwrap(),
                    "CREATE TABLE t (a INT);".into(),
                ),
                (
                    DateTime::parse("2020-02-01 00:00:00 +0000").unwrap(),
                    "CREATE TABLE t (a INT, b INT);".into(),
                ),
            ],
            dialect: Dialect::Generic,
            taxon: None,
        }
    }

    fn ctx(tag: &str) -> (std::path::PathBuf, StoreContext) {
        let dir = std::env::temp_dir()
            .join(format!("coevo_store_stage_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let config_hash = store_config_hash(&TaxonomyConfig::default(), MatchPolicy::ByName);
        (dir, StoreContext { store, config_hash })
    }

    fn snapshot_store(metrics: &Metrics) -> StoreMetrics {
        metrics.enable_store();
        metrics.snapshot(1).store.unwrap()
    }

    #[test]
    fn miss_computes_publishes_and_then_hits() {
        let (dir, ctx) = ctx("hit");
        let cfg = TaxonomyConfig::default();
        let it = item("g/p");

        let metrics = Metrics::new();
        let cold = process_with_store(&it, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();
        let s = snapshot_store(&metrics);
        assert_eq!((s.hits, s.misses, s.published), (0, 1, 1));

        let metrics = Metrics::new();
        let warm = process_with_store(&it, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();
        let s = snapshot_store(&metrics);
        assert_eq!((s.hits, s.misses, s.published), (1, 0, 0));
        assert_eq!(cold, warm);
        // Served from the store: the pipeline stages never ran.
        let snap = metrics.snapshot(1);
        assert_eq!(snap.stage(Stage::Parse).unwrap().items, 0);
        assert_eq!(snap.stage(Stage::Measure).unwrap().items, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_result_round_trips_exactly() {
        let (dir, ctx) = ctx("exact");
        let cfg = TaxonomyConfig::default();
        let it = item("g/p");
        let metrics = Metrics::new();
        let direct = process(&it, &cfg, MatchPolicy::ByName, &metrics).unwrap();
        let cold = process_with_store(&it, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();
        let warm = process_with_store(&it, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();
        assert_eq!(direct, cold);
        assert_eq!(direct, warm);
        // Byte-identical through serialization too.
        assert_eq!(
            serde_json::to_string(&direct).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_is_a_full_miss() {
        let (dir, mut ctx) = ctx("config");
        let cfg = TaxonomyConfig::default();
        let it = item("g/p");
        let metrics = Metrics::new();
        process_with_store(&it, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();

        ctx.config_hash ^= 1; // a different configuration
        let metrics = Metrics::new();
        process_with_store(&it, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();
        let s = snapshot_store(&metrics);
        assert_eq!((s.hits, s.misses), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_change_is_a_full_miss() {
        let (dir, mut ctx) = ctx("policy");
        let cfg = TaxonomyConfig::default();
        let it = item("g/p");
        let metrics = Metrics::new();
        process_with_store(&it, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();

        // The same project under rename detection must be a fresh key.
        let policy = MatchPolicy::rename_detection();
        ctx.config_hash = store_config_hash(&cfg, policy);
        let metrics = Metrics::new();
        process_with_store(&it, &cfg, policy, &metrics, &ctx).unwrap();
        let s = snapshot_store(&metrics);
        assert_eq!((s.hits, s.misses, s.published), (0, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn touched_input_is_a_miss_for_that_project_only() {
        let (dir, ctx) = ctx("touch");
        let cfg = TaxonomyConfig::default();
        let a = item("g/a");
        let mut b = item("g/b");
        let metrics = Metrics::new();
        process_with_store(&a, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();
        process_with_store(&b, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();

        // Touch one byte of b's history.
        b.ddl_versions.last_mut().unwrap().1.push('\n');
        let metrics = Metrics::new();
        process_with_store(&a, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();
        process_with_store(&b, &cfg, MatchPolicy::ByName, &metrics, &ctx).unwrap();
        let s = snapshot_store(&metrics);
        assert_eq!((s.hits, s.misses, s.published), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipeline_failure_is_not_published() {
        let (dir, ctx) = ctx("fail");
        let cfg = TaxonomyConfig::default();
        let mut it = item("g/p");
        it.ddl_versions[1].1 = "CREATE TABLE t (".into();
        let metrics = Metrics::new();
        assert!(process_with_store(&it, &cfg, MatchPolicy::ByName, &metrics, &ctx).is_err());
        let s = snapshot_store(&metrics);
        assert_eq!((s.misses, s.published, s.publish_failures), (1, 0, 0));
        assert_eq!(ctx.store.stats().unwrap().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn by_name_entries_keep_their_bytes_and_digest() {
        // The shape of a store entry before it carried rename counts.
        #[derive(serde::Serialize)]
        struct Legacy {
            data: coevo_core::ProjectData,
            measures: coevo_core::ProjectMeasures,
        }
        let r = process(
            &item("g/p"),
            &TaxonomyConfig::default(),
            MatchPolicy::ByName,
            &Metrics::new(),
        )
        .unwrap();
        assert_eq!(r.renames, None);
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&Legacy {
                data: r.data.clone(),
                measures: r.measures.clone()
            })
            .unwrap()
        );
        // By-name digests are pinned: existing stores keep serving.
        assert_eq!(
            store_config_hash(&TaxonomyConfig::default(), MatchPolicy::ByName),
            BY_NAME_CONFIG_HASH
        );
    }

    #[test]
    fn rename_entry_without_counts_is_recomputed() {
        let (dir, mut ctx) = ctx("legacyrename");
        let cfg = TaxonomyConfig::default();
        let policy = MatchPolicy::rename_detection();
        ctx.config_hash = store_config_hash(&cfg, policy);
        let it = item("g/p");
        // An entry published before the store kept rename counts.
        let mut legacy = process(&it, &cfg, policy, &Metrics::new()).unwrap();
        let counts = legacy.renames.take();
        assert!(counts.is_some());
        ctx.store.put(&ctx.digest(&it), &legacy).unwrap();

        let metrics = Metrics::new();
        let fresh = process_with_store(&it, &cfg, policy, &metrics, &ctx).unwrap();
        assert_eq!(fresh.renames, counts);
        let s = snapshot_store(&metrics);
        assert_eq!((s.hits, s.invalidated, s.published), (0, 1, 1));

        // The republished entry carries the counts and is served from now on.
        let metrics = Metrics::new();
        let warm = process_with_store(&it, &cfg, policy, &metrics, &ctx).unwrap();
        assert_eq!(warm, fresh);
        let s = snapshot_store(&metrics);
        assert_eq!((s.hits, s.invalidated, s.published), (1, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_hash_tracks_taxonomy_and_policy() {
        let base = store_config_hash(&TaxonomyConfig::default(), MatchPolicy::ByName);
        assert_eq!(base, store_config_hash(&TaxonomyConfig::default(), MatchPolicy::ByName));
        let cfg = TaxonomyConfig { almost_frozen_max: 9, ..TaxonomyConfig::default() };
        assert_ne!(base, store_config_hash(&cfg, MatchPolicy::ByName));
        let aware = MatchPolicy::rename_detection();
        assert_ne!(base, store_config_hash(&TaxonomyConfig::default(), aware));
        // Distinct thresholds are distinct configurations.
        assert_ne!(
            store_config_hash(&TaxonomyConfig::default(), aware),
            store_config_hash(
                &TaxonomyConfig::default(),
                MatchPolicy::rename_detection_with(0.8)
            )
        );
    }
}
