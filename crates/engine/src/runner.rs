//! The staged execution engine behind the [`StudyRunner`] builder API.
//!
//! Every run is one pass over its source, planned by the batch planner in
//! `streamed.rs`, which hands out projects one at a time, not yet loaded:
//!
//! 1. **load / parse / diff / heartbeat / measure** — the per-project
//!    pipeline, fanned out over `workers` scoped threads. Each thread takes
//!    the next item from one shared queue (for a shard, the next framed
//!    record, read while it holds the queue lock), then loads it (generate,
//!    read the project directory, or verify and decode the record) and
//!    measures it outside the lock, and keeps its `(index, result)` pairs;
//!    after the join the pairs fill input-order slots, so parallel output
//!    is byte-identical to sequential output. There is no serial load
//!    phase: about `workers` projects are loaded at a time;
//! 2. **stats** — figures and Section-7 statistics over the survivors.
//!
//! [`StudyRunner::run`] and [`StudyRunner::run_streamed`] are the same loop:
//! `run` admits the source without a batch cap and keeps every project's
//! [`ProjectData`]; `run_streamed` caps each batch and has each worker drop
//! a project's data as soon as it is measured, so only the measures
//! outlive a project.
//!
//! A project whose artifacts are corrupt is demoted to a structured
//! [`ProjectFailure`] under the default [`FailurePolicy::CollectAndContinue`]
//! — the study completes on the survivors instead of aborting.

use crate::error::{EngineError, EngineErrorKind, FailurePolicy, ProjectFailure, Stage};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::pipeline::process;
use crate::store_stage::{process_with_store, store_config_hash, StoreContext};
use crate::streamed::Batches;
use coevo_core::{ProjectData, ProjectMeasures, StatsCache, StudyResults};
use coevo_corpus::{CorpusSpec, ProjectArtifacts};
use coevo_diff::{MatchPolicy, RenameCounts};
use coevo_taxa::{Taxon, TaxonomyConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Where the study's projects come from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// The calibrated 195-project paper corpus, generated with this seed.
    GeneratedCorpus(u64),
    /// A corpus generated from a custom spec.
    Spec(CorpusSpec),
    /// An on-disk corpus directory in the loader layout (one subdirectory
    /// per project, each with `manifest.json`, `git.log` and `versions/`).
    OnDisk(PathBuf),
    /// Explicit in-memory project artifacts, run as given and in the given
    /// order. The entry point for callers that synthesize or rewrite
    /// histories themselves (the `coevo-oracle` mutators).
    InMemory(Vec<ProjectArtifacts>),
    /// A sharded corpus directory (`corpus.json` + `shards/*.csh`, written
    /// by `coevo corpus gen`). Projects run in *global* corpus order (shard
    /// `start` offsets, not manifest entry order), one shard at a time.
    Sharded(PathBuf),
}

impl Source {
    /// The paper's corpus under its default seed.
    pub fn paper() -> Self {
        Source::GeneratedCorpus(CorpusSpec::paper().seed)
    }
}

/// Configuration of a study run. Construct with [`Default`] and refine via
/// the [`StudyRunner`] builder methods.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Worker threads for the per-project stages; `0` means one per
    /// available CPU.
    pub workers: usize,
    /// What to do when a project fails.
    pub failure_policy: FailurePolicy,
    /// The taxonomy thresholds used when measuring projects.
    pub taxonomy: TaxonomyConfig,
    /// The column-matching policy of the diff stage. `ByName` is the
    /// paper's accounting; `RenameDetection` pairs ejected/injected columns
    /// with the scored matcher and emits `Renamed` changes instead.
    pub match_policy: MatchPolicy,
    /// Root directory of the content-addressed result store; `None` runs
    /// store-less. With a store, every project's result is looked up by
    /// input digest before the pipeline runs and published after a miss.
    pub store_dir: Option<PathBuf>,
    /// The batch cap of a [`StudyRunner::run_streamed`] run: the worker
    /// pool is spawned and joined once per batch of at most this many
    /// projects (`0` means [`DEFAULT_BATCH`]). Workers load projects one at
    /// a time, so what is resident at once is about `workers` projects plus
    /// the measures of those already done, whatever the cap; a shard larger
    /// than the cap runs as several batches. [`StudyRunner::run`] runs
    /// uncapped and ignores it.
    pub max_resident_projects: usize,
}

/// The streamed scheduler's batch size when
/// [`StudyConfig::max_resident_projects`] does not set one.
pub const DEFAULT_BATCH: usize = 256;

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            failure_policy: FailurePolicy::default(),
            taxonomy: TaxonomyConfig::default(),
            match_policy: MatchPolicy::ByName,
            store_dir: None,
            max_resident_projects: 0,
        }
    }
}

/// Per-taxon rename tallies, keyed by each project's study taxon
/// ([`ProjectMeasures::taxon`]). Empty under [`MatchPolicy::ByName`].
pub type RenameProfile = BTreeMap<Taxon, RenameCounts>;

/// Everything one engine run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// The surviving projects, in corpus order.
    pub projects: Vec<ProjectData>,
    /// The full study results computed from the survivors.
    pub results: StudyResults,
    /// The survivors' rename tallies per study taxon.
    pub renames: RenameProfile,
    /// Projects demoted to structured failures.
    pub failures: Vec<ProjectFailure>,
    /// Per-stage observability counters.
    pub metrics: MetricsSnapshot,
}

/// The single public entry point for running the study:
///
/// ```no_run
/// use coevo_engine::{FailurePolicy, Source, StudyConfig, StudyRunner};
///
/// let report = StudyRunner::new(StudyConfig::default())
///     .with_workers(4)
///     .with_failure_policy(FailurePolicy::CollectAndContinue)
///     .run(Source::paper())
///     .expect("study");
/// println!("{}", report.metrics.render());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StudyRunner {
    config: StudyConfig,
}

impl StudyRunner {
    /// Construct a runner from a configuration.
    pub fn new(config: StudyConfig) -> Self {
        Self { config }
    }

    /// Override the worker-thread count (`0` = one per available CPU).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Override the failure policy.
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.config.failure_policy = policy;
        self
    }

    /// Back the run with the content-addressed result store rooted at `dir`
    /// (created on first use).
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.store_dir = Some(dir.into());
        self
    }

    /// Override the diff stage's column-matching policy.
    pub fn with_match_policy(mut self, policy: MatchPolicy) -> Self {
        self.config.match_policy = policy;
        self
    }

    /// Cap the streamed scheduler's batches at `n` projects (`0` =
    /// [`DEFAULT_BATCH`]; see [`StudyConfig::max_resident_projects`]).
    pub fn with_max_resident(mut self, n: usize) -> Self {
        self.config.max_resident_projects = n;
        self
    }

    /// The effective configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Run the full study over `source`, keeping every surviving project's
    /// data in the report.
    ///
    /// Under [`FailurePolicy::CollectAndContinue`] this only returns `Err`
    /// when the source itself is unusable (e.g. the corpus directory cannot
    /// be read); per-project problems land in [`EngineReport::failures`].
    /// Under [`FailurePolicy::FailFast`] the first project failure aborts
    /// the run with its error.
    pub fn run(&self, source: Source) -> Result<EngineReport, EngineError> {
        self.run_batches(source, usize::MAX, true)
    }

    /// Run exactly one project through the per-project pipeline stages,
    /// deterministically and on the calling thread — no worker pool, no
    /// stats stage. Honors the configured taxonomy and (when set) the
    /// result store, so a store-backed call is served from / published to
    /// the same entries as a full [`StudyRunner::run`].
    ///
    /// This is the oracle's re-run entry point: two calls with equal
    /// artifacts and equal config return equal results, bit for bit.
    pub fn run_project(
        &self,
        project: &ProjectArtifacts,
    ) -> Result<(ProjectData, ProjectMeasures), EngineError> {
        let metrics = Metrics::new();
        let (cfg, policy) = (&self.config.taxonomy, self.config.match_policy);
        let result = match self.open_store(&metrics)? {
            Some(ctx) => process_with_store(project, cfg, policy, &metrics, &ctx),
            None => process(project, cfg, policy, &metrics),
        }?;
        Ok((result.data, result.measures))
    }

    /// The one batch loop behind [`StudyRunner::run`] and
    /// [`StudyRunner::run_streamed`]: run every project of `source` through
    /// the pipeline, at most `cap` per batch, and fold the survivors'
    /// measures and rename tallies. `ProjectData` outlives its project only
    /// with `keep_data`; without it `projects` stays empty.
    pub(crate) fn run_batches(
        &self,
        source: Source,
        cap: usize,
        keep_data: bool,
    ) -> Result<EngineReport, EngineError> {
        let metrics = Metrics::new();
        let store = self.open_store(&metrics)?;
        let (cfg, policy) = (&self.config.taxonomy, self.config.match_policy);
        let mut projects = Vec::new();
        let mut measures = Vec::new();
        let mut renames = RenameProfile::new();
        let mut failures = Vec::new();

        let work = |project: &ProjectArtifacts| {
            let r = match &store {
                Some(ctx) => process_with_store(project, cfg, policy, &metrics, ctx),
                None => process(project, cfg, policy, &metrics),
            }?;
            // Dropped here, on the worker, unless the report returns it.
            Ok((keep_data.then_some(r.data), r.measures, r.renames))
        };
        let workers_used = self.pass(source, cap, &metrics, work, |loads, results| {
            failures.extend(loads);
            for r in results {
                match r {
                    Ok((data, m, counts)) => {
                        if let Some(c) = counts {
                            renames.entry(m.taxon).or_default().merge(&c);
                        }
                        projects.extend(data);
                        measures.push(m);
                    }
                    Err(e) => failures.push(ProjectFailure::from(e)),
                }
            }
        })?;
        failures.sort_by(|a, b| a.project.cmp(&b.project));

        // Stats stage.
        let t = Instant::now();
        let mut stats = StatsCache::with_workers(self.worker_count(usize::MAX));
        let results = StudyResults::from_measures_cached(measures, &mut stats);
        metrics.record(Stage::Stats, t.elapsed(), 1);
        let metrics = metrics.snapshot(workers_used);
        Ok(EngineReport { projects, results, renames, failures, metrics })
    }

    /// One pass over `source`: unit by unit (see `streamed.rs`), run `work`
    /// on every project that loads and hand `release` the unit's load
    /// failures and `work`'s results, both in corpus order. Returns the
    /// most workers any batch used.
    ///
    /// Under [`FailurePolicy::FailFast`] the pass stops at the first unit
    /// holding a failure and returns its first load failure, or else its
    /// first project failure: a unit's load failures win over its compute
    /// failures, as if it had been loaded before any of it ran.
    pub(crate) fn pass<T: Send>(
        &self,
        source: Source,
        cap: usize,
        metrics: &Metrics,
        work: impl Fn(&ProjectArtifacts) -> Result<T, EngineError> + Sync,
        mut release: impl FnMut(Vec<ProjectFailure>, Vec<Result<T, EngineError>>),
    ) -> Result<usize, EngineError> {
        let fail_fast = self.config.failure_policy == FailurePolicy::FailFast;
        let mut batches = Batches::plan(source, cap)?;
        let stop = Stop::default();
        let mut workers_used = 1;
        while batches.open_unit() {
            let mut done = Vec::new();
            while batches.unit_open() && !stop.loading.load(Ordering::Relaxed) {
                let workers = self.worker_count(batches.start_batch());
                workers_used = workers_used.max(workers);
                done.extend(self.run_pool(&mut batches, workers, metrics, &work, &stop));
            }
            done.sort_unstable_by_key(|&(index, _)| index);
            let mut loads = Vec::new();
            let mut results = Vec::new();
            for (index, outcome) in done {
                match outcome {
                    Ok(r) => results.push(r),
                    Err(f) => loads.push((index, f)),
                }
            }
            let loads: Vec<_> = match batches.close_unit(loads.is_empty()) {
                Ok(mut found) => {
                    // Stable: at one position the planner's failure (an
                    // unreadable manifest) precedes the item's.
                    found.extend(loads);
                    found.sort_by_key(|&(index, _)| index);
                    found.into_iter().map(|(_, e)| e).collect()
                }
                Err(untrusted) => {
                    results.clear();
                    vec![untrusted]
                }
            };
            if fail_fast {
                if let Some(e) = loads.first() {
                    return Err(e.clone());
                }
                if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
                    return Err(e.clone());
                }
            }
            release(loads.into_iter().map(ProjectFailure::from).collect(), results);
        }
        Ok(workers_used)
    }

    /// Open the configured result store, if any. An unusable store is a
    /// hard error, like an unreadable corpus: the user asked for warm
    /// restarts and cannot have them.
    fn open_store(&self, metrics: &Metrics) -> Result<Option<StoreContext>, EngineError> {
        let Some(dir) = &self.config.store_dir else { return Ok(None) };
        metrics.enable_store();
        let store = coevo_store::ResultStore::open(dir).map_err(|e| EngineError {
            project: dir.display().to_string(),
            stage: Stage::Store,
            kind: EngineErrorKind::Store(e.to_string()),
        })?;
        let config_hash = store_config_hash(&self.config.taxonomy, self.config.match_policy);
        Ok(Some(StoreContext { store, config_hash }))
    }

    fn worker_count(&self, items: usize) -> usize {
        let auto = || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let n = if self.config.workers == 0 { auto() } else { self.config.workers };
        n.min(items.max(1))
    }

    /// Run one batch: `workers` scoped threads take the planner's next
    /// item under one lock, then load and process it outside the lock.
    /// Each project is dropped as soon as it is processed. Returns every
    /// item's `(index, outcome)`.
    fn run_pool<T: Send>(
        &self,
        batches: &mut Batches,
        workers: usize,
        metrics: &Metrics,
        work: &(impl Fn(&ProjectArtifacts) -> Result<T, EngineError> + Sync),
        stop: &Stop,
    ) -> Vec<(usize, Outcome<T>)> {
        let queue = Mutex::new(batches);
        let fail_fast = self.config.failure_policy == FailurePolicy::FailFast;

        let worker = || {
            let mut done = Vec::new();
            loop {
                // The lock guards only `next_item`, which leaves the planner
                // valid at every step, so a poisoned queue is still sound.
                let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                if stop.loading.load(Ordering::Relaxed) {
                    break done;
                }
                let t = Instant::now();
                let Some(item) = q.next_item() else { break done };
                drop(q);
                let outcome = match item.project.load() {
                    Ok(project) => {
                        metrics.record(Stage::Load, t.elapsed(), 1);
                        if stop.computing.load(Ordering::Relaxed) {
                            continue;
                        }
                        let r = work(&project);
                        if fail_fast && r.is_err() {
                            stop.computing.store(true, Ordering::Relaxed);
                        }
                        Ok(r)
                    }
                    Err(f) => {
                        metrics.record(Stage::Load, t.elapsed(), 0);
                        if fail_fast {
                            stop.loading.store(true, Ordering::Relaxed);
                        }
                        Err(f)
                    }
                };
                done.push((item.index, outcome));
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            let joined = handles.into_iter().map(|h| h.join().expect("engine worker panicked"));
            joined.flatten().collect()
        })
    }
}

/// What became of one work item: `work`'s result, or the load failure.
type Outcome<T> = Result<Result<T, EngineError>, EngineError>;

/// The fail-fast flags of one pass. After a project fails, the rest of its
/// unit is still loaded but not processed (its load failures win); after a
/// load fails, nothing more is handed out.
#[derive(Default)]
struct Stop {
    computing: AtomicBool,
    loading: AtomicBool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_core::Study;

    fn small_spec(per_taxon: usize) -> CorpusSpec {
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = per_taxon;
        }
        spec
    }

    #[test]
    fn parallel_equals_sequential_on_small_corpus() {
        let spec = small_spec(2);
        // The same projects in memory, two of them corrupt: one with an
        // unterminated DDL version, one with a truncated git log.
        let mut corrupt: Vec<ProjectArtifacts> = coevo_corpus::generate_corpus(&spec)
            .iter()
            .map(ProjectArtifacts::from_generated)
            .collect();
        corrupt[3].ddl_versions[0].1 = "CREATE TABLE t (a INT".to_string();
        corrupt[8].git_log = "commit abcdef\nAuthor: A <a@b.c>\n".to_string();
        let planted = [corrupt[3].name.clone(), corrupt[8].name.clone()];

        let run = |source: &Source, workers: usize, policy: FailurePolicy| {
            StudyRunner::new(StudyConfig::default())
                .with_workers(workers)
                .with_failure_policy(policy)
                .run(source.clone())
        };
        for source in [Source::Spec(spec), Source::InMemory(corrupt)] {
            let seq = run(&source, 1, FailurePolicy::CollectAndContinue).expect("sequential");
            for workers in [2, 4] {
                let par = run(&source, workers, FailurePolicy::CollectAndContinue)
                    .expect("parallel run");
                assert_eq!(seq.projects, par.projects, "{workers} workers");
                assert_eq!(seq.results, par.results, "{workers} workers");
                assert_eq!(seq.renames, par.renames, "{workers} workers");
                assert_eq!(seq.failures, par.failures, "{workers} workers");
            }
            if matches!(source, Source::Spec(_)) {
                assert!(seq.failures.is_empty());
                continue;
            }
            let failed: Vec<_> = seq.failures.iter().map(|f| f.project.clone()).collect();
            assert_eq!(failed.len(), 2, "{failed:?}");
            assert!(failed.iter().all(|name| planted.contains(name)), "{failed:?}");
            assert_eq!(seq.projects.len(), 10);

            let err = run(&source, 4, FailurePolicy::FailFast).expect_err("fail-fast aborts");
            assert!(planted.contains(&err.project), "{err}");
            assert_eq!(err.stage, Stage::Parse);
        }
    }

    #[test]
    fn engine_matches_free_function_study() {
        let spec = small_spec(1);
        let report = StudyRunner::new(StudyConfig::default())
            .run(Source::Spec(spec.clone()))
            .expect("engine run");
        let projects: Vec<_> = coevo_corpus::generate_corpus(&spec)
            .into_iter()
            .map(|p| crate::pipeline::project_from_artifacts(p.into()).expect("pipeline"))
            .collect();
        let reference = Study::new(projects).run();
        assert_eq!(report.results, reference);
    }

    #[test]
    fn metrics_cover_all_stages() {
        let report = StudyRunner::new(StudyConfig::default())
            .with_workers(2)
            .run(Source::Spec(small_spec(1)))
            .expect("engine run");
        let m = &report.metrics;
        assert_eq!(m.workers, 2);
        assert_eq!(m.stage(Stage::Load).unwrap().items, 6);
        assert_eq!(m.stage(Stage::Measure).unwrap().items, 6);
        assert_eq!(m.stage(Stage::Stats).unwrap().items, 1);
        assert!(m.stage(Stage::Parse).unwrap().items > 6); // logs + versions
        assert!(m.stage(Stage::Diff).unwrap().items >= 6);
        assert!(m.stage(Stage::Heartbeat).unwrap().items == 12);
    }

    #[test]
    fn store_backed_rerun_serves_every_project() {
        let dir =
            std::env::temp_dir().join(format!("coevo_engine_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec(1);
        let runner = StudyRunner::new(StudyConfig::default()).with_store(&dir);

        let cold = runner.run(Source::Spec(spec.clone())).expect("cold run");
        let s = cold.metrics.store.expect("store-backed metrics");
        assert_eq!((s.hits, s.misses, s.published), (0, 6, 6));

        let warm = runner.run(Source::Spec(spec)).expect("warm run");
        let s = warm.metrics.store.expect("store-backed metrics");
        assert_eq!((s.hits, s.misses, s.published), (6, 0, 0));
        assert_eq!(cold.projects, warm.projects);
        assert_eq!(cold.results, warm.results);
        assert!(warm.metrics.render().contains("6/6 served"));

        // A store-less run reports no store metrics at all.
        let plain = StudyRunner::new(StudyConfig::default())
            .run(Source::Spec(small_spec(1)))
            .expect("store-less run");
        assert!(plain.metrics.store.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_store_directory_is_a_hard_error() {
        let err = StudyRunner::new(StudyConfig::default())
            .with_store("/proc/coevo-engine-store-cannot-live-here")
            .run(Source::Spec(small_spec(1)))
            .unwrap_err();
        assert_eq!(err.stage, Stage::Store);
        assert!(matches!(err.kind, EngineErrorKind::Store(_)));
    }

    #[test]
    fn empty_on_disk_corpus_is_an_empty_study() {
        let dir =
            std::env::temp_dir().join(format!("coevo_engine_empty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = StudyRunner::new(StudyConfig::default())
            .run(Source::OnDisk(dir.clone()))
            .expect("engine run");
        assert!(report.projects.is_empty());
        assert!(report.failures.is_empty());
        assert_eq!(report.results.measures.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_corpus_directory_is_a_hard_error() {
        let err = StudyRunner::new(StudyConfig::default())
            .run(Source::OnDisk(PathBuf::from("/nonexistent_coevo_corpus")))
            .unwrap_err();
        assert_eq!(err.stage, Stage::Load);
        assert!(matches!(err.kind, EngineErrorKind::Load(_)));
    }

    #[test]
    fn in_memory_source_equals_generated_source() {
        let spec = small_spec(1);
        let projects: Vec<ProjectArtifacts> = coevo_corpus::generate_corpus(&spec)
            .iter()
            .map(ProjectArtifacts::from_generated)
            .collect();
        let from_spec = StudyRunner::new(StudyConfig::default())
            .with_workers(1)
            .run(Source::Spec(spec))
            .expect("spec run");
        let from_memory = StudyRunner::new(StudyConfig::default())
            .with_workers(1)
            .run(Source::InMemory(projects))
            .expect("in-memory run");
        assert_eq!(from_spec.projects, from_memory.projects);
        assert_eq!(from_spec.results, from_memory.results);
    }

    #[test]
    fn run_project_matches_full_run_per_project() {
        let spec = small_spec(1);
        let projects: Vec<ProjectArtifacts> = coevo_corpus::generate_corpus(&spec)
            .iter()
            .map(ProjectArtifacts::from_generated)
            .collect();
        let runner = StudyRunner::new(StudyConfig::default());
        let full = runner.run(Source::InMemory(projects.clone())).expect("full run");
        for (i, p) in projects.iter().enumerate() {
            let (data, measures) = runner.run_project(p).expect("single run");
            let again = runner.run_project(p).expect("repeat run");
            assert_eq!(full.projects[i], data, "{}", p.name);
            assert_eq!(full.results.measures[i], measures, "{}", p.name);
            assert_eq!((data, measures), again, "{}", p.name);
        }
    }

    #[test]
    fn uncapped_generated_source_runs_in_one_batch() {
        // `run` plans with no cap (`usize::MAX`); the generated planner must
        // bound the batch by what is left instead of overflowing `next + cap`.
        let report = StudyRunner::new(StudyConfig::default())
            .with_workers(1)
            .run(Source::Spec(small_spec(1)))
            .expect("engine run");
        assert_eq!(report.projects.len(), 6);
        assert_eq!(report.metrics.stage(Stage::Load).unwrap().items, 6);
        assert!(report.renames.is_empty(), "by-name runs tally no renames");
    }

    #[test]
    fn rename_tallies_merge_per_study_taxon() {
        let spec = small_spec(2);
        let runner = StudyRunner::new(StudyConfig::default())
            .with_match_policy(MatchPolicy::rename_detection());
        let report = runner.run(Source::Spec(spec.clone())).expect("engine run");
        let mut expected = RenameProfile::new();
        for p in coevo_corpus::generate_corpus(&spec) {
            let history = coevo_diff::SchemaHistory::from_ddl_texts_with(
                p.raw.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
                p.raw.dialect,
                MatchPolicy::rename_detection(),
            )
            .unwrap()
            .unwrap();
            expected.entry(p.raw.taxon).or_default().merge(&RenameCounts::of_history(&history));
        }
        assert_eq!(report.renames, expected);
    }

    #[test]
    fn builder_overrides_config() {
        let runner = StudyRunner::new(StudyConfig::default())
            .with_workers(3)
            .with_failure_policy(FailurePolicy::FailFast);
        assert_eq!(runner.config().workers, 3);
        assert_eq!(runner.config().failure_policy, FailurePolicy::FailFast);
    }
}
