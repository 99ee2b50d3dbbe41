//! The batch planner behind every run, and the bounded-memory
//! [`StudyRunner::run_streamed`] built on it.
//!
//! [`Batches`] is a resumable cursor over a [`Source`] that hands out
//! projects one at a time, in global corpus order, as [`Pending`] items: a
//! generated index, a project directory with its manifest, a framed shard
//! record, or in-memory artifacts. Nothing is loaded here. The worker that
//! takes an item loads it as the first step of the per-project pipeline,
//! outside the queue lock; only the framing of a shard record (its length,
//! its body, the running shard checksum) happens under the lock, because
//! the shard checksum depends on record order.
//!
//! Items are handed out in *units*, each released to the caller in one
//! piece: one shard for [`Source::Sharded`], at most `cap` projects for the
//! other sources. A unit runs as one or more *batches* of at most `cap`
//! items (one pool spawn and join each), so a cap smaller than a shard ends
//! a batch partway through the open reader. A shard's results are held back
//! until its last frame has been read: a shard whose checksum disagrees with
//! the manifest contributes one failure and none of its projects, for every
//! cap.
//!
//! Both [`StudyRunner::run`] (no cap) and [`StudyRunner::run_streamed`]
//! drive the same loop. What is resident at once is about `workers` items
//! being loaded or measured — a frame, its artifacts, its parsed history —
//! plus the per-project **measures** and rename tallies (a handful of curves
//! and scalars per project) and the structured **failures**. In a streamed
//! run a worker drops the heavyweight [`coevo_core::ProjectData`] (parsed
//! histories, heartbeats) before it takes the next item; only uncapped
//! `run` keeps it, because its report returns it.
//!
//! Units run in global corpus order and results are collected in input
//! order within each unit, so the measure sequence does not depend on the
//! cap or the worker count — corpus aggregation over it is byte-identical
//! for every cap, which the differential tests and the `coevo check`
//! batch-cap oracle pin (including under seeded mid-corpus failure
//! injection).

use crate::error::{EngineError, EngineErrorKind, ProjectFailure, Stage};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::runner::{RenameProfile, Source, StudyRunner, DEFAULT_BATCH};
use coevo_core::StudyResults;
use coevo_corpus::loader::{self, Manifest};
use coevo_corpus::{
    CorpusSpec, CorpusStream, Frame, ProjectArtifacts, ShardEntry, ShardError, ShardReader,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Everything one streamed run produces. Unlike [`crate::EngineReport`]
/// there is no `projects` vector: retaining every project's parsed data is
/// exactly what streaming exists to avoid. Survivor count is
/// `results.measures.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedReport {
    /// The full study results computed from the surviving projects'
    /// measures, byte-identical to the uncapped run's.
    pub results: StudyResults,
    /// The survivors' rename tallies per study taxon.
    pub renames: RenameProfile,
    /// Projects demoted to structured failures, sorted by name.
    pub failures: Vec<ProjectFailure>,
    /// Per-stage observability counters (plus peak-memory readings).
    pub metrics: MetricsSnapshot,
}

impl StudyRunner {
    /// Run the full study over `source` with bounded peak memory: workers
    /// load projects one at a time, in batches of at most
    /// [`crate::StudyConfig::max_resident_projects`], and drop each
    /// project's parsed data once it is measured.
    ///
    /// The output is pinned byte-identical to [`StudyRunner::run`] on the
    /// same source: same `results`, same `renames`, same `failures`. Error
    /// behavior matches too — only an unusable source (or store) is a hard
    /// error under [`crate::FailurePolicy::CollectAndContinue`], while
    /// [`crate::FailurePolicy::FailFast`] aborts on the first project
    /// failure of the earliest batch that has one.
    pub fn run_streamed(&self, source: Source) -> Result<StreamedReport, EngineError> {
        let r = self.run_batches(source, self.streamed_cap(), false)?;
        Ok(StreamedReport {
            results: r.results,
            renames: r.renames,
            failures: r.failures,
            metrics: r.metrics,
        })
    }

    /// One pass over `source` for per-project work other than the study
    /// (`coevo compat`), with the study's loading, order and leniency: `f`
    /// runs on the worker pool on every project that loads, and `release`
    /// receives each unit's load failures and `f`'s results, both in
    /// corpus order, unit by unit (see the module doc; batches are capped
    /// as in [`StudyRunner::run_streamed`]).
    pub fn for_each_batch<T: Send>(
        &self,
        source: Source,
        f: impl Fn(&ProjectArtifacts) -> T + Sync,
        mut release: impl FnMut(Vec<ProjectFailure>, Vec<T>),
    ) -> Result<(), EngineError> {
        let work = |p: &ProjectArtifacts| Ok(f(p));
        let cap = self.streamed_cap();
        self.pass(source, cap, &Metrics::new(), work, |failures, results| {
            release(failures, results.into_iter().flatten().collect())
        })?;
        Ok(())
    }

    /// The batch cap of a streamed pass: the configured one, or
    /// [`DEFAULT_BATCH`].
    fn streamed_cap(&self) -> usize {
        match self.config().max_resident_projects {
            0 => DEFAULT_BATCH,
            n => n,
        }
    }
}

/// One unit of work for the engine's pool: a project not yet loaded, plus
/// its position in its unit (results are re-assembled in input order, so
/// parallel output is identical to sequential output).
pub(crate) struct WorkItem {
    pub index: usize,
    pub project: Pending,
}

/// A project not yet loaded: what the planner hands a worker.
pub(crate) enum Pending {
    /// Project `i` of a generated corpus.
    Generated(Arc<CorpusSpec>, usize),
    /// A project directory and its manifest (read by the planning pre-pass).
    Dir(PathBuf, Manifest),
    /// A framed shard record, not yet verified or decoded.
    Frame(Frame),
    /// Artifacts given in memory.
    Artifacts(ProjectArtifacts),
}

impl Pending {
    /// The load step: generate, read or decode the project's artifacts.
    pub(crate) fn load(self) -> Result<ProjectArtifacts, EngineError> {
        match self {
            Self::Generated(spec, i) => {
                Ok(coevo_corpus::generate_nth(&spec, i).expect("index < total").into())
            }
            Self::Dir(dir, manifest) => {
                loader::read_project(&dir, &manifest).map_err(|e| load_failure(&dir, e))
            }
            // Decoding fails only with `ShardError::Record`, which names
            // its own file.
            Self::Frame(frame) => frame.decode().map_err(|e| shard_failure("", e)),
            Self::Artifacts(p) => Ok(p),
        }
    }
}

/// The batch planner: a resumable cursor over a source, handing out
/// [`Pending`] items in global corpus order, unit by unit and batch by
/// batch (see the module doc). It holds one open shard reader at most,
/// never a batch of projects.
pub(crate) struct Batches {
    plan: Plan,
    cap: usize,
    /// Items the open unit has left to hand out.
    unit_left: usize,
    /// Items the running batch has left to hand out.
    batch_left: usize,
    /// Position of the next item within the open unit.
    pos: usize,
    /// Load failures the planner itself found in the open unit (a shard
    /// that does not open or frame, an unreadable manifest), with the unit
    /// position they take.
    failures: Vec<(usize, EngineError)>,
}

// One plan per pass: the size of its largest variant does not matter.
#[allow(clippy::large_enum_variant)]
enum Plan {
    /// Generate project `next` of `total`.
    Generated { spec: Arc<CorpusSpec>, next: usize, total: usize },
    /// Frame one shard at a time (shards visited by global `start` offset).
    Sharded {
        stream: CorpusStream,
        entries: std::vec::IntoIter<ShardEntry>,
        /// The open shard's file and reader.
        open: Option<(String, ShardReader)>,
    },
    /// Project directories in manifest-name order (established by a
    /// manifest-only pre-pass, whose failures join the first unit).
    OnDisk { dirs: std::vec::IntoIter<(PathBuf, Manifest)>, pre_failures: Vec<EngineError> },
    /// The given artifacts, in order.
    InMemory { projects: std::vec::IntoIter<ProjectArtifacts> },
}

impl Batches {
    /// Plan a pass over `source`, at most `cap` items per batch. Only an
    /// unusable source (unreadable corpus directory, missing or mismatched
    /// shard manifest) is an error.
    pub(crate) fn plan(source: Source, cap: usize) -> Result<Self, EngineError> {
        let plan = match source {
            Source::GeneratedCorpus(seed) => {
                let mut spec = CorpusSpec::paper();
                spec.seed = seed;
                Plan::generated(spec)
            }
            Source::Spec(spec) => Plan::generated(spec),
            Source::Sharded(dir) => {
                let stream = CorpusStream::open(&dir)
                    .map_err(|e| failure(dir.display().to_string(), e.to_string()))?;
                let mut entries = stream.manifest().shards.clone();
                entries.sort_by_key(|e| e.start);
                Plan::Sharded { stream, entries: entries.into_iter(), open: None }
            }
            Source::OnDisk(dir) => {
                let (dirs, pre_failures) = plan_on_disk(&dir)?;
                Plan::OnDisk { dirs: dirs.into_iter(), pre_failures }
            }
            Source::InMemory(projects) => Plan::InMemory { projects: projects.into_iter() },
        };
        let cap = cap.max(1);
        Ok(Self { plan, cap, unit_left: 0, batch_left: 0, pos: 0, failures: Vec::new() })
    }

    /// Open the next unit; `false` once the source is exhausted. A unit may
    /// hold no items, only failures (a shard that does not open), or
    /// neither (an empty shard, whose checksum is still verified).
    pub(crate) fn open_unit(&mut self) -> bool {
        let cap = self.cap;
        let (left, open) = match &mut self.plan {
            Plan::Generated { next, total, .. } => ((*total - *next).min(cap), next < total),
            Plan::Sharded { stream, entries, open } => {
                let Some(entry) = entries.next() else { return false };
                match stream.shard_reader(&entry) {
                    Ok(reader) => {
                        let n = reader.len();
                        *open = Some((entry.file, reader));
                        (n, true)
                    }
                    Err(e) => {
                        self.failures.push((0, shard_failure(&entry.file, e)));
                        (0, true)
                    }
                }
            }
            Plan::OnDisk { dirs, pre_failures } => {
                let left = dirs.len().min(cap);
                let open = left > 0 || !pre_failures.is_empty();
                self.failures.extend(pre_failures.drain(..).map(|f| (0, f)));
                (left, open)
            }
            Plan::InMemory { projects } => (projects.len().min(cap), projects.len() > 0),
        };
        (self.unit_left, self.batch_left, self.pos) = (left, 0, 0);
        open
    }

    /// Whether the open unit has items left to hand out.
    pub(crate) fn unit_open(&self) -> bool {
        self.unit_left > 0
    }

    /// Start the open unit's next batch; returns its size.
    pub(crate) fn start_batch(&mut self) -> usize {
        self.batch_left = self.cap.min(self.unit_left);
        self.batch_left
    }

    /// The running batch's next item and its position in the unit; `None`
    /// once the batch is over. For a shard this is the framing step; a
    /// framing error is recorded and ends the unit, since the records
    /// after a broken frame cannot be found.
    pub(crate) fn next_item(&mut self) -> Option<WorkItem> {
        if self.batch_left == 0 {
            return None;
        }
        let item = match &mut self.plan {
            Plan::Generated { spec, next, .. } => {
                *next += 1;
                Some(Pending::Generated(Arc::clone(spec), *next - 1))
            }
            Plan::Sharded { open, .. } => {
                let (file, reader) = open.as_mut().expect("an open shard has a reader");
                match reader.next_frame() {
                    Some(Ok(frame)) => Some(Pending::Frame(frame)),
                    Some(Err(e)) => {
                        self.failures.push((self.pos, shard_failure(file, e)));
                        None
                    }
                    None => None,
                }
            }
            Plan::OnDisk { dirs, .. } => dirs.next().map(|(dir, m)| Pending::Dir(dir, m)),
            Plan::InMemory { projects } => projects.next().map(Pending::Artifacts),
        };
        let Some(item) = item else {
            (self.unit_left, self.batch_left) = (0, 0);
            return None;
        };
        self.unit_left -= 1;
        self.batch_left -= 1;
        self.pos += 1;
        Some(WorkItem { index: self.pos - 1, project: item })
    }

    /// Close the open unit and return the load failures the planner found
    /// in it, with their positions. `loaded_all` says every item handed out
    /// loaded, which is when a shard's checksum is checked (after a record
    /// error it would only repeat that diagnosis). A shard whose checksum
    /// disagrees with the manifest is `Err` with that one failure: none of
    /// the unit's results can be trusted.
    pub(crate) fn close_unit(
        &mut self,
        loaded_all: bool,
    ) -> Result<Vec<(usize, EngineError)>, EngineError> {
        let failures = std::mem::take(&mut self.failures);
        if let Plan::Sharded { open, .. } = &mut self.plan {
            if let Some((file, reader)) = open.take() {
                // Only a shard framed to its end, without error, can verify.
                if self.unit_left == 0 && failures.is_empty() && loaded_all {
                    reader.verify().map_err(|e| shard_failure(&file, e))?;
                }
            }
        }
        Ok(failures)
    }
}

impl Plan {
    fn generated(spec: CorpusSpec) -> Self {
        let total = spec.taxa.iter().map(|t| t.count).sum();
        Self::Generated { spec: Arc::new(spec), next: 0, total }
    }
}

/// The on-disk pre-pass: find every project directory (any subdirectory
/// containing a `manifest.json`) and order them by *manifest* name, a
/// stable sort over directory order, without reading any version text.
/// Directories whose manifest cannot be read become load failures here.
#[allow(clippy::type_complexity)]
fn plan_on_disk(
    dir: &Path,
) -> Result<(Vec<(PathBuf, Manifest)>, Vec<EngineError>), EngineError> {
    let entries = std::fs::read_dir(dir).map_err(|e| {
        failure(dir.display().to_string(), format!("unreadable corpus directory: {e}"))
    })?;
    let mut project_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("manifest.json").exists())
        .collect();
    project_dirs.sort();

    let mut named = Vec::new();
    let mut failures = Vec::new();
    for pdir in project_dirs {
        match loader::read_manifest(&pdir) {
            Ok(m) => named.push((pdir, m)),
            Err(e) => failures.push(load_failure(&pdir, e)),
        }
    }
    named.sort_by(|a, b| a.1.name.cmp(&b.1.name));
    Ok((named, failures))
}

/// A load-stage failure of `project`.
fn failure(project: String, detail: String) -> EngineError {
    EngineError { project, stage: Stage::Load, kind: EngineErrorKind::Load(detail) }
}

/// A project directory's load failure, named after the directory (its
/// manifest name may be what could not be read).
fn load_failure(dir: &Path, e: loader::LoaderError) -> EngineError {
    let project = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| dir.display().to_string());
    failure(project, e.to_string())
}

/// A shard's load failure: a corrupt record is named `<file>[record N]`;
/// a shard that does not open, frame or verify is named after its file.
fn shard_failure(file: &str, e: ShardError) -> EngineError {
    match e {
        ShardError::Record { file, index, detail } => {
            failure(format!("{file}[record {index}]"), detail)
        }
        e => failure(file.to_string(), e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailurePolicy;
    use crate::runner::StudyConfig;
    use coevo_corpus::generate_sharded;
    use std::path::PathBuf;

    fn small_spec(per_taxon: usize) -> CorpusSpec {
        CorpusSpec::paper().with_per_taxon(per_taxon)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coevo_streamed_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streamed_spec_equals_eager_run() {
        let spec = small_spec(2);
        let runner = StudyRunner::new(StudyConfig::default()).with_max_resident(5);
        let eager = runner.run(Source::Spec(spec.clone())).expect("eager");
        let streamed = runner.run_streamed(Source::Spec(spec)).expect("streamed");
        assert_eq!(streamed.results, eager.results);
        assert_eq!(streamed.failures, eager.failures);
    }

    #[test]
    fn streamed_sharded_equals_eager_sharded_and_generated() {
        let dir = tmpdir("shardeq");
        let spec = small_spec(2); // 12 projects
        generate_sharded(&dir, &spec, 5).unwrap();
        let runner = StudyRunner::new(StudyConfig::default()).with_workers(2);

        let generated = runner.run(Source::Spec(spec)).expect("generated");
        let eager = runner.run(Source::Sharded(dir.clone())).expect("eager sharded");
        let streamed =
            runner.run_streamed(Source::Sharded(dir.clone())).expect("streamed sharded");

        assert_eq!(eager.results, generated.results);
        assert_eq!(streamed.results, eager.results);
        assert!(streamed.failures.is_empty());
        // Sub-shard admission (cap 2 < shard 5) changes nothing.
        let capped = runner
            .with_max_resident(2)
            .run_streamed(Source::Sharded(dir.clone()))
            .expect("capped streamed");
        assert_eq!(capped.results, eager.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_in_memory_and_on_disk_equal_eager() {
        let spec = small_spec(1);
        let projects: Vec<ProjectArtifacts> = coevo_corpus::generate_corpus(&spec)
            .iter()
            .map(ProjectArtifacts::from_generated)
            .collect();
        let runner = StudyRunner::new(StudyConfig::default()).with_max_resident(2);

        let eager = runner.run(Source::InMemory(projects.clone())).expect("eager");
        let streamed =
            runner.run_streamed(Source::InMemory(projects.clone())).expect("streamed");
        assert_eq!(streamed.results, eager.results);

        // On-disk: save in the loader layout, then compare both paths.
        let dir = tmpdir("ondisk");
        for (i, p) in coevo_corpus::generate_corpus(&spec).iter().enumerate() {
            coevo_corpus::loader::save_project(&dir.join(format!("p{i}")), p).unwrap();
        }
        let eager = runner.run(Source::OnDisk(dir.clone())).expect("eager on-disk");
        let streamed =
            runner.run_streamed(Source::OnDisk(dir.clone())).expect("streamed on-disk");
        assert_eq!(streamed.results, eager.results);
        assert_eq!(streamed.failures, eager.failures);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_fails_that_project_in_both_paths() {
        let dir = tmpdir("corrupt");
        let spec = small_spec(1); // 6 projects
        let manifest = generate_sharded(&dir, &spec, 3).unwrap();
        // Break record 1 of shard 0 (byte right after its length prefix is
        // somewhere past the first record; easiest reliable corruption: the
        // first byte of the first record's payload).
        let path = dir.join(&manifest.shards[0].file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + 4 + 4] = b'!';
        std::fs::write(&path, &bytes).unwrap();

        let runner = StudyRunner::new(StudyConfig::default());
        let eager = runner.run(Source::Sharded(dir.clone())).expect("eager");
        let streamed = runner.run_streamed(Source::Sharded(dir.clone())).expect("streamed");
        assert_eq!(eager.failures.len(), 1);
        assert!(eager.failures[0].project.contains("[record 0]"), "{:?}", eager.failures);
        assert_eq!(streamed.failures, eager.failures);
        assert_eq!(streamed.results, eager.results);
        assert_eq!(streamed.results.measures.len(), 5);

        // FailFast surfaces the load failure as a hard error.
        let err = runner
            .clone()
            .with_failure_policy(FailurePolicy::FailFast)
            .run_streamed(Source::Sharded(dir.clone()))
            .unwrap_err();
        assert_eq!(err.stage, Stage::Load);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_sharded_corpus_is_a_hard_error() {
        let runner = StudyRunner::new(StudyConfig::default());
        let err = runner
            .run_streamed(Source::Sharded(PathBuf::from("/nonexistent_coevo_shards")))
            .unwrap_err();
        assert_eq!(err.stage, Stage::Load);
        assert!(matches!(err.kind, EngineErrorKind::Load(_)));
        // Same for the eager path over the same source.
        let err2 = runner
            .run(Source::Sharded(PathBuf::from("/nonexistent_coevo_shards")))
            .unwrap_err();
        assert_eq!(err2.kind, err.kind);
    }

    #[test]
    fn empty_sources_yield_empty_studies() {
        let runner = StudyRunner::new(StudyConfig::default());
        let streamed = runner.run_streamed(Source::InMemory(Vec::new())).expect("empty");
        assert_eq!(streamed.results.measures.len(), 0);
        assert!(streamed.failures.is_empty());
    }

    #[test]
    fn cap_one_run_matches_direct_aggregation() {
        let spec = small_spec(1);
        let runner = StudyRunner::new(StudyConfig::default())
            .with_match_policy(coevo_diff::MatchPolicy::rename_detection());
        let eager = runner.run(Source::Spec(spec.clone())).expect("eager");
        let capped =
            runner.with_max_resident(1).run_streamed(Source::Spec(spec)).expect("cap 1");
        assert_eq!(capped.results.measures.len(), 6);
        assert_eq!(capped.results, StudyResults::from_measures(eager.results.measures.clone()));
        assert_eq!(capped.renames, eager.renames);
        assert_eq!(capped.renames.len(), 6, "one rename tally per taxon");
    }

    #[test]
    fn store_spill_serves_streamed_reruns() {
        let store_dir = tmpdir("store");
        let corpus_dir = tmpdir("storecorpus");
        let spec = small_spec(1);
        generate_sharded(&corpus_dir, &spec, 2).unwrap();
        let runner = StudyRunner::new(StudyConfig::default()).with_store(&store_dir);

        let cold = runner.run_streamed(Source::Sharded(corpus_dir.clone())).expect("cold");
        let s = cold.metrics.store.expect("store metrics");
        assert_eq!((s.hits, s.misses, s.published), (0, 6, 6));

        let warm = runner.run_streamed(Source::Sharded(corpus_dir.clone())).expect("warm");
        let s = warm.metrics.store.expect("store metrics");
        assert_eq!((s.hits, s.misses, s.published), (6, 0, 0));
        assert_eq!(warm.results, cold.results);
        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&corpus_dir);
    }
}
