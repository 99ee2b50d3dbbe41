//! The batch planner behind every run, and the bounded-memory
//! [`StudyRunner::run_streamed`] built on it.
//!
//! [`Batches`] is a resumable cursor over a [`Source`]: it yields projects
//! in global corpus order, at most `cap` at a time — one shard at a time for
//! [`Source::Sharded`] (sliced further when the cap is smaller), `cap`-sized
//! chunks for the other sources. Both entry points drive the same batch
//! loop over it ([`StudyRunner::run`] with no cap). Within a batch nothing
//! differs between them: the same worker pool, the same per-stage
//! metrics, the same result-store spill. Between batches a streamed run
//! keeps only:
//!
//! - the per-project **measures** and rename tallies (small — a handful of
//!   curves and scalars per project); the heavyweight
//!   [`coevo_core::ProjectData`] (parsed histories, heartbeats) is dropped
//!   as soon as its batch's results are collected, which is the whole
//!   O(shard) claim;
//! - the structured **failures**.
//!
//! Batches run in global corpus order and results are collected in input
//! order within each batch, so the measure sequence does not depend on the
//! cap — corpus aggregation over it is byte-identical for every cap, which
//! the differential tests and the `coevo check` batch-cap oracle pin
//! (including under seeded mid-corpus failure injection).

use crate::error::{EngineError, EngineErrorKind, ProjectFailure, Stage};
use crate::metrics::MetricsSnapshot;
use crate::runner::{RenameProfile, Source, StudyRunner, DEFAULT_BATCH};
use coevo_core::StudyResults;
use coevo_corpus::loader::{self, Manifest};
use coevo_corpus::{CorpusSpec, CorpusStream, ProjectArtifacts, ShardEntry};
use std::path::{Path, PathBuf};

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
    /// Run the full study over `source` with bounded peak memory: projects
    /// are admitted to the worker pool in batches of at most
    /// [`crate::StudyConfig::max_resident_projects`] (one shard at a time
    /// for [`Source::Sharded`]), their parsed data dropped once measured.
    ///
    /// The output is pinned byte-identical to [`StudyRunner::run`] on the
    /// same source: same `results`, same `renames`, same `failures`. Error
    /// behavior matches too — only an unusable source (or store) is a hard
    /// error under [`crate::FailurePolicy::CollectAndContinue`], while
    /// [`crate::FailurePolicy::FailFast`] aborts on the first project
    /// failure of the earliest batch that has one.
    pub fn run_streamed(&self, source: Source) -> Result<StreamedReport, EngineError> {
        let cap = match self.config().max_resident_projects {
            0 => DEFAULT_BATCH,
            n => n,
        };
        let r = self.run_batches(source, cap, false)?;
        Ok(StreamedReport {
            results: r.results,
            renames: r.renames,
            failures: r.failures,
            metrics: r.metrics,
        })
    }
}

/// One admission batch: the projects to run plus any load failures found
/// while materializing them.
#[derive(Debug)]
pub struct Batch {
    /// The projects, in global corpus order.
    pub projects: Vec<ProjectArtifacts>,
    /// Projects (or whole shards) that could not be loaded.
    pub failures: Vec<ProjectFailure>,
}

/// The batch planner: a resumable cursor over a source, yielding projects
/// in global corpus order without ever materializing more than one batch
/// (plus, for sharded sources, the shard it is sliced from). Every study
/// pass iterates it, and so does any other per-project pass over a corpus
/// (`coevo compat`), which thereby skips unloadable projects exactly as a
/// study does.
pub struct Batches(Plan);

enum Plan {
    /// Generate `cap` projects at a time via `generate_nth`.
    Generated { spec: CorpusSpec, next: usize, total: usize, cap: usize },
    /// Read one shard at a time (shards visited by global `start` offset);
    /// a shard larger than `cap` is admitted in `cap`-sized slices.
    Sharded {
        stream: CorpusStream,
        entries: Vec<ShardEntry>,
        next_entry: usize,
        /// Unadmitted remainder of the currently open shard (global order).
        pending: Vec<ProjectArtifacts>,
        cap: usize,
    },
    /// Load `cap` project directories at a time, in manifest-name order
    /// (established by a manifest-only pre-pass).
    OnDisk {
        dirs: Vec<(PathBuf, Manifest)>,
        next: usize,
        pre_failures: Vec<ProjectFailure>,
        cap: usize,
    },
    /// Slice the given vector `cap` projects at a time.
    InMemory { projects: std::vec::IntoIter<ProjectArtifacts>, cap: usize },
}

impl Batches {
    /// Plan a pass over `source`, at most `cap` projects per batch. Only an
    /// unusable source (unreadable corpus directory, missing or mismatched
    /// shard manifest) is an error.
    pub fn plan(source: Source, cap: usize) -> Result<Self, EngineError> {
        let cap = cap.max(1);
        let plan = match source {
            Source::GeneratedCorpus(seed) => {
                let mut spec = CorpusSpec::paper();
                spec.seed = seed;
                Plan::generated(spec, cap)
            }
            Source::Spec(spec) => Plan::generated(spec, cap),
            Source::Sharded(dir) => {
                let stream = CorpusStream::open(&dir).map_err(|e| EngineError {
                    project: dir.display().to_string(),
                    stage: Stage::Load,
                    kind: EngineErrorKind::Load(e.to_string()),
                })?;
                let mut entries = stream.manifest().shards.clone();
                entries.sort_by_key(|e| e.start);
                Plan::Sharded { stream, entries, next_entry: 0, pending: Vec::new(), cap }
            }
            Source::OnDisk(dir) => {
                let (dirs, pre_failures) = plan_on_disk(&dir)?;
                Plan::OnDisk { dirs, next: 0, pre_failures, cap }
            }
            Source::InMemory(projects) => {
                Plan::InMemory { projects: projects.into_iter(), cap }
            }
        };
        Ok(Self(plan))
    }
}

impl Plan {
    fn generated(spec: CorpusSpec, cap: usize) -> Self {
        let total = spec.taxa.iter().map(|t| t.count).sum();
        Self::Generated { spec, next: 0, total, cap }
    }
}

impl Iterator for Batches {
    type Item = Batch;

    /// The next batch, or `None` when the source is exhausted.
    fn next(&mut self) -> Option<Batch> {
        match &mut self.0 {
            Plan::Generated { spec, next, total, cap } => {
                if next == total {
                    return None;
                }
                // `cap` may be `usize::MAX`: bound by what is left first.
                let end = *next + (*total - *next).min(*cap);
                let projects = (*next..end)
                    .map(|i| {
                        ProjectArtifacts::from(
                            coevo_corpus::generate_nth(spec, i).expect("index < total"),
                        )
                    })
                    .collect();
                *next = end;
                Some(Batch { projects, failures: Vec::new() })
            }
            Plan::Sharded { stream, entries, next_entry, pending, cap } => {
                let mut failures = Vec::new();
                while pending.is_empty() {
                    if *next_entry == entries.len() {
                        if failures.is_empty() {
                            return None;
                        }
                        // A trailing shard produced only failures.
                        return Some(Batch { projects: Vec::new(), failures });
                    }
                    let entry = &entries[*next_entry];
                    *next_entry += 1;
                    let (projects, fails) = read_shard_lenient(stream, entry);
                    failures.extend(fails);
                    *pending = projects;
                }
                // Admit at most `cap` of the open shard; keep the rest
                // (still O(shard)) for the next call.
                let take = (*cap).min(pending.len());
                let rest = pending.split_off(take);
                let projects = std::mem::replace(pending, rest);
                Some(Batch { projects, failures })
            }
            Plan::OnDisk { dirs, next, pre_failures, cap } => {
                let mut failures = std::mem::take(pre_failures);
                let mut projects = Vec::new();
                while projects.len() < *cap && *next < dirs.len() {
                    let (pdir, manifest) = &dirs[*next];
                    *next += 1;
                    match loader::read_project(pdir, manifest) {
                        Ok(p) => projects.push(p),
                        Err(e) => failures.push(load_failure(pdir, e)),
                    }
                }
                if projects.is_empty() && failures.is_empty() {
                    return None;
                }
                Some(Batch { projects, failures })
            }
            Plan::InMemory { projects, cap } => {
                let batch: Vec<_> = projects.take(*cap).collect();
                if batch.is_empty() {
                    return None;
                }
                Some(Batch { projects: batch, failures: Vec::new() })
            }
        }
    }
}

/// The on-disk pre-pass: find every project directory (any subdirectory
/// containing a `manifest.json`) and order them by *manifest* name, a
/// stable sort over directory order, without reading any version text.
/// Directories whose manifest cannot be read become load failures here.
#[allow(clippy::type_complexity)]
fn plan_on_disk(
    dir: &Path,
) -> Result<(Vec<(PathBuf, Manifest)>, Vec<ProjectFailure>), EngineError> {
    let entries = std::fs::read_dir(dir).map_err(|e| EngineError {
        project: dir.display().to_string(),
        stage: Stage::Load,
        kind: EngineErrorKind::Load(format!("unreadable corpus directory: {e}")),
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

/// A project directory's load failure, named after the directory (its
/// manifest name may be what could not be read).
fn load_failure(dir: &Path, e: loader::LoaderError) -> ProjectFailure {
    let project = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| dir.display().to_string());
    let kind = EngineErrorKind::Load(e.to_string());
    ProjectFailure::from(EngineError { project, stage: Stage::Load, kind })
}

/// Read one shard with record-level leniency: a shard that cannot be opened
/// (bad magic, count mismatch, unreadable file) becomes one failure named
/// after the shard file; a corrupt record becomes a failure named
/// `<file>[record N]` while the remaining records still load. A shard whose
/// checksum disagrees with the manifest contributes that one failure and no
/// projects: its records cannot be trusted to be the published ones.
fn read_shard_lenient(
    stream: &CorpusStream,
    entry: &ShardEntry,
) -> (Vec<ProjectArtifacts>, Vec<ProjectFailure>) {
    let shard_failure = |kind: String| {
        ProjectFailure::from(EngineError {
            project: entry.file.clone(),
            stage: Stage::Load,
            kind: EngineErrorKind::Load(kind),
        })
    };
    let reader = match stream.shard_reader(entry) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), vec![shard_failure(e.to_string())]),
    };
    let mut projects = Vec::with_capacity(entry.projects);
    let mut failures = Vec::new();
    for record in reader {
        match record {
            Ok(p) => projects.push(p),
            Err(coevo_corpus::ShardError::Record { file, index, detail }) => {
                failures.push(ProjectFailure::from(EngineError {
                    project: format!("{file}[record {index}]"),
                    stage: Stage::Load,
                    kind: EngineErrorKind::Load(detail),
                }));
            }
            Err(e @ coevo_corpus::ShardError::Checksum { .. }) => {
                projects.clear();
                failures.push(shard_failure(e.to_string()));
            }
            Err(e) => failures.push(shard_failure(e.to_string())),
        }
    }
    (projects, failures)
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
