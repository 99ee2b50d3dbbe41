//! The corpus generator: a seeded, deterministic population of projects.

use crate::project_gen::{generate_project, RawProject};
use crate::spec::TaxonSpec;
use coevo_vcs::write_log;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A corpus request: the per-taxon specs plus the master seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// The deterministic RNG seed.
    pub seed: u64,
    /// Per-taxon specifications.
    pub taxa: Vec<TaxonSpec>,
}

impl CorpusSpec {
    /// The calibrated 195-project study corpus under the default seed.
    pub fn paper() -> Self {
        Self { seed: 0x5EED_2019, taxa: crate::spec::paper_spec() }
    }

    /// This spec scaled to `n` projects per taxon, clamping each taxon's
    /// forced single-month count to the new size. The standard way to derive
    /// small smoke corpora (`coevo generate --per-taxon`, the oracle's
    /// `--quick` mode) from the calibrated paper spec.
    pub fn with_per_taxon(mut self, n: usize) -> Self {
        for t in &mut self.taxa {
            t.count = n;
            t.single_month_count = t.single_month_count.min(n);
        }
        self
    }

    /// This spec scaled to `total` projects overall, preserving the taxon
    /// *mix* proportionally (largest-remainder apportionment, so counts sum
    /// to exactly `total`). Per-taxon `single_month_count` scales with its
    /// taxon and is clamped to the new count. This is how
    /// `coevo corpus gen --projects N` turns the calibrated 195-project
    /// paper mix into a 10k–100k corpus with the same taxon proportions.
    pub fn with_total(mut self, total: usize) -> Self {
        let old_total: usize = self.taxa.iter().map(|t| t.count).sum();
        if old_total == 0 {
            return self;
        }
        // Integer floors first, then hand out the remainder to the largest
        // fractional parts (stable: ties broken by taxon order).
        let mut floors = Vec::with_capacity(self.taxa.len());
        let mut remainders = Vec::with_capacity(self.taxa.len());
        for (i, t) in self.taxa.iter().enumerate() {
            let exact = t.count * total;
            floors.push(exact / old_total);
            remainders.push((exact % old_total, i));
        }
        let assigned: usize = floors.iter().sum();
        remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in remainders.iter().take(total - assigned) {
            floors[i] += 1;
        }
        for (t, new_count) in self.taxa.iter_mut().zip(floors) {
            t.single_month_count = (t.single_month_count * new_count)
                .checked_div(t.count)
                .unwrap_or(0)
                .min(new_count);
            t.count = new_count;
        }
        self
    }
}

/// One generated project, with its git log rendered to text so consumers
/// exercise the same parsing path as for real clones.
#[derive(Debug, Clone)]
pub struct GeneratedProject {
    /// The raw.
    pub raw: RawProject,
    /// `git log --name-status --no-merges --date=iso` text.
    pub git_log: String,
}

/// Generate the project at `global_idx` of the spec's corpus, or `None` past
/// the end. Each project gets its own ChaCha stream derived from the master
/// seed and its global index, so any single project is reproducible without
/// generating the ones before it — the primitive that lets workers
/// generate a corpus in parallel with no change to any byte.
pub fn generate_nth(spec: &CorpusSpec, global_idx: usize) -> Option<GeneratedProject> {
    let mut offset = global_idx;
    for taxon_spec in &spec.taxa {
        if offset < taxon_spec.count {
            let mut rng = ChaCha8Rng::seed_from_u64(
                spec.seed ^ ((global_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let raw = generate_project(&mut rng, taxon_spec, offset);
            let git_log = write_log(&raw.repo);
            return Some(GeneratedProject { raw, git_log });
        }
        offset -= taxon_spec.count;
    }
    None
}

/// Generate the corpus eagerly, in global order, on every core.
pub fn generate_corpus(spec: &CorpusSpec) -> Vec<GeneratedProject> {
    let mut corpus = Vec::with_capacity(crate::spec::total_count(&spec.taxa));
    let Ok(()) = generate_ordered(spec, default_workers(), Ok::<_, Infallible>, |p| {
        corpus.push(p);
        Ok(())
    });
    corpus
}

/// One generator thread per available core (the rule `StudyRunner` uses
/// for its default worker count).
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Results a worker may run ahead of the sink, per worker.
const AHEAD_PER_WORKER: usize = 4;

/// The corpus generator's only loop. `workers` scoped threads claim project
/// indices from a shared counter, run [`generate_nth`] and then `work` on
/// each, and `sink` receives the results on the calling thread strictly in
/// index order. Every project has its own seeded stream, so the sink sees
/// exactly the sequence a serial loop would, whatever the worker count.
///
/// A worker claims an index only while it is fewer than
/// `AHEAD_PER_WORKER × workers` ahead of the sink, so that many results at
/// most are held at once. The first error in index order, from `work` or
/// from `sink`, stops generation and is returned once every worker has
/// been joined; a panic on any thread stops the others and is re-raised.
pub(crate) fn generate_ordered<T: Send, E: Send>(
    spec: &CorpusSpec,
    workers: usize,
    work: impl Fn(GeneratedProject) -> Result<T, E> + Sync,
    mut sink: impl FnMut(T) -> Result<(), E>,
) -> Result<(), E> {
    let total = crate::spec::total_count(&spec.taxa);
    let workers = workers.clamp(1, total.max(1));
    let window = Window {
        state: Mutex::new(WindowState {
            slots: (0..AHEAD_PER_WORKER * workers).map(|_| None).collect(),
            claimed: 0,
            taken: 0,
            stop: false,
        }),
        changed: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _halt = HaltOnPanic(&window);
                while let Some(idx) = window.claim(total) {
                    window.put(idx, work(generate_nth(spec, idx).expect("index < total")));
                }
            });
        }
        let _halt = HaltOnPanic(&window);
        for idx in 0..total {
            let Some(result) = window.take(idx) else {
                return Ok(()); // a worker panicked; the scope re-raises it
            };
            if let Err(e) = result.and_then(&mut sink) {
                window.halt();
                return Err(e);
            }
        }
        Ok(())
    })
}

/// The bounded reorder window between [`generate_ordered`]'s workers and
/// its sink.
struct Window<R> {
    state: Mutex<WindowState<R>>,
    /// Signalled when a slot is filled or taken, or on halt.
    changed: Condvar,
}

struct WindowState<R> {
    /// Finished results the sink has not taken, at `index % slots.len()`.
    slots: Vec<Option<R>>,
    /// The next index a worker claims.
    claimed: usize,
    /// The next index the sink takes.
    taken: usize,
    /// Set when generation ends early: an error or a panic.
    stop: bool,
}

impl<R> Window<R> {
    /// The state, also from a poisoned lock: every update under the lock
    /// is a single assignment, so the state is valid even if a thread
    /// panicked holding it, and [`HaltOnPanic`] must lock while unwinding.
    fn lock(&self) -> MutexGuard<'_, WindowState<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next index to generate, once it is within the window's length
    /// of the sink; `None` when every index is claimed or generation
    /// stopped.
    fn claim(&self, total: usize) -> Option<usize> {
        let mut s = self
            .changed
            .wait_while(self.lock(), |s| {
                !s.stop && s.claimed < total && s.claimed == s.taken + s.slots.len()
            })
            .unwrap_or_else(PoisonError::into_inner);
        if s.stop || s.claimed == total {
            return None;
        }
        s.claimed += 1;
        Some(s.claimed - 1)
    }

    /// Store the result of index `idx`.
    fn put(&self, idx: usize, result: R) {
        let mut s = self.lock();
        let slot = idx % s.slots.len();
        s.slots[slot] = Some(result);
        drop(s);
        self.changed.notify_all();
    }

    /// Wait for the result of index `idx` and take it; `None` if
    /// generation stopped first.
    fn take(&self, idx: usize) -> Option<R> {
        let mut s = self.lock();
        let slot = idx % s.slots.len();
        s = self
            .changed
            .wait_while(s, |s| !s.stop && s.slots[slot].is_none())
            .unwrap_or_else(PoisonError::into_inner);
        let result = s.slots[slot].take()?;
        s.taken += 1;
        drop(s);
        self.changed.notify_all();
        Some(result)
    }

    /// Stop generation and wake every waiting thread.
    fn halt(&self) {
        self.lock().stop = true;
        self.changed.notify_all();
    }
}

/// Halts the window when dropped during a panic, so no thread waits for a
/// result or a slot that will never come.
struct HaltOnPanic<'a, R>(&'a Window<R>);

impl<R> Drop for HaltOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn small_spec() -> CorpusSpec {
        let mut taxa = crate::spec::paper_spec();
        for t in &mut taxa {
            t.count = 2;
        }
        CorpusSpec { seed: 7, taxa }
    }

    #[test]
    fn corpus_size_matches_spec() {
        let corpus = generate_corpus(&small_spec());
        assert_eq!(corpus.len(), 12);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = generate_corpus(&small_spec());
        let b = generate_corpus(&small_spec());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.raw.name, y.raw.name);
            assert_eq!(x.git_log, y.git_log);
            assert_eq!(x.raw.ddl_versions, y.raw.ddl_versions);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec2 = small_spec();
        spec2.seed = 8;
        let a = generate_corpus(&small_spec());
        let b = generate_corpus(&spec2);
        assert_ne!(a[0].git_log, b[0].git_log);
    }

    #[test]
    fn git_logs_are_parseable() {
        for p in generate_corpus(&small_spec()) {
            let repo = coevo_vcs::parse_log(&p.git_log).expect("generated log parses");
            assert_eq!(repo.commits.len(), p.raw.repo.non_merge_commits().count());
        }
    }

    #[test]
    fn paper_corpus_has_195() {
        // Generation of the full corpus is cheap enough to smoke-test.
        let corpus = generate_corpus(&CorpusSpec::paper());
        assert_eq!(corpus.len(), 195);
    }

    #[test]
    fn generate_nth_matches_eager_generation() {
        let spec = small_spec();
        let eager = generate_corpus(&spec);
        for (i, expected) in eager.iter().enumerate() {
            let got = generate_nth(&spec, i).unwrap();
            assert_eq!(got.raw.name, expected.raw.name);
            assert_eq!(got.git_log, expected.git_log);
            assert_eq!(got.raw.ddl_versions, expected.raw.ddl_versions);
        }
        assert!(generate_nth(&spec, eager.len()).is_none());
    }

    /// `generate_ordered` collecting every project on `workers` threads.
    fn collect_on(spec: &CorpusSpec, workers: usize) -> Vec<GeneratedProject> {
        let mut out = Vec::new();
        let Ok(()) = generate_ordered(spec, workers, Ok::<_, Infallible>, |p| {
            out.push(p);
            Ok(())
        });
        out
    }

    #[test]
    fn output_does_not_depend_on_the_worker_count() {
        let spec = CorpusSpec { seed: 3, ..CorpusSpec::paper().with_total(40) };
        let serial: Vec<_> = (0..40).map(|i| generate_nth(&spec, i).unwrap()).collect();
        for workers in [1, 2, 4, 7] {
            let got = collect_on(&spec, workers);
            assert_eq!(got.len(), serial.len(), "{workers} workers");
            for (g, s) in got.iter().zip(&serial) {
                assert_eq!(g.raw.name, s.raw.name, "{workers} workers");
                assert_eq!(g.raw.taxon, s.raw.taxon);
                assert_eq!(g.raw.dialect, s.raw.dialect);
                assert_eq!(g.raw.ddl_versions, s.raw.ddl_versions);
                assert_eq!(g.raw.repo, s.raw.repo);
                assert_eq!(g.git_log, s.git_log);
            }
        }
        assert!(collect_on(&CorpusSpec { taxa: Vec::new(), seed: 1 }, 4).is_empty());
    }

    #[test]
    fn the_first_error_in_corpus_order_wins() {
        let spec = CorpusSpec::paper().with_total(30);
        let names: Vec<String> = collect_on(&spec, 1).into_iter().map(|p| p.raw.name).collect();
        for workers in [1, 2, 4, 7] {
            // Index 4 fails, and with more than one worker it fails only
            // after index 5 has: the error in corpus order still wins.
            let (failed, later) = mpsc::channel();
            let later = Mutex::new(later);
            let mut sunk = Vec::new();
            let err = generate_ordered(
                &spec,
                workers,
                |p| match names.iter().position(|n| *n == p.raw.name) {
                    Some(4) => {
                        if workers > 1 {
                            later.lock().unwrap().recv().unwrap();
                        }
                        Err("failed first")
                    }
                    Some(5) => {
                        failed.send(()).unwrap();
                        Err("failed later")
                    }
                    _ => Ok(p.raw.name),
                },
                |name| {
                    sunk.push(name);
                    Ok(())
                },
            );
            assert_eq!(err, Err("failed first"), "{workers} workers");
            assert_eq!(sunk, names[..4], "{workers} workers");
        }
        // A failing sink stops generation the same way.
        let mut seen = 0;
        let err = generate_ordered(
            &spec,
            3,
            |p| Ok(p.raw.name),
            |_| {
                seen += 1;
                if seen == 6 {
                    Err("sink full")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!((err, seen), (Err("sink full"), 6));
    }

    #[test]
    fn a_panicking_worker_panics_the_caller_instead_of_hanging() {
        let spec = CorpusSpec::paper().with_total(30);
        for workers in [1, 3] {
            let run = std::panic::catch_unwind(|| {
                generate_ordered(
                    &spec,
                    workers,
                    |p| {
                        assert!(!p.raw.name.ends_with("-2"), "worker panic");
                        Ok::<_, Infallible>(())
                    },
                    |()| Ok(()),
                )
            });
            assert!(run.is_err(), "{workers} workers");
        }
    }

    #[test]
    fn with_total_preserves_mix_and_sums_exactly() {
        let spec = CorpusSpec::paper().with_total(1000);
        let counts: Vec<usize> = spec.taxa.iter().map(|t| t.count).collect();
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        // 27/195 ≈ 138.46 → every taxon lands within 1 of proportional.
        for (t, &n) in CorpusSpec::paper().taxa.iter().zip(&counts) {
            let exact = t.count as f64 * 1000.0 / 195.0;
            assert!((n as f64 - exact).abs() < 1.0, "{n} vs {exact}");
        }
        for t in &spec.taxa {
            assert!(t.single_month_count <= t.count);
        }
        // Scaling to the original total is the identity on counts.
        let same = CorpusSpec::paper().with_total(195);
        for (a, b) in same.taxa.iter().zip(CorpusSpec::paper().taxa.iter()) {
            assert_eq!(a.count, b.count);
            assert_eq!(a.single_month_count, b.single_month_count);
        }
    }

    #[test]
    fn with_total_handles_small_totals() {
        for total in [0usize, 1, 6, 13] {
            let spec = CorpusSpec::paper().with_total(total);
            assert_eq!(spec.taxa.iter().map(|t| t.count).sum::<usize>(), total);
        }
    }
}
