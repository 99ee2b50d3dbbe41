//! Per-stage observability: wall-time spans, item counters and throughput.
//!
//! Workers record into [`Metrics`] with plain atomic adds (no locks on the
//! hot path); [`Metrics::snapshot`] freezes the counters into a
//! [`MetricsSnapshot`] that [`coevo_report::profile`] renders as the
//! `coevo study --profile` table.

use crate::error::Stage;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One observable outcome of a result-store interaction, counted by
/// [`Metrics::record_store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreEvent {
    /// A verified entry served the project (parse/diff/measure skipped).
    Hit,
    /// No entry existed for the project's input digest.
    Miss,
    /// A stale entry (format or digest mismatch) was quarantined.
    Invalidated,
    /// A corrupt entry (torn write, checksum failure) was quarantined.
    Quarantined,
    /// A freshly computed result was published to the store.
    Published,
    /// A publish attempt failed (the study continues; publishes are
    /// best-effort).
    PublishFailure,
}

impl StoreEvent {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            Self::Hit => 0,
            Self::Miss => 1,
            Self::Invalidated => 2,
            Self::Quarantined => 3,
            Self::Published => 4,
            Self::PublishFailure => 5,
        }
    }
}

/// Live per-stage counters, shared by every worker of a run.
#[derive(Debug)]
pub struct Metrics {
    busy_nanos: [AtomicU64; Stage::ALL.len()],
    items: [AtomicU64; Stage::ALL.len()],
    cache_hits: [AtomicU64; Stage::ALL.len()],
    cache_misses: [AtomicU64; Stage::ALL.len()],
    allocs: [AtomicU64; Stage::ALL.len()],
    alloc_bytes: [AtomicU64; Stage::ALL.len()],
    store: [AtomicU64; StoreEvent::COUNT],
    store_enabled: AtomicBool,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Start a fresh counter set; the run's wall clock starts now.
    pub fn new() -> Self {
        Self {
            busy_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            items: std::array::from_fn(|_| AtomicU64::new(0)),
            cache_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            cache_misses: std::array::from_fn(|_| AtomicU64::new(0)),
            allocs: std::array::from_fn(|_| AtomicU64::new(0)),
            alloc_bytes: std::array::from_fn(|_| AtomicU64::new(0)),
            store: std::array::from_fn(|_| AtomicU64::new(0)),
            store_enabled: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// Mark this run as store-backed: the snapshot will carry a
    /// [`StoreMetrics`] block (all-zero counters are meaningful for a
    /// store-backed run, and absent for a store-less one).
    pub fn enable_store(&self) {
        self.store_enabled.store(true, Ordering::Relaxed);
    }

    /// Count one result-store outcome.
    pub fn record_store(&self, event: StoreEvent) {
        self.store[event.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record `elapsed` busy time and `items` processed items for `stage`.
    pub fn record(&self, stage: Stage, elapsed: Duration, items: u64) {
        let i = Self::index(stage);
        self.busy_nanos[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.items[i].fetch_add(items, Ordering::Relaxed);
    }

    /// Record incremental-core counters for `stage`: lookups the stage's
    /// cache answered (`hits` — parses elided, versions/tables skipped) vs.
    /// lookups that had to do the work (`misses`).
    pub fn record_cache(&self, stage: Stage, hits: u64, misses: u64) {
        let i = Self::index(stage);
        self.cache_hits[i].fetch_add(hits, Ordering::Relaxed);
        self.cache_misses[i].fetch_add(misses, Ordering::Relaxed);
    }

    /// Record an allocation delta ([`crate::allocs::AllocSnapshot::since`])
    /// the worker measured around `stage`. All-zero deltas — the norm when
    /// no counting allocator is installed — are skipped so a production run
    /// stays write-free here.
    pub fn record_allocs(&self, stage: Stage, delta: crate::allocs::AllocSnapshot) {
        if delta.allocs == 0 && delta.bytes == 0 {
            return;
        }
        let i = Self::index(stage);
        self.allocs[i].fetch_add(delta.allocs, Ordering::Relaxed);
        self.alloc_bytes[i].fetch_add(delta.bytes, Ordering::Relaxed);
    }

    /// Freeze the counters. `workers` is echoed into the snapshot so the
    /// profile rendering can relate summed busy time to wall time.
    pub fn snapshot(&self, workers: usize) -> MetricsSnapshot {
        let stages = Stage::ALL
            .into_iter()
            .enumerate()
            .map(|(i, stage)| StageMetrics {
                stage,
                items: self.items[i].load(Ordering::Relaxed),
                busy: Duration::from_nanos(self.busy_nanos[i].load(Ordering::Relaxed)),
                cache_hits: self.cache_hits[i].load(Ordering::Relaxed),
                cache_misses: self.cache_misses[i].load(Ordering::Relaxed),
                allocs: self.allocs[i].load(Ordering::Relaxed),
                alloc_bytes: self.alloc_bytes[i].load(Ordering::Relaxed),
            })
            .collect();
        let store = self.store_enabled.load(Ordering::Relaxed).then(|| StoreMetrics {
            hits: self.store[StoreEvent::Hit.index()].load(Ordering::Relaxed),
            misses: self.store[StoreEvent::Miss.index()].load(Ordering::Relaxed),
            invalidated: self.store[StoreEvent::Invalidated.index()].load(Ordering::Relaxed),
            quarantined: self.store[StoreEvent::Quarantined.index()].load(Ordering::Relaxed),
            published: self.store[StoreEvent::Published.index()].load(Ordering::Relaxed),
            publish_failures: self.store[StoreEvent::PublishFailure.index()]
                .load(Ordering::Relaxed),
        });
        MetricsSnapshot {
            stages,
            wall: self.started.elapsed(),
            workers,
            store,
            memory: crate::allocs::MemoryProfile::sample(),
        }
    }

    fn index(stage: Stage) -> usize {
        Stage::ALL.iter().position(|s| *s == stage).expect("stage in ALL")
    }
}

/// The frozen counters of one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// The stage.
    pub stage: Stage,
    /// Items processed (logs+versions parsed, deltas diffed, heartbeats
    /// built, projects measured, …).
    pub items: u64,
    /// Summed busy time across all workers.
    pub busy: Duration,
    /// Incremental-core lookups answered without doing the work (parse-cache
    /// hits, identical versions/tables skipped).
    pub cache_hits: u64,
    /// Incremental-core lookups that did the work (fresh parses, tables
    /// actually diffed).
    pub cache_misses: u64,
    /// Heap allocations measured inside the stage. Zero unless the binary
    /// installed [`crate::allocs::CountingAlloc`] (only the benchmark suite
    /// does).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

impl StageMetrics {
    /// Items per second of busy time (0 when the stage never ran).
    pub fn throughput(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of cache lookups answered without work, or `None` when the
    /// stage recorded no cache lookups at all.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

/// The frozen result-store counters of one store-backed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetrics {
    /// Projects served from a verified store entry.
    pub hits: u64,
    /// Projects with no store entry (computed, then published).
    pub misses: u64,
    /// Stale entries quarantined (format/digest mismatch), then recomputed.
    pub invalidated: u64,
    /// Corrupt entries quarantined (checksum/parse failure), then
    /// recomputed.
    pub quarantined: u64,
    /// Results published to the store this run.
    pub published: u64,
    /// Best-effort publishes that failed (never fatal to the study).
    pub publish_failures: u64,
}

impl StoreMetrics {
    /// Total store lookups (one per project).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.invalidated + self.quarantined
    }
}

/// A frozen view of one engine run's observability counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-stage counters, in execution order.
    pub stages: Vec<StageMetrics>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Worker threads the run used.
    pub workers: usize,
    /// Result-store counters; `Some` exactly when the run was store-backed.
    pub store: Option<StoreMetrics>,
    /// Peak-memory readings at snapshot time (RSS high-water mark where the
    /// platform exposes one; live-heap high-water mark when a counting
    /// allocator is installed).
    pub memory: crate::allocs::MemoryProfile,
}

impl MetricsSnapshot {
    /// The counters of one stage.
    pub fn stage(&self, stage: Stage) -> Option<&StageMetrics> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Render the profile table (via [`coevo_report::profile`]).
    pub fn render(&self) -> String {
        let rows: Vec<coevo_report::profile::ProfileRow> = self
            .stages
            .iter()
            .map(|s| coevo_report::profile::ProfileRow {
                stage: s.stage.name().to_string(),
                items: s.items,
                busy: s.busy,
                cache_hits: s.cache_hits,
                cache_misses: s.cache_misses,
                allocs: s.allocs,
                alloc_bytes: s.alloc_bytes,
            })
            .collect();
        let store = self.store.map(|s| coevo_report::profile::StoreProfile {
            hits: s.hits,
            misses: s.misses,
            invalidated: s.invalidated,
            quarantined: s.quarantined,
            published: s.published,
            publish_failures: s.publish_failures,
        });
        let memory = coevo_report::profile::MemoryRow {
            rss_bytes: self.memory.peak_rss_bytes,
            live_bytes: self.memory.peak_live_bytes,
        };
        let memory =
            (memory.rss_bytes.is_some() || memory.live_bytes.is_some()).then_some(memory);
        coevo_report::profile::render_profile(
            &rows,
            self.wall,
            self.workers,
            store.as_ref(),
            memory.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = Metrics::new();
        m.record(Stage::Parse, Duration::from_millis(10), 4);
        m.record(Stage::Parse, Duration::from_millis(30), 6);
        m.record(Stage::Stats, Duration::from_millis(5), 1);
        let snap = m.snapshot(3);
        assert_eq!(snap.workers, 3);
        let parse = snap.stage(Stage::Parse).unwrap();
        assert_eq!(parse.items, 10);
        assert_eq!(parse.busy, Duration::from_millis(40));
        assert!((parse.throughput() - 250.0).abs() < 1.0);
        assert_eq!(snap.stage(Stage::Diff).unwrap().items, 0);
        assert_eq!(snap.stage(Stage::Diff).unwrap().throughput(), 0.0);
    }

    #[test]
    fn cache_counters_accumulate_and_rate() {
        let m = Metrics::new();
        m.record_cache(Stage::Parse, 59, 1);
        m.record_cache(Stage::Parse, 0, 1);
        m.record_cache(Stage::Diff, 10, 30);
        let snap = m.snapshot(1);
        let parse = snap.stage(Stage::Parse).unwrap();
        assert_eq!((parse.cache_hits, parse.cache_misses), (59, 2));
        assert!((parse.cache_hit_rate().unwrap() - 59.0 / 61.0).abs() < 1e-9);
        assert!(
            (snap.stage(Stage::Diff).unwrap().cache_hit_rate().unwrap() - 0.25).abs() < 1e-9
        );
        // Stages with no cache lookups report no rate (rendered as `-`).
        assert_eq!(snap.stage(Stage::Load).unwrap().cache_hit_rate(), None);
        let text = snap.render();
        assert!(text.contains("97%"), "{text}"); // parse hit rate 59/61
    }

    #[test]
    fn alloc_counters_accumulate_and_render() {
        use crate::allocs::AllocSnapshot;
        let m = Metrics::new();
        // Zero deltas (no counting allocator installed) leave everything 0.
        m.record_allocs(Stage::Parse, AllocSnapshot::default());
        // Non-zero deltas accumulate per stage.
        m.record_allocs(Stage::Parse, AllocSnapshot { allocs: 1000, bytes: 64_000 });
        m.record_allocs(Stage::Parse, AllocSnapshot { allocs: 500, bytes: 16_000 });
        m.record_allocs(Stage::Diff, AllocSnapshot { allocs: 10, bytes: 320 });
        let snap = m.snapshot(1);
        let parse = snap.stage(Stage::Parse).unwrap();
        assert_eq!((parse.allocs, parse.alloc_bytes), (1500, 80_000));
        assert_eq!(snap.stage(Stage::Measure).unwrap().allocs, 0);
        let text = snap.render();
        assert!(text.contains("allocs"), "{text}");
        assert!(text.contains("1.5k"), "{text}"); // parse allocs, humanized
    }

    #[test]
    fn alloc_free_snapshot_renders_no_alloc_column() {
        let m = Metrics::new();
        m.record(Stage::Parse, Duration::from_millis(1), 1);
        let text = m.snapshot(1).render();
        assert!(!text.contains("allocs"), "{text}");
    }

    #[test]
    fn render_mentions_every_stage() {
        let m = Metrics::new();
        m.record(Stage::Measure, Duration::from_millis(2), 7);
        let text = m.snapshot(2).render();
        for stage in Stage::ALL {
            assert!(text.contains(stage.name()), "{text}");
        }
        assert!(text.contains("items/s"), "{text}");
        assert!(text.contains("workers"), "{text}");
    }
}
