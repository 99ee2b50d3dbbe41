//! Rendering execution-profile tables: per-stage busy time, item counts and
//! throughput, as printed by `coevo study --profile`.
//!
//! This module is deliberately engine-agnostic — it renders plain rows, so
//! the report crate stays independent of the execution engine that collects
//! the numbers.

use crate::table::TextTable;
use std::time::Duration;

/// One stage's profile numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Stage name (e.g. `parse`, `diff`).
    pub stage: String,
    /// Items the stage processed.
    pub items: u64,
    /// Summed busy time across workers.
    pub busy: Duration,
    /// Incremental-core lookups the stage answered without doing the work
    /// (parse-cache hits, identical versions/tables skipped).
    pub cache_hits: u64,
    /// Incremental-core lookups that did the work.
    pub cache_misses: u64,
    /// Heap allocations measured inside the stage; zero when the collecting
    /// binary ran without a counting allocator (the normal case — only the
    /// benchmark suite installs one).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

impl ProfileRow {
    fn cache_cell(&self) -> String {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return "-".to_string();
        }
        let rate = self.cache_hits as f64 / total as f64 * 100.0;
        format!("{rate:.0}% ({}/{total})", self.cache_hits)
    }

    fn alloc_cell(&self) -> String {
        if self.allocs == 0 {
            return "-".to_string();
        }
        format!("{} ({})", fmt_count(self.allocs), fmt_bytes(self.alloc_bytes))
    }
}

/// The result-store counters of a store-backed run, rendered as the
/// profile's `store` column plus a summary footer line. `None` (a
/// store-less run) reproduces the store-free table byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreProfile {
    /// Projects served from a verified store entry.
    pub hits: u64,
    /// Projects with no store entry.
    pub misses: u64,
    /// Stale entries quarantined and recomputed.
    pub invalidated: u64,
    /// Corrupt entries quarantined and recomputed.
    pub quarantined: u64,
    /// Results published this run.
    pub published: u64,
    /// Best-effort publishes that failed.
    pub publish_failures: u64,
}

impl StoreProfile {
    fn lookups(&self) -> u64 {
        self.hits + self.misses + self.invalidated + self.quarantined
    }

    /// The `store` cell of one stage row: served/total on the store's own
    /// row, `-` elsewhere.
    fn cell(&self, stage: &str) -> String {
        if stage == "store" {
            format!("{}/{} served", self.hits, self.lookups())
        } else {
            "-".to_string()
        }
    }

    fn footer(&self) -> String {
        format!(
            "store {} hit | {} miss | {} invalidated | {} quarantined | {} published | {} publish failures\n",
            self.hits,
            self.misses,
            self.invalidated,
            self.quarantined,
            self.published,
            self.publish_failures,
        )
    }
}

/// Peak-memory readings of the collecting process, rendered as a footer line
/// (peak memory is a process-wide fact, so it gets a summary line like the
/// store counters rather than a per-stage column). `None` for either reading
/// drops it; both `None` should be passed as `memory: None` to reproduce the
/// memory-free render byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryRow {
    /// Peak resident set size (OS view, e.g. `VmHWM` on Linux).
    pub rss_bytes: Option<u64>,
    /// Live-heap high-water mark (counting-allocator view).
    pub live_bytes: Option<u64>,
}

impl MemoryRow {
    fn footer(&self) -> String {
        let mut parts = Vec::new();
        if let Some(rss) = self.rss_bytes {
            parts.push(format!("rss {}", fmt_bytes(rss)));
        }
        if let Some(live) = self.live_bytes {
            parts.push(format!("live {}", fmt_bytes(live)));
        }
        format!("peak memory: {}\n", parts.join(" | "))
    }
}

/// Render the profile table: one row per stage with busy time, item count,
/// throughput, share of total busy time, and incremental-cache hit rate,
/// plus a wall-time footer. A store-backed run passes its counters as
/// `store`, adding a `store` column and a store summary line. An `allocs`
/// column appears only when some row carries allocation counts (i.e. the
/// collecting binary ran under a counting allocator), so alloc-free renders
/// are byte-identical to the pre-profiling format. Peak-memory readings,
/// when sampled, render as a `peak memory:` footer line.
pub fn render_profile(
    rows: &[ProfileRow],
    wall: Duration,
    workers: usize,
    store: Option<&StoreProfile>,
    memory: Option<&MemoryRow>,
) -> String {
    let total_busy: Duration = rows.iter().map(|r| r.busy).sum();
    let with_allocs = rows.iter().any(|r| r.allocs > 0);
    let mut headers = vec![
        "stage".to_string(),
        "items".into(),
        "busy".into(),
        "items/s".into(),
        "% busy".into(),
        "cache".into(),
    ];
    if with_allocs {
        headers.push("allocs".into());
    }
    if store.is_some() {
        headers.push("store".into());
    }
    let mut table = TextTable::new(headers);
    for r in rows {
        let throughput = if r.busy.as_secs_f64() > 0.0 {
            r.items as f64 / r.busy.as_secs_f64()
        } else {
            0.0
        };
        let share = if total_busy.as_secs_f64() > 0.0 {
            r.busy.as_secs_f64() / total_busy.as_secs_f64() * 100.0
        } else {
            0.0
        };
        let mut cells = vec![
            r.stage.clone(),
            r.items.to_string(),
            fmt_duration(r.busy),
            format!("{throughput:.0}"),
            format!("{share:.0}%"),
            r.cache_cell(),
        ];
        if with_allocs {
            cells.push(r.alloc_cell());
        }
        if let Some(s) = store {
            cells.push(s.cell(&r.stage));
        }
        table.row(cells);
    }
    let mut out = String::from("execution profile\n");
    out.push_str(&table.render());
    if let Some(s) = store {
        out.push_str(&s.footer());
    }
    if let Some(m) = memory {
        if m.rss_bytes.is_some() || m.live_bytes.is_some() {
            out.push_str(&m.footer());
        }
    }
    out.push_str(&format!(
        "wall {} | busy {} | {} workers | parallel speedup {:.2}x\n",
        fmt_duration(wall),
        fmt_duration(total_busy),
        workers,
        if wall.as_secs_f64() > 0.0 {
            total_busy.as_secs_f64() / wall.as_secs_f64()
        } else {
            0.0
        },
    ));
    out
}

/// Compact human count: `847`, `1.5k`, `2.3M`.
fn fmt_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Compact human byte count: `512B`, `64.0KiB`, `3.2MiB`.
fn fmt_bytes(n: u64) -> String {
    if n >= 1 << 20 {
        format!("{:.1}MiB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1}KiB", n as f64 / 1024.0)
    } else {
        format!("{n}B")
    }
}

/// Compact human duration: `428ms`, `1.52s`, `87µs`.
fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.0}ms", secs * 1e3)
    } else {
        format!("{:.0}µs", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows_and_footer() {
        let rows = vec![
            ProfileRow {
                stage: "parse".into(),
                items: 100,
                busy: Duration::from_millis(300),
                cache_hits: 59,
                cache_misses: 41,
                allocs: 0,
                alloc_bytes: 0,
            },
            ProfileRow {
                stage: "diff".into(),
                items: 50,
                busy: Duration::from_millis(100),
                cache_hits: 0,
                cache_misses: 0,
                allocs: 0,
                alloc_bytes: 0,
            },
        ];
        let text = render_profile(&rows, Duration::from_millis(200), 4, None, None);
        assert!(text.contains("parse"), "{text}");
        assert!(text.contains("items/s"), "{text}");
        assert!(text.contains("75%"), "{text}"); // parse share of busy
        assert!(text.contains("4 workers"), "{text}");
        assert!(text.contains("2.00x"), "{text}"); // 400ms busy / 200ms wall
        assert!(text.contains("cache"), "{text}");
        assert!(text.contains("59% (59/100)"), "{text}"); // parse cache column
    }

    #[test]
    fn zero_durations_do_not_divide_by_zero() {
        let rows = vec![ProfileRow {
            stage: "stats".into(),
            items: 0,
            busy: Duration::ZERO,
            cache_hits: 0,
            cache_misses: 0,
            allocs: 0,
            alloc_bytes: 0,
        }];
        let text = render_profile(&rows, Duration::ZERO, 1, None, None);
        assert!(text.contains("stats"), "{text}");
        assert!(text.contains("0.00x"), "{text}");
        // No cache lookups → the cache column shows `-`, not a 0% rate.
        assert!(text.contains('-'), "{text}");
    }

    #[test]
    fn store_column_and_footer_render_only_when_present() {
        let rows = vec![
            ProfileRow {
                stage: "store".into(),
                items: 195,
                busy: Duration::from_millis(12),
                cache_hits: 195,
                cache_misses: 0,
                allocs: 0,
                alloc_bytes: 0,
            },
            ProfileRow {
                stage: "parse".into(),
                items: 0,
                busy: Duration::ZERO,
                cache_hits: 0,
                cache_misses: 0,
                allocs: 0,
                alloc_bytes: 0,
            },
        ];
        let store = StoreProfile { hits: 195, published: 0, ..StoreProfile::default() };
        let text = render_profile(&rows, Duration::from_millis(20), 4, Some(&store), None);
        assert!(text.contains("195/195 served"), "{text}");
        assert!(
            text.contains(
                "store 195 hit | 0 miss | 0 invalidated | 0 quarantined | 0 published | 0 publish failures"
            ),
            "{text}"
        );

        // The store-less rendering has no store column at all.
        let without = render_profile(&rows, Duration::from_millis(20), 4, None, None);
        assert!(!without.contains("served"), "{without}");
        assert!(!without.contains("publish"), "{without}");
    }

    #[test]
    fn memory_footer_renders_only_when_sampled() {
        let rows = vec![ProfileRow {
            stage: "parse".into(),
            items: 10,
            busy: Duration::from_millis(10),
            cache_hits: 0,
            cache_misses: 0,
            allocs: 0,
            alloc_bytes: 0,
        }];
        let both = MemoryRow {
            rss_bytes: Some(120 << 20),
            live_bytes: Some((25 << 20) + (103 << 10)),
        };
        let text = render_profile(&rows, Duration::from_millis(20), 1, None, Some(&both));
        assert!(text.contains("peak memory: rss 120.0MiB | live 25.1MiB"), "{text}");

        // Live-only (non-Linux bench run) and rss-only (production Linux run)
        // each render just their reading.
        let live_only = MemoryRow { rss_bytes: None, live_bytes: Some(1 << 20) };
        let text = render_profile(&rows, Duration::from_millis(20), 1, None, Some(&live_only));
        assert!(text.contains("peak memory: live 1.0MiB"), "{text}");
        assert!(!text.contains("rss"), "{text}");

        // No readings at all: byte-identical to passing no memory row.
        let empty = MemoryRow::default();
        let with_empty =
            render_profile(&rows, Duration::from_millis(20), 1, None, Some(&empty));
        let without = render_profile(&rows, Duration::from_millis(20), 1, None, None);
        assert_eq!(with_empty, without);
        assert!(!without.contains("peak memory"), "{without}");
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(428)), "428ms");
        assert_eq!(fmt_duration(Duration::from_micros(87)), "87µs");
    }

    #[test]
    fn count_and_byte_formats() {
        assert_eq!(fmt_count(847), "847");
        assert_eq!(fmt_count(1_500), "1.5k");
        assert_eq!(fmt_count(2_300_000), "2.3M");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(65_536), "64.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn alloc_column_renders_only_when_counted() {
        let mut rows = vec![
            ProfileRow {
                stage: "parse".into(),
                items: 100,
                busy: Duration::from_millis(300),
                cache_hits: 0,
                cache_misses: 0,
                allocs: 0,
                alloc_bytes: 0,
            },
            ProfileRow {
                stage: "diff".into(),
                items: 50,
                busy: Duration::from_millis(100),
                cache_hits: 0,
                cache_misses: 0,
                allocs: 0,
                alloc_bytes: 0,
            },
        ];
        // All-zero counts (no counting allocator): no `allocs` column, and
        // the render is byte-identical to the pre-profiling format.
        let plain = render_profile(&rows, Duration::from_millis(200), 4, None, None);
        assert!(!plain.contains("allocs"), "{plain}");

        rows[0].allocs = 12_400;
        rows[0].alloc_bytes = 3 << 20;
        let counted = render_profile(&rows, Duration::from_millis(200), 4, None, None);
        assert!(counted.contains("allocs"), "{counted}");
        assert!(counted.contains("12.4k (3.0MiB)"), "{counted}");
        // A stage with no recorded allocations renders `-`, not `0`.
        let diff_line = counted.lines().find(|l| l.starts_with("diff")).unwrap();
        assert!(diff_line.trim_end().ends_with('-'), "{diff_line}");
    }
}
