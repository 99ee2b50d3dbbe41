//! The incremental diff core vs. the legacy full walk, on two history
//! shapes: *sparse* (inactive-heavy — most versions are byte-identical
//! repeats, the common real-repo case of commits that touch only source)
//! and *dense* (every version changes one table, so only table-level
//! skips can help).
//!
//! Prints the measured sparse-history speedup up front — the refactor's
//! acceptance bar is ≥ 1.5× there.

use coevo_ddl::{
    parse_schema, print_schema, Column, Dialect, ParseCache, Schema, SqlType, Table,
};
use coevo_diff::{DiffMode, MatchPolicy, SchemaHistory, SchemaVersion};
use coevo_heartbeat::DateTime;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const TABLES: usize = 20;
const COLUMNS: usize = 5;
const VERSIONS: usize = 60;

fn base_schema() -> Schema {
    let mut tables = Vec::with_capacity(TABLES);
    for t in 0..TABLES {
        let mut table = Table::new(format!("table_{t:02}"));
        for c in 0..COLUMNS {
            table.columns.push(Column::new(format!("col_{c}"), SqlType::simple("INT")));
        }
        table.columns[0].inline_primary_key = true;
        tables.push(Arc::new(table));
    }
    Schema::from_tables(tables)
}

fn date(i: usize) -> DateTime {
    DateTime::parse(&format!("2020-01-01 {:02}:{:02}:00 +0000", i / 60, i % 60)).unwrap()
}

/// Sparse history: only every 10th version changes a table; the rest are
/// byte-identical repeats of the previous text (inactive commits).
fn sparse_texts() -> Vec<(DateTime, String)> {
    let mut schema = base_schema();
    let mut texts = Vec::with_capacity(VERSIONS);
    let mut current = print_schema(&schema, Dialect::Generic);
    for i in 0..VERSIONS {
        if i > 0 && i % 10 == 0 {
            let t = (i / 10) % TABLES;
            Arc::make_mut(&mut schema.tables[t])
                .columns
                .push(Column::new(format!("added_{i}"), SqlType::simple("TEXT")));
            current = print_schema(&schema, Dialect::Generic);
        }
        texts.push((date(i), current.clone()));
    }
    texts
}

/// Dense history: every version appends a column to one (rotating) table,
/// so every text is distinct and no whole-version short-circuit fires.
fn dense_texts() -> Vec<(DateTime, String)> {
    let mut schema = base_schema();
    let mut texts = Vec::with_capacity(VERSIONS);
    for i in 0..VERSIONS {
        if i > 0 {
            let t = i % TABLES;
            Arc::make_mut(&mut schema.tables[t])
                .columns
                .push(Column::new(format!("added_{i}"), SqlType::simple("TEXT")));
        }
        texts.push((date(i), print_schema(&schema, Dialect::Generic)));
    }
    texts
}

fn incremental_from_texts(texts: &[(DateTime, String)]) -> SchemaHistory {
    SchemaHistory::from_ddl_texts(texts.iter().map(|(d, s)| (*d, s.as_str())), Dialect::Generic)
        .expect("parse")
        .expect("non-empty")
}

/// The pre-refactor path: every version parsed into its own allocation, no
/// parse cache, no `Arc` sharing, legacy full-walk diff.
fn legacy_from_texts(texts: &[(DateTime, String)]) -> SchemaHistory {
    let versions: Vec<SchemaVersion> = texts
        .iter()
        .map(|(d, s)| SchemaVersion {
            date: *d,
            schema: Arc::new(parse_schema(s, Dialect::Generic).expect("parse")),
        })
        .collect();
    SchemaHistory::from_schemas_mode(versions, MatchPolicy::ByName, DiffMode::Legacy)
        .expect("non-empty")
}

/// Pre-parsed versions, shared-`Arc` where the texts are byte-identical —
/// the shape the engine hands `from_schemas` after its parse cache.
fn preparsed(texts: &[(DateTime, String)]) -> Vec<SchemaVersion> {
    let mut cache = ParseCache::new();
    texts
        .iter()
        .map(|(d, s)| SchemaVersion {
            date: *d,
            schema: cache.parse(s, Dialect::Generic).expect("parse"),
        })
        .collect()
}

fn measured_speedup(texts: &[(DateTime, String)], rounds: u32) -> (f64, f64, f64) {
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(legacy_from_texts(black_box(texts)));
    }
    let legacy = t.elapsed().as_secs_f64() / rounds as f64;
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(incremental_from_texts(black_box(texts)));
    }
    let incremental = t.elapsed().as_secs_f64() / rounds as f64;
    (legacy, incremental, legacy / incremental)
}

fn incremental_diff(c: &mut Criterion) {
    let sparse = sparse_texts();
    let dense = dense_texts();

    // Sanity: the two paths agree before we time them.
    assert_eq!(incremental_from_texts(&sparse), legacy_from_texts(&sparse));
    assert_eq!(incremental_from_texts(&dense), legacy_from_texts(&dense));
    let stats = incremental_from_texts(&sparse).diff_stats();
    assert!(stats.versions_unchanged > 0, "sparse history must short-circuit versions");

    let (l, i, speedup) = measured_speedup(&sparse, 20);
    println!(
        "\n[incremental_diff] sparse ({VERSIONS} versions, {} inactive): \
         legacy {:.2}ms  incremental {:.2}ms  speedup {speedup:.1}x",
        stats.versions_unchanged,
        l * 1e3,
        i * 1e3,
    );
    let (l, i, dense_speedup) = measured_speedup(&dense, 20);
    println!(
        "[incremental_diff] dense ({VERSIONS} versions, all active): \
         legacy {:.2}ms  incremental {:.2}ms  speedup {dense_speedup:.1}x",
        l * 1e3,
        i * 1e3,
    );
    assert!(
        speedup >= 1.5,
        "sparse-history speedup {speedup:.2}x below the 1.5x acceptance bar"
    );

    let mut group = c.benchmark_group("incremental_diff");
    group.sample_size(10);
    for (shape, texts) in [("sparse", &sparse), ("dense", &dense)] {
        group.bench_function(&format!("{shape}/incremental_text"), |b| {
            b.iter(|| black_box(incremental_from_texts(black_box(texts))))
        });
        group.bench_function(&format!("{shape}/legacy_text"), |b| {
            b.iter(|| black_box(legacy_from_texts(black_box(texts))))
        });

        let shared = preparsed(texts);
        group.bench_function(&format!("{shape}/incremental_preparsed"), |b| {
            b.iter(|| {
                black_box(
                    SchemaHistory::from_schemas(black_box(shared.clone()), MatchPolicy::ByName)
                        .expect("non-empty"),
                )
            })
        });
        group.bench_function(&format!("{shape}/legacy_preparsed"), |b| {
            b.iter(|| {
                black_box(
                    SchemaHistory::from_schemas_mode(
                        black_box(shared.clone()),
                        MatchPolicy::ByName,
                        DiffMode::Legacy,
                    )
                    .expect("non-empty"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(incremental, incremental_diff);
criterion_main!(incremental);
