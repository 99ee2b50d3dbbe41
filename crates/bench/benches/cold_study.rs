//! The cold path end to end: parse + diff every DDL version of the full
//! 195-project paper corpus from scratch, through a per-project
//! [`ParseCache`], whose shared [`Interner`](coevo_ddl::Interner) gives
//! every version of a project one identifier per spelling.
//!
//! Acceptance bars (asserted below, in test mode *and* bench mode), both
//! deterministic, so they hold on any machine:
//! - The parse stage makes at most 46 433 allocations over the full corpus:
//!   the 37 266 it makes with exact-size tables and one-allocation
//!   identifiers (41 585 with one-allocation seals), with the 1.246x
//!   headroom the first bar (75 877, the pre-interning parser's 379 386
//!   divided by the 5x reduction `BENCH_5.json` records) gave over the
//!   60 884 of the deep-copying memo.
//! - The parsed versions of the whole corpus hold at most 3 901 409 live
//!   bytes once their parse caches are gone: 1.1x the 3 546 736 they hold
//!   today (4 048 772 with seals), and 30% of the 11 677 560 they held
//!   with 12-slot column vectors, 40-byte identifiers and four-vector
//!   seals.

use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_ddl::{Dialect, ParseCache};
use coevo_diff::{MatchPolicy, SchemaHistory, SchemaVersion};
use coevo_engine::allocs;
use coevo_heartbeat::DateTime;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

// Every heap allocation the parse stage makes is counted. `count-allocs` is
// a default-on feature so plain `cargo bench` / `cargo test` measure real
// numbers; disabling it leaves the system allocator untouched and turns the
// alloc assertion into a no-op.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: allocs::CountingAlloc<std::alloc::System> =
    allocs::CountingAlloc(std::alloc::System);

/// Parse-stage allocation budget over the full paper corpus.
const PARSE_ALLOC_BUDGET: u64 = 46_433;

/// Live bytes the parsed versions of the full paper corpus may hold.
const PARSED_LIVE_BUDGET: i64 = 3_901_409;

/// One project's raw cold-path input: its dated DDL texts.
struct RawProject {
    ddl_versions: Vec<(DateTime, String)>,
    dialect: Dialect,
}

fn corpus() -> Vec<RawProject> {
    generate_corpus(&CorpusSpec::paper())
        .into_iter()
        .map(|p| RawProject { ddl_versions: p.raw.ddl_versions, dialect: p.raw.dialect })
        .collect()
}

/// Parse one project through the interned streaming path.
fn parse_cold(p: &RawProject) -> Vec<SchemaVersion> {
    let mut cache = ParseCache::new();
    p.ddl_versions
        .iter()
        .map(|(d, s)| SchemaVersion {
            date: *d,
            schema: cache.parse(s, p.dialect).expect("parse"),
        })
        .collect()
}

fn cold_study(projects: &[RawProject]) -> u64 {
    // Fold the per-project delta counts so the whole pipeline is observed.
    projects
        .iter()
        .map(|p| {
            let history = SchemaHistory::from_schemas(parse_cold(p), MatchPolicy::ByName)
                .expect("non-empty history");
            history.deltas().len() as u64
        })
        .sum()
}

fn cold_study_bench(c: &mut Criterion) {
    let projects = corpus();
    let versions: usize = projects.iter().map(|p| p.ddl_versions.len()).sum();

    // Parse-stage allocations and the live bytes of every parsed version,
    // full corpus. With `count-allocs` off (or the allocator not installed)
    // the counters stay zero and the budget assertions are skipped.
    let mut parsed = Vec::with_capacity(projects.len());
    let live_before = allocs::live_bytes();
    let before = allocs::snapshot();
    for p in &projects {
        parsed.push(black_box(parse_cold(black_box(p))));
    }
    let parse = allocs::snapshot().since(before);
    let live = allocs::live_bytes() - live_before;
    drop(parsed);
    if parse.allocs > 0 {
        println!(
            "[cold_study] parse allocs over {} projects / {versions} versions: {} ({} B); \
             parsed versions hold {live} B",
            projects.len(),
            parse.allocs,
            parse.bytes,
        );
        assert!(
            parse.allocs <= PARSE_ALLOC_BUDGET,
            "parse stage allocated {} times, budget {PARSE_ALLOC_BUDGET}",
            parse.allocs
        );
        assert!(
            live <= PARSED_LIVE_BUDGET,
            "parsed versions hold {live} live bytes, budget {PARSED_LIVE_BUDGET}"
        );
    }

    let mut group = c.benchmark_group("cold_study");
    group.sample_size(10);
    group.bench_function("full_corpus_cold", |bch| {
        bch.iter(|| black_box(cold_study(black_box(&projects))))
    });
    group.finish();
}

criterion_group!(cold, cold_study_bench);
criterion_main!(cold);
