//! Allocation-budget regression tests for the cold ingest path (the DDL
//! parse, the git-log fold and the shard reader) and for the live bytes
//! the serve daemon's state holds.
//!
//! Runs under plain `cargo test` (the `count-allocs` default feature installs
//! the counting allocator in this crate's test binaries), so a change that
//! quietly re-introduces per-token or per-line heap traffic fails CI long
//! before anyone re-runs the full `cold_study` bench. The bars are absolute allocation
//! counts: they are deterministic (the same in debug and release), so they
//! hold on any machine.

use coevo_corpus::{
    generate_corpus, generate_nth, generate_sharded, CorpusSpec, CorpusStream, ProjectArtifacts,
};
use coevo_ddl::{parse_schema_interned, Dialect, Interner, ParseCache};
use coevo_engine::{allocs, IncrementalStudy};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: allocs::CountingAlloc<std::alloc::System> =
    allocs::CountingAlloc(std::alloc::System);

/// A fixed, representative schema: several tables, mixed constraints, enough
/// identifier repetition for the interner to matter.
const SAMPLE: &str = r#"
CREATE TABLE users (
    id BIGINT NOT NULL AUTO_INCREMENT,
    email VARCHAR(255) NOT NULL,
    display_name VARCHAR(120),
    created_at TIMESTAMP NOT NULL,
    PRIMARY KEY (id),
    CONSTRAINT uq_users_email UNIQUE (email)
);
CREATE TABLE projects (
    id BIGINT NOT NULL,
    owner_id BIGINT NOT NULL,
    name VARCHAR(200) NOT NULL,
    description TEXT,
    PRIMARY KEY (id),
    CONSTRAINT fk_projects_owner FOREIGN KEY (owner_id) REFERENCES users (id) ON DELETE CASCADE
);
CREATE TABLE schema_versions (
    project_id BIGINT NOT NULL,
    version INT NOT NULL,
    applied_at TIMESTAMP NOT NULL,
    checksum VARCHAR(64) NOT NULL,
    PRIMARY KEY (project_id, version),
    CONSTRAINT fk_versions_project FOREIGN KEY (project_id) REFERENCES projects (id)
);
CREATE INDEX idx_projects_owner ON projects (owner_id);
CREATE INDEX idx_versions_applied ON schema_versions (applied_at);
"#;

/// Live bytes the daemon's state may hold over the paper corpus.
const DAEMON_LIVE_BUDGET: i64 = 8_535_733;

/// Runs one test of this binary at a time: live bytes are counted
/// process-wide, so another test's allocations would land in them.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocation delta of `f`, via the thread-local counters.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    alloc_delta(f).allocs
}

fn alloc_delta<T>(f: impl FnOnce() -> T) -> allocs::AllocSnapshot {
    let before = allocs::snapshot();
    let v = std::hint::black_box(f());
    let delta = allocs::snapshot().since(before);
    drop(v);
    delta
}

#[cfg(feature = "count-allocs")]
#[test]
fn interned_parse_stays_within_alloc_budget() {
    let _alone = exclusive();
    let interner = Interner::new();
    // Warm the interner: steady-state cost is what the corpus pays — every
    // text after the first reuses the project's symbols.
    let _ = parse_schema_interned(SAMPLE, Dialect::Generic, &interner).expect("parse");

    let interned = allocs_of(|| {
        parse_schema_interned(SAMPLE, Dialect::Generic, &interner).expect("parse")
    });

    assert!(interned > 0, "counting allocator not installed?");
    // The pre-interning parse allocated 258 times on this sample, and the
    // 5x reduction it was held to allowed 51. Exact-size tables made it 43
    // with one-allocation seals, and 39 without seals, today's warm count.
    assert!(interned <= 39, "warm interned parse allocated {interned} (budget 39)");
}

#[cfg(feature = "count-allocs")]
#[test]
fn cache_hit_allocates_nothing() {
    let _alone = exclusive();
    let mut cache = ParseCache::new();
    let first = cache.parse(SAMPLE, Dialect::Generic).expect("parse");
    let hit = allocs_of(|| cache.parse(SAMPLE, Dialect::Generic).expect("parse"));
    assert_eq!(hit, 0, "a ParseCache content hit must be allocation-free, saw {hit}");
    drop(first);
}

#[cfg(feature = "count-allocs")]
#[test]
fn one_changed_create_table_allocates_within_budget() {
    let _alone = exclusive();
    // A version that differs from its predecessor in one `CREATE TABLE`
    // (a column added to `projects`): the memo recalls the other four
    // statements, parses the changed one, and builds a new schema. Warmed
    // on both texts, so the interner and the memo's storage are settled.
    let changed =
        SAMPLE.replace("description TEXT,", "description TEXT,\n    archived BOOLEAN,");
    let mut cache = ParseCache::new();
    for text in [SAMPLE, &changed, SAMPLE] {
        cache.parse(text, Dialect::Generic).expect("parse");
    }
    let n = allocs_of(|| cache.parse(&changed, Dialect::Generic).expect("parse"));
    assert!(n > 0, "counting allocator not installed?");
    // 41 today: the changed table's parse and kept statement; the two
    // recalled `CREATE INDEX` statements' clones; the copies of the two
    // indexed tables (the memo's statements still share them) and their
    // grown index vectors, trimmed once the version is applied; and the
    // new schema's table vector and `Arc`.
    assert!(n <= 41, "a one-table change allocated {n} times (budget 41)");
}

#[cfg(feature = "count-allocs")]
#[test]
fn recalled_tables_allocate_nothing_each() {
    let _alone = exclusive();
    // A version that changes one `CREATE TABLE` and repeats `n` others: the
    // memo hands the repeated tables over by reference, so the version
    // costs the same with 3 of them as with 30. Warmed as above.
    let version = |n: usize, extra: &str| {
        let mut sql = String::new();
        for i in 0..n {
            sql.push_str(&format!(
                "CREATE TABLE t{i} (id INT NOT NULL, name VARCHAR(40), PRIMARY KEY (id));\n"
            ));
        }
        sql + &format!("CREATE TABLE changed (id INT{extra});\n")
    };
    let cost = |n: usize| {
        let (old, new) = (version(n, ""), version(n, ", note TEXT"));
        let mut cache = ParseCache::new();
        for text in [&old, &new, &old] {
            cache.parse(text, Dialect::Generic).expect("parse");
        }
        allocs_of(|| cache.parse(&new, Dialect::Generic).expect("parse"))
    };
    let (few, many) = (cost(3), cost(30));
    assert!(few > 0, "counting allocator not installed?");
    assert_eq!(few, many, "3 recalled tables cost {few} allocations, 30 cost {many}");
}

#[cfg(feature = "count-allocs")]
#[test]
fn fresh_parse_allocates_per_table_within_budget() {
    let _alone = exclusive();
    // Every version of every paper-corpus project parsed from scratch
    // through one interner per project, as a study without the memo does.
    // A table costs its `Arc`, one exact-size vector per non-empty part,
    // its parameter lists and the new identifiers it brings (one
    // allocation each): 6.90 allocations a table today, where one-allocation
    // seals cost 8.08 and growable vectors, two-`Arc` identifiers and
    // four-vector seals 11.7.
    let (mut allocs, mut tables) = (0, 0);
    for p in generate_corpus(&CorpusSpec::paper()) {
        let interner = Interner::new();
        for (_, text) in &p.raw.ddl_versions {
            let mut parsed = 0;
            allocs += allocs_of(|| {
                let schema = parse_schema_interned(text, p.raw.dialect, &interner);
                parsed = schema.expect("parse").tables.len();
            });
            tables += parsed;
        }
    }
    assert_eq!(tables, 5_922);
    let per_table = allocs as f64 / tables as f64;
    assert!(allocs <= 40_856, "{allocs} allocations, {per_table:.3} a table (budget 40 856)");
}

#[cfg(feature = "count-allocs")]
#[test]
fn git_log_fold_allocates_per_log_not_per_line() {
    let _alone = exclusive();
    // mapbox/active-12 of the paper corpus: 1 343 commits, 321 kB of log.
    let p = generate_nth(&CorpusSpec::paper(), 191).expect("paper project 191");
    let mut activity = Vec::new();
    let n = allocs_of(|| activity = coevo_vcs::commit_activity(&p.git_log).expect("fold"));
    assert_eq!(activity.len(), 1_343);
    // The result vector's ten doublings and the growth of the per-commit
    // path list, which is reused across commits: 13 today, a constant in
    // the log's length, where parse_log allocates several times per line.
    assert!(n <= 13, "the git-log fold allocated {n} times (budget 13)");
}

#[cfg(feature = "count-allocs")]
#[test]
fn forged_record_length_allocates_nothing_big() {
    let _alone = exclusive();
    let dir = std::env::temp_dir().join(format!("coevo_alloc_forged_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = generate_sharded(&dir, &CorpusSpec::paper().with_per_taxon(1), 6)
        .expect("generate sharded corpus");
    let path = dir.join(&manifest.shards[0].file);
    let mut bytes = std::fs::read(&path).expect("read shard");
    // Record 0's length prefix follows the 8-byte magic and 4-byte count.
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite shard");

    let stream = CorpusStream::open(&dir).expect("open corpus");
    let mut results = Vec::new();
    let delta = alloc_delta(|| {
        results = stream.shard_reader(&manifest.shards[0]).expect("open shard").collect()
    });
    assert!(
        matches!(results.as_slice(), [Err(coevo_corpus::ShardError::Truncated { .. })]),
        "{results:?}"
    );
    assert!(
        delta.bytes < 1 << 20,
        "reading a shard with a forged 4 GiB record length allocated {} bytes",
        delta.bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "count-allocs")]
#[test]
fn daemon_state_holds_the_paper_corpus_within_budget() {
    // What `coevo serve` keeps after ingesting the paper corpus: every
    // project's parsed versions, history and measures. Live bytes are
    // counted process-wide, so the corpus is generated first and nothing
    // else may run in this binary meanwhile.
    let corpus: Vec<ProjectArtifacts> = generate_corpus(&CorpusSpec::paper())
        .iter()
        .map(ProjectArtifacts::from_generated)
        .collect();
    let _alone = exclusive();
    let before = allocs::live_bytes();
    let mut study = IncrementalStudy::default();
    for p in &corpus {
        study.ingest_artifacts(p).expect("ingest");
    }
    let live = allocs::live_bytes() - before;
    drop(study);
    assert!(live > 0, "counting allocator not installed?");
    // 1.1x the 7 759 758 bytes it holds today; 8 260 737 with seals.
    assert!(
        live <= DAEMON_LIVE_BUDGET,
        "the daemon holds {live} B (budget {DAEMON_LIVE_BUDGET})"
    );
}
