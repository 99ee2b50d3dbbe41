//! Allocation-budget regression test for the cold parse path.
//!
//! Runs under plain `cargo test` (the `count-allocs` default feature installs
//! the counting allocator in this crate's test binaries), so a change that
//! quietly re-introduces per-token heap traffic fails CI long before anyone
//! re-runs the full `cold_study` bench. The bars are absolute allocation
//! counts: they are deterministic (the same in debug and release), so they
//! hold on any machine.

use coevo_ddl::{parse_schema_interned, Dialect, Interner, ParseCache};
use coevo_engine::allocs;

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

/// Allocation delta of `f`, via the thread-local counters.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = allocs::snapshot();
    let v = std::hint::black_box(f());
    let delta = allocs::snapshot().since(before);
    drop(v);
    delta.allocs
}

#[cfg(feature = "count-allocs")]
#[test]
fn interned_parse_stays_within_alloc_budget() {
    let interner = Interner::new();
    // Warm the interner: steady-state cost is what the corpus pays — every
    // text after the first reuses the project's symbols.
    let _ = parse_schema_interned(SAMPLE, Dialect::Generic, &interner).expect("parse");

    let interned = allocs_of(|| {
        parse_schema_interned(SAMPLE, Dialect::Generic, &interner).expect("parse")
    });

    assert!(interned > 0, "counting allocator not installed?");
    // The pre-interning parse allocated 258 times on this sample; the 5x
    // reduction it was held to allows at most 51, today's warm count.
    assert!(interned <= 51, "warm interned parse allocated {interned} (budget 51)");
}

#[cfg(feature = "count-allocs")]
#[test]
fn cache_hit_allocates_nothing() {
    let mut cache = ParseCache::new();
    let first = cache.parse(SAMPLE, Dialect::Generic).expect("parse");
    let hit = allocs_of(|| cache.parse(SAMPLE, Dialect::Generic).expect("parse"));
    assert_eq!(hit, 0, "a ParseCache content hit must be allocation-free, saw {hit}");
    drop(first);
}
