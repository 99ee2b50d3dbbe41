//! Schema histories: from a sequence of dated DDL versions to the per-commit
//! delta sequence and the Schema (Monthly) Heartbeat.

use crate::activity::ActivityBreakdown;
use crate::changes::SchemaDelta;
use crate::schema_diff::{diff_schemas_counted, diff_schemas_legacy, DiffStats, MatchPolicy};
use coevo_ddl::{Dialect, ParseCache, ParseError, Schema};
use coevo_heartbeat::{DateTime, Heartbeat};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One version of the schema DDL file: the commit date and the parsed schema.
///
/// The schema is shared: byte-identical DDL versions (inactive commits) hold
/// the *same* `Arc<Schema>` when built through [`SchemaHistory::from_ddl_texts`],
/// so a hundred-commit history of an unchanging file stores one schema, not a
/// hundred clones. Serialization sees through the `Arc` (sharing is a memory
/// optimization, not part of the value).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaVersion {
    /// The commit timestamp.
    pub date: DateTime,
    /// The schema.
    pub schema: Arc<Schema>,
}

/// Which diff algorithm a history is built with. The two produce
/// byte-identical deltas — [`DiffMode::Legacy`] exists so differential tests
/// can prove it on the full corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffMode {
    /// The incremental core: identical versions and unchanged tables
    /// short-circuit (shared by pointer, or confirmed by `==`).
    #[default]
    Incremental,
    /// The pre-refactor algorithm, preserved as the accounting oracle.
    Legacy,
}

/// The delta between two consecutive versions, with its date (the date of
/// the *newer* version — the commit that introduced the change).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionDelta {
    /// The commit timestamp.
    pub date: DateTime,
    /// The delta.
    pub delta: SchemaDelta,
    /// The breakdown.
    pub breakdown: ActivityBreakdown,
}

/// A full schema history: versions ordered by date, plus the derived deltas.
///
/// Version 0 (the creation of the DDL file) contributes its entire content
/// as activity — every attribute of the initial schema is *born with* its
/// table, matching the dataset's accounting where the initial commit carries
/// the initial schema size as activity. This is what makes "48% of change at
/// start-up" (the paper's case study) representable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemaHistory {
    versions: Vec<SchemaVersion>,
    deltas: Vec<VersionDelta>,
    #[serde(default, skip_serializing_if = "stats_never_serialized")]
    stats: DiffStats,
}

// Diff work counters are instrumentation, not part of the history's value:
// they are never serialized (so legacy- and incremental-built histories have
// identical wire forms) and never compared.
fn stats_never_serialized<T>(_: &T) -> bool {
    true
}

impl PartialEq for SchemaHistory {
    fn eq(&self, other: &Self) -> bool {
        self.versions == other.versions && self.deltas == other.deltas
    }
}

impl SchemaHistory {
    /// Build a history from dated, already-parsed schemas. Versions are
    /// sorted by date. Returns `None` when `versions` is empty.
    pub fn from_schemas(versions: Vec<SchemaVersion>, policy: MatchPolicy) -> Option<Self> {
        Self::from_schemas_mode(versions, policy, DiffMode::Incremental)
    }

    /// [`SchemaHistory::from_schemas`] with an explicit [`DiffMode`].
    pub fn from_schemas_mode(
        mut versions: Vec<SchemaVersion>,
        policy: MatchPolicy,
        mode: DiffMode,
    ) -> Option<Self> {
        if versions.is_empty() {
            return None;
        }
        versions.sort_by_key(|v| v.date.unix_seconds());
        let mut stats = DiffStats::default();
        let mut deltas = Vec::with_capacity(versions.len());
        let mut prev: &Schema = Schema::empty_ref();
        let mut prev_arc: Option<&Arc<Schema>> = None;
        for v in &versions {
            let delta = match mode {
                DiffMode::Incremental => {
                    if prev_arc.is_some_and(|p| Arc::ptr_eq(p, &v.schema)) {
                        // Shared-Arc fast path: the parse cache deduplicated
                        // byte-identical versions, so this commit is provably
                        // inactive without even an equality walk.
                        stats.schema_diffs += 1;
                        stats.versions_unchanged += 1;
                        SchemaDelta { tables: Vec::new() }
                    } else {
                        diff_schemas_counted(prev, v.schema.as_ref(), policy, &mut stats)
                    }
                }
                DiffMode::Legacy => diff_schemas_legacy(prev, v.schema.as_ref(), policy),
            };
            let breakdown = delta.breakdown();
            deltas.push(VersionDelta { date: v.date, delta, breakdown });
            prev = v.schema.as_ref();
            prev_arc = Some(&v.schema);
        }
        Some(Self { versions, deltas, stats })
    }

    /// Build a history from dated DDL texts, parsing each version through a
    /// fresh content-addressed [`ParseCache`] (byte-identical versions parse
    /// once and share one `Arc<Schema>`).
    pub fn from_ddl_texts<'a, I>(texts: I, dialect: Dialect) -> Result<Option<Self>, ParseError>
    where
        I: IntoIterator<Item = (DateTime, &'a str)>,
    {
        Self::from_ddl_texts_with(texts, dialect, MatchPolicy::ByName)
    }

    /// [`SchemaHistory::from_ddl_texts`] under an explicit matching policy
    /// (e.g. rename detection).
    pub fn from_ddl_texts_with<'a, I>(
        texts: I,
        dialect: Dialect,
        policy: MatchPolicy,
    ) -> Result<Option<Self>, ParseError>
    where
        I: IntoIterator<Item = (DateTime, &'a str)>,
    {
        let mut cache = ParseCache::new();
        let mut versions = Vec::new();
        for (date, sql) in texts {
            versions.push(SchemaVersion { date, schema: cache.parse(sql, dialect)? });
        }
        Ok(Self::from_schemas(versions, policy))
    }

    /// Work/skip counters accumulated while the deltas were computed. All
    /// zero for a deserialized history (instrumentation is not persisted).
    pub fn diff_stats(&self) -> DiffStats {
        self.stats
    }

    /// The versions, oldest first.
    pub fn versions(&self) -> &[SchemaVersion] {
        &self.versions
    }

    /// The per-commit deltas, oldest first. `deltas()[0]` is the creation
    /// delta (everything born).
    pub fn deltas(&self) -> &[VersionDelta] {
        &self.deltas
    }

    /// Number of commits to the DDL file.
    pub fn commits(&self) -> usize {
        self.versions.len()
    }

    /// Number of *active* commits: those whose delta carries non-zero
    /// activity (the paper's case study distinguishes 13 schema commits from
    /// 9 active ones).
    pub fn active_commits(&self) -> usize {
        self.deltas.iter().filter(|d| !d.breakdown.is_zero()).count()
    }

    /// Total Activity accumulated over the whole history.
    pub fn total_activity(&self) -> u64 {
        self.deltas.iter().map(|d| d.breakdown.total()).sum()
    }

    /// Aggregate breakdown over the whole history.
    pub fn total_breakdown(&self) -> ActivityBreakdown {
        self.deltas.iter().map(|d| d.breakdown).sum()
    }

    /// The **Schema (Monthly) Heartbeat**: Total Activity per month.
    pub fn heartbeat(&self) -> Heartbeat {
        Heartbeat::from_events(self.deltas.iter().map(|d| (d.date.date, d.breakdown.total())))
            .expect("history has at least one version")
    }

    /// The final schema (last version).
    pub fn final_schema(&self) -> &Schema {
        self.versions.last().expect("non-empty history").schema.as_ref()
    }

    /// The initial schema (first version).
    pub fn initial_schema(&self) -> &Schema {
        self.versions.first().expect("non-empty history").schema.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dt(s: &str) -> DateTime {
        DateTime::parse(s).unwrap()
    }

    fn history(texts: &[(&str, &str)]) -> SchemaHistory {
        SchemaHistory::from_ddl_texts(
            texts.iter().map(|(d, sql)| (dt(d), *sql)),
            Dialect::Generic,
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn initial_version_is_all_births() {
        let h = history(&[("2015-01-01 10:00:00 +0000", "CREATE TABLE t (a INT, b INT);")]);
        assert_eq!(h.commits(), 1);
        assert_eq!(h.total_activity(), 2);
        assert_eq!(h.total_breakdown().attrs_born_with_table, 2);
    }

    #[test]
    fn multi_version_history() {
        let h = history(&[
            ("2015-01-01 10:00:00 +0000", "CREATE TABLE t (a INT);"),
            ("2015-02-01 10:00:00 +0000", "CREATE TABLE t (a INT, b INT);"),
            ("2015-02-15 10:00:00 +0000", "CREATE TABLE t (a INT, b INT);"), // inactive
            ("2015-04-01 10:00:00 +0000", "CREATE TABLE t (a BIGINT, b INT);"),
        ]);
        assert_eq!(h.commits(), 4);
        assert_eq!(h.active_commits(), 3);
        assert_eq!(h.total_activity(), 3); // 1 + 1 + 0 + 1 per version
        let hb = h.heartbeat();
        assert_eq!(hb.activity(), &[1, 1, 0, 1]); // Jan, Feb, Mar, Apr
    }

    #[test]
    fn versions_sorted_by_date() {
        let h = history(&[
            ("2015-03-01 10:00:00 +0000", "CREATE TABLE t (a INT, b INT);"),
            ("2015-01-01 10:00:00 +0000", "CREATE TABLE t (a INT);"),
        ]);
        assert_eq!(h.versions()[0].date.date.month, 1);
        assert_eq!(h.initial_schema().attribute_count(), 1);
        assert_eq!(h.final_schema().attribute_count(), 2);
        // Sorted: creation (1 attr born) then injection of b.
        assert_eq!(h.total_activity(), 2);
    }

    #[test]
    fn empty_history_is_none() {
        assert!(SchemaHistory::from_schemas(vec![], MatchPolicy::ByName).is_none());
    }

    #[test]
    fn parse_errors_propagate() {
        let r = SchemaHistory::from_ddl_texts(
            vec![(dt("2015-01-01 10:00:00 +0000"), "CREATE TABLE t (a INT")],
            Dialect::Generic,
        );
        assert!(r.is_err());
    }

    #[test]
    fn table_lifecycle_across_versions() {
        let h = history(&[
            ("2015-01-01 10:00:00 +0000", "CREATE TABLE a (x INT);"),
            (
                "2015-02-01 10:00:00 +0000",
                "CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT);",
            ),
            ("2015-03-01 10:00:00 +0000", "CREATE TABLE a (x INT);"),
        ]);
        let total = h.total_breakdown();
        assert_eq!(total.attrs_born_with_table, 1 + 2);
        assert_eq!(total.attrs_deleted_with_table, 2);
        assert_eq!(h.total_activity(), 5);
    }

    /// Build the same history without any parse cache: every version parsed
    /// into its own `Arc`, so no `Arc::ptr_eq` fast path can fire.
    fn history_uncached(texts: &[(&str, &str)], mode: DiffMode) -> SchemaHistory {
        let versions = texts
            .iter()
            .map(|(d, sql)| SchemaVersion {
                date: dt(d),
                schema: Arc::new(coevo_ddl::parse_schema(sql, Dialect::Generic).unwrap()),
            })
            .collect();
        SchemaHistory::from_schemas_mode(versions, MatchPolicy::ByName, mode).unwrap()
    }

    const INACTIVE_HEAVY: &[(&str, &str)] = &[
        ("2015-01-01 10:00:00 +0000", "CREATE TABLE t (a INT);"),
        ("2015-01-20 10:00:00 +0000", "CREATE TABLE t (a INT);"), // inactive
        ("2015-02-01 10:00:00 +0000", "CREATE TABLE t (a INT, b INT);"),
        ("2015-02-15 10:00:00 +0000", "CREATE TABLE t (a INT, b INT);"), // inactive
        ("2015-03-15 10:00:00 +0000", "CREATE TABLE t (a INT, b INT);"), // inactive
        ("2015-04-01 10:00:00 +0000", "CREATE TABLE t (a BIGINT, b INT);"),
    ];

    #[test]
    fn cache_on_and_off_produce_identical_histories() {
        let cached = history(INACTIVE_HEAVY);
        let uncached = history_uncached(INACTIVE_HEAVY, DiffMode::Incremental);
        let legacy = history_uncached(INACTIVE_HEAVY, DiffMode::Legacy);
        assert_eq!(cached, uncached);
        assert_eq!(cached, legacy);
        assert_eq!(cached.heartbeat(), uncached.heartbeat());
        assert_eq!(cached.heartbeat(), legacy.heartbeat());
        assert_eq!(cached.active_commits(), 3);
        assert_eq!(cached.total_activity(), 3);
    }

    #[test]
    fn inactive_commits_short_circuit_with_and_without_sharing() {
        // Cached: inactive commits share the previous version's Arc, so the
        // ptr_eq fast path fires. Uncached: distinct allocations, so the
        // equality short-circuit fires instead. Same counters either way.
        for h in
            [history(INACTIVE_HEAVY), history_uncached(INACTIVE_HEAVY, DiffMode::Incremental)]
        {
            let s = h.diff_stats();
            assert_eq!(s.schema_diffs, 6);
            assert_eq!(s.versions_unchanged, 3);
            assert_eq!(s.elided(), 3);
        }
        // Legacy mode does no incremental work at all.
        let s = history_uncached(INACTIVE_HEAVY, DiffMode::Legacy).diff_stats();
        assert_eq!(s, DiffStats::default());
    }

    #[test]
    fn cached_inactive_versions_share_one_schema() {
        let h = history(INACTIVE_HEAVY);
        let v = h.versions();
        assert!(Arc::ptr_eq(&v[0].schema, &v[1].schema));
        assert!(Arc::ptr_eq(&v[2].schema, &v[3].schema));
        assert!(Arc::ptr_eq(&v[2].schema, &v[4].schema));
        assert!(!Arc::ptr_eq(&v[0].schema, &v[2].schema));
    }

    #[test]
    fn unchanged_tables_are_skipped_not_rediffed() {
        let h = history(&[
            ("2015-01-01 10:00:00 +0000", "CREATE TABLE a (x INT); CREATE TABLE b (y INT);"),
            ("2015-02-01 10:00:00 +0000", "CREATE TABLE a (x BIGINT); CREATE TABLE b (y INT);"),
        ]);
        let s = h.diff_stats();
        // The creation delta has no survivors (both tables are born). The
        // second delta has two survivors: `a` changed (diffed), `b`
        // unchanged (skipped as equal).
        assert_eq!(s.tables_diffed, 1);
        assert_eq!(s.tables_skipped, 1);
        assert_eq!(h.total_activity(), 3); // 2 births + 1 type change
    }

    #[test]
    fn heartbeat_total_equals_history_total() {
        let h = history(&[
            ("2015-01-01 10:00:00 +0000", "CREATE TABLE t (a INT);"),
            ("2015-06-01 10:00:00 +0000", "CREATE TABLE t (a INT, b TEXT, c TEXT);"),
        ]);
        assert_eq!(h.heartbeat().total(), h.total_activity());
        assert_eq!(h.heartbeat().months(), 6);
    }
}
