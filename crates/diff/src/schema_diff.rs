//! Schema-level diff: table matching, creations, drops, and survivors.
//!
//! The diff is *incremental*: identical versions and unchanged tables are
//! skipped without any attribute-level work. Consecutive versions parsed
//! through one [`coevo_ddl::ParseCache`] share every table a commit left
//! alone, so most skips are a pointer comparison; any other pair is
//! confirmed by full structural equality. The output is byte-identical to
//! the algorithm without skips, which is preserved as
//! [`diff_schemas_legacy`] and used as the oracle in differential tests.

use crate::changes::{SchemaDelta, TableDelta, TableFate};
use crate::names::NameIndex;
use crate::table_diff::{diff_tables, diff_tables_legacy};
use coevo_ddl::{Schema, Table};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters for how much work the incremental diff core actually did — and,
/// more importantly, elided. Accumulated across a history by
/// [`crate::SchemaHistory`] and surfaced as cache/skip rates in
/// `coevo study --profile`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffStats {
    /// Schema-pair diffs requested.
    pub schema_diffs: u64,
    /// Whole-version short-circuits: the two schemas were structurally
    /// identical (the same schema, or equal), so no table work happened at
    /// all.
    pub versions_unchanged: u64,
    /// Surviving tables skipped because both sides were the same shared
    /// table, or equal.
    pub tables_skipped: u64,
    /// Surviving tables that went through the attribute-level diff.
    pub tables_diffed: u64,
}

impl DiffStats {
    /// Lookups the incremental core answered without diffing (version- and
    /// table-level skips combined).
    pub fn elided(&self) -> u64 {
        self.versions_unchanged + self.tables_skipped
    }
}

/// How attributes (and, transitively, their changes) are matched between two
/// versions. The paper matches by name; rename detection is an ablation knob
/// (see DESIGN.md §7 and §14).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MatchPolicy {
    /// Case-insensitive name equality — the paper's policy. A renamed
    /// attribute counts as one ejection plus one injection.
    #[default]
    ByName,
    /// Additionally pair unmatched attributes through the scored matcher of
    /// [`crate::rename`]: candidate pairs whose composite name/type/position
    /// score reaches `threshold` become one [`Renamed`] change instead of an
    /// eject + inject. Construct through [`MatchPolicy::rename_detection`] /
    /// [`MatchPolicy::rename_detection_with`], which keep the threshold
    /// finite and in `[0, 1]`.
    ///
    /// [`Renamed`]: crate::AttributeChange::Renamed
    RenameDetection {
        /// Minimum composite score a pair must reach to count as a rename.
        threshold: f64,
    },
}

// The constructors guarantee a finite threshold (never NaN), so equality is
// total and `MatchPolicy` can sit in `Eq` contexts like config comparisons.
impl Eq for MatchPolicy {}

impl MatchPolicy {
    /// Rename detection at the validated default threshold
    /// [`crate::rename::DEFAULT_RENAME_THRESHOLD`].
    pub fn rename_detection() -> Self {
        Self::RenameDetection { threshold: crate::rename::DEFAULT_RENAME_THRESHOLD }
    }

    /// Rename detection at an explicit threshold, clamped to `[0, 1]`
    /// (non-finite values fall back to the default threshold).
    pub fn rename_detection_with(threshold: f64) -> Self {
        let threshold = if threshold.is_finite() {
            threshold.clamp(0.0, 1.0)
        } else {
            crate::rename::DEFAULT_RENAME_THRESHOLD
        };
        Self::RenameDetection { threshold }
    }

    /// The rename threshold, when rename detection is on.
    pub fn rename_threshold(&self) -> Option<f64> {
        match self {
            Self::ByName => None,
            Self::RenameDetection { threshold } => Some(*threshold),
        }
    }

    /// A short stable tag for config digests and profile lines.
    pub fn digest_tag(&self) -> String {
        match self {
            Self::ByName => "by-name".to_string(),
            Self::RenameDetection { threshold } => format!("rename-detection:{threshold}"),
        }
    }
}

/// Diff two schema versions under the default (paper) matching policy.
pub fn diff_schemas(old: &Schema, new: &Schema) -> SchemaDelta {
    diff_schemas_with(old, new, MatchPolicy::ByName)
}

/// Diff two schema versions under an explicit matching policy.
///
/// Tables are matched by case-insensitive name. A table present only in
/// `new` contributes its attributes as *born with table*; present only in
/// `old`, as *deleted with table*; present in both, the attribute-level
/// diff of [`diff_tables`] — unless the two sides are identical, in which
/// case the table is skipped entirely.
pub fn diff_schemas_with(old: &Schema, new: &Schema, policy: MatchPolicy) -> SchemaDelta {
    let mut stats = DiffStats::default();
    diff_schemas_counted(old, new, policy, &mut stats)
}

/// [`diff_schemas_with`], accumulating work/skip counters into `stats`.
pub fn diff_schemas_counted(
    old: &Schema,
    new: &Schema,
    policy: MatchPolicy,
    stats: &mut DiffStats,
) -> SchemaDelta {
    stats.schema_diffs += 1;
    if schemas_identical(old, new) {
        stats.versions_unchanged += 1;
        return SchemaDelta { tables: Vec::new() };
    }

    let (old_names, new_names) =
        (NameIndex::of_tables(&old.tables), NameIndex::of_tables(&new.tables));

    let mut deltas = Vec::new();

    // Old-version order: drops and survivors.
    for t in &old.tables {
        match new_names.get(t.key()) {
            Some(j) => {
                let new_t = &new.tables[j];
                if tables_identical(t, new_t) {
                    stats.tables_skipped += 1;
                    continue;
                }
                stats.tables_diffed += 1;
                let td = diff_tables(t, new_t, policy);
                if !td.changes.is_empty() {
                    deltas.push(td);
                }
            }
            None => {
                deltas.push(TableDelta {
                    table: t.name.to_string(),
                    fate: TableFate::Dropped,
                    changes: Vec::new(),
                    attribute_count: t.columns.len(),
                });
            }
        }
    }
    // New-version order: creations.
    for t in &new.tables {
        if old_names.get(t.key()).is_none() {
            deltas.push(TableDelta {
                table: t.name.to_string(),
                fate: TableFate::Created,
                changes: Vec::new(),
                attribute_count: t.columns.len(),
            });
        }
    }

    SchemaDelta { tables: deltas }
}

/// The schema diff without skips, preserved verbatim as the oracle for the
/// differential tests: it unconditionally rebuilds key maps and runs the
/// attribute-level diff on every surviving table.
pub fn diff_schemas_legacy(old: &Schema, new: &Schema, policy: MatchPolicy) -> SchemaDelta {
    let old_by_key: BTreeMap<String, usize> =
        old.tables.iter().enumerate().map(|(i, t)| (t.key().to_string(), i)).collect();
    let new_by_key: BTreeMap<String, usize> =
        new.tables.iter().enumerate().map(|(i, t)| (t.key().to_string(), i)).collect();

    let mut deltas = Vec::new();

    // Old-version order: drops and survivors.
    for t in &old.tables {
        match new_by_key.get(t.key()) {
            Some(&j) => {
                let td = diff_tables_legacy(t, &new.tables[j], policy);
                if !td.changes.is_empty() {
                    deltas.push(td);
                }
            }
            None => {
                deltas.push(TableDelta {
                    table: t.name.to_string(),
                    fate: TableFate::Dropped,
                    changes: Vec::new(),
                    attribute_count: t.columns.len(),
                });
            }
        }
    }
    // New-version order: creations.
    for t in &new.tables {
        if !old_by_key.contains_key(t.key()) {
            deltas.push(TableDelta {
                table: t.name.to_string(),
                fate: TableFate::Created,
                changes: Vec::new(),
                attribute_count: t.columns.len(),
            });
        }
    }

    SchemaDelta { tables: deltas }
}

/// True when the two schemas are structurally identical: the same schema,
/// or equal (shared tables compare by pointer).
fn schemas_identical(old: &Schema, new: &Schema) -> bool {
    std::ptr::eq(old, new) || old == new
}

/// True when two surviving tables are identical: the same shared table (an
/// unchanged `CREATE TABLE` recalled by the parse memo), or equal.
#[cfg(not(feature = "oracle-selftest"))]
fn tables_identical(old: &Table, new: &Table) -> bool {
    std::ptr::eq(old, new) || old == new
}

/// Deliberately broken `oracle-selftest` variant: declares two tables
/// identical as soon as their column counts agree, forcing the incremental
/// short-circuit onto tables whose *contents* changed (a type change keeps
/// the count). The incremental path then undercounts Total Activity, and
/// `coevo-oracle`'s legacy-diff oracle must catch the divergence — this is
/// how the harness proves it would detect a real skip bug.
#[cfg(feature = "oracle-selftest")]
fn tables_identical(old: &Table, new: &Table) -> bool {
    old.columns.len() == new.columns.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_ddl::{parse_schema, Dialect};

    fn schema(sql: &str) -> Schema {
        parse_schema(sql, Dialect::Generic).unwrap()
    }

    #[test]
    fn table_creation_counts_births() {
        let old = schema("CREATE TABLE a (x INT);");
        let new = schema("CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT, w INT);");
        let d = diff_schemas(&old, &new);
        let b = d.breakdown();
        assert_eq!(b.attrs_born_with_table, 3);
        assert_eq!(b.total(), 3);
        assert_eq!(d.tables_created(), 1);
    }

    #[test]
    fn table_drop_counts_deaths() {
        let old = schema("CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT);");
        let new = schema("CREATE TABLE a (x INT);");
        let d = diff_schemas(&old, &new);
        assert_eq!(d.breakdown().attrs_deleted_with_table, 2);
        assert_eq!(d.tables_dropped(), 1);
    }

    #[test]
    fn survivor_changes_flow_through() {
        let old = schema("CREATE TABLE a (x INT, y INT);");
        let new = schema("CREATE TABLE a (x BIGINT, z INT);");
        let b = diff_schemas(&old, &new).breakdown();
        assert_eq!(b.attrs_type_changed, 1);
        assert_eq!(b.attrs_ejected, 1);
        assert_eq!(b.attrs_injected, 1);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn identical_schemas_are_empty_delta() {
        let s = schema("CREATE TABLE a (x INT); CREATE TABLE b (y TEXT);");
        let d = diff_schemas(&s, &s);
        assert!(d.is_empty());
        assert_eq!(d.total_activity(), 0);
    }

    #[test]
    fn unchanged_survivors_not_reported() {
        let old = schema("CREATE TABLE a (x INT); CREATE TABLE b (y INT);");
        let new = schema("CREATE TABLE a (x INT); CREATE TABLE b (y BIGINT);");
        let d = diff_schemas(&old, &new);
        assert_eq!(d.tables.len(), 1);
        assert_eq!(d.tables[0].table, "b");
    }

    #[test]
    fn table_rename_is_drop_plus_create() {
        // Table matching is by name only (paper policy): renaming a table is
        // a drop + create, with all attributes dying and being born.
        let old = schema("CREATE TABLE users (a INT, b INT);");
        let new = schema("CREATE TABLE members (a INT, b INT);");
        let b = diff_schemas(&old, &new).breakdown();
        assert_eq!(b.attrs_deleted_with_table, 2);
        assert_eq!(b.attrs_born_with_table, 2);
        assert_eq!(b.total(), 4);
    }

    #[test]
    fn case_insensitive_table_matching() {
        let old = schema("CREATE TABLE Users (a INT);");
        let new = schema("CREATE TABLE users (a INT);");
        assert!(diff_schemas(&old, &new).is_empty());
    }

    #[test]
    fn empty_to_initial_schema() {
        let old = Schema::new();
        let new = schema("CREATE TABLE a (x INT, y INT);");
        let b = diff_schemas(&old, &new).breakdown();
        assert_eq!(b.attrs_born_with_table, 2);
    }

    #[test]
    fn doc_example_from_lib() {
        let v1 = schema("CREATE TABLE t (a INT, b INT);");
        let v2 = schema("CREATE TABLE t (a BIGINT, c INT);");
        let acts = diff_schemas(&v1, &v2).breakdown();
        assert_eq!(acts.attrs_injected, 1);
        assert_eq!(acts.attrs_ejected, 1);
        assert_eq!(acts.attrs_type_changed, 1);
        assert_eq!(acts.total(), 3);
    }

    #[test]
    fn policy_is_threaded_to_tables() {
        let old = schema("CREATE TABLE t (user_name VARCHAR(9));");
        let new = schema("CREATE TABLE t (username VARCHAR(9));");
        let by_name = diff_schemas_with(&old, &new, MatchPolicy::ByName);
        let renames = diff_schemas_with(&old, &new, MatchPolicy::rename_detection());
        assert_eq!(by_name.breakdown().total(), 2);
        // A detected rename is one change and one unit of activity — strictly
        // below the eject + inject the by-name accounting reports.
        assert_eq!(renames.tables[0].changes.len(), 1);
        assert_eq!(renames.breakdown().total(), 1);
        assert_eq!(renames.breakdown().attrs_renamed, 1);
    }

    #[test]
    fn policy_constructors_sanitize_the_threshold() {
        assert_eq!(
            MatchPolicy::rename_detection_with(2.0),
            MatchPolicy::RenameDetection { threshold: 1.0 }
        );
        assert_eq!(
            MatchPolicy::rename_detection_with(-3.0),
            MatchPolicy::RenameDetection { threshold: 0.0 }
        );
        assert_eq!(
            MatchPolicy::rename_detection_with(f64::NAN),
            MatchPolicy::rename_detection()
        );
        assert_eq!(MatchPolicy::ByName.rename_threshold(), None);
        assert_eq!(
            MatchPolicy::rename_detection().rename_threshold(),
            Some(crate::rename::DEFAULT_RENAME_THRESHOLD)
        );
        assert_ne!(
            MatchPolicy::ByName.digest_tag(),
            MatchPolicy::rename_detection().digest_tag()
        );
        assert_ne!(
            MatchPolicy::rename_detection_with(0.5).digest_tag(),
            MatchPolicy::rename_detection_with(0.7).digest_tag()
        );
    }
}
