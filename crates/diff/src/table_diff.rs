//! Attribute-level diff of two versions of the *same* table.

use crate::changes::{AttributeChange, TableDelta, TableFate};
use crate::names::NameIndex;
use crate::schema_diff::MatchPolicy;
use coevo_ddl::Table;
use std::collections::BTreeMap;

/// Diff two versions of a surviving table into attribute-level changes.
///
/// Attributes are matched by case-insensitive name (the paper's policy).
/// Under [`MatchPolicy::RenameDetection`], unmatched old/new attribute pairs
/// are additionally run through the scored matcher of [`crate::rename`] and
/// recognized as renames — an ablation of the matching construct, not the
/// paper's accounting.
pub fn diff_tables(old: &Table, new: &Table, policy: MatchPolicy) -> TableDelta {
    let (old_names, new_names) = (NameIndex::of_columns(old), NameIndex::of_columns(new));

    let mut changes = Vec::new();
    let mut ejected: Vec<usize> = Vec::new();
    let mut injected: Vec<usize> = Vec::new();

    // Survivors: type and key changes. Iterate in old declaration order for
    // deterministic output.
    for (i, col) in old.columns.iter().enumerate() {
        match new_names.get(col.key()) {
            Some(j) => {
                let new_col = &new.columns[j];
                if !col.sql_type.equivalent(&new_col.sql_type) {
                    changes.push(AttributeChange::TypeChanged {
                        name: new_col.name.to_string(),
                        from: col.sql_type.clone(),
                        to: new_col.sql_type.clone(),
                    });
                }
                let was_in_key = old_names.in_primary_key(col.key());
                let now_in_key = new_names.in_primary_key(new_col.key());
                if was_in_key != now_in_key {
                    changes.push(AttributeChange::KeyChanged {
                        name: new_col.name.to_string(),
                        now_in_key,
                    });
                }
            }
            None => ejected.push(i),
        }
    }
    for (j, col) in new.columns.iter().enumerate() {
        if old_names.get(col.key()).is_none() {
            injected.push(j);
        }
    }

    if let MatchPolicy::RenameDetection { threshold } = policy {
        // The scored matcher pairs best-score-first with deterministic
        // tie-breaks, so ambiguous candidates never depend on declaration
        // order (the naive first-match-wins pairing did).
        crate::rename::apply_rename_pairing(
            old,
            new,
            &mut ejected,
            &mut injected,
            &mut changes,
            threshold,
        );
    }

    for i in ejected {
        changes.push(AttributeChange::Ejected {
            name: old.columns[i].name.to_string(),
            sql_type: old.columns[i].sql_type.clone(),
        });
    }
    for j in injected {
        changes.push(AttributeChange::Injected {
            name: new.columns[j].name.to_string(),
            sql_type: new.columns[j].sql_type.clone(),
        });
    }

    TableDelta {
        table: new.name.to_string(),
        fate: TableFate::Survived,
        changes,
        attribute_count: 0,
    }
}

/// The pre-refactor attribute-level diff, preserved verbatim as the oracle
/// for the differential tests: it re-lowercases every column name on each
/// lookup and rebuilds both key maps per call. The rename step is the one
/// exception to "verbatim": both paths call the *same* scored pairing, so
/// rename-aware outputs stay comparable bit-for-bit.
pub fn diff_tables_legacy(old: &Table, new: &Table, policy: MatchPolicy) -> TableDelta {
    let old_by_key: BTreeMap<String, usize> =
        old.columns.iter().enumerate().map(|(i, c)| (c.key().to_string(), i)).collect();
    let new_by_key: BTreeMap<String, usize> =
        new.columns.iter().enumerate().map(|(i, c)| (c.key().to_string(), i)).collect();

    let old_pk = old.primary_key();
    let new_pk = new.primary_key();

    let mut changes = Vec::new();
    let mut ejected: Vec<usize> = Vec::new();
    let mut injected: Vec<usize> = Vec::new();

    // Survivors: type and key changes. Iterate in old declaration order for
    // deterministic output.
    for (i, col) in old.columns.iter().enumerate() {
        match new_by_key.get(col.key()) {
            Some(&j) => {
                let new_col = &new.columns[j];
                if !col.sql_type.equivalent(&new_col.sql_type) {
                    changes.push(AttributeChange::TypeChanged {
                        name: new_col.name.to_string(),
                        from: col.sql_type.clone(),
                        to: new_col.sql_type.clone(),
                    });
                }
                let was_in_key = old_pk.iter().any(|p| p == col.key());
                let now_in_key = new_pk.iter().any(|p| p == new_col.key());
                if was_in_key != now_in_key {
                    changes.push(AttributeChange::KeyChanged {
                        name: new_col.name.to_string(),
                        now_in_key,
                    });
                }
            }
            None => ejected.push(i),
        }
    }
    for (j, col) in new.columns.iter().enumerate() {
        if !old_by_key.contains_key(col.key()) {
            injected.push(j);
        }
    }

    if let MatchPolicy::RenameDetection { threshold } = policy {
        crate::rename::apply_rename_pairing(
            old,
            new,
            &mut ejected,
            &mut injected,
            &mut changes,
            threshold,
        );
    }

    for i in ejected {
        changes.push(AttributeChange::Ejected {
            name: old.columns[i].name.to_string(),
            sql_type: old.columns[i].sql_type.clone(),
        });
    }
    for j in injected {
        changes.push(AttributeChange::Injected {
            name: new.columns[j].name.to_string(),
            sql_type: new.columns[j].sql_type.clone(),
        });
    }

    TableDelta {
        table: new.name.to_string(),
        fate: TableFate::Survived,
        changes,
        attribute_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_ddl::{parse_schema, Dialect};

    fn table(sql: &str) -> std::sync::Arc<Table> {
        parse_schema(sql, Dialect::Generic).unwrap().tables.into_iter().next().unwrap()
    }

    #[test]
    fn identical_tables_no_changes() {
        let t = table("CREATE TABLE t (a INT, b VARCHAR(10));");
        let d = diff_tables(&t, &t, MatchPolicy::ByName);
        assert!(d.changes.is_empty());
    }

    #[test]
    fn injection_and_ejection() {
        let old = table("CREATE TABLE t (a INT, b INT);");
        let new = table("CREATE TABLE t (a INT, c INT);");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert_eq!(d.changes.len(), 2);
        assert!(d
            .changes
            .iter()
            .any(|c| matches!(c, AttributeChange::Ejected { name, .. } if name == "b")));
        assert!(d
            .changes
            .iter()
            .any(|c| matches!(c, AttributeChange::Injected { name, .. } if name == "c")));
    }

    #[test]
    fn type_change() {
        let old = table("CREATE TABLE t (a INT);");
        let new = table("CREATE TABLE t (a BIGINT);");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert_eq!(d.changes.len(), 1);
        assert!(matches!(
            &d.changes[0],
            AttributeChange::TypeChanged { name, from, to }
                if name == "a" && from.name == "INT" && to.name == "BIGINT"
        ));
    }

    #[test]
    fn varchar_length_change_is_type_change() {
        let old = table("CREATE TABLE t (a VARCHAR(50));");
        let new = table("CREATE TABLE t (a VARCHAR(100));");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert_eq!(d.changes.len(), 1);
        assert!(matches!(&d.changes[0], AttributeChange::TypeChanged { .. }));
    }

    #[test]
    fn key_participation_change() {
        let old = table("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a));");
        let new = table("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert_eq!(d.changes.len(), 1);
        assert!(matches!(
            &d.changes[0],
            AttributeChange::KeyChanged { name, now_in_key: true } if name == "b"
        ));
    }

    #[test]
    fn key_removal_counts_per_attribute() {
        let old = table("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b));");
        let new = table("CREATE TABLE t (a INT, b INT);");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert_eq!(d.changes.len(), 2);
        assert!(d
            .changes
            .iter()
            .all(|c| matches!(c, AttributeChange::KeyChanged { now_in_key: false, .. })));
    }

    #[test]
    fn case_insensitive_matching() {
        let old = table("CREATE TABLE t (UserID INT);");
        let new = table("CREATE TABLE t (userid INT);");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert!(d.changes.is_empty());
    }

    #[test]
    fn nullability_change_is_not_activity() {
        // The paper's six categories do not include nullability; NOT NULL flips
        // must not create activity.
        let old = table("CREATE TABLE t (a INT);");
        let new = table("CREATE TABLE t (a INT NOT NULL);");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert!(d.changes.is_empty());
    }

    #[test]
    fn rename_detection_pairs_same_type() {
        let old = table("CREATE TABLE t (user_name VARCHAR(40), age INT);");
        let new = table("CREATE TABLE t (username VARCHAR(40), age INT);");
        let by_name = diff_tables(&old, &new, MatchPolicy::ByName);
        assert_eq!(by_name.changes.len(), 2); // eject + inject
        let with_rename = diff_tables(&old, &new, MatchPolicy::rename_detection());
        assert_eq!(with_rename.changes.len(), 1);
        assert!(matches!(
            &with_rename.changes[0],
            AttributeChange::Renamed { from, to, .. } if from == "user_name" && to == "username"
        ));
    }

    #[test]
    fn rename_detection_rejects_cross_family_types() {
        let old = table("CREATE TABLE t (amount INT);");
        let new = table("CREATE TABLE t (amounts TEXT);");
        let d = diff_tables(&old, &new, MatchPolicy::rename_detection());
        assert_eq!(d.changes.len(), 2); // incomparable families never pair
    }

    #[test]
    fn rename_detection_rejects_dissimilar_names() {
        // Same type, same position — but the names share nothing, so the
        // composite score stays under the default threshold.
        let old = table("CREATE TABLE t (total_price INT);");
        let new = table("CREATE TABLE t (batch_code INT);");
        let d = diff_tables(&old, &new, MatchPolicy::rename_detection());
        assert_eq!(d.changes.len(), 2);
        // At threshold 0 the same pair is accepted: the knob is live.
        let d = diff_tables(&old, &new, MatchPolicy::rename_detection_with(0.0));
        assert_eq!(d.changes.len(), 1);
        assert!(matches!(&d.changes[0], AttributeChange::Renamed { .. }));
    }

    #[test]
    fn rename_plus_retype_along_a_ladder_pairs_with_a_type_change() {
        let old = table("CREATE TABLE t (unit_count INT, other TEXT);");
        let new = table("CREATE TABLE t (unit_counts BIGINT, other TEXT);");
        let d = diff_tables(&old, &new, MatchPolicy::rename_detection());
        assert_eq!(d.changes.len(), 2);
        assert!(matches!(
            &d.changes[0],
            AttributeChange::Renamed { from, to, .. }
                if from == "unit_count" && to == "unit_counts"
        ));
        assert!(matches!(
            &d.changes[1],
            AttributeChange::TypeChanged { name, .. } if name == "unit_counts"
        ));
    }

    #[test]
    fn ambiguous_rename_is_independent_of_declaration_order() {
        // Two ejected INT columns compete for one injected INT column. The
        // naive first-match-wins pairing bound whichever was declared first;
        // the scorer must bind `unit_count` → `unit_counts` in both orders.
        let fwd_old = table("CREATE TABLE t (total_price INT, unit_count INT, keep TEXT);");
        let rev_old = table("CREATE TABLE t (unit_count INT, total_price INT, keep TEXT);");
        let new = table("CREATE TABLE t (unit_counts INT, keep TEXT);");
        for old in [&fwd_old, &rev_old] {
            let d = diff_tables(old, &new, MatchPolicy::rename_detection());
            let renamed: Vec<_> = d
                .changes
                .iter()
                .filter_map(|c| match c {
                    AttributeChange::Renamed { from, to, .. } => {
                        Some((from.clone(), to.clone()))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(
                renamed,
                vec![("unit_count".to_string(), "unit_counts".to_string())],
                "declaration order changed the pairing"
            );
            assert!(d.changes.iter().any(
                |c| matches!(c, AttributeChange::Ejected { name, .. } if name == "total_price")
            ));
        }
    }

    #[test]
    fn legacy_and_incremental_agree_on_renames() {
        let old = table("CREATE TABLE t (user_name VARCHAR(40), total_price INT, a TEXT);");
        let new =
            table("CREATE TABLE t (username VARCHAR(40), total_price_cents INT, b TEXT);");
        for policy in [
            MatchPolicy::ByName,
            MatchPolicy::rename_detection(),
            MatchPolicy::rename_detection_with(0.0),
            MatchPolicy::rename_detection_with(1.0),
        ] {
            assert_eq!(
                diff_tables(&old, &new, policy),
                diff_tables_legacy(&old, &new, policy),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn simultaneous_type_and_key_change() {
        let old = table("CREATE TABLE t (a INT);");
        let new = table("CREATE TABLE t (a BIGINT PRIMARY KEY);");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert_eq!(d.changes.len(), 2);
    }

    #[test]
    fn column_reorder_is_not_activity() {
        let old = table("CREATE TABLE t (a INT, b TEXT);");
        let new = table("CREATE TABLE t (b TEXT, a INT);");
        let d = diff_tables(&old, &new, MatchPolicy::ByName);
        assert!(d.changes.is_empty());
    }
}
