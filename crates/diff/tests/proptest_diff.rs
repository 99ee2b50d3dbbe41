//! Property tests on diff invariants.

use coevo_ddl::{
    parse_schema_interned, print_schema, Column, Dialect, Interner, Schema, SqlType, Table,
    TableConstraint,
};
use coevo_diff::{diff_schemas, diff_schemas_legacy, diff_schemas_with, MatchPolicy};
use proptest::prelude::*;

fn sql_type_strategy() -> impl Strategy<Value = SqlType> {
    prop_oneof![
        Just(SqlType::simple("INT")),
        Just(SqlType::simple("BIGINT")),
        Just(SqlType::simple("TEXT")),
        (1u16..200).prop_map(|n| SqlType::with_params("VARCHAR", &[&n.to_string()])),
    ]
}

prop_compose! {
    fn table_strategy(name_pool: &'static [&'static str], names: &'static str, listed: usize)(
        name_idx in 0..name_pool.len(),
        cols in prop::collection::btree_map(names, sql_type_strategy(), 1..6),
        pk in any::<bool>(),
        listed_pk in prop::collection::vec("[a-dA-D]{1,2}", 0..listed + 1),
    ) -> Table {
        let mut t = Table::new(name_pool[name_idx]);
        for (cname, ty) in cols {
            t.columns.push(Column::new(cname.as_str(), ty));
        }
        if pk {
            t.columns[0].inline_primary_key = true;
        }
        if !listed_pk.is_empty() {
            let columns = listed_pk.iter().map(|c| c.as_str().into()).collect();
            t.constraints.push(TableConstraint::PrimaryKey { name: None, columns });
        }
        t
    }
}

prop_compose! {
    fn schema_of(names: &'static str, listed: usize)(
        mut tables in prop::collection::vec(
            table_strategy(&["alpha", "Beta", "GAMMA", "delta", "Epsilon"], names, listed), 0..5)
    ) -> Schema {
        let mut seen = std::collections::HashSet::new();
        tables.retain(|t| seen.insert(t.key().to_string()));
        Schema::from_tables(tables.into_iter().map(Into::into).collect())
    }
}

/// Well-formed schemas: lowercase, distinct column names.
fn schema_strategy() -> impl Strategy<Value = Schema> {
    schema_of("[a-f]{1,3}", 0)
}

/// Schemas whose column names mix case, so two columns of a table may fold
/// to one key, and whose listed primary key may name a column the table
/// never declares.
fn mixed_case_schema_strategy() -> impl Strategy<Value = Schema> {
    schema_of("[a-cA-C]{1,2}", 2)
}

/// `s` printed and parsed again through `interner`, as the study parses
/// every version of a project through its cache's interner.
fn reparsed(s: &Schema, interner: &Interner) -> Schema {
    parse_schema_interned(&print_schema(s, Dialect::MySql), Dialect::MySql, interner)
        .expect("a printed schema parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn self_diff_is_empty(s in schema_strategy()) {
        let d = diff_schemas(&s, &s);
        prop_assert!(d.is_empty());
        prop_assert_eq!(d.total_activity(), 0);
    }

    #[test]
    fn diff_from_empty_counts_all_attributes(s in schema_strategy()) {
        let d = diff_schemas(&Schema::new(), &s);
        let b = d.breakdown();
        prop_assert_eq!(b.attrs_born_with_table, s.attribute_count() as u64);
        prop_assert_eq!(b.total(), s.attribute_count() as u64);
    }

    #[test]
    fn diff_to_empty_counts_all_attributes(s in schema_strategy()) {
        let d = diff_schemas(&s, &Schema::new());
        let b = d.breakdown();
        prop_assert_eq!(b.attrs_deleted_with_table, s.attribute_count() as u64);
    }

    #[test]
    fn forward_and_backward_totals_are_symmetric(a in schema_strategy(), b in schema_strategy()) {
        // Births ↔ deaths and injections ↔ ejections swap; type and key
        // changes are symmetric. So Total Activity is direction-independent.
        let fwd = diff_schemas(&a, &b).breakdown();
        let bwd = diff_schemas(&b, &a).breakdown();
        prop_assert_eq!(fwd.total(), bwd.total());
        prop_assert_eq!(fwd.attrs_born_with_table, bwd.attrs_deleted_with_table);
        prop_assert_eq!(fwd.attrs_injected, bwd.attrs_ejected);
        prop_assert_eq!(fwd.attrs_type_changed, bwd.attrs_type_changed);
        prop_assert_eq!(fwd.attrs_key_changed, bwd.attrs_key_changed);
    }

    #[test]
    fn rename_detection_never_increases_structural_changes(
        a in schema_strategy(), b in schema_strategy()
    ) {
        let by_name = diff_schemas_with(&a, &b, MatchPolicy::ByName);
        let count = |d: &coevo_diff::SchemaDelta| -> usize {
            d.tables.iter().map(|t| t.changes.len()).sum()
        };
        // At every threshold — including 0, where any same-family pair is
        // accepted — a detected rename replaces an eject + inject, so both
        // the structural change count and Total Activity can only go down.
        for policy in [MatchPolicy::rename_detection(), MatchPolicy::rename_detection_with(0.0)] {
            let renames = diff_schemas_with(&a, &b, policy);
            prop_assert!(count(&renames) <= count(&by_name));
            prop_assert!(renames.breakdown().total() <= by_name.breakdown().total());
        }
    }

    #[test]
    fn by_name_output_is_unaffected_by_the_rename_module(
        a in schema_strategy(), b in schema_strategy()
    ) {
        // Flag-off must be the paper's accounting bit-for-bit: no rename
        // counter in the struct, and none in the serialized bytes (the
        // store round-trips entries through JSON).
        let by_name = diff_schemas_with(&a, &b, MatchPolicy::ByName);
        let breakdown = by_name.breakdown();
        prop_assert_eq!(breakdown.attrs_renamed, 0);
        let json = serde_json::to_string(&breakdown).unwrap();
        prop_assert!(!json.contains("attrs_renamed"), "{}", json);
        for td in &by_name.tables {
            for ch in &td.changes {
                prop_assert!(
                    !matches!(ch, coevo_diff::AttributeChange::Renamed { .. }),
                    "ByName diff emitted a Renamed change"
                );
            }
        }
    }

    #[test]
    fn rename_threshold_is_monotone_on_schema_pairs(
        a in schema_strategy(), b in schema_strategy()
    ) {
        let mut last = u64::MAX;
        for t in [0.0, 0.4, 0.6, 0.8, 1.0] {
            let d = diff_schemas_with(&a, &b, MatchPolicy::rename_detection_with(t));
            let renamed = d.breakdown().attrs_renamed;
            prop_assert!(renamed <= last, "threshold {} matched {} > {}", t, renamed, last);
            last = renamed;
        }
    }

    #[test]
    fn incremental_diff_is_byte_identical_to_legacy(
        a in mixed_case_schema_strategy(), b in mixed_case_schema_strategy()
    ) {
        // The incremental path must reproduce the algorithm without skips
        // exactly — for hand-built schemas, for schemas parsed through one
        // shared interner (as one project's versions are) and through two
        // different interners, and for mixed pairs — under both matching
        // policies.
        let shared = Interner::new();
        let (sa, sb) = (reparsed(&a, &shared), reparsed(&b, &shared));
        let (oa, ob) = (reparsed(&a, &Interner::new()), reparsed(&b, &Interner::new()));
        let policies = [
            MatchPolicy::ByName,
            MatchPolicy::rename_detection(),
            MatchPolicy::rename_detection_with(0.0),
            MatchPolicy::rename_detection_with(1.0),
        ];
        for policy in policies {
            let oracle = diff_schemas_legacy(&a, &b, policy);
            prop_assert_eq!(&diff_schemas_with(&a, &b, policy), &oracle);
            prop_assert_eq!(&diff_schemas_legacy(&sa, &sb, policy), &oracle);
            prop_assert_eq!(&diff_schemas_with(&sa, &sb, policy), &oracle);
            prop_assert_eq!(&diff_schemas_with(&oa, &ob, policy), &oracle);
            prop_assert_eq!(&diff_schemas_with(&sa, &ob, policy), &oracle);
            prop_assert_eq!(&diff_schemas_with(&sa, &b, policy), &oracle);
            prop_assert_eq!(&diff_schemas_with(&a, &sb, policy), &oracle);
        }
    }

    #[test]
    fn self_diff_short_circuits_to_empty(s in mixed_case_schema_strategy()) {
        let interner = Interner::new();
        let (sa, sb) = (reparsed(&s, &interner), reparsed(&s, &interner));
        let mut stats = coevo_diff::DiffStats::default();
        let d = coevo_diff::diff_schemas_counted(&sa, &sb, MatchPolicy::ByName, &mut stats);
        prop_assert!(d.is_empty());
        prop_assert_eq!(stats.versions_unchanged, 1);
        prop_assert_eq!(stats.tables_diffed, 0);
    }

    #[test]
    fn triangle_inequality_on_activity(
        a in schema_strategy(), b in schema_strategy(), c in schema_strategy()
    ) {
        // Going a→c directly can never require more activity than a→b→c.
        let direct = diff_schemas(&a, &c).total_activity();
        let via = diff_schemas(&a, &b).total_activity() + diff_schemas(&b, &c).total_activity();
        prop_assert!(direct <= via, "direct {direct} > via {via}");
    }
}
