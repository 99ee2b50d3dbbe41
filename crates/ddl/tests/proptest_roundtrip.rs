//! Property tests: any schema built from the model vocabulary must survive a
//! print → parse round trip in every dialect, preserving the logical content
//! the evolution study measures (tables, attributes, types, primary keys).

use coevo_ddl::{
    parse_schema, print_schema, Column, Dialect, ForeignKey, IndexDef, Schema, SqlType, Table,
    TableConstraint,
};
use proptest::prelude::*;

/// Lowercase SQL-safe identifiers that are not keywords.
fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,12}".prop_filter("avoid keywords", |s| {
        !matches!(
            s.as_str(),
            "create"
                | "table"
                | "primary"
                | "key"
                | "unique"
                | "constraint"
                | "not"
                | "null"
                | "default"
                | "references"
                | "check"
                | "index"
                | "drop"
                | "alter"
                | "add"
                | "column"
                | "int"
                | "like"
                | "if"
                | "exists"
                | "foreign"
                | "on"
                | "to"
                | "using"
                | "comment"
                | "collate"
                | "first"
                | "after"
                | "modify"
                | "change"
                | "rename"
                | "generated"
                | "as"
        )
    })
}

fn sql_type_strategy() -> impl Strategy<Value = SqlType> {
    prop_oneof![
        Just(SqlType::simple("INT")),
        Just(SqlType::simple("BIGINT")),
        Just(SqlType::simple("TEXT")),
        Just(SqlType::simple("BOOLEAN")),
        Just(SqlType::simple("DATE")),
        Just(SqlType::simple("TIMESTAMP")),
        (1u16..=512).prop_map(|n| SqlType::with_params("VARCHAR", &[&n.to_string()])),
        (1u8..=30, 0u8..=10).prop_map(|(p, s)| SqlType::with_params(
            "DECIMAL",
            &[&p.to_string(), &s.to_string()]
        )),
    ]
}

fn column_strategy() -> impl Strategy<Value = Column> {
    (ident_strategy(), sql_type_strategy(), any::<bool>(), any::<bool>()).prop_map(
        |(name, ty, nullable, unique)| {
            let mut c = Column::new(name.as_str(), ty);
            c.nullable = nullable;
            c.unique = unique;
            c
        },
    )
}

prop_compose! {
    fn table_strategy()(
        name in ident_strategy(),
        mut cols in prop::collection::vec(column_strategy(), 1..8),
        pk_first in any::<bool>(),
        table_pk in any::<bool>(),
        with_unique in any::<bool>(),
        with_index in any::<bool>(),
        fk_target in ident_strategy(),
        with_fk in any::<bool>(),
    ) -> Table {
        // De-duplicate column names (case-insensitive).
        let mut seen = std::collections::HashSet::new();
        cols.retain(|c| seen.insert(c.key().to_string()));
        if pk_first {
            cols[0].inline_primary_key = true;
            cols[0].nullable = false;
        }
        let mut t = Table::new(name.as_str());
        t.columns = cols;
        let first = t.columns[0].name.clone();
        let last = t.columns.last().unwrap().name.clone();
        if table_pk && !pk_first {
            t.constraints.push(TableConstraint::PrimaryKey {
                name: None,
                columns: vec![first.clone()],
            });
        }
        if with_unique && t.columns.len() > 1 {
            t.constraints.push(TableConstraint::Unique {
                name: Some(format!("uq_{name}").into()),
                columns: vec![last.clone()],
            });
        }
        if with_fk {
            t.constraints.push(TableConstraint::ForeignKey(ForeignKey {
                name: Some(format!("fk_{name}").into()),
                columns: vec![first.clone()],
                foreign_table: fk_target.into(),
                foreign_columns: vec!["id".into()],
                actions: vec!["ON DELETE CASCADE".to_string()],
            }));
        }
        if with_index {
            t.indexes.push(IndexDef {
                name: Some(format!("idx_{name}").into()),
                columns: vec![first],
                unique: false,
            });
        }
        t
    }
}

prop_compose! {
    fn schema_strategy()(mut tables in prop::collection::vec(table_strategy(), 0..6)) -> Schema {
        let mut seen = std::collections::HashSet::new();
        tables.retain(|t| seen.insert(t.key().to_string()));
        Schema::from_tables(tables.into_iter().map(Into::into).collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn round_trip_mysql(schema in schema_strategy()) {
        let printed = print_schema(&schema, Dialect::MySql);
        let reparsed = parse_schema(&printed, Dialect::MySql).expect("re-parse mysql");
        prop_assert_eq!(&schema, &reparsed);
    }

    #[test]
    fn round_trip_postgres(schema in schema_strategy()) {
        let printed = print_schema(&schema, Dialect::Postgres);
        let reparsed = parse_schema(&printed, Dialect::Postgres).expect("re-parse postgres");
        prop_assert_eq!(&schema, &reparsed);
    }

    #[test]
    fn round_trip_generic(schema in schema_strategy()) {
        let printed = print_schema(&schema, Dialect::Generic);
        let reparsed = parse_schema(&printed, Dialect::Generic).expect("re-parse generic");
        prop_assert_eq!(&schema, &reparsed);
    }

    #[test]
    fn attribute_count_preserved(schema in schema_strategy()) {
        let printed = print_schema(&schema, Dialect::MySql);
        let reparsed = parse_schema(&printed, Dialect::MySql).expect("re-parse");
        prop_assert_eq!(schema.attribute_count(), reparsed.attribute_count());
    }

    #[test]
    fn primary_keys_preserved(schema in schema_strategy()) {
        let printed = print_schema(&schema, Dialect::Postgres);
        let reparsed = parse_schema(&printed, Dialect::Postgres).expect("re-parse");
        for t in &schema.tables {
            let rt = reparsed.table(&t.name).expect("table survives");
            prop_assert_eq!(t.primary_key(), rt.primary_key());
        }
    }

    #[test]
    fn constraints_and_indexes_preserved(schema in schema_strategy()) {
        for dialect in [Dialect::MySql, Dialect::Postgres] {
            let printed = print_schema(&schema, dialect);
            let reparsed = parse_schema(&printed, dialect)
                .unwrap_or_else(|e| panic!("{dialect:?}: {e}\n{printed}"));
            for t in &schema.tables {
                let rt = reparsed.table(&t.name).expect("table survives");
                prop_assert_eq!(
                    t.foreign_keys().count(),
                    rt.foreign_keys().count(),
                    "FK count for {} under {:?}", t.name, dialect
                );
                prop_assert_eq!(
                    t.indexes.len(),
                    rt.indexes.len(),
                    "index count for {} under {:?}", t.name, dialect
                );
                for (a, b) in t.foreign_keys().zip(rt.foreign_keys()) {
                    prop_assert_eq!(&a.foreign_table, &b.foreign_table);
                    prop_assert_eq!(&a.columns, &b.columns);
                    prop_assert_eq!(&a.actions, &b.actions);
                }
            }
        }
    }

    #[test]
    fn print_equality_is_structural_equality(
        a in schema_strategy(),
        b in schema_strategy(),
    ) {
        // Two schemas print identically exactly when the model considers
        // them equal: the printer drops no field that equality compares.
        let printed_eq = print_schema(&a, Dialect::Generic) == print_schema(&b, Dialect::Generic);
        prop_assert_eq!(printed_eq, a == b);
    }

    #[test]
    fn print_parse_round_trip_is_structurally_equal(schema in schema_strategy()) {
        let printed = print_schema(&schema, Dialect::Generic);
        let reparsed = parse_schema(&printed, Dialect::Generic).expect("re-parse");
        prop_assert_eq!(&schema, &reparsed);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC{0,400}") {
        // Any input must produce Ok or a structured error, never a panic.
        let _ = parse_schema(&input, Dialect::Generic);
        let _ = parse_schema(&input, Dialect::MySql);
        let _ = parse_schema(&input, Dialect::Postgres);
    }
}
