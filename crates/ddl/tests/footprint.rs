//! What a parsed table holds: one-pointer identifiers, columns of at most
//! 120 bytes, and vectors exactly as long as their contents, through
//! `parse_schema` and through `ParseCache`, on real dumps and on a generated
//! history whose `ALTER`s and `CREATE INDEX`es grow tables after they are
//! created. Interned and uninterned identifiers of one spelling behave as
//! that spelling's `str` does, whatever its case or script.

use coevo_ddl::{parse_schema, Column, Dialect, Ident, Interner, ParseCache, Schema};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

#[test]
fn identifiers_are_one_pointer_and_columns_fit_120_bytes() {
    assert_eq!(std::mem::size_of::<Ident>(), 8);
    assert!(std::mem::size_of::<Column>() <= 120, "{}", std::mem::size_of::<Column>());
}

/// Every table of `schema` holds vectors of exactly their length.
fn assert_exact(schema: &Schema, what: &str) {
    for t in &schema.tables {
        let lens = [
            (t.columns.len(), t.columns.capacity()),
            (t.constraints.len(), t.constraints.capacity()),
            (t.indexes.len(), t.indexes.capacity()),
        ];
        assert!(lens.iter().all(|(len, cap)| len == cap), "{what}: {} {lens:?}", t.name);
    }
}

/// Parse `versions` in order, fresh and through one memo, checking both;
/// returns how many parsed.
fn check_history(versions: &[String], dialect: Dialect) -> usize {
    let mut cache = ParseCache::new();
    let mut parsed = 0;
    for (i, text) in versions.iter().enumerate() {
        match (parse_schema(text, dialect), cache.parse(text, dialect)) {
            (Ok(fresh), Ok(memo)) => {
                assert_exact(&fresh, &format!("fresh parse of version {i}"));
                assert_exact(&memo, &format!("memo parse of version {i}"));
                assert_eq!(*memo, fresh);
                parsed += 1;
            }
            (Err(fresh), Err(memo)) => assert_eq!(fresh, memo),
            (fresh, memo) => panic!("version {i}: fresh {fresh:?}, memo {memo:?}"),
        }
    }
    parsed
}

#[test]
fn tables_of_real_dumps_hold_exact_vectors() {
    let dumps = [
        (include_str!("fixtures/blog_mysql.sql"), Dialect::MySql),
        (include_str!("fixtures/tracker_postgres.sql"), Dialect::Postgres),
        (include_str!("fixtures/wiki_mysql.sql"), Dialect::MySql),
    ];
    for (dump, dialect) in dumps {
        // Each prefix that ends a line on `;`, as a history (a prefix that
        // ends inside a function body fails both ways).
        let ends = dump.match_indices(";\n").map(|(i, _)| i + 2);
        let versions: Vec<String> = ends.map(|end| dump[..end].to_string()).collect();
        assert!(check_history(&versions, dialect) > 3);
    }
}

/// A project history: tables gain columns version by version, and later
/// statements of a version alter, index and rename tables it created.
fn generated_history(versions: usize) -> Vec<String> {
    (0..versions)
        .map(|v| {
            let mut sql = String::new();
            for t in 0..6 {
                let width = 1 + (v + t) % 7 + v / 4;
                sql.push_str(&format!("CREATE TABLE t{t} (\n  id INT NOT NULL,\n"));
                for c in 0..width {
                    let ty = ["INT", "VARCHAR(40)", "DECIMAL(10,2)", "TEXT"][(c + t) % 4];
                    sql.push_str(&format!("  c{c} {ty},\n"));
                }
                sql.push_str("  PRIMARY KEY (id)\n);\n");
            }
            for k in 0..v % 4 {
                sql.push_str(&format!("ALTER TABLE t{k} ADD COLUMN extra{v} INT;\n"));
                sql.push_str(&format!("CREATE INDEX i{k}_{v} ON t{k} (c0);\n"));
                sql.push_str(&format!("ALTER TABLE t{k} ADD CONSTRAINT u{v} UNIQUE (c0);\n"));
            }
            if v % 5 == 4 {
                sql.push_str("ALTER TABLE t5 RENAME TO t5_old;\n");
            }
            sql
        })
        .collect()
}

#[test]
fn tables_of_a_generated_history_hold_exact_vectors() {
    assert_eq!(check_history(&generated_history(40), Dialect::MySql), 40);
}

/// The std hash of a value.
fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interned_and_uninterned_idents_behave_like_their_text(
        a in "([a-zA-Z_0-9]|[à-ÿ]|[À-Þ]|[α-ω]|\\PC){0,12}",
        b in "([a-zA-Z]|[À-Þ]|\\PC){0,6}",
    ) {
        let interner = Interner::new();
        let interned = interner.ident(&a);
        let plain = Ident::new(&a);
        prop_assert_eq!(&interned, &plain);
        prop_assert_eq!(interned.as_str(), a.as_str());
        prop_assert_eq!(&*plain, a.as_str());
        prop_assert_eq!(interned.key(), a.to_ascii_lowercase());
        prop_assert_eq!(plain.key(), interned.key());
        prop_assert_eq!(hash_of(&interned), hash_of(a.as_str()));
        prop_assert_eq!(hash_of(&plain), hash_of(a.as_str()));
        let other = interner.ident(&b);
        prop_assert_eq!(interned.cmp(&other), a.as_str().cmp(b.as_str()));
        prop_assert_eq!(plain.cmp(&Ident::new(&b)), a.as_str().cmp(b.as_str()));
        prop_assert_eq!(interned.symbol() == other.symbol(), a.eq_ignore_ascii_case(&b));
        for ident in [&interned, &plain] {
            let value = serde::Serialize::to_value(ident);
            prop_assert_eq!(&value, &serde::Value::Str(a.clone()));
            let back: Ident = serde::Deserialize::from_value(&value).expect("ident");
            prop_assert_eq!(&back, ident);
            prop_assert_eq!(back.interner_id(), 0);
            prop_assert_eq!(back.key(), ident.key());
        }
    }
}
