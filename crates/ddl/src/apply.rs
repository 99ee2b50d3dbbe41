//! Applying parsed statements to a [`Schema`] to obtain the final logical
//! schema a script defines.
//!
//! Real dump files routinely `DROP TABLE IF EXISTS t; CREATE TABLE t (…)`,
//! re-create tables, and `ALTER` tables created earlier in the same file, so
//! application is deliberately permissive: re-creating an existing table
//! replaces it, and ALTER/DROP of unknown objects is an error only when the
//! statement did not carry an `IF EXISTS`-style guard.

use crate::error::{ParseError, ParseErrorKind, Result};
use crate::intern::{FoldKey, Ident};
use crate::model::{Schema, Table, TableConstraint};
use crate::parser::{AlterOp, Statement};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Apply a sequence of statements to an empty schema. Statements are
/// consumed: `CREATE TABLE` hands its shared table to the schema, and
/// `CREATE INDEX` and the ALTER ops *move* their payload into it. A table
/// is copied only when a statement changes it while something else (a
/// statement memo, another schema) still holds it.
pub fn apply_statements(stmts: Vec<Statement>) -> Result<Schema> {
    let creates = stmts.iter().filter(|s| matches!(s, Statement::CreateTable { .. })).count();
    let mut builder = SchemaBuilder::default();
    builder.reserve(creates);
    for stmt in stmts {
        builder.apply(stmt)?;
    }
    Ok(builder.finish())
}

/// A schema under construction: its tables in creation order and an index
/// from case-folded table name to position, so each statement finds its
/// table in O(1) amortized instead of by a scan of the tables — a
/// `DROP TABLE IF EXISTS t; CREATE TABLE t (…)` dump applies in time
/// linear in its table count. Lookups match the first table of a name, as
/// a scan would. [`SchemaBuilder::finish`] hands the tables over and leaves
/// the builder empty, keeping the index's storage for the next version.
#[derive(Default)]
pub(crate) struct SchemaBuilder {
    /// Tables in creation order; a dropped table leaves a hole.
    slots: Vec<Option<Arc<Table>>>,
    /// Folded name → the first slot holding a live table of that name.
    /// Table names come from the dump, so the map keeps std's seeded hasher
    /// against names crafted to collide.
    index: HashMap<FoldKey, usize>,
    /// Live tables that are not the first of their name (only a rename onto
    /// an existing name makes one).
    shadowed: usize,
}

#[cfg(test)]
thread_local! {
    /// Index lookups and slots scanned by every builder on this thread.
    static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count `n` table probes; tests read the count to pin the builder's work.
#[cfg(test)]
fn probed(n: usize) {
    PROBES.with(|p| p.set(p.get() + n as u64));
}

#[cfg(not(test))]
fn probed(_: usize) {}

impl SchemaBuilder {
    /// Forget everything applied so far (after a failed version).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.shadowed = 0;
    }

    /// Room for `tables` more tables, so the schema's table vector is
    /// allocated once.
    pub(crate) fn reserve(&mut self, tables: usize) {
        self.slots.reserve(tables);
        self.index.reserve(tables);
    }

    /// The applied tables as a schema; the builder is left empty. A table
    /// that a statement of this version grew is this version's own copy,
    /// and is trimmed to hold exactly its contents.
    pub(crate) fn finish(&mut self) -> Schema {
        let mut slots = std::mem::take(&mut self.slots);
        slots.retain(Option::is_some);
        // Collected in place: `Option<Arc<Table>>` is laid out like
        // `Arc<Table>`.
        let mut tables: Vec<Arc<Table>> =
            slots.into_iter().map(|t| t.expect("retained")).collect();
        for t in &mut tables {
            let slack = t.columns.capacity() > t.columns.len()
                || t.constraints.capacity() > t.constraints.len()
                || t.indexes.capacity() > t.indexes.len();
            if slack {
                let t = Arc::make_mut(t);
                t.columns.shrink_to_fit();
                t.constraints.shrink_to_fit();
                t.indexes.shrink_to_fit();
            }
        }
        self.clear();
        Schema::from_tables(tables)
    }

    /// Apply one statement.
    pub(crate) fn apply(&mut self, stmt: Statement) -> Result<()> {
        match stmt {
            Statement::CreateTable { table, if_not_exists } => {
                if self.find(table.key()).is_some() {
                    if if_not_exists {
                        return Ok(());
                    }
                    // Permissive: dumps re-create tables; last definition wins.
                    self.remove(table.key());
                }
                self.link(FoldKey(table.name.clone()), self.slots.len());
                self.slots.push(Some(table));
                Ok(())
            }
            Statement::DropTable { names, if_exists } => {
                for name in names {
                    if self.remove(name.key()).is_none() && !if_exists {
                        return Err(no_pos(ParseErrorKind::UnknownTable(name.to_string())));
                    }
                }
                Ok(())
            }
            Statement::AlterTable { table, ops } => {
                // Tolerate ALTERs of never-created tables (partial dumps).
                if let Some(at) = self.find(table.key()) {
                    let t = self.table_at(at);
                    let old = t.name.clone();
                    for op in ops {
                        apply_alter(t, op)?;
                    }
                    self.relink(&old, at);
                }
                Ok(())
            }
            Statement::CreateIndex { table, index } => {
                if let Some(at) = self.find(table.key()) {
                    self.table_at(at).indexes.push(index);
                }
                Ok(())
            }
            Statement::RenameTable { renames } => {
                for (from, to) in renames {
                    if let Some(at) = self.find(from.key()) {
                        let t = self.table_at(at);
                        let old = std::mem::replace(&mut t.name, to);
                        self.relink(&old, at);
                    }
                }
                Ok(())
            }
            Statement::Skipped { .. } => Ok(()),
        }
    }

    /// The slot of the first live table named `key`.
    fn find(&self, key: &str) -> Option<usize> {
        probed(1);
        self.index.get(key).copied()
    }

    /// The live table in slot `at`, for the caller to change. A table
    /// something else still holds is copied first.
    fn table_at(&mut self, at: usize) -> &mut Table {
        Arc::make_mut(self.slots[at].as_mut().expect("found slots are live"))
    }

    /// Remove the first table named `key`.
    fn remove(&mut self, key: &str) -> Option<Arc<Table>> {
        let at = self.find(key)?;
        let table = self.slots[at].take();
        self.unlink(key, at);
        table
    }

    /// Index slot `at` under `key`.
    fn link(&mut self, key: FoldKey, at: usize) {
        match self.index.entry(key) {
            Entry::Vacant(e) => {
                e.insert(at);
            }
            Entry::Occupied(mut e) => {
                self.shadowed += 1;
                if at < *e.get() {
                    e.insert(at);
                }
            }
        }
    }

    /// Drop slot `at`'s entry under `key`, promoting the next live table of
    /// that name, if any.
    fn unlink(&mut self, key: &str, at: usize) {
        if self.index.get(key) != Some(&at) {
            self.shadowed -= 1;
            return;
        }
        let next = (self.shadowed > 0)
            .then(|| {
                let later = &self.slots[at + 1..];
                probed(later.len());
                let found =
                    later.iter().position(|t| t.as_ref().is_some_and(|t| t.key() == key));
                found.map(|i| at + 1 + i)
            })
            .flatten();
        match next {
            Some(i) => {
                self.shadowed -= 1;
                *self.index.get_mut(key).expect("indexed above") = i;
            }
            None => {
                self.index.remove(key);
            }
        }
    }

    /// Re-index slot `at`, indexed under `old`'s key, after a possible
    /// rename.
    fn relink(&mut self, old: &Ident, at: usize) {
        let new = &self.slots[at].as_ref().expect("found slots are live").name;
        if new.key() != old.key() {
            let new = FoldKey(new.clone());
            self.unlink(old.key(), at);
            self.link(new, at);
        }
    }
}

fn apply_alter(t: &mut Table, op: AlterOp) -> Result<()> {
    match op {
        AlterOp::AddColumn(col) => {
            if t.column(&col.name).is_none() {
                t.columns.push(col);
            }
            Ok(())
        }
        AlterOp::DropColumn(name) => {
            if let Some(idx) = t.columns.iter().position(|c| c.name.eq_ignore_ascii_case(&name))
            {
                t.columns.remove(idx);
            }
            Ok(())
        }
        AlterOp::ModifyColumn(new) => {
            if let Some(c) = t.column_mut(&new.name) {
                *c = new;
            }
            Ok(())
        }
        AlterOp::ChangeColumn { old_name, new } => {
            if let Some(c) = t.column_mut(&old_name) {
                *c = new;
            }
            Ok(())
        }
        AlterOp::SetColumnType { column, sql_type } => {
            if let Some(c) = t.column_mut(&column) {
                c.sql_type = sql_type;
            }
            Ok(())
        }
        AlterOp::SetColumnNotNull { column, not_null } => {
            if let Some(c) = t.column_mut(&column) {
                c.nullable = !not_null;
            }
            Ok(())
        }
        AlterOp::SetColumnDefault { column, default } => {
            if let Some(c) = t.column_mut(&column) {
                c.default = default;
            }
            Ok(())
        }
        AlterOp::RenameColumn { old_name, new_name } => {
            if let Some(c) = t.column_mut(&old_name) {
                c.name = new_name;
            }
            Ok(())
        }
        AlterOp::RenameTable { new_name } => {
            t.name = new_name;
            Ok(())
        }
        AlterOp::AddConstraint(c) => {
            t.constraints.push(c);
            Ok(())
        }
        AlterOp::DropPrimaryKey => {
            t.constraints.retain(|c| !matches!(c, TableConstraint::PrimaryKey { .. }));
            for col in &mut t.columns {
                col.inline_primary_key = false;
            }
            Ok(())
        }
        AlterOp::DropConstraint(name) => {
            t.constraints.retain(|c| {
                let cname = match c {
                    TableConstraint::PrimaryKey { name, .. }
                    | TableConstraint::Unique { name, .. }
                    | TableConstraint::Check { name, .. } => name.as_deref(),
                    TableConstraint::ForeignKey(fk) => fk.name.as_deref(),
                };
                cname.is_none_or(|n| !n.eq_ignore_ascii_case(&name))
            });
            t.indexes
                .retain(|i| i.name.as_deref().is_none_or(|n| !n.eq_ignore_ascii_case(&name)));
            Ok(())
        }
        AlterOp::AddIndex(idx) => {
            t.indexes.push(idx);
            Ok(())
        }
        AlterOp::Ignored => Ok(()),
    }
}

fn no_pos(kind: ParseErrorKind) -> ParseError {
    ParseError::new(kind, 0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;
    use crate::parser::parse_statements;

    fn schema_of(sql: &str) -> Schema {
        apply_statements(parse_statements(sql, Dialect::Generic).unwrap()).unwrap()
    }

    #[test]
    fn create_then_alter() {
        let s = schema_of(
            "CREATE TABLE t (a INT); \
             ALTER TABLE t ADD COLUMN b VARCHAR(10), DROP COLUMN a;",
        );
        let t = s.table("t").unwrap();
        assert_eq!(t.columns.len(), 1);
        assert_eq!(t.columns[0].name, "b");
    }

    #[test]
    fn drop_create_pattern() {
        let s = schema_of(
            "DROP TABLE IF EXISTS t; \
             CREATE TABLE t (a INT); \
             DROP TABLE IF EXISTS t; \
             CREATE TABLE t (a INT, b INT);",
        );
        assert_eq!(s.table("t").unwrap().columns.len(), 2);
    }

    #[test]
    fn recreate_replaces() {
        let s = schema_of("CREATE TABLE t (a INT); CREATE TABLE t (b INT, c INT);");
        assert_eq!(s.table("t").unwrap().columns.len(), 2);
    }

    #[test]
    fn if_not_exists_keeps_original() {
        let s =
            schema_of("CREATE TABLE t (a INT); CREATE TABLE IF NOT EXISTS t (b INT, c INT);");
        assert_eq!(s.table("t").unwrap().columns.len(), 1);
    }

    #[test]
    fn drop_unknown_without_guard_errors() {
        let stmts = parse_statements("DROP TABLE nope;", Dialect::Generic).unwrap();
        assert!(apply_statements(stmts).is_err());
    }

    #[test]
    fn drop_unknown_with_guard_ok() {
        let s = schema_of("DROP TABLE IF EXISTS nope;");
        assert!(s.is_empty());
    }

    #[test]
    fn alter_unknown_table_tolerated() {
        let s = schema_of("ALTER TABLE ghost ADD COLUMN a INT;");
        assert!(s.is_empty());
    }

    #[test]
    fn rename_table_and_column() {
        let s = schema_of(
            "CREATE TABLE t (a INT); \
             ALTER TABLE t RENAME COLUMN a TO b; \
             ALTER TABLE t RENAME TO s;",
        );
        assert!(s.table("t").is_none());
        assert_eq!(s.table("s").unwrap().columns[0].name, "b");
    }

    #[test]
    fn add_and_drop_primary_key() {
        let s = schema_of(
            "CREATE TABLE t (a INT PRIMARY KEY); \
             ALTER TABLE t DROP PRIMARY KEY; \
             ALTER TABLE t ADD CONSTRAINT pk PRIMARY KEY (a);",
        );
        let t = s.table("t").unwrap();
        assert_eq!(t.primary_key(), vec!["a".to_string()]);
        assert!(!t.columns[0].inline_primary_key);
    }

    #[test]
    fn drop_constraint_by_name() {
        let s = schema_of(
            "CREATE TABLE t (a INT, CONSTRAINT u UNIQUE (a)); \
             ALTER TABLE t DROP CONSTRAINT u;",
        );
        assert!(s.table("t").unwrap().constraints.is_empty());
    }

    #[test]
    fn create_index_attaches() {
        let s = schema_of("CREATE TABLE t (a INT); CREATE INDEX i ON t (a);");
        assert_eq!(s.table("t").unwrap().indexes.len(), 1);
    }

    #[test]
    fn modify_changes_type() {
        let s =
            schema_of("CREATE TABLE t (a INT); ALTER TABLE t MODIFY COLUMN a BIGINT NOT NULL;");
        let c = &s.table("t").unwrap().columns[0];
        assert_eq!(c.sql_type.name, "BIGINT");
        assert!(!c.nullable);
    }

    #[test]
    fn top_level_rename_table() {
        let s = schema_of(
            "CREATE TABLE a (x INT); CREATE TABLE b (y INT); RENAME TABLE a TO a2, b TO b2;",
        );
        assert!(s.table("a").is_none() && s.table("b").is_none());
        assert!(s.table("a2").is_some() && s.table("b2").is_some());
    }

    #[test]
    fn a_rename_onto_an_existing_name_resolves_to_the_first_table() {
        // With and without tables between the renamed ones.
        for fillers in [0, 20] {
            let filler: String =
                (0..fillers).map(|i| format!("CREATE TABLE f{i} (v INT); ")).collect();
            let s = schema_of(&format!(
                "CREATE TABLE a (x INT); CREATE TABLE b (y INT); {filler} \
                 RENAME TABLE a TO B; \
                 ALTER TABLE b ADD COLUMN z INT; \
                 CREATE INDEX i ON b (x); \
                 DROP TABLE b; \
                 ALTER TABLE B ADD COLUMN w INT; \
                 CREATE TABLE IF NOT EXISTS b (q INT); \
                 ALTER TABLE b RENAME TO c; \
                 CREATE TABLE b (q INT);"
            ));
            let names: Vec<&str> = s.tables.iter().map(|t| t.name.as_str()).collect();
            assert_eq!(names.len(), fillers + 2);
            assert_eq!((names[0], names[fillers + 1]), ("c", "b"));
            let cols = |t: &str| -> Vec<String> {
                s.table(t).unwrap().columns.iter().map(|c| c.name.to_string()).collect()
            };
            assert_eq!(cols("c"), ["y", "w"]);
            assert_eq!(cols("b"), ["q"]);
        }
    }

    /// A `mysqldump`-style dump of `n` tables, each dropped (absent) and
    /// then created under another case, with a trailing ALTER of the first
    /// table; `extra` names one more column of the last table, so two dumps
    /// can differ in one statement.
    fn dump(n: usize, extra: &str) -> String {
        let mut sql = String::new();
        for i in 0..n {
            let last = if i + 1 == n { extra } else { "" };
            sql.push_str(&format!(
                "DROP TABLE IF EXISTS `T{i}`;\nCREATE TABLE `t{i}` (id INT NOT NULL, name VARCHAR(20){last});\n"
            ));
        }
        sql.push_str("ALTER TABLE T0 ADD COLUMN note TEXT;\n");
        sql
    }

    /// Index lookups and slot scans the builders make in `f`.
    fn probes_of(f: impl FnOnce()) -> u64 {
        let before = PROBES.with(std::cell::Cell::get);
        f();
        PROBES.with(std::cell::Cell::get) - before
    }

    #[test]
    fn a_20000_table_dump_applies_in_linear_work() {
        let n = 20_000;
        let (a, b) = (dump(n, ""), dump(n, ", extra INT"));
        // One lookup per DROP, CREATE and ALTER: 2n + 1 per version. A scan
        // of the tables per statement makes about n * n / 2 = 2e8 probes.
        let fresh = probes_of(|| {
            let s = crate::parse_schema(&a, Dialect::MySql).expect("dump parses");
            assert_eq!(s.tables.len(), n);
            assert_eq!(s.tables[0].columns.len(), 3);
        });
        assert_eq!(fresh, 2 * n as u64 + 1);
        let memo = probes_of(|| {
            let mut cache = crate::ParseCache::new();
            cache.parse(&a, Dialect::MySql).expect("dump parses");
            let s = cache.parse(&b, Dialect::MySql).expect("changed dump parses");
            assert_eq!(s.tables[n - 1].columns.len(), 3);
        });
        assert!(memo <= 2 * (2 * n as u64 + 1), "{memo} probes for two versions");
    }

    #[test]
    fn duplicate_add_column_is_idempotent() {
        let s = schema_of(
            "CREATE TABLE t (a INT); ALTER TABLE t ADD COLUMN a INT; ALTER TABLE t ADD b INT;",
        );
        assert_eq!(s.table("t").unwrap().columns.len(), 2);
    }
}
