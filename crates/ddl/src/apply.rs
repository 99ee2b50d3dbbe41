//! Applying parsed statements to a [`Schema`] to obtain the final logical
//! schema a script defines.
//!
//! Real dump files routinely `DROP TABLE IF EXISTS t; CREATE TABLE t (…)`,
//! re-create tables, and `ALTER` tables created earlier in the same file, so
//! application is deliberately permissive: re-creating an existing table
//! replaces it, and ALTER/DROP of unknown objects is an error only when the
//! statement did not carry an `IF EXISTS`-style guard.

use crate::error::{ParseError, ParseErrorKind, Result};
use crate::model::{Schema, Table, TableConstraint};
use crate::parser::{AlterOp, Statement};

/// Apply a sequence of statements to an empty schema. Statements are
/// consumed: `CREATE TABLE`, `CREATE INDEX` and the ALTER ops *move* their
/// payload into the schema instead of deep-cloning it.
pub fn apply_statements(stmts: Vec<Statement>) -> Result<Schema> {
    let mut schema = Schema::new();
    for stmt in stmts {
        apply_one(&mut schema, stmt)?;
    }
    Ok(schema)
}

/// Apply one statement to an existing schema.
pub fn apply_one(schema: &mut Schema, stmt: Statement) -> Result<()> {
    match stmt {
        Statement::CreateTable { table, if_not_exists } => {
            if schema.table(&table.name).is_some() {
                if if_not_exists {
                    return Ok(());
                }
                // Permissive: dumps re-create tables; last definition wins.
                schema.remove_table(&table.name);
            }
            schema.unseal();
            schema.tables.push(table);
            Ok(())
        }
        Statement::DropTable { names, if_exists } => {
            for name in names {
                if schema.remove_table(&name).is_none() && !if_exists {
                    return Err(no_pos(ParseErrorKind::UnknownTable(name.to_string())));
                }
            }
            Ok(())
        }
        Statement::AlterTable { table, ops } => {
            let Some(t) = schema.table_mut(&table) else {
                // Tolerate ALTERs of never-created tables (partial dumps).
                return Ok(());
            };
            for op in ops {
                apply_alter(t, op)?;
            }
            Ok(())
        }
        Statement::CreateIndex { table, index } => {
            if let Some(t) = schema.table_mut(&table) {
                t.indexes.push(index);
            }
            Ok(())
        }
        Statement::RenameTable { renames } => {
            for (from, to) in renames {
                if let Some(t) = schema.table_mut(&from) {
                    t.name = to;
                }
            }
            Ok(())
        }
        Statement::Skipped { .. } => Ok(()),
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
    fn duplicate_add_column_is_idempotent() {
        let s = schema_of(
            "CREATE TABLE t (a INT); ALTER TABLE t ADD COLUMN a INT; ALTER TABLE t ADD b INT;",
        );
        assert_eq!(s.table("t").unwrap().columns.len(), 2);
    }
}
