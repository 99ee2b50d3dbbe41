//! Rendering a [`Schema`] back to SQL text.
//!
//! Used by the corpus generator (which evolves schemas as model objects and
//! must emit DDL *files* for the pipeline to parse) and for round-trip
//! testing of the parser. Output is dialect-flavored only in identifier
//! quoting; the type names are the canonical ones of the model.

use crate::dialect::Dialect;
use crate::model::{Column, IndexDef, Schema, Table, TableConstraint};
use std::fmt::Write as _;

/// Render a full schema as a sequence of `CREATE TABLE` statements.
pub fn print_schema(schema: &Schema, dialect: Dialect) -> String {
    let mut out = String::new();
    for (i, table) in schema.tables.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_table(&mut out, table, dialect);
    }
    out
}

fn quote(name: &str, dialect: Dialect) -> String {
    match dialect {
        Dialect::MySql => format!("`{name}`"),
        Dialect::Postgres | Dialect::Generic => {
            // Quote only when necessary: non-lowercase or non-identifier chars.
            let needs = name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                || name.chars().next().is_some_and(|c| c.is_ascii_digit());
            if needs {
                format!("\"{name}\"")
            } else {
                name.to_string()
            }
        }
    }
}

fn print_table(out: &mut String, table: &Table, dialect: Dialect) {
    let _ = writeln!(out, "CREATE TABLE {} (", quote(&table.name, dialect));
    let mut lines: Vec<String> = Vec::new();
    for col in &table.columns {
        lines.push(format!("  {}", column_line(col, dialect)));
    }
    for c in &table.constraints {
        lines.push(format!("  {}", constraint_line(c, dialect)));
    }
    for idx in &table.indexes {
        if dialect == Dialect::MySql {
            lines.push(format!("  {}", index_line(idx, dialect)));
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n);\n");
    // Postgres renders secondary indexes as separate statements.
    if dialect != Dialect::MySql {
        for idx in &table.indexes {
            let cols: Vec<String> = idx.columns.iter().map(|c| quote(c, dialect)).collect();
            let uniq = if idx.unique { "UNIQUE " } else { "" };
            let name = idx
                .name
                .as_deref()
                .map(str::to_string)
                .unwrap_or_else(|| format!("idx_{}_{}", table.name, idx.columns.join("_")));
            let _ = writeln!(
                out,
                "CREATE {uniq}INDEX {} ON {} ({});",
                quote(&name, dialect),
                quote(&table.name, dialect),
                cols.join(", ")
            );
        }
    }
}

fn column_line(col: &Column, dialect: Dialect) -> String {
    let mut s = format!("{} {}", quote(&col.name, dialect), col.sql_type);
    if !col.nullable {
        s.push_str(" NOT NULL");
    }
    if let Some(d) = &col.default {
        let _ = write!(s, " DEFAULT {d}");
    }
    if col.auto_increment {
        s.push_str(match dialect {
            Dialect::MySql => " AUTO_INCREMENT",
            _ => " GENERATED BY DEFAULT AS IDENTITY",
        });
    }
    if col.inline_primary_key {
        s.push_str(" PRIMARY KEY");
    }
    if col.unique {
        s.push_str(" UNIQUE");
    }
    if let Some(c) = &col.comment {
        let escaped = c.replace('\'', "''");
        let _ = write!(s, " COMMENT '{escaped}'");
    }
    s
}

fn constraint_line(c: &TableConstraint, dialect: Dialect) -> String {
    match c {
        TableConstraint::PrimaryKey { name, columns } => {
            let cols: Vec<String> = columns.iter().map(|c| quote(c, dialect)).collect();
            match name {
                Some(n) => format!(
                    "CONSTRAINT {} PRIMARY KEY ({})",
                    quote(n, dialect),
                    cols.join(", ")
                ),
                None => format!("PRIMARY KEY ({})", cols.join(", ")),
            }
        }
        TableConstraint::Unique { name, columns } => {
            let cols: Vec<String> = columns.iter().map(|c| quote(c, dialect)).collect();
            match name {
                Some(n) => {
                    format!("CONSTRAINT {} UNIQUE ({})", quote(n, dialect), cols.join(", "))
                }
                None => format!("UNIQUE ({})", cols.join(", ")),
            }
        }
        TableConstraint::ForeignKey(fk) => {
            let cols: Vec<String> = fk.columns.iter().map(|c| quote(c, dialect)).collect();
            let fcols: Vec<String> =
                fk.foreign_columns.iter().map(|c| quote(c, dialect)).collect();
            let mut s = String::new();
            if let Some(n) = &fk.name {
                let _ = write!(s, "CONSTRAINT {} ", quote(n, dialect));
            }
            let _ = write!(
                s,
                "FOREIGN KEY ({}) REFERENCES {}",
                cols.join(", "),
                quote(&fk.foreign_table, dialect)
            );
            if !fcols.is_empty() {
                let _ = write!(s, " ({})", fcols.join(", "));
            }
            for a in &fk.actions {
                let _ = write!(s, " {a}");
            }
            s
        }
        TableConstraint::Check { name, expr } => match name {
            Some(n) => format!("CONSTRAINT {} CHECK {expr}", quote(n, dialect)),
            None => format!("CHECK {expr}"),
        },
    }
}

fn index_line(idx: &IndexDef, dialect: Dialect) -> String {
    let cols: Vec<String> = idx.columns.iter().map(|c| quote(c, dialect)).collect();
    let kw = if idx.unique { "UNIQUE KEY" } else { "KEY" };
    match &idx.name {
        Some(n) => format!("{kw} {} ({})", quote(n, dialect), cols.join(", ")),
        None => format!("{kw} ({})", cols.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SqlType;
    use crate::parser::parse_schema;

    fn round_trip(sql: &str, dialect: Dialect) -> Schema {
        let s1 = parse_schema(sql, dialect).unwrap();
        let printed = print_schema(&s1, dialect);
        parse_schema(&printed, dialect)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n--- printed ---\n{printed}"))
    }

    #[test]
    fn round_trip_mysql() {
        let sql = r#"
            CREATE TABLE `orders` (
              `id` int unsigned NOT NULL AUTO_INCREMENT,
              `total` decimal(10,2) NOT NULL DEFAULT '0.00',
              `state` enum('a','b') DEFAULT 'a',
              PRIMARY KEY (`id`),
              UNIQUE KEY `u1` (`total`),
              KEY `k1` (`state`)
            );
        "#;
        let s1 = parse_schema(sql, Dialect::MySql).unwrap();
        let s2 = round_trip(sql, Dialect::MySql);
        assert_eq!(s1, s2);
    }

    #[test]
    fn round_trip_postgres() {
        let sql = r#"
            CREATE TABLE accounts (
              id bigserial PRIMARY KEY,
              email varchar(255) NOT NULL UNIQUE,
              created timestamptz DEFAULT now(),
              CONSTRAINT ck CHECK (id > 0)
            );
            CREATE INDEX idx_email ON accounts (email);
        "#;
        let s1 = parse_schema(sql, Dialect::Postgres).unwrap();
        let s2 = round_trip(sql, Dialect::Postgres);
        // Auto-increment round-trips through GENERATED … IDENTITY.
        assert_eq!(
            s1.table("accounts").unwrap().columns,
            s2.table("accounts").unwrap().columns
        );
        assert_eq!(s2.table("accounts").unwrap().indexes.len(), 1);
    }

    #[test]
    fn round_trip_foreign_keys() {
        let sql = "CREATE TABLE a (x INT, CONSTRAINT fk FOREIGN KEY (x) REFERENCES b (y) ON DELETE CASCADE);";
        let s1 = parse_schema(sql, Dialect::MySql).unwrap();
        let s2 = round_trip(sql, Dialect::MySql);
        assert_eq!(s1, s2);
    }

    #[test]
    fn quoting_rules_postgres() {
        assert_eq!(quote("users", Dialect::Postgres), "users");
        assert_eq!(quote("User", Dialect::Postgres), "\"User\"");
        assert_eq!(quote("2fa", Dialect::Postgres), "\"2fa\"");
        assert_eq!(quote("a-b", Dialect::Postgres), "\"a-b\"");
    }

    #[test]
    fn comment_with_quote_escapes() {
        let mut t = Table::new("t");
        let mut c = Column::new("a", SqlType::simple("INT"));
        c.comment = Some("it's".into());
        t.columns.push(c);
        let mut s = Schema::new();
        s.tables.push(t.into());
        let printed = print_schema(&s, Dialect::MySql);
        assert!(printed.contains("COMMENT 'it''s'"), "{printed}");
        // And it re-parses.
        let s2 = parse_schema(&printed, Dialect::MySql).unwrap();
        assert_eq!(s2.table("t").unwrap().columns[0].comment.as_deref(), Some("it's"));
    }

    #[test]
    fn empty_schema_prints_empty() {
        assert_eq!(print_schema(&Schema::new(), Dialect::MySql), "");
    }
}
