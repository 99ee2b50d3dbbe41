//! The logical schema object model.
//!
//! This is the measurement construct of the study: relations, their typed
//! attributes, and primary-key participation. Tables keep their columns in
//! declaration order (order changes are not evolution events in the paper,
//! but the printer preserves them); lookups are case-insensitive, matching
//! SQL's treatment of unquoted identifiers.
//!
//! Every name is an [`Ident`]: original spelling plus a precomputed
//! case-folded key, which every case-insensitive match compares.

use crate::intern::Ident;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A parsed SQL data type: base name plus optional parameters, e.g.
/// `VARCHAR(255)`, `DECIMAL(10,2)`, `INT`, `ENUM('a','b')`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SqlType {
    /// Uppercased base type name, possibly multi-word (`DOUBLE PRECISION`).
    pub name: Ident,
    /// Raw parameter list text items, e.g. `["255"]`, `["10", "2"]`,
    /// `["'a'", "'b'"]` for enums. Interned: the handful of distinct
    /// parameter spellings a project uses (`10`, `2`, `255`, …) are shared
    /// idents, so re-parsing a parameterized column allocates only this
    /// exact-size vector on a warm interner.
    pub params: Vec<Ident>,
    /// Trailing modifiers that are part of the type in MySQL
    /// (`UNSIGNED`, `ZEROFILL`) — uppercased.
    pub modifiers: Vec<String>,
}

impl SqlType {
    /// A parameterless type.
    pub fn simple(name: &str) -> Self {
        Self {
            name: Ident::from(name.to_ascii_uppercase()),
            params: Vec::new(),
            modifiers: Vec::new(),
        }
    }

    /// A type with parameters, e.g. `SqlType::with_params("VARCHAR", &["255"])`.
    pub fn with_params(name: &str, params: &[&str]) -> Self {
        Self {
            name: Ident::from(name.to_ascii_uppercase()),
            params: params.iter().map(|s| Ident::new(s)).collect(),
            modifiers: Vec::new(),
        }
    }

    /// Two types are *equivalent* for evolution measurement if their base
    /// name, parameters, and modifiers match. (`INT` vs `INTEGER` and other
    /// alias pairs are normalized at parse time.)
    pub fn equivalent(&self, other: &SqlType) -> bool {
        self == other
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.params.is_empty() {
            write!(f, "({})", self.params.join(","))?;
        }
        for m in &self.modifiers {
            write!(f, " {m}")?;
        }
        Ok(())
    }
}

/// A column (attribute) of a table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Name as written (original case preserved).
    pub name: Ident,
    /// The declared SQL data type.
    pub sql_type: SqlType,
    /// The nullable.
    pub nullable: bool,
    /// Whether a DEFAULT clause is present (the expression itself is kept as
    /// raw text for printing; it does not participate in evolution metrics).
    pub default: Option<String>,
    /// MySQL AUTO_INCREMENT / Postgres SERIAL-derived identity flag.
    pub auto_increment: bool,
    /// Declared inline as `PRIMARY KEY` on the column.
    pub inline_primary_key: bool,
    /// Declared inline as `UNIQUE` on the column.
    pub unique: bool,
    /// COMMENT 'text' if present (MySQL).
    pub comment: Option<String>,
}

impl Column {
    /// A nullable column of the given type with no constraints.
    pub fn new(name: impl Into<Ident>, sql_type: SqlType) -> Self {
        Self {
            name: name.into(),
            sql_type,
            nullable: true,
            default: None,
            auto_increment: false,
            inline_primary_key: false,
            unique: false,
            comment: None,
        }
    }

    /// Case-insensitive name comparison key. Precomputed at [`Ident`]
    /// construction — this borrows; it never allocates.
    pub fn key(&self) -> &str {
        self.name.key()
    }
}

/// A table-level constraint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableConstraint {
    /// A table-level `PRIMARY KEY` constraint.
    PrimaryKey {
        /// The object name.
        name: Option<Ident>,
        /// The column names.
        columns: Vec<Ident>,
    },
    /// A `UNIQUE` constraint.
    Unique {
        /// The object name.
        name: Option<Ident>,
        /// The column names.
        columns: Vec<Ident>,
    },
    /// A `FOREIGN KEY` reference.
    ForeignKey(ForeignKey),
    /// CHECK constraints are retained as raw text (never diffed).
    /// The name, as written in the source.
    Check {
        /// The object name.
        name: Option<Ident>,
        /// The expr.
        expr: String,
    },
}

/// A foreign-key reference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    /// The name, as written in the source.
    pub name: Option<Ident>,
    /// The referenced column names.
    pub columns: Vec<Ident>,
    /// The foreign table.
    pub foreign_table: Ident,
    /// The foreign columns.
    pub foreign_columns: Vec<Ident>,
    /// Raw text of ON DELETE / ON UPDATE actions, if any.
    pub actions: Vec<String>,
}

/// A secondary index (MySQL `KEY`/`INDEX` entries and `CREATE INDEX`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexDef {
    /// The name, as written in the source.
    pub name: Option<Ident>,
    /// The referenced column names.
    pub columns: Vec<Ident>,
    /// The unique.
    pub unique: bool,
}

/// A relation: named, with ordered typed attributes and constraints.
///
/// Schemas hold tables as `Arc<Table>`, so a table that several versions
/// (or a statement memo and a schema) have in common is one value; it is
/// copied only when one of them changes it. A parsed table holds only what
/// it uses: its vectors are exactly as long as their contents (the schema
/// builder trims any that a later statement of its version grew).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Name as written (original case preserved); schema-qualified prefixes
    /// (`public.`) are stripped at parse time.
    pub name: Ident,
    /// The referenced column names.
    pub columns: Vec<Column>,
    /// The constraints.
    pub constraints: Vec<TableConstraint>,
    /// The indexes.
    pub indexes: Vec<IndexDef>,
}

impl Table {
    /// Construct a new instance.
    pub fn new(name: impl Into<Ident>) -> Self {
        Self {
            name: name.into(),
            columns: Vec::new(),
            constraints: Vec::new(),
            indexes: Vec::new(),
        }
    }

    /// Case-insensitive name comparison key. Precomputed at [`Ident`]
    /// construction — this borrows; it never allocates.
    pub fn key(&self) -> &str {
        self.name.key()
    }

    /// Look up a column case-insensitively.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Mutable case-insensitive column lookup.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut Column> {
        self.columns.iter_mut().find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The effective primary-key column names (lowercased), merging inline
    /// `PRIMARY KEY` column flags and table-level PRIMARY KEY constraints.
    pub fn primary_key(&self) -> Vec<String> {
        let mut pk: Vec<String> = self
            .columns
            .iter()
            .filter(|c| c.inline_primary_key)
            .map(|c| c.key().to_string())
            .collect();
        for constraint in &self.constraints {
            if let TableConstraint::PrimaryKey { columns, .. } = constraint {
                for col in columns {
                    let k = col.key();
                    if !pk.iter().any(|p| p == k) {
                        pk.push(k.to_string());
                    }
                }
            }
        }
        pk
    }

    /// All foreign keys (table-level only; inline REFERENCES are promoted to
    /// table constraints by the parser).
    pub fn foreign_keys(&self) -> impl Iterator<Item = &ForeignKey> {
        self.constraints.iter().filter_map(|c| match c {
            TableConstraint::ForeignKey(fk) => Some(fk),
            _ => None,
        })
    }
}

/// A whole logical schema: an ordered collection of tables.
///
/// Tables are shared values: cloning a schema, or parsing a version whose
/// `CREATE TABLE` the previous version already held, shares the tables
/// instead of copying them. The `&mut` accessors copy a table on write
/// ([`Arc::make_mut`]) when another schema still holds it, so changing one
/// version never changes another. Equality compares a shared table by
/// pointer before comparing its contents.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// The tables, in creation order.
    pub tables: Vec<Arc<Table>>,
}

/// The canonical empty schema, shared by every history's creation delta.
static EMPTY_SCHEMA: Schema = Schema::new();

impl Schema {
    /// Construct a new instance.
    pub const fn new() -> Self {
        Self { tables: Vec::new() }
    }

    /// A schema holding the given tables.
    pub fn from_tables(tables: Vec<Arc<Table>>) -> Self {
        Self { tables }
    }

    /// A shared reference to the canonical empty schema — avoids allocating
    /// a sentinel per diff/history.
    pub fn empty_ref() -> &'static Schema {
        &EMPTY_SCHEMA
    }

    /// Look up a table case-insensitively.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name.eq_ignore_ascii_case(name)).map(|t| &**t)
    }

    /// Mutable case-insensitive table lookup. A table another schema still
    /// shares is copied first, so the change stays in this schema.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        let t = self.tables.iter_mut().find(|t| t.name.eq_ignore_ascii_case(name))?;
        Some(Arc::make_mut(t))
    }

    /// Remove a table by name (case-insensitive); returns it if present.
    pub fn remove_table(&mut self, name: &str) -> Option<Arc<Table>> {
        let idx = self.tables.iter().position(|t| t.name.eq_ignore_ascii_case(name))?;
        Some(self.tables.remove(idx))
    }

    /// Total number of attributes across all tables — the paper's measure of
    /// schema size.
    pub fn attribute_count(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// True if the schema defines no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn users_table() -> Table {
        let mut t = Table::new("Users");
        let mut id = Column::new("id", SqlType::simple("int"));
        id.inline_primary_key = true;
        id.nullable = false;
        t.columns.push(id);
        t.columns.push(Column::new("email", SqlType::with_params("varchar", &["255"])));
        t
    }

    #[test]
    fn sql_type_display() {
        assert_eq!(SqlType::simple("int").to_string(), "INT");
        assert_eq!(SqlType::with_params("varchar", &["255"]).to_string(), "VARCHAR(255)");
        let mut t = SqlType::with_params("decimal", &["10", "2"]);
        t.modifiers.push("UNSIGNED".into());
        assert_eq!(t.to_string(), "DECIMAL(10,2) UNSIGNED");
    }

    #[test]
    fn case_insensitive_lookups() {
        let mut s = Schema::new();
        s.tables.push(users_table().into());
        assert!(s.table("users").is_some());
        assert!(s.table("USERS").is_some());
        assert!(s.table("nope").is_none());
        let t = s.table("users").unwrap();
        assert!(t.column("EMAIL").is_some());
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn primary_key_merges_inline_and_table_level() {
        let mut t = users_table();
        assert_eq!(t.primary_key(), vec!["id".to_string()]);
        t.constraints
            .push(TableConstraint::PrimaryKey { name: None, columns: vec!["email".into()] });
        assert_eq!(t.primary_key(), vec!["id".to_string(), "email".to_string()]);
    }

    #[test]
    fn primary_key_dedupes() {
        let mut t = users_table();
        t.constraints
            .push(TableConstraint::PrimaryKey { name: None, columns: vec!["ID".into()] });
        assert_eq!(t.primary_key(), vec!["id".to_string()]);
    }

    #[test]
    fn remove_table_returns_removed() {
        let mut s = Schema::new();
        s.tables.push(users_table().into());
        let removed = s.remove_table("USERS").unwrap();
        assert_eq!(removed.name, "Users");
        assert!(s.is_empty());
        assert!(s.remove_table("users").is_none());
    }

    #[test]
    fn attribute_count_sums_tables() {
        let mut s = Schema::new();
        s.tables.push(users_table().into());
        s.tables.push(users_table().into());
        assert_eq!(s.attribute_count(), 4);
    }

    #[test]
    fn mut_accessors_copy_a_shared_table() {
        let mut s = Schema::new();
        s.tables.push(users_table().into());
        let before = s.clone();
        s.table_mut("users").unwrap().column_mut("email").unwrap().nullable = false;
        assert!(!Arc::ptr_eq(&before.tables[0], &s.tables[0]));
        assert_ne!(before, s);
        assert!(before.tables[0].columns[1].nullable);

        let mut s2 = before.clone();
        s2.remove_table("users");
        assert!(s2.is_empty());
        assert_eq!(before.tables.len(), 1);
    }

    #[test]
    fn empty_ref_is_shared_and_empty() {
        let e = Schema::empty_ref();
        assert!(e.is_empty());
        assert!(std::ptr::eq(Schema::empty_ref(), e));
        assert_eq!(*e, Schema::new());
    }

    #[test]
    fn foreign_keys_iterates_only_fks() {
        let mut t = users_table();
        t.constraints.push(TableConstraint::Check { name: None, expr: "id > 0".into() });
        t.constraints.push(TableConstraint::ForeignKey(ForeignKey {
            name: None,
            columns: vec!["email".into()],
            foreign_table: "emails".into(),
            foreign_columns: vec!["addr".into()],
            actions: vec![],
        }));
        assert_eq!(t.foreign_keys().count(), 1);
    }

    #[test]
    fn column_key_borrows_precomputed_fold() {
        let c = Column::new("UserName", SqlType::simple("INT"));
        assert_eq!(c.key(), "username");
        // Same pointer every call: the key is precomputed, not rebuilt.
        assert!(std::ptr::eq(c.key(), c.key()));
    }
}
