//! The logical schema object model.
//!
//! This is the measurement construct of the study: relations, their typed
//! attributes, and primary-key participation. Tables keep their columns in
//! declaration order (order changes are not evolution events in the paper,
//! but the printer preserves them); lookups are case-insensitive, matching
//! SQL's treatment of unquoted identifiers.
//!
//! Every name is an [`Ident`]: original spelling plus a precomputed
//! case-folded key, and — when the parse went through an [`Interner`]
//! (see [`crate::parse_schema_interned`]) — a [`Symbol`] so two schemas
//! parsed through the same interner can compare names as integers.
//!
//! [`Interner`]: crate::intern::Interner

use crate::fingerprint::{self, Fingerprint};
use crate::intern::{Ident, Symbol};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
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
    /// `Arc<str>`s, so re-parsing a parameterized column allocates nothing
    /// for its parameters on a warm interner.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexDef {
    /// The name, as written in the source.
    pub name: Option<Ident>,
    /// The referenced column names.
    pub columns: Vec<Ident>,
    /// The unique.
    pub unique: bool,
}

/// Sort `(key, declaration index)` pairs so a binary search can resolve a
/// key (a folded name or a symbol) to the *last* declaration carrying it,
/// as a map filled in declaration order would. One allocation, whatever
/// the number of keys.
fn build_index<K: Ord>(keys: impl ExactSizeIterator<Item = K>) -> Vec<(K, usize)> {
    let mut v: Vec<(K, usize)> = keys.enumerate().map(|(i, k)| (k, i)).collect();
    v.sort_unstable();
    v
}

/// Last declaration index carrying `key`, if any.
fn index_lookup<K: Borrow<Q>, Q: Ord + ?Sized>(v: &[(K, usize)], key: &Q) -> Option<usize> {
    let end = v.partition_point(|(k, _)| k.borrow() <= key);
    match v.get(end.wrapping_sub(1)) {
        Some((k, i)) if k.borrow() == key => Some(*i),
        _ => None,
    }
}

/// The shared interner id of a sequence of idents: nonzero only when every
/// ident was interned and all by the same interner. `empty_default` is used
/// for an empty sequence.
fn common_iid<'a>(mut idents: impl Iterator<Item = &'a Ident>, empty_default: u32) -> u32 {
    match idents.next() {
        None => empty_default,
        Some(first) => {
            let iid = first.interner_id();
            if iid != 0 && idents.all(|i| i.interner_id() == iid) {
                iid
            } else {
                0
            }
        }
    }
}

/// Parse-time cache of a table's derived lookup data: its case-folded name
/// key, the folded key and [`Symbol`] of every column (declaration order),
/// key → index and symbol → index maps, the resolved primary key, and the
/// table's structural [`Fingerprint`].
///
/// Seals are *derived* state — they never serialize, never participate in
/// equality, and are dropped by every `&mut` accessor so they can only
/// describe the current structure. A hand-built or deserialized table simply
/// has no seal; all consumers fall back to computing the same data on the
/// fly.
///
/// The folded keys are `Arc<str>` clones of the idents' own folded text, so
/// sealing bumps refcounts instead of copying strings.
#[derive(Debug, Clone)]
pub struct TableSeal {
    key: Arc<str>,
    /// `(folded key, symbol)` of every column, declaration order. One vector
    /// instead of two parallel ones: sealing a table costs a fixed, small
    /// number of allocations, and this is on the per-version cold path.
    cols: Vec<(Arc<str>, u32)>,
    by_key: Vec<(Arc<str>, usize)>,
    by_sym: Vec<(u32, usize)>,
    /// Shared interner id of all column names (0 = mixed or uninterned;
    /// symbol comparisons are only meaningful when both sides share a
    /// nonzero id).
    iid: u32,
    pk: PkSeal,
    fingerprint: Fingerprint,
}

/// The resolved effective primary key of a sealed table, in one of two
/// representations — never both, so the common case allocates one vector.
#[derive(Debug, Clone)]
enum PkSeal {
    /// Every pk name resolved to a declared column and the seal's interner
    /// id is nonzero: stored as symbols. The diff fast path borrows this
    /// slice directly; folded keys are recovered through `by_sym` on demand.
    Syms(Vec<u32>),
    /// Fallback with string semantics: folded keys (uninterned or
    /// mixed-interner tables, or a PK naming a column never declared).
    Keys(Vec<Arc<str>>),
}

impl TableSeal {
    fn build(table: &Table) -> Self {
        let cols: Vec<(Arc<str>, u32)> =
            table.columns.iter().map(|c| (c.name.key_arc(), c.name.symbol().0)).collect();
        let iid = common_iid(table.columns.iter().map(|c| &c.name), table.name.interner_id());
        // Duplicate keys: last declaration wins, matching the `collect()`
        // semantics of the map the diff core used to rebuild per call.
        let by_key = build_index(cols.iter().map(|(k, _)| k.clone()));
        let by_sym = build_index(cols.iter().map(|&(_, s)| s));
        // Resolve the effective primary key directly against the folded keys
        // instead of materializing [`Table::primary_key`]'s `Vec<String>`:
        // same order and dedup semantics (inline flags first, then table
        // constraints, constraint keys deduped against what's already there),
        // but the common case allocates one vector of symbols. Within one
        // nonzero interner id two names fold equal exactly when their
        // symbols are equal, so the symbol form loses no information; the
        // first unresolved name (or an uninterned table) downgrades to keys.
        let mut pk = if iid != 0 { PkSeal::Syms(Vec::new()) } else { PkSeal::Keys(Vec::new()) };
        for (i, c) in table.columns.iter().enumerate() {
            if c.inline_primary_key {
                match &mut pk {
                    PkSeal::Syms(v) => v.push(cols[i].1),
                    PkSeal::Keys(v) => v.push(cols[i].0.clone()),
                }
            }
        }
        for constraint in &table.constraints {
            let TableConstraint::PrimaryKey { columns, .. } = constraint else {
                continue;
            };
            for col in columns {
                let k = col.key();
                let resolved = index_lookup(&by_key, k);
                let dup = match (&pk, resolved) {
                    // Every pushed symbol came from a declared column, so an
                    // unresolved key cannot duplicate one.
                    (PkSeal::Syms(v), Some(i)) => v.contains(&cols[i].1),
                    (PkSeal::Syms(_), None) => false,
                    (PkSeal::Keys(v), _) => v.iter().any(|p| &**p == k),
                };
                if dup {
                    continue;
                }
                match resolved {
                    Some(i) => match &mut pk {
                        PkSeal::Syms(v) => v.push(cols[i].1),
                        PkSeal::Keys(v) => v.push(cols[i].0.clone()),
                    },
                    None => {
                        // PK references a column the table does not declare
                        // (tolerated by the model): no symbol to compare by,
                        // so the whole pk downgrades to string semantics.
                        if let PkSeal::Syms(syms) = &pk {
                            let keys = syms
                                .iter()
                                .map(|&s| {
                                    let i = index_lookup(&by_sym, &s)
                                        .expect("pk symbol sealed from a declared column");
                                    cols[i].0.clone()
                                })
                                .collect();
                            pk = PkSeal::Keys(keys);
                        }
                        match &mut pk {
                            PkSeal::Keys(v) => v.push(Arc::from(k)),
                            PkSeal::Syms(_) => unreachable!("downgraded above"),
                        }
                    }
                }
            }
        }
        Self {
            key: table.name.key_arc(),
            cols,
            by_key,
            by_sym,
            iid,
            pk,
            fingerprint: fingerprint::of_table(table),
        }
    }

    /// The table's case-folded name key.
    pub fn table_key(&self) -> &str {
        &self.key
    }

    /// The case-folded key of column `i` (declaration order).
    pub fn column_key(&self, i: usize) -> &str {
        &self.cols[i].0
    }

    /// The symbol of column `i` (declaration order). Only meaningful when
    /// [`interner_id`](Self::interner_id) is nonzero.
    pub fn column_sym(&self, i: usize) -> Symbol {
        Symbol(self.cols[i].1)
    }

    /// Index of the column with the given folded key (last declaration wins
    /// on duplicates).
    pub fn column_index(&self, key: &str) -> Option<usize> {
        index_lookup(&self.by_key, key)
    }

    /// Index of the column with the given symbol (last declaration wins on
    /// duplicates). Only meaningful when the caller verified both sides
    /// share this seal's nonzero [`interner_id`](Self::interner_id).
    pub fn column_index_by_sym(&self, sym: Symbol) -> Option<usize> {
        index_lookup(&self.by_sym, &sym.0)
    }

    /// Shared interner id of all column-name idents; 0 when the columns are
    /// uninterned or mixed across interners (then symbol lookups must not
    /// be used).
    pub fn interner_id(&self) -> u32 {
        self.iid
    }

    /// Number of columns in the effective primary key.
    pub fn pk_len(&self) -> usize {
        match &self.pk {
            PkSeal::Syms(v) => v.len(),
            PkSeal::Keys(v) => v.len(),
        }
    }

    /// The case-folded key of primary-key column `j` (pk order, deduped) —
    /// the precomputed equivalent of indexing [`Table::primary_key`],
    /// borrowing instead of allocating.
    pub fn pk_key(&self, j: usize) -> &str {
        match &self.pk {
            PkSeal::Syms(v) => {
                let i = index_lookup(&self.by_sym, &v[j])
                    .expect("pk symbol sealed from a declared column");
                &self.cols[i].0
            }
            PkSeal::Keys(v) => &v[j],
        }
    }

    /// The effective primary-key column keys (lowercased, deduped, in
    /// order).
    pub fn pk_keys(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..self.pk_len()).map(|j| self.pk_key(j))
    }

    /// Symbols of the primary-key columns, present only when every pk name
    /// resolved to a declared column and the seal's interner id is nonzero.
    pub fn pk_syms(&self) -> Option<&[u32]> {
        match &self.pk {
            PkSeal::Syms(v) => Some(v),
            PkSeal::Keys(_) => None,
        }
    }

    /// Number of columns covered by the seal.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the sealed table has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The table's structural fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }
}

/// Parse-time cache of a schema's derived lookup data: case-folded
/// table-key → index and symbol → index maps and the schema's structural
/// [`Fingerprint`]. Same lifecycle rules as [`TableSeal`].
#[derive(Debug, Clone)]
pub struct SchemaSeal {
    by_key: Vec<(Arc<str>, usize)>,
    by_sym: Vec<(u32, usize)>,
    /// Shared interner id of all table-name idents (0 = mixed/uninterned).
    iid: u32,
    fingerprint: Fingerprint,
}

impl SchemaSeal {
    fn build(schema: &Schema) -> Self {
        Self {
            by_key: build_index(schema.tables.iter().map(|t| t.name.key_arc())),
            by_sym: build_index(schema.tables.iter().map(|t| t.name.symbol().0)),
            iid: common_iid(schema.tables.iter().map(|t| &t.name), 0),
            fingerprint: fingerprint::of_schema(schema),
        }
    }

    /// Index of the table with the given folded key (last declaration wins
    /// on duplicates).
    pub fn table_index(&self, key: &str) -> Option<usize> {
        index_lookup(&self.by_key, key)
    }

    /// Index of the table with the given symbol (last declaration wins on
    /// duplicates). Only meaningful when the caller verified both sides
    /// share this seal's nonzero [`interner_id`](Self::interner_id).
    pub fn table_index_by_sym(&self, sym: Symbol) -> Option<usize> {
        index_lookup(&self.by_sym, &sym.0)
    }

    /// Shared interner id of all table-name idents; 0 when the tables are
    /// uninterned or mixed across interners.
    pub fn interner_id(&self) -> u32 {
        self.iid
    }

    /// The schema's structural fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }
}

// Seals are derived state: always skipped on serialize (the closure below is
// constantly true), absent on deserialize (`default`). The trait impls exist
// only to satisfy the derive's bounds and are never reached.
fn seal_never_serialized<T>(_: &T) -> bool {
    true
}

impl Serialize for TableSeal {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for TableSeal {
    fn from_value(_: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Err(serde::Error::custom("TableSeal is derived state and never serialized"))
    }
}

impl Serialize for SchemaSeal {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for SchemaSeal {
    fn from_value(_: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Err(serde::Error::custom("SchemaSeal is derived state and never serialized"))
    }
}

/// A relation: named, with ordered typed attributes and constraints.
///
/// Schemas hold tables as `Arc<Table>`, so a table that several versions
/// (or a statement memo and a schema) have in common is one value; it is
/// copied only when one of them changes it.
#[derive(Debug, Serialize, Deserialize)]
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
    #[serde(default, skip_serializing_if = "seal_never_serialized")]
    seal: Option<TableSeal>,
}

// A clone is unsealed: tables are shared as `Arc<Table>`, so a clone is
// made only to be changed (`Arc::make_mut`), and a changed table is
// resealed anyway.
impl Clone for Table {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            columns: self.columns.clone(),
            constraints: self.constraints.clone(),
            indexes: self.indexes.clone(),
            seal: None,
        }
    }
}

// Equality ignores the seal: a sealed table equals its unsealed twin.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.constraints == other.constraints
            && self.indexes == other.indexes
    }
}

impl Table {
    /// Construct a new instance.
    pub fn new(name: impl Into<Ident>) -> Self {
        Self {
            name: name.into(),
            columns: Vec::new(),
            constraints: Vec::new(),
            indexes: Vec::new(),
            seal: None,
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

    /// Mutable case-insensitive column lookup. Drops the seal: the caller
    /// may change the structure through the returned reference.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut Column> {
        self.seal = None;
        self.columns.iter_mut().find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Precompute the seal (key map + fingerprint) for the current structure.
    /// Called by the parser once a table's statements are fully applied.
    pub fn seal(&mut self) {
        self.seal = Some(TableSeal::build(self));
    }

    /// Drop the seal. Must be called before mutating structure through the
    /// `pub` fields directly (the accessor methods do this themselves).
    pub fn unseal(&mut self) {
        self.seal = None;
    }

    /// The seal, if this table has been sealed and not mutated since.
    pub fn seal_data(&self) -> Option<&TableSeal> {
        self.seal.as_ref()
    }

    /// The table's structural fingerprint: cached when sealed, otherwise
    /// computed on the fly.
    pub fn fingerprint(&self) -> Fingerprint {
        match &self.seal {
            Some(s) => s.fingerprint,
            None => fingerprint::of_table(self),
        }
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
/// version never changes another.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schema {
    /// The tables, in creation order.
    pub tables: Vec<Arc<Table>>,
    #[serde(default, skip_serializing_if = "seal_never_serialized")]
    seal: Option<SchemaSeal>,
}

// Equality ignores the seal: a sealed schema equals its unsealed twin.
impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
    }
}

/// The canonical empty schema, shared by every history's creation delta.
static EMPTY_SCHEMA: Schema = Schema::new();

impl Schema {
    /// Construct a new instance.
    pub const fn new() -> Self {
        Self { tables: Vec::new(), seal: None }
    }

    /// A schema holding the given tables (unsealed).
    pub fn from_tables(tables: Vec<Arc<Table>>) -> Self {
        Self { tables, seal: None }
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

    /// Mutable case-insensitive table lookup. Drops the schema seal and the
    /// found table's seal: the caller may change structure through the
    /// returned reference. A table another schema still shares is copied
    /// first, so the change stays in this schema.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.seal = None;
        let t = self.tables.iter_mut().find(|t| t.name.eq_ignore_ascii_case(name))?;
        let t = Arc::make_mut(t);
        t.seal = None;
        Some(t)
    }

    /// Remove a table by name (case-insensitive); returns it if present.
    /// Drops the schema seal (the removed table keeps its own seal — its
    /// structure is unchanged).
    pub fn remove_table(&mut self, name: &str) -> Option<Arc<Table>> {
        let idx = self.tables.iter().position(|t| t.name.eq_ignore_ascii_case(name))?;
        self.seal = None;
        Some(self.tables.remove(idx))
    }

    /// Precompute the seal for the current structure, sealing every table
    /// first. Called by the parser once all statements are applied.
    pub fn seal(&mut self) {
        for t in &mut self.tables {
            if t.seal.is_none() {
                Arc::make_mut(t).seal();
            }
        }
        self.seal = Some(SchemaSeal::build(self));
    }

    /// Drop the schema-level seal. Must be called before mutating structure
    /// through the `pub` fields directly (the accessor methods do this
    /// themselves).
    pub fn unseal(&mut self) {
        self.seal = None;
    }

    /// The seal, if this schema has been sealed and not mutated since.
    pub fn seal_data(&self) -> Option<&SchemaSeal> {
        self.seal.as_ref()
    }

    /// The schema's structural fingerprint: cached when sealed, otherwise
    /// computed on the fly.
    pub fn fingerprint(&self) -> Fingerprint {
        match &self.seal {
            Some(s) => s.fingerprint,
            None => fingerprint::of_schema(self),
        }
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
    use crate::intern::Interner;

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
    fn seal_caches_keys_and_fingerprint() {
        let mut s = Schema::new();
        s.tables.push(users_table().into());
        let unsealed_fp = s.fingerprint();
        s.seal();
        let seal = s.seal_data().unwrap();
        assert_eq!(seal.fingerprint(), unsealed_fp);
        assert_eq!(seal.table_index("users"), Some(0));
        assert_eq!(seal.table_index("nope"), None);
        let t = &s.tables[0];
        let ts = t.seal_data().unwrap();
        assert_eq!(ts.table_key(), "users");
        assert_eq!(ts.column_key(0), "id");
        assert_eq!(ts.column_key(1), "email");
        assert_eq!(ts.column_index("email"), Some(1));
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.fingerprint(), t.fingerprint());
    }

    #[test]
    fn mut_accessors_drop_the_seal() {
        let mut s = Schema::new();
        s.tables.push(users_table().into());
        s.seal();
        let before = s.fingerprint();
        s.table_mut("users").unwrap().column_mut("email").unwrap().nullable = false;
        assert!(s.seal_data().is_none());
        assert!(s.tables[0].seal_data().is_none());
        assert_ne!(s.fingerprint(), before);

        let mut s2 = Schema::new();
        s2.tables.push(users_table().into());
        s2.seal();
        s2.remove_table("users");
        assert!(s2.seal_data().is_none());
    }

    #[test]
    fn equality_ignores_the_seal() {
        let mut sealed = Schema::new();
        sealed.tables.push(users_table().into());
        let unsealed = sealed.clone();
        sealed.seal();
        assert_eq!(sealed, unsealed);
        assert_eq!(sealed.fingerprint(), unsealed.fingerprint());
    }

    #[test]
    fn duplicate_column_keys_last_declaration_wins() {
        let mut t = Table::new("t");
        t.columns.push(Column::new("A", SqlType::simple("INT")));
        t.columns.push(Column::new("a", SqlType::simple("TEXT")));
        t.seal();
        assert_eq!(t.seal_data().unwrap().column_index("a"), Some(1));
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
    fn sealed_interned_table_exposes_symbols() {
        let interner = Interner::new();
        let mut t = Table::new(interner.ident("Users"));
        t.columns.push(Column::new(interner.ident("Id"), SqlType::simple("INT")));
        t.columns.push(Column::new(interner.ident("Email"), SqlType::simple("TEXT")));
        t.columns[0].inline_primary_key = true;
        t.seal();
        let seal = t.seal_data().unwrap();
        assert_eq!(seal.interner_id(), interner.id());
        assert_eq!(seal.column_index_by_sym(seal.column_sym(1)), Some(1));
        assert_eq!(seal.pk_len(), 1);
        assert_eq!(seal.pk_key(0), "id");
        assert_eq!(seal.pk_keys().collect::<Vec<_>>(), ["id"]);
        assert_eq!(seal.pk_syms().unwrap(), &[seal.column_sym(0).0]);
    }

    #[test]
    fn uninterned_seal_has_no_symbol_index() {
        let mut t = users_table();
        t.seal();
        let seal = t.seal_data().unwrap();
        assert_eq!(seal.interner_id(), 0);
        assert_eq!(seal.pk_syms(), None);
    }

    #[test]
    fn column_key_borrows_precomputed_fold() {
        let c = Column::new("UserName", SqlType::simple("INT"));
        assert_eq!(c.key(), "username");
        // Same pointer every call: the key is precomputed, not rebuilt.
        assert!(std::ptr::eq(c.key(), c.key()));
    }
}
