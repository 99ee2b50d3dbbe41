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

/// Fill `words` (exactly `3 * n` long) with the two lookup indexes over `n`
/// names: the positions `0..n` sorted by folded key, then by position; then
/// `(symbol, position)` pairs, sorted. A binary search over either resolves
/// a key or a symbol to the *last* declaration carrying it, as a map filled
/// in declaration order would.
fn build_indexes<'t>(words: &mut [u32], name: impl Fn(usize) -> &'t Ident) {
    let n = words.len() / 3;
    let (by_key, by_sym) = words.split_at_mut(n);
    for (i, w) in by_key.iter_mut().enumerate() {
        *w = i as u32;
    }
    by_key.sort_unstable_by(|&a, &b| {
        name(a as usize).key().cmp(name(b as usize).key()).then(a.cmp(&b))
    });
    let (by_sym, _) = by_sym.as_chunks_mut::<2>();
    for (i, pair) in by_sym.iter_mut().enumerate() {
        *pair = [name(i).symbol().0, i as u32];
    }
    by_sym.sort_unstable();
}

/// The last position in `by_key` (see [`build_indexes`]) whose name folds
/// to `key`.
fn key_lookup<'t>(
    by_key: &[u32],
    name: impl Fn(usize) -> &'t Ident,
    key: &str,
) -> Option<usize> {
    let end = by_key.partition_point(|&i| name(i as usize).key() <= key);
    let i = *by_key.get(end.wrapping_sub(1))? as usize;
    (name(i).key() == key).then_some(i)
}

/// The last position in `by_sym` (see [`build_indexes`]) carrying `sym`.
fn sym_lookup(by_sym: &[[u32; 2]], sym: u32) -> Option<usize> {
    let end = by_sym.partition_point(|p| p[0] <= sym);
    let p = by_sym.get(end.wrapping_sub(1))?;
    (p[0] == sym).then_some(p[1] as usize)
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

/// The names a table's primary key is drawn from, in order: the columns
/// flagged inline `PRIMARY KEY` (with their position), then the columns of
/// every table-level `PRIMARY KEY` constraint.
fn pk_candidates(t: &Table) -> impl Iterator<Item = (Option<usize>, &Ident)> {
    let inline = t.columns.iter().enumerate().filter(|(_, c)| c.inline_primary_key);
    let listed = t.constraints.iter().flat_map(|c| match c {
        TableConstraint::PrimaryKey { columns, .. } => columns.as_slice(),
        _ => &[],
    });
    inline.map(|(i, c)| (Some(i), &c.name)).chain(listed.map(|id| (None, id)))
}

/// What sealing a table computes, in one allocation: see [`TableSeal`].
#[derive(Debug)]
struct TableSealData {
    /// The column indexes of [`build_indexes`] (`3 * n` words), then the
    /// primary key (`pk_len` words): the keys' symbols when `pk_syms`, else
    /// their positions in [`pk_candidates`].
    words: Box<[u32]>,
    /// Columns sealed.
    n: u32,
    /// Shared interner id of all column names (0 = mixed or uninterned;
    /// symbol comparisons are only meaningful when both sides share a
    /// nonzero id).
    iid: u32,
    pk_len: u32,
    pk_syms: bool,
    fingerprint: Fingerprint,
}

impl TableSealData {
    fn build(table: &Table) -> Self {
        let n = table.columns.len();
        let name = |i: usize| &table.columns[i].name;
        let iid = common_iid(table.columns.iter().map(|c| &c.name), table.name.interner_id());
        // The effective primary key, as [`Table::primary_key`] resolves it:
        // every inline flag, then each constraint column whose key no
        // earlier candidate has. Counted first, without allocating, so the
        // seal's words are allocated once at their final length. Within one
        // nonzero interner id two names fold equal exactly when their
        // symbols are equal, so the key is kept as symbols unless a
        // constraint names a column the table never declares (or the table
        // is uninterned); then it keeps string semantics.
        let kept = |c: usize, inline: bool, key: &str| {
            inline || !pk_candidates(table).take(c).any(|(_, e)| e.key() == key)
        };
        let (mut pk_len, mut resolved) = (0, true);
        for (c, (at, id)) in pk_candidates(table).enumerate() {
            if kept(c, at.is_some(), id.key()) {
                pk_len += 1;
                resolved &=
                    at.is_some() || table.columns.iter().any(|col| col.key() == id.key());
            }
        }
        let pk_syms = iid != 0 && resolved;
        let mut words = vec![0u32; 3 * n + pk_len].into_boxed_slice();
        let (indexes, pk) = words.split_at_mut(3 * n);
        build_indexes(indexes, name);
        let kept_candidates = pk_candidates(table)
            .enumerate()
            .filter(|&(c, (at, id))| kept(c, at.is_some(), id.key()));
        for (w, (c, (at, id))) in pk.iter_mut().zip(kept_candidates) {
            *w = if pk_syms {
                let i = at.or_else(|| key_lookup(&indexes[..n], name, id.key()));
                name(i.expect("every pk name resolved")).symbol().0
            } else {
                c as u32
            };
        }
        Self {
            words,
            n: n as u32,
            iid,
            pk_len: pk_len as u32,
            pk_syms,
            fingerprint: fingerprint::of_table(table),
        }
    }
}

/// A sealed table's derived lookup data: its case-folded name key, the
/// folded key and [`Symbol`] of every column (declaration order), key →
/// index and symbol → index lookups, the resolved primary key, and the
/// table's structural [`Fingerprint`].
///
/// Seals are *derived* state — they never serialize, never participate in
/// equality, and are dropped by every `&mut` accessor so they can only
/// describe the current structure. A hand-built or deserialized table simply
/// has no seal; all consumers fall back to computing the same data on the
/// fly.
///
/// A `TableSeal` is a view of its sealed [`Table`] ([`Table::seal_data`]):
/// names and keys are read from the table's own idents, and what sealing
/// adds — both lookup indexes and the primary key — is one allocation of
/// `u32` words (none for a table with no columns).
#[derive(Debug)]
#[repr(transparent)]
pub struct TableSeal(Table);

// A copy of a seal is a copy of its table, sealed again.
impl Clone for TableSeal {
    fn clone(&self) -> Self {
        let mut table = self.0.clone();
        table.seal();
        Self(table)
    }
}

impl TableSeal {
    /// The seal of `table`, which must be sealed.
    fn of(table: &Table) -> &Self {
        // SAFETY: `TableSeal` is a `repr(transparent)` wrapper of `Table`.
        unsafe { &*(table as *const Table).cast::<Self>() }
    }

    fn data(&self) -> &TableSealData {
        self.0.seal.as_ref().expect("a TableSeal views a sealed table")
    }

    fn by_key(&self) -> &[u32] {
        &self.data().words[..self.len()]
    }

    fn by_sym(&self) -> &[[u32; 2]] {
        let n = self.len();
        self.data().words[n..3 * n].as_chunks::<2>().0
    }

    fn pk(&self) -> &[u32] {
        &self.data().words[3 * self.len()..]
    }

    /// The table's case-folded name key.
    pub fn table_key(&self) -> &str {
        self.0.name.key()
    }

    /// The case-folded key of column `i` (declaration order).
    pub fn column_key(&self, i: usize) -> &str {
        self.0.columns[i].name.key()
    }

    /// The symbol of column `i` (declaration order). Only meaningful when
    /// [`interner_id`](Self::interner_id) is nonzero.
    pub fn column_sym(&self, i: usize) -> Symbol {
        self.0.columns[i].name.symbol()
    }

    /// Index of the column with the given folded key (last declaration wins
    /// on duplicates).
    pub fn column_index(&self, key: &str) -> Option<usize> {
        key_lookup(self.by_key(), |i| &self.0.columns[i].name, key)
    }

    /// Index of the column with the given symbol (last declaration wins on
    /// duplicates). Only meaningful when the caller verified both sides
    /// share this seal's nonzero [`interner_id`](Self::interner_id).
    pub fn column_index_by_sym(&self, sym: Symbol) -> Option<usize> {
        sym_lookup(self.by_sym(), sym.0)
    }

    /// Shared interner id of all column-name idents; 0 when the columns are
    /// uninterned or mixed across interners (then symbol lookups must not
    /// be used).
    pub fn interner_id(&self) -> u32 {
        self.data().iid
    }

    /// Number of columns in the effective primary key.
    pub fn pk_len(&self) -> usize {
        self.data().pk_len as usize
    }

    /// The case-folded key of primary-key column `j` (pk order, deduped) —
    /// the precomputed equivalent of indexing [`Table::primary_key`],
    /// borrowing instead of allocating.
    pub fn pk_key(&self, j: usize) -> &str {
        let w = self.pk()[j];
        if self.data().pk_syms {
            let i =
                sym_lookup(self.by_sym(), w).expect("pk symbol sealed from a declared column");
            self.column_key(i)
        } else {
            let (_, id) = pk_candidates(&self.0).nth(w as usize).expect("sealed pk candidate");
            id.key()
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
        self.data().pk_syms.then(|| self.pk())
    }

    /// Number of columns covered by the seal.
    pub fn len(&self) -> usize {
        self.data().n as usize
    }

    /// True when the sealed table has no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table's structural fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.data().fingerprint
    }
}

/// What sealing a schema computes, in one allocation: see [`SchemaSeal`].
#[derive(Debug, Clone)]
struct SchemaSealData {
    /// The table indexes of [`build_indexes`].
    words: Box<[u32]>,
    /// Shared interner id of all table-name idents (0 = mixed/uninterned).
    iid: u32,
    fingerprint: Fingerprint,
}

impl SchemaSealData {
    fn build(schema: &Schema) -> Self {
        let mut words = vec![0u32; 3 * schema.tables.len()].into_boxed_slice();
        build_indexes(&mut words, |i| &schema.tables[i].name);
        Self {
            words,
            iid: common_iid(schema.tables.iter().map(|t| &t.name), 0),
            fingerprint: fingerprint::of_schema(schema),
        }
    }
}

/// A sealed schema's derived lookup data: case-folded table-key → index and
/// symbol → index lookups and the schema's structural [`Fingerprint`]. Same
/// lifecycle rules as [`TableSeal`], and likewise a view of its sealed
/// [`Schema`] ([`Schema::seal_data`]) whose indexes are one allocation.
#[derive(Debug, Clone)]
#[repr(transparent)]
pub struct SchemaSeal(Schema);

impl SchemaSeal {
    /// The seal of `schema`, which must be sealed.
    fn of(schema: &Schema) -> &Self {
        // SAFETY: `SchemaSeal` is a `repr(transparent)` wrapper of `Schema`.
        unsafe { &*(schema as *const Schema).cast::<Self>() }
    }

    fn data(&self) -> &SchemaSealData {
        self.0.seal.as_ref().expect("a SchemaSeal views a sealed schema")
    }

    fn by_key(&self) -> &[u32] {
        let words = &self.data().words;
        &words[..words.len() / 3]
    }

    /// Index of the table with the given folded key (last declaration wins
    /// on duplicates).
    pub fn table_index(&self, key: &str) -> Option<usize> {
        key_lookup(self.by_key(), |i| &self.0.tables[i].name, key)
    }

    /// Index of the table with the given symbol (last declaration wins on
    /// duplicates). Only meaningful when the caller verified both sides
    /// share this seal's nonzero [`interner_id`](Self::interner_id).
    pub fn table_index_by_sym(&self, sym: Symbol) -> Option<usize> {
        let words = &self.data().words;
        sym_lookup(words[words.len() / 3..].as_chunks::<2>().0, sym.0)
    }

    /// Shared interner id of all table-name idents; 0 when the tables are
    /// uninterned or mixed across interners.
    pub fn interner_id(&self) -> u32 {
        self.data().iid
    }

    /// The schema's structural fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.data().fingerprint
    }
}

// Seals are derived state: always skipped on serialize (the closure below is
// constantly true), absent on deserialize (`default`). The trait impls exist
// only to satisfy the derive's bounds and are never reached.
fn seal_never_serialized<T>(_: &T) -> bool {
    true
}

impl Serialize for TableSealData {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for TableSealData {
    fn from_value(_: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Err(serde::Error::custom("a table seal is derived state and never serialized"))
    }
}

impl Serialize for SchemaSealData {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for SchemaSealData {
    fn from_value(_: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Err(serde::Error::custom("a schema seal is derived state and never serialized"))
    }
}

/// A relation: named, with ordered typed attributes and constraints.
///
/// Schemas hold tables as `Arc<Table>`, so a table that several versions
/// (or a statement memo and a schema) have in common is one value; it is
/// copied only when one of them changes it. A parsed table holds only what
/// it uses: its vectors are exactly as long as their contents (sealing
/// trims any a later statement grew), and its seal is one allocation.
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
    seal: Option<TableSealData>,
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

    /// Precompute the seal (key indexes + fingerprint) for the current
    /// structure, first trimming every vector to its length. Called by the
    /// parser once a table's statements are fully applied.
    pub fn seal(&mut self) {
        self.columns.shrink_to_fit();
        self.constraints.shrink_to_fit();
        self.indexes.shrink_to_fit();
        self.seal = Some(TableSealData::build(self));
    }

    /// Drop the seal. Must be called before mutating structure through the
    /// `pub` fields directly (the accessor methods do this themselves).
    pub fn unseal(&mut self) {
        self.seal = None;
    }

    /// The seal, if this table has been sealed and not mutated since.
    pub fn seal_data(&self) -> Option<&TableSeal> {
        self.seal.as_ref().map(|_| TableSeal::of(self))
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
    seal: Option<SchemaSealData>,
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
        self.seal = Some(SchemaSealData::build(self));
    }

    /// Drop the schema-level seal. Must be called before mutating structure
    /// through the `pub` fields directly (the accessor methods do this
    /// themselves).
    pub fn unseal(&mut self) {
        self.seal = None;
    }

    /// The seal, if this schema has been sealed and not mutated since.
    pub fn seal_data(&self) -> Option<&SchemaSeal> {
        self.seal.as_ref().map(|_| SchemaSeal::of(self))
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
    fn sealed_primary_key_is_the_resolved_primary_key() {
        let interner = Interner::new();
        let pk = |cols: &[&str]| TableConstraint::PrimaryKey {
            name: None,
            columns: cols.iter().map(|c| interner.ident(c)).collect(),
        };
        let table = |inline: &[&str], plain: &[&str], constraints: Vec<TableConstraint>| {
            let mut t = Table::new(interner.ident("t"));
            for (names, flag) in [(inline, true), (plain, false)] {
                for name in names {
                    let mut c = Column::new(interner.ident(name), SqlType::simple("INT"));
                    c.inline_primary_key = flag;
                    t.columns.push(c);
                }
            }
            t.constraints = constraints;
            t
        };
        let cases = [
            // Inline flags, then constraint columns not already in the key.
            (table(&["a"], &["b", "c"], vec![pk(&["B", "A"]), pk(&["c", "b"])]), true),
            // Two columns that fold alike, both flagged: both kept.
            (table(&["x", "X"], &[], vec![pk(&["x"])]), true),
            // A name the table never declares: string semantics.
            (table(&["a"], &["b"], vec![pk(&["nope", "b", "NOPE"])]), false),
            (table(&[], &["a"], vec![]), true),
        ];
        for (mut t, syms) in cases {
            let expected = t.primary_key();
            t.seal();
            let seal = t.seal_data().unwrap();
            assert_eq!(seal.pk_keys().collect::<Vec<_>>(), expected, "{t:?}");
            assert_eq!(seal.pk_syms().is_some(), syms, "{t:?}");
            if let Some(pk_syms) = seal.pk_syms() {
                let want: Vec<u32> = expected
                    .iter()
                    .map(|k| seal.column_sym(seal.column_index(k).unwrap()).0)
                    .collect();
                assert_eq!(pk_syms, want.as_slice());
            }
            // Uninterned, the same key with string semantics.
            let mut plain = Table::new("t");
            plain.columns = t
                .columns
                .iter()
                .map(|c| Column { name: Ident::new(&c.name), ..c.clone() })
                .collect();
            plain.constraints = t.constraints.clone();
            plain.seal();
            let seal = plain.seal_data().unwrap();
            assert_eq!(seal.pk_keys().collect::<Vec<_>>(), expected);
            assert_eq!(seal.pk_syms(), None);
        }
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
