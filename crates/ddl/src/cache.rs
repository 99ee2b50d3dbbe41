//! A statement-granular parse memo: a statement whose bytes the previous
//! version already held is not parsed again.
//!
//! Consecutive versions of a schema file mostly repeat each other: a commit
//! adds a column to one table and leaves the other statements byte for byte
//! as they were (inactive commits repeat the whole file). [`ParseCache`]
//! keeps, per dialect, the statements of the last version it parsed, each
//! with its exact byte extent. When the parser is about to read a statement
//! whose bytes at the cursor equal a kept statement's, it takes that
//! statement instead and skips the lexer past those bytes, advancing line
//! and column as the kept parse did. Only statements that ended on a `;`
//! are recalled mid-text (the lexer reads a `;` without looking past it);
//! one that ran to the end of the text is recalled only where the new text
//! ends the same way. Everything else is parsed fresh, so errors carry the
//! positions a fresh parse reports.
//!
//! Every statement is kept as parsed, behind an `Arc`. A `CREATE TABLE`
//! carries its table as an `Arc<Table>`, and the version's schema holds
//! that same table: a recalled `CREATE TABLE` puts the previous version's
//! table into the new schema for the price of a reference count. A table
//! that a later statement of its version alters, indexes or renames is
//! copied on write by the schema builder, so the kept statement still
//! describes the table as created.
//! A version whose every statement is recalled, in order, defines the
//! previous version's schema, so [`ParseCache::parse`] returns the previous
//! `Arc<Schema>` itself; a version byte-identical to the previous one (an
//! inactive commit) returns it without parsing or allocating.

use crate::apply::SchemaBuilder;
use crate::dialect::Dialect;
use crate::error::Result;
use crate::fingerprint::content_hash;
use crate::intern::{FnvMap, Interner};
use crate::model::Schema;
use crate::parser::{Extent, Parser, Statement, StatementSink};
use std::sync::Arc;

/// A recall key covers a statement's bytes up to its first newline or `;`,
/// at most this many: both lie inside the statement, so the key of a
/// statement and of the same bytes in another text agree.
const KEY_BYTES: usize = 64;

/// Candidates with one key tried before a statement is parsed fresh.
const MAX_PROBES: usize = 16;

/// No next entry in a key chain.
const NO_ENTRY: u32 = u32::MAX;

/// The recall key of the statement starting at `rest[0]`.
fn recall_key(rest: &[u8]) -> u64 {
    let head = &rest[..rest.len().min(KEY_BYTES)];
    let n = head.iter().position(|&b| b == b'\n' || b == b';').map_or(head.len(), |i| i + 1);
    content_hash(&head[..n])
}

/// One statement of a parsed version.
struct Entry {
    stmt: Arc<Statement>,
    /// Where its bytes lie; `None` when the parse could not prove that it
    /// read no byte outside them, and then it is never recalled.
    extent: Option<Extent>,
    key: u64,
    /// The previous entry with the same key, or [`NO_ENTRY`].
    chain: u32,
}

/// The statements of one parsed version, indexed by recall key.
#[derive(Default)]
struct Memo {
    text: String,
    entries: Vec<Entry>,
    /// Key → the last entry with that key.
    index: FnvMap<u64, u32>,
    /// The version's schema; `None` until a parse succeeds.
    schema: Option<Arc<Schema>>,
}

impl Memo {
    fn push(&mut self, stmt: Arc<Statement>, extent: Option<Extent>, key: u64) {
        let i = self.entries.len() as u32;
        let chain = match extent {
            Some(_) => self.index.insert(key, i).unwrap_or(NO_ENTRY),
            None => NO_ENTRY,
        };
        self.entries.push(Entry { stmt, extent, key, chain });
    }

    /// An entry whose bytes start `rest` (and end it, for an `at_eof`
    /// entry): entry `expected` first, so an unchanged run of statements
    /// is recalled in order, then the other entries with key `key`.
    fn find(&self, key: u64, rest: &[u8], expected: usize) -> Option<usize> {
        let fits = |i: usize| {
            let e = &self.entries[i];
            let Some(x) = e.extent.filter(|_| e.key == key) else { return false };
            let bytes = &self.text.as_bytes()[x.start..x.end];
            if x.at_eof {
                rest == bytes
            } else {
                rest.starts_with(bytes)
            }
        };
        if expected < self.entries.len() && fits(expected) {
            return Some(expected);
        }
        let mut i = *self.index.get(&key)?;
        for _ in 0..MAX_PROBES {
            if fits(i as usize) {
                return Some(i as usize);
            }
            i = self.entries[i as usize].chain;
            if i == NO_ENTRY {
                return None;
            }
        }
        None
    }

    fn clear(&mut self) {
        self.text.clear();
        self.entries.clear();
        self.index.clear();
        self.schema = None;
    }
}

/// A statement of the version being parsed.
enum Slot {
    /// Entry `i` of the previous version.
    Recalled(usize),
    /// Parsed from this version's text.
    Fresh(Statement),
}

/// One parse's view of the memo: the previous version to recall from and
/// the statements of the new one.
struct Recall<'a> {
    text: &'a str,
    prev: &'a Memo,
    slots: &'a mut Vec<(Slot, Option<Extent>, u64)>,
    /// Every statement so far was recalled from the same position of
    /// `prev`.
    in_order: bool,
    /// The key computed by the last failed recall, and where.
    pending: Option<(usize, u64)>,
    hits: u64,
    misses: u64,
}

impl StatementSink for Recall<'_> {
    fn recall(&mut self, start: usize) -> Option<Extent> {
        let rest = &self.text.as_bytes()[start..];
        let key = recall_key(rest);
        let pos = self.slots.len();
        let Some(i) = self.prev.find(key, rest, pos) else {
            self.pending = Some((start, key));
            return None;
        };
        self.in_order &= i == pos;
        let old = self.prev.entries[i].extent.expect("recalled entries have extents");
        let extent = Extent { start, end: start + old.len(), ..old };
        self.slots.push((Slot::Recalled(i), Some(extent), key));
        self.hits += 1;
        Some(extent)
    }

    fn parsed(&mut self, stmt: Statement, extent: Option<Extent>) {
        let key = match (extent, self.pending.take()) {
            (Some(x), Some((start, key))) if start == x.start => key,
            (Some(x), _) => recall_key(&self.text.as_bytes()[x.start..]),
            (None, _) => 0,
        };
        self.slots.push((Slot::Fresh(stmt), extent, key));
        self.in_order = false;
        self.misses += 1;
    }
}

/// A per-project parse memo handing out `Arc<Schema>`, with counters of
/// recalled and parsed statements.
///
/// Scope one cache per project history (the engine does): the memo holds
/// the statements of the project's last parsed version per dialect, and
/// its memory dies with the history. The cache also owns a project-scoped
/// [`Interner`]: every schema it parses shares one identifier per distinct
/// spelling, and a recalled statement's identifiers are the ones a fresh
/// parse would intern.
pub struct ParseCache {
    /// The last successfully parsed version, per dialect.
    memos: Vec<(Dialect, Memo)>,
    /// A cleared memo whose storage the next parse fills.
    spare: Memo,
    /// The statements of the version being parsed (storage reused).
    slots: Vec<(Slot, Option<Extent>, u64)>,
    /// The version's schema under construction (storage reused).
    builder: SchemaBuilder,
    interner: Arc<Interner>,
    hits: u64,
    misses: u64,
}

impl Default for ParseCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ParseCache {
    /// An empty cache with a fresh interner.
    pub fn new() -> Self {
        Self {
            memos: Vec::new(),
            spare: Memo::default(),
            slots: Vec::new(),
            builder: SchemaBuilder::default(),
            interner: Arc::new(Interner::new()),
            hits: 0,
            misses: 0,
        }
    }

    /// The interner every schema parsed through this cache shares.
    pub fn interner(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// Parse `sql` under `dialect`, returning a shared schema.
    /// Statements byte-identical to ones of the previous version parsed
    /// under `dialect` are recalled instead of parsed; when all of them are,
    /// in order, the previous version's `Arc` is returned (observable via
    /// [`Arc::ptr_eq`]). On error the cache is unchanged: its memo and
    /// counters reflect successful parses only.
    pub fn parse(&mut self, sql: &str, dialect: Dialect) -> Result<Arc<Schema>> {
        let slot = self.memos.iter().position(|(d, _)| *d == dialect);
        let empty = Memo::default();
        let prev = slot.map_or(&empty, |i| &self.memos[i].1);
        if let Some(schema) = prev.schema.as_ref().filter(|_| prev.text == sql) {
            self.hits += prev.entries.len() as u64;
            return Ok(Arc::clone(schema));
        }

        let mut next = std::mem::take(&mut self.spare);
        let mut run = Recall {
            text: sql,
            prev,
            slots: &mut self.slots,
            in_order: true,
            pending: None,
            hits: 0,
            misses: 0,
        };
        let parsed =
            Parser::streaming(sql, dialect).with_interner(&self.interner).parse_into(&mut run);
        let (hits, misses, in_order) = (run.hits, run.misses, run.in_order);
        let built = parsed.and_then(|()| match &prev.schema {
            Some(schema) if in_order && self.slots.len() == prev.entries.len() => {
                for (slot, extent, key) in self.slots.drain(..) {
                    let Slot::Recalled(i) = slot else { unreachable!("all recalled") };
                    next.push(Arc::clone(&prev.entries[i].stmt), extent, key);
                }
                Ok(Arc::clone(schema))
            }
            _ => build(prev, &mut self.slots, &mut self.builder, &mut next),
        });
        let schema = match built {
            Ok(schema) => schema,
            Err(e) => {
                self.slots.clear();
                next.clear();
                self.spare = next;
                return Err(e);
            }
        };

        next.text.push_str(sql);
        next.schema = Some(Arc::clone(&schema));
        let mut old = match slot {
            Some(i) => std::mem::replace(&mut self.memos[i].1, next),
            None => {
                self.memos.push((dialect, next));
                Memo::default()
            }
        };
        old.clear();
        self.spare = old;
        self.hits += hits;
        self.misses += misses;
        Ok(schema)
    }

    /// Statements recalled from a previous version instead of parsed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Statements parsed fresh.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of statements the memo holds (over every dialect's last
    /// version).
    pub fn len(&self) -> usize {
        self.memos.iter().map(|(_, m)| m.entries.len()).sum()
    }

    /// True when no statement is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Apply a version's statements (`slots`, drained) to a new schema and
/// fill `next` with the statements. A fresh statement is kept as
/// parsed; a recalled one is the previous version's, shared.
fn build(
    prev: &Memo,
    slots: &mut Vec<(Slot, Option<Extent>, u64)>,
    builder: &mut SchemaBuilder,
    next: &mut Memo,
) -> Result<Arc<Schema>> {
    builder.clear();
    let creates = slots.iter().filter(|(slot, ..)| {
        let stmt = match slot {
            Slot::Recalled(i) => &prev.entries[*i].stmt,
            Slot::Fresh(stmt) => stmt,
        };
        matches!(stmt, Statement::CreateTable { .. })
    });
    builder.reserve(creates.count());
    for (slot, extent, key) in slots.drain(..) {
        let stmt = match slot {
            Slot::Recalled(i) => Arc::clone(&prev.entries[i].stmt),
            Slot::Fresh(stmt) => Arc::new(stmt),
        };
        if !matches!(*stmt, Statement::Skipped { .. }) {
            builder.apply(Statement::clone(&stmt))?;
        }
        next.push(stmt, extent, key);
    }
    Ok(Arc::new(builder.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_schema;

    #[test]
    fn identical_text_parses_once_and_shares() {
        let mut c = ParseCache::new();
        let a = c.parse("CREATE TABLE t (a INT);", Dialect::Generic).unwrap();
        let b = c.parse("CREATE TABLE t (a INT);", Dialect::Generic).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn different_text_or_dialect_misses() {
        let mut c = ParseCache::new();
        c.parse("CREATE TABLE t (a INT);", Dialect::Generic).unwrap();
        c.parse("CREATE TABLE t (a INT) ;", Dialect::Generic).unwrap();
        c.parse("CREATE TABLE t (a INT);", Dialect::MySql).unwrap();
        assert_eq!((c.hits(), c.misses()), (0, 3));
        // One statement per dialect: only each dialect's last version is
        // kept.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cached_schema_trims_the_tables_its_version_grew() {
        let mut c = ParseCache::new();
        let v1 = "CREATE TABLE t (a INT);\n";
        let v2 = format!("{v1}ALTER TABLE t ADD b INT;\nCREATE INDEX i ON t (a);\n");
        let s1 = c.parse(v1, Dialect::Generic).unwrap();
        let s2 = c.parse(&v2, Dialect::Generic).unwrap();
        let t = &s2.tables[0];
        assert_eq!((t.columns.len(), t.columns.capacity()), (2, 2));
        assert_eq!((t.indexes.len(), t.indexes.capacity()), (1, 1));
        // The recalled `CREATE TABLE` still holds the table as created.
        assert_eq!(s1.tables[0].columns.len(), 1);
    }

    #[test]
    fn cached_schemas_share_one_interner() {
        let mut c = ParseCache::new();
        let a = c.parse("CREATE TABLE t (a INT);", Dialect::Generic).unwrap();
        let b = c.parse("CREATE TABLE t (a INT, b INT);", Dialect::Generic).unwrap();
        let iid = c.interner().id();
        assert_eq!(a.tables[0].name.interner_id(), iid);
        assert_eq!(b.tables[0].name.interner_id(), iid);
        assert_eq!(a.tables[0].name.symbol(), b.tables[0].name.symbol());
    }

    #[test]
    fn parse_errors_propagate_and_are_not_cached() {
        let mut c = ParseCache::new();
        assert!(c.parse("CREATE TABLE t (a INT", Dialect::Generic).is_err());
        assert!(c.parse("CREATE TABLE t (a INT", Dialect::Generic).is_err());
        assert!(c.is_empty());
        assert_eq!((c.hits(), c.misses()), (0, 0));
    }

    #[test]
    fn unchanged_statements_are_recalled() {
        let mut c = ParseCache::new();
        let v1 = "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);\n";
        let v2 = "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT, z INT);\n";
        c.parse(v1, Dialect::Generic).unwrap();
        let s = c.parse(v2, Dialect::Generic).unwrap();
        assert_eq!((c.hits(), c.misses()), (1, 3));
        assert_eq!(*s, parse_schema(v2, Dialect::Generic).unwrap());
    }

    #[test]
    fn all_statements_recalled_in_order_share_the_schema() {
        let mut c = ParseCache::new();
        let a = c.parse("CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);", Dialect::Generic);
        // Other whitespace and a stray `;`, the same statements.
        let b =
            c.parse("CREATE TABLE a (x INT);;\n\n  CREATE TABLE b (y INT);", Dialect::Generic);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        assert_eq!((c.hits(), c.misses()), (2, 2));
        // Swapped: all recalled, but out of order, so a new schema.
        let d = c.parse("CREATE TABLE b (y INT);CREATE TABLE a (x INT);", Dialect::Generic);
        assert_eq!((c.hits(), c.misses()), (4, 2));
        assert_eq!(d.unwrap().tables[0].name, "b");
    }

    #[test]
    fn tables_altered_later_in_their_version_are_recalled() {
        let mut c = ParseCache::new();
        let v1 =
            "CREATE TABLE a (x INT);\nCREATE INDEX i ON a (x);\nALTER TABLE a ADD y INT;\n";
        c.parse(v1, Dialect::Generic).unwrap();
        let v2 = format!("{v1}CREATE TABLE b (z INT);\n");
        let s = c.parse(&v2, Dialect::Generic).unwrap();
        assert_eq!((c.hits(), c.misses()), (3, 4));
        assert_eq!(*s, parse_schema(&v2, Dialect::Generic).unwrap());
        assert_eq!(s.tables[0].columns.len(), 2);
    }

    #[test]
    fn a_recalled_table_is_the_previous_versions_table() {
        let mut c = ParseCache::new();
        let a = c.parse("CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);", Dialect::Generic);
        let b = c.parse("CREATE TABLE a (x INT);\nCREATE TABLE b (z INT);", Dialect::Generic);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(Arc::ptr_eq(&a.tables[0], &b.tables[0]));
        assert!(!Arc::ptr_eq(&a.tables[1], &b.tables[1]));
    }

    #[test]
    fn altering_a_shared_table_copies_it() {
        let mut c = ParseCache::new();
        let v1 = "CREATE TABLE a (x INT);\n";
        let v2 = format!("{v1}ALTER TABLE a ADD y INT;\n");
        let s1 = c.parse(v1, Dialect::Generic).unwrap();
        let s2 = c.parse(&v2, Dialect::Generic).unwrap();
        assert_eq!(*s1, parse_schema(v1, Dialect::Generic).unwrap());
        assert_eq!(*s2, parse_schema(&v2, Dialect::Generic).unwrap());
        assert_eq!(s2.tables[0].columns.len(), 2);
        let s3 = c.parse(v1, Dialect::Generic).unwrap();
        assert!(Arc::ptr_eq(&s3.tables[0], &s1.tables[0]));
    }

    #[test]
    fn failed_parse_leaves_the_memo_alone() {
        let mut c = ParseCache::new();
        c.parse("CREATE TABLE a (x INT);", Dialect::Generic).unwrap();
        assert!(c.parse("CREATE TABLE a (x INT); CREATE TABLE (", Dialect::Generic).is_err());
        assert_eq!((c.hits(), c.misses()), (0, 1));
        c.parse("CREATE TABLE a (x INT); CREATE TABLE b (y INT);", Dialect::Generic).unwrap();
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }
}
