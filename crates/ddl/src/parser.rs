//! Recursive-descent parser for the DDL subset found in single-file schemas.
//!
//! The parser understands `CREATE TABLE`, `ALTER TABLE`, `DROP TABLE`, and
//! `CREATE INDEX` in both MySQL and PostgreSQL flavors, and *skips* every
//! other statement (INSERT/SET/USE/GRANT/…) by consuming tokens up to the
//! statement terminator. This skip-tolerance is essential: the corpus files
//! are full database dumps, not curated DDL.
//!
//! The parser is *streaming*: it pulls [`Token`]s from the zero-copy
//! [`Lexer`] on demand through a small lookahead buffer, so the whole token
//! vector is never materialized. Identifiers become [`Ident`]s, optionally
//! through a shared [`Interner`] (see [`parse_schema_interned`]) so the diff
//! hot loop can compare names as integers instead of re-folding strings; the
//! parser holds the interner's lock for its whole run, not per identifier.
//!
//! A `CREATE TABLE` body is parsed into scratch vectors that the parser
//! keeps across statements, and the interner across parses (so a
//! [`crate::ParseCache`] keeps them across versions); the table then takes
//! vectors of exactly its size, one allocation each.

use crate::dialect::Dialect;
use crate::error::{ParseError, ParseErrorKind, Result};
use crate::intern::{Ident, Interner, Interning};
use crate::lexer::Lexer;
use crate::model::{Column, ForeignKey, IndexDef, SqlType, Table, TableConstraint};
use crate::token::{Token, TokenKind};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

/// One parsed top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `CREATE TABLE` statement.
    CreateTable {
        /// The table it defines, shared with the schema it is applied to.
        table: Arc<Table>,
        /// The if not exists.
        if_not_exists: bool,
    },
    /// An `ALTER TABLE` statement.
    AlterTable {
        /// Table name as written.
        table: Ident,
        /// The ops.
        ops: Vec<AlterOp>,
    },
    /// A `DROP TABLE` statement.
    DropTable {
        /// The names.
        names: Vec<Ident>,
        /// The if exists.
        if_exists: bool,
    },
    /// MySQL top-level `RENAME TABLE a TO b[, c TO d]`.
    RenameTable {
        /// The renames.
        renames: Vec<(Ident, Ident)>,
    },
    /// A `CREATE INDEX` statement.
    CreateIndex {
        /// The table name.
        table: Ident,
        /// The index.
        index: IndexDef,
    },
    /// A statement we recognized but do not model (INSERT, SET, …); the
    /// leading keyword is kept for diagnostics.
    Skipped {
        /// The leading.
        leading: String,
    },
}

/// One clause of an `ALTER TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum AlterOp {
    /// Add a column.
    AddColumn(Column),
    /// Drop a column.
    DropColumn(Ident),
    /// MySQL `MODIFY [COLUMN] name <new definition>`.
    ModifyColumn(Column),
    /// MySQL `CHANGE [COLUMN] old new <new definition>` (rename + redefine).
    /// The old name.
    ChangeColumn {
        /// The name before the change.
        old_name: Ident,
        /// The new definition.
        new: Column,
    },
    /// PostgreSQL `ALTER COLUMN name TYPE t`.
    /// 1-based source column.
    SetColumnType {
        /// The column name.
        column: Ident,
        /// The SQL data type.
        sql_type: SqlType,
    },
    /// `ALTER COLUMN name SET|DROP NOT NULL` (true = NOT NULL present).
    /// 1-based source column.
    SetColumnNotNull {
        /// The column name.
        column: Ident,
        /// The not null.
        not_null: bool,
    },
    /// `ALTER COLUMN name SET DEFAULT expr` / `DROP DEFAULT`.
    /// 1-based source column.
    SetColumnDefault {
        /// The column name.
        column: Ident,
        /// The default.
        default: Option<String>,
    },
    /// Rename a column.
    RenameColumn {
        /// The name before the change.
        old_name: Ident,
        /// The name after the change.
        new_name: Ident,
    },
    /// Rename the table.
    RenameTable {
        /// The name after the change.
        new_name: Ident,
    },
    /// Add a table-level constraint.
    AddConstraint(TableConstraint),
    /// MySQL `DROP PRIMARY KEY`.
    DropPrimaryKey,
    /// DROP CONSTRAINT / DROP FOREIGN KEY / DROP KEY / DROP INDEX name.
    DropConstraint(Ident),
    /// Add a secondary index.
    AddIndex(IndexDef),
    /// A clause we tolerate but do not model (ENGINE=, AUTO_INCREMENT=, …).
    Ignored,
}

/// Parse a full script into statements, streaming tokens from the lexer.
pub fn parse_statements(sql: &str, dialect: Dialect) -> Result<Vec<Statement>> {
    Parser::streaming(sql, dialect).parse_script()
}

/// Parse a full script and apply it to an empty schema, yielding the final
/// logical schema the script defines.
///
/// Identifiers are interned into a fresh per-call [`Interner`]; to share one
/// interner across many versions of the same project, use
/// [`parse_schema_interned`].
pub fn parse_schema(sql: &str, dialect: Dialect) -> Result<crate::model::Schema> {
    let interner = Interner::new();
    parse_schema_interned(sql, dialect, &interner)
}

/// Like [`parse_schema`], but interning every identifier into the caller's
/// [`Interner`]. Schemas parsed through the same interner share one
/// identifier per distinct spelling, so a warm interner allocates no new
/// names.
pub fn parse_schema_interned(
    sql: &str,
    dialect: Dialect,
    interner: &Interner,
) -> Result<crate::model::Schema> {
    let stmts = Parser::streaming(sql, dialect).with_interner(interner).parse_script()?;
    crate::apply::apply_statements(stmts)
}

/// Where a completed statement's bytes lie in the text it was parsed from,
/// and how far they move the lexer. Parsing the same bytes from the start
/// of a statement anywhere else yields the same statement: the statement
/// ends on a `;` (which the lexer reads without looking past it), or at the
/// end of the text (`at_eof`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    /// Byte offset of the statement's first token.
    pub start: usize,
    /// Byte offset just past its `;`, or the text's length when `at_eof`.
    pub end: usize,
    /// Newlines between `start` and `end`.
    pub lines: u32,
    /// Columns the lexer advanced when `lines` is 0; else its column at
    /// `end`.
    pub column: u32,
    /// The statement reaches the end of the text, so it is only reused
    /// where the text ends the same way.
    pub at_eof: bool,
}

impl Extent {
    /// Byte length of the statement.
    pub fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Where [`Parser::parse_into`] puts statements, and where it looks for
/// statements already parsed from the same bytes.
pub(crate) trait StatementSink {
    /// A statement whose bytes start at byte `start` of the text, already
    /// parsed: take it and return its extent, which the parser skips.
    fn recall(&mut self, start: usize) -> Option<Extent>;
    /// A freshly parsed statement, with its extent when the parse proved
    /// one.
    fn parsed(&mut self, stmt: Statement, extent: Option<Extent>);
}

impl StatementSink for Vec<Statement> {
    fn recall(&mut self, _start: usize) -> Option<Extent> {
        None
    }

    fn parsed(&mut self, stmt: Statement, _extent: Option<Extent>) {
        self.push(stmt);
    }
}

/// Where the parser's tokens come from.
enum Source<'a> {
    /// Streaming straight from the zero-copy lexer.
    Lexer(Lexer<'a>),
    /// No source: the lookahead buffer already holds every token.
    Done,
}

/// Vectors a table body and identifier lists are parsed into before they
/// move into vectors of exactly their length. Only their storage carries
/// over from one use to the next.
#[derive(Default)]
pub(crate) struct Scratch {
    columns: Vec<Column>,
    constraints: Vec<TableConstraint>,
    indexes: Vec<IndexDef>,
    idents: Vec<Ident>,
    /// Type modifiers and foreign-key actions.
    words: Vec<String>,
}

impl Scratch {
    pub(crate) fn clear(&mut self) {
        self.columns.clear();
        self.constraints.clear();
        self.indexes.clear();
        self.idents.clear();
        self.words.clear();
    }
}

/// Move `v[from..]` into a vector of exactly its length (no allocation when
/// it is empty).
fn take_exact<T>(v: &mut Vec<T>, from: usize) -> Vec<T> {
    v.drain(from..).collect()
}

/// The recursive-descent parser over a streaming token source.
///
/// Lifetimes: `'a` is the source text (tokens borrow from it), `'i` is the
/// optional interner used to build [`Ident`]s, which the parser holds locked
/// until it is dropped.
pub struct Parser<'a, 'i> {
    source: Source<'a>,
    /// Lookahead buffer; `peek_at(n)` fills it to `n + 1` tokens.
    buf: VecDeque<Token<'a>>,
    /// Sticky EOF: once the source yields `Eof`, every further pull
    /// re-yields it (mirrors the old "never advance past the end" buffer).
    eof: Option<Token<'a>>,
    /// First lexer error, surfaced by `parse_script` (the streaming parser
    /// only discovers lex errors when it reaches them, but callers expect
    /// the tokenize-first behavior where a lex error always wins).
    lex_err: Option<ParseError>,
    dialect: Dialect,
    interning: Option<Interning<'i>>,
    scratch: Scratch,
}

// Hand the scratch vectors back to the interner for its next parse.
impl Drop for Parser<'_, '_> {
    fn drop(&mut self) {
        if let Some(interning) = &mut self.interning {
            interning.put_scratch(std::mem::take(&mut self.scratch));
        }
    }
}

impl<'a, 'i> Parser<'a, 'i> {
    /// Construct a parser over an eagerly tokenized buffer. The buffer must
    /// end with an `Eof` token (as [`Lexer::tokenize`] guarantees).
    ///
    /// This is the reference path the `parse_equiv` differential compares
    /// [`parse_schema_interned`] against: the whole script is lexed first
    /// (so a lex error always wins), and no interner is involved.
    pub fn new(tokens: Vec<Token<'a>>, dialect: Dialect) -> Self {
        Self {
            source: Source::Done,
            buf: tokens.into(),
            eof: None,
            lex_err: None,
            dialect,
            interning: None,
            scratch: Scratch::default(),
        }
    }

    /// Construct a streaming parser that pulls tokens from the lexer on
    /// demand and never materializes the whole token vector.
    pub fn streaming(sql: &'a str, dialect: Dialect) -> Self {
        Self {
            source: Source::Lexer(Lexer::new(sql, dialect)),
            buf: VecDeque::new(),
            eof: None,
            lex_err: None,
            dialect,
            interning: None,
            scratch: Scratch::default(),
        }
    }

    /// Intern every identifier this parser produces into `interner`, which
    /// stays locked until the parser is dropped, and parse into the scratch
    /// vectors the interner keeps.
    pub fn with_interner(mut self, interner: &'i Interner) -> Self {
        let mut interning = interner.lock();
        self.scratch = interning.take_scratch();
        self.interning = Some(interning);
        self
    }

    /// The dialect this parser was constructed for. The lexer already
    /// folded dialect-specific token forms (quoting, comments), so parsing
    /// itself is dialect-independent — but downstream consumers (error
    /// reporting, result-store digests) need to know which dialect a parse
    /// was keyed under.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    // ---- token-stream helpers -------------------------------------------

    /// Pull the next token from the source. Lexer errors are stashed and
    /// turned into a synthetic `Eof` at the error position, so parsing stops
    /// there and `parse_script` can surface the lex error.
    fn pull(&mut self) -> Token<'a> {
        if let Some(t) = &self.eof {
            return t.clone();
        }
        match &mut self.source {
            Source::Lexer(lx) => match lx.next_token() {
                Ok(t) => t,
                Err(e) => {
                    let (line, column) = (e.line, e.column);
                    if self.lex_err.is_none() {
                        self.lex_err = Some(e);
                    }
                    Token { kind: TokenKind::Eof, line, column }
                }
            },
            Source::Done => Token { kind: TokenKind::Eof, line: 1, column: 1 },
        }
    }

    /// Ensure the lookahead buffer holds at least `n + 1` tokens. The
    /// already-buffered case is the overwhelmingly common one (the grammar
    /// rarely looks past one token), so it stays on the inlined fast path.
    #[inline]
    fn fill(&mut self, n: usize) {
        if self.buf.len() <= n {
            self.fill_slow(n);
        }
    }

    fn fill_slow(&mut self, n: usize) {
        while self.buf.len() <= n {
            let t = self.pull();
            if matches!(t.kind, TokenKind::Eof) && self.eof.is_none() {
                self.eof = Some(t.clone());
            }
            self.buf.push_back(t);
        }
    }

    #[inline]
    fn peek(&mut self) -> &TokenKind<'a> {
        self.fill(0);
        &self.buf[0].kind
    }

    fn peek_token(&mut self) -> &Token<'a> {
        self.fill(0);
        &self.buf[0]
    }

    #[inline]
    fn peek_at(&mut self, offset: usize) -> &TokenKind<'a> {
        self.fill(offset);
        &self.buf[offset].kind
    }

    #[inline]
    fn advance(&mut self) -> TokenKind<'a> {
        self.fill(0);
        if matches!(self.buf[0].kind, TokenKind::Eof) {
            return TokenKind::Eof;
        }
        self.buf.pop_front().expect("buffer filled").kind
    }

    fn at_eof(&mut self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn err_here(&mut self, expected: &str) -> ParseError {
        let t = self.peek_token();
        ParseError::new(
            ParseErrorKind::UnexpectedToken {
                expected: expected.to_string(),
                found: t.kind.to_string(),
            },
            t.line,
            t.column,
        )
    }

    /// The end of the text where `expected` should have come.
    fn eof_here(&mut self, expected: &str) -> ParseError {
        let t = self.peek_token();
        ParseError::new(
            ParseErrorKind::UnexpectedEof { expected: expected.to_string() },
            t.line,
            t.column,
        )
    }

    /// Build an [`Ident`] for `text`, interning it when an interner is set.
    fn make_ident(&mut self, text: &str) -> Ident {
        intern(&mut self.interning, text)
    }

    /// The identifier under the cursor, if the current token can be one.
    /// Does not advance.
    fn ident_here(&mut self) -> Option<Ident> {
        self.fill(0);
        let text = self.buf[0].kind.ident_text()?;
        Some(intern(&mut self.interning, text))
    }

    /// Consume a bare keyword if present; returns whether it was consumed.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    /// Consume a run of keywords if all present in order.
    fn eat_kws(&mut self, kws: &[&str]) -> bool {
        for (i, kw) in kws.iter().enumerate() {
            if !self.peek_at(i).is_keyword(kw) {
                return false;
            }
        }
        for _ in kws {
            self.advance();
        }
        true
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(&format!("keyword {kw}")))
        }
    }

    fn expect(&mut self, kind: &TokenKind<'a>, what: &str) -> Result<()> {
        if self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err_here(what))
        }
    }

    /// Parse an identifier (word or quoted), stripping schema qualification
    /// (`db.table` → `table`).
    fn ident(&mut self) -> Result<Ident> {
        let mut name = match self.ident_here() {
            Some(id) => id,
            None => return Err(self.err_here("identifier")),
        };
        self.advance();
        while matches!(self.peek(), TokenKind::Dot) {
            self.advance();
            match self.ident_here() {
                Some(id) => {
                    name = id;
                    self.advance();
                }
                None => return Err(self.err_here("identifier after '.'")),
            }
        }
        Ok(name)
    }

    /// Skip tokens up to and including the next semicolon (or EOF).
    fn skip_to_semicolon(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Semicolon => {
                    self.advance();
                    return;
                }
                TokenKind::Eof => return,
                _ => {
                    self.advance();
                }
            }
        }
    }

    /// Skip a balanced parenthesized token group, assuming we sit on `(`.
    fn skip_parens(&mut self) -> Result<()> {
        self.expect(&TokenKind::LParen, "'('")?;
        let mut depth = 1usize;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    depth += 1;
                    self.advance();
                }
                TokenKind::RParen => {
                    depth -= 1;
                    self.advance();
                    if depth == 0 {
                        return Ok(());
                    }
                }
                TokenKind::Eof => return Err(self.eof_here("')'")),
                _ => {
                    self.advance();
                }
            }
        }
    }

    /// Capture the raw text of a balanced parenthesized group (inclusive).
    fn capture_parens(&mut self) -> Result<String> {
        let mut out = String::from("(");
        self.expect(&TokenKind::LParen, "'('")?;
        let mut depth = 1usize;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    depth += 1;
                    out.push('(');
                    self.advance();
                }
                TokenKind::RParen => {
                    depth -= 1;
                    self.advance();
                    out.push(')');
                    if depth == 0 {
                        return Ok(out);
                    }
                }
                TokenKind::Eof => return Err(self.eof_here("')'")),
                other => {
                    if !out.ends_with('(') {
                        out.push(' ');
                    }
                    out.push_str(&raw_text(other));
                    self.advance();
                }
            }
        }
    }

    // ---- script ----------------------------------------------------------

    /// Parse every statement in the script.
    pub fn parse_script(&mut self) -> Result<Vec<Statement>> {
        let mut out = Vec::with_capacity(16);
        self.parse_into(&mut out)?;
        Ok(out)
    }

    /// Parse every statement in the script into `sink`. Before each
    /// statement the sink may recall one it already holds for the bytes at
    /// the cursor; the parser then skips those bytes instead of lexing them.
    pub(crate) fn parse_into<S: StatementSink>(&mut self, sink: &mut S) -> Result<()> {
        loop {
            // Tolerate stray semicolons between statements.
            while matches!(self.peek(), TokenKind::Semicolon) {
                self.advance();
            }
            if self.at_eof() {
                // A lexer error truncated the stream: surface it, like the
                // tokenize-first path would have before parsing began.
                if let Some(e) = self.lex_err.take() {
                    return Err(e);
                }
                return Ok(());
            }
            let start = self.statement_start();
            if let Some((start, line, column)) = start {
                if let Some(extent) = sink.recall(start) {
                    self.skip_extent(&extent, line, column);
                    continue;
                }
            }
            match self.statement() {
                Ok(s) => {
                    let extent = start.and_then(|(s, l, c)| self.extent_since(s, l, c));
                    sink.parsed(s, extent);
                }
                // Prefer the lexer's own error over the parse error its
                // synthetic EOF provoked.
                Err(e) => return Err(self.lex_err.take().unwrap_or(e)),
            }
        }
    }

    /// Byte offset, line and column of the statement about to be parsed,
    /// when its first token is the only one buffered (so the lexer has read
    /// nothing past it); `None` when the parser cannot tell.
    fn statement_start(&self) -> Option<(usize, u32, u32)> {
        match (&self.source, self.buf.len()) {
            (Source::Lexer(lx), 1) => {
                Some((lx.token_start(), self.buf[0].line, self.buf[0].column))
            }
            _ => None,
        }
    }

    /// The extent of the statement just parsed from `start` (at `line`,
    /// `column`), if its parse provably read no byte past it: it consumed
    /// every token it looked at and the last was a `;`, or it looked at the
    /// end of the text and nothing else past its last token.
    fn extent_since(&self, start: usize, line: u32, column: u32) -> Option<Extent> {
        let Source::Lexer(lx) = &self.source else { return None };
        if self.lex_err.is_some() {
            return None;
        }
        let at_eof = match self.buf.len() {
            0 if lx.after_semicolon() => false,
            1 if matches!(self.buf[0].kind, TokenKind::Eof) => true,
            _ => return None,
        };
        let (end, end_line, end_column) = lx.cursor();
        let lines = end_line - line;
        let column = if lines == 0 { end_column - column } else { end_column };
        Some(Extent { start, end, lines, column, at_eof })
    }

    /// Continue after a recalled statement: drop its buffered first token
    /// (at `line`, `column`) and move the lexer past its bytes.
    fn skip_extent(&mut self, extent: &Extent, line: u32, column: u32) {
        let Source::Lexer(lx) = &mut self.source else { return };
        let column = if extent.lines == 0 { column + extent.column } else { extent.column };
        lx.seek(extent.end, line + extent.lines, column);
        self.buf.clear();
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.peek().is_keyword("CREATE") {
            self.create_statement()
        } else if self.peek().is_keyword("ALTER") && self.peek_at(1).is_keyword("TABLE") {
            self.alter_table()
        } else if self.peek().is_keyword("DROP") && self.peek_at(1).is_keyword("TABLE") {
            self.drop_table()
        } else if self.peek().is_keyword("RENAME") && self.peek_at(1).is_keyword("TABLE") {
            self.rename_table()
        } else {
            let leading = match self.peek().ident_text() {
                Some(t) => t.to_ascii_uppercase(),
                None => self.peek().to_string(),
            };
            self.skip_to_semicolon();
            Ok(Statement::Skipped { leading })
        }
    }

    fn create_statement(&mut self) -> Result<Statement> {
        // We sit on CREATE. Look ahead for what is being created. The
        // comparisons are case-insensitive in place — this runs once per
        // CREATE statement and must not allocate on the TABLE/INDEX path.
        const MODIFIERS: &[&str] = &[
            "TEMPORARY",
            "TEMP",
            "UNIQUE",
            "FULLTEXT",
            "SPATIAL",
            "OR",
            "REPLACE",
            "UNLOGGED",
            "GLOBAL",
            "LOCAL",
        ];
        let mut i = 1;
        // Modifiers that may precede the object keyword.
        while matches!(self.peek_at(i).ident_text(), Some(w) if MODIFIERS
            .iter()
            .any(|m| w.eq_ignore_ascii_case(m)))
        {
            i += 1;
        }
        let object = self.peek_at(i).ident_text();
        if object.is_some_and(|w| w.eq_ignore_ascii_case("TABLE")) {
            self.create_table()
        } else if object.is_some_and(|w| w.eq_ignore_ascii_case("INDEX")) {
            self.create_index()
        } else {
            let object = object.map(str::to_ascii_uppercase).unwrap_or_default();
            self.skip_to_semicolon();
            Ok(Statement::Skipped { leading: format!("CREATE {object}") })
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        let _ = self.eat_kw("TEMPORARY") || self.eat_kw("TEMP") || self.eat_kw("UNLOGGED");
        self.expect_kw("TABLE")?;
        let if_not_exists = self.eat_kws(&["IF", "NOT", "EXISTS"]);
        let name = self.ident()?;
        let mut table = Table::new(name);

        // `CREATE TABLE t LIKE other;` or `AS SELECT`: skip, no columns known.
        if !matches!(self.peek(), TokenKind::LParen) {
            self.skip_to_semicolon();
            return Ok(Statement::CreateTable { table: Arc::new(table), if_not_exists });
        }

        self.advance(); // '('
        loop {
            self.table_element()?;
            match self.peek() {
                TokenKind::Comma => {
                    self.advance();
                }
                TokenKind::RParen => {
                    self.advance();
                    break;
                }
                _ => return Err(self.err_here("',' or ')' in table definition")),
            }
        }
        // Table options (ENGINE=… DEFAULT CHARSET=… etc.) up to semicolon.
        self.skip_to_semicolon();
        let s = &mut self.scratch;
        table.columns = take_exact(&mut s.columns, 0);
        table.constraints = take_exact(&mut s.constraints, 0);
        table.indexes = take_exact(&mut s.indexes, 0);
        Ok(Statement::CreateTable { table: Arc::new(table), if_not_exists })
    }

    /// One element in the parenthesized body: a column or a constraint,
    /// pushed onto the scratch vectors.
    fn table_element(&mut self) -> Result<()> {
        // Postgres EXCLUDE constraints and LIKE clauses inside the body are
        // tolerated by skipping the whole element (they carry no logical
        // attributes of their own).
        if self.peek().is_keyword("EXCLUDE") || self.peek().is_keyword("LIKE") {
            self.skip_table_element();
            return Ok(());
        }
        // Named constraint?
        if self.peek().is_keyword("CONSTRAINT") {
            self.advance();
            // Optional constraint name (absent when CONSTRAINT is followed
            // directly by the constraint kind).
            let name = if !self.peek_constraint_kind() { Some(self.ident()?) } else { None };
            let c = self.table_constraint(name)?;
            self.scratch.constraints.push(c);
            return Ok(());
        }
        if self.peek_constraint_kind() {
            let c = self.table_constraint(None)?;
            self.scratch.constraints.push(c);
            return Ok(());
        }
        // MySQL `UNIQUE KEY name (cols)` is a uniqueness constraint.
        if self.peek().is_keyword("UNIQUE")
            && (self.peek_at(1).is_keyword("KEY") || self.peek_at(1).is_keyword("INDEX"))
        {
            let c = self.table_constraint(None)?;
            self.scratch.constraints.push(c);
            return Ok(());
        }
        // MySQL index entries.
        if self.peek().is_keyword("KEY")
            || self.peek().is_keyword("INDEX")
            || self.peek().is_keyword("FULLTEXT")
            || self.peek().is_keyword("SPATIAL")
        {
            let idx = self.inline_index(false)?;
            self.scratch.indexes.push(idx);
            return Ok(());
        }
        // Otherwise: a column definition.
        let col = self.column_def()?;
        self.scratch.columns.push(col);
        Ok(())
    }

    fn peek_constraint_kind(&mut self) -> bool {
        (self.peek().is_keyword("PRIMARY") && self.peek_at(1).is_keyword("KEY"))
            || (self.peek().is_keyword("FOREIGN") && self.peek_at(1).is_keyword("KEY"))
            || (self.peek().is_keyword("UNIQUE")
                && matches!(self.peek_at(1), TokenKind::LParen))
            || self.peek().is_keyword("CHECK")
    }

    fn table_constraint(&mut self, name: Option<Ident>) -> Result<TableConstraint> {
        if self.eat_kws(&["PRIMARY", "KEY"]) {
            // MySQL allows an index type: PRIMARY KEY USING BTREE (…)
            self.maybe_using_clause();
            let columns = self.paren_column_list()?;
            return Ok(TableConstraint::PrimaryKey { name, columns });
        }
        if self.eat_kws(&["FOREIGN", "KEY"]) {
            // Optional index name before the column list (MySQL).
            let _ = if !matches!(self.peek(), TokenKind::LParen) {
                Some(self.ident()?)
            } else {
                None
            };
            let columns = self.paren_column_list()?;
            self.expect_kw("REFERENCES")?;
            let foreign_table = self.ident()?;
            let foreign_columns = if matches!(self.peek(), TokenKind::LParen) {
                self.paren_column_list()?
            } else {
                Vec::new()
            };
            let actions = self.fk_actions();
            return Ok(TableConstraint::ForeignKey(ForeignKey {
                name,
                columns,
                foreign_table,
                foreign_columns,
                actions,
            }));
        }
        if self.eat_kw("UNIQUE") {
            let _ = self.eat_kw("KEY") || self.eat_kw("INDEX");
            let idx_name = if !matches!(self.peek(), TokenKind::LParen) {
                Some(self.ident()?)
            } else {
                None
            };
            self.maybe_using_clause();
            let columns = self.paren_column_list()?;
            return Ok(TableConstraint::Unique { name: name.or(idx_name), columns });
        }
        if self.eat_kw("CHECK") {
            let expr = self.capture_parens()?;
            // MySQL 8: [NOT] ENFORCED
            let _ = self.eat_kws(&["NOT", "ENFORCED"]) || self.eat_kw("ENFORCED");
            return Ok(TableConstraint::Check { name, expr });
        }
        Err(self.err_here("table constraint"))
    }

    /// MySQL `KEY name (cols)` / `INDEX name (cols)` / FULLTEXT/SPATIAL keys.
    fn inline_index(&mut self, unique: bool) -> Result<IndexDef> {
        // We may sit on FULLTEXT/SPATIAL first.
        let _ = self.eat_kw("FULLTEXT") || self.eat_kw("SPATIAL");
        let _ = self.eat_kw("KEY") || self.eat_kw("INDEX");
        let name =
            if !matches!(self.peek(), TokenKind::LParen) && !self.peek().is_keyword("USING") {
                Some(self.ident()?)
            } else {
                None
            };
        self.maybe_using_clause();
        let columns = self.paren_column_list()?;
        self.maybe_using_clause();
        Ok(IndexDef { name, columns, unique })
    }

    fn maybe_using_clause(&mut self) {
        if self.peek().is_keyword("USING") {
            self.advance();
            self.advance(); // BTREE | HASH | GIN | …
        }
    }

    /// `(col [(len)] [ASC|DESC], …)` — index/key column lists, lengths and
    /// directions discarded. Also tolerates functional index entries by
    /// skipping balanced parens.
    fn paren_column_list(&mut self) -> Result<Vec<Ident>> {
        self.expect(&TokenKind::LParen, "'('")?;
        let from = self.scratch.idents.len();
        loop {
            match self.peek() {
                TokenKind::RParen => {
                    self.advance();
                    return Ok(take_exact(&mut self.scratch.idents, from));
                }
                TokenKind::LParen => {
                    // Functional index component: skip it.
                    self.skip_parens()?;
                }
                TokenKind::Comma => {
                    self.advance();
                }
                TokenKind::Eof => return Err(self.eof_here("')'")),
                _ => {
                    if let Some(id) = self.ident_here() {
                        self.advance();
                        // Optional prefix length `(10)` or ASC/DESC.
                        if matches!(self.peek(), TokenKind::LParen) {
                            self.skip_parens()?;
                        }
                        let _ = self.eat_kw("ASC") || self.eat_kw("DESC");
                        self.scratch.idents.push(id);
                    } else {
                        self.advance(); // tolerate exotic tokens
                    }
                }
            }
        }
    }

    fn fk_actions(&mut self) -> Vec<String> {
        let from = self.scratch.words.len();
        loop {
            if self.peek().is_keyword("ON")
                && (self.peek_at(1).is_keyword("DELETE")
                    || self.peek_at(1).is_keyword("UPDATE"))
            {
                self.advance();
                let which = self.advance().to_string().to_ascii_uppercase();
                let mut action = String::new();
                // Action: CASCADE | RESTRICT | SET NULL | SET DEFAULT | NO ACTION
                while let Some(w) = self.peek().ident_text() {
                    let up = w.to_ascii_uppercase();
                    if !matches!(
                        up.as_str(),
                        "CASCADE" | "RESTRICT" | "SET" | "NULL" | "DEFAULT" | "NO" | "ACTION"
                    ) {
                        break;
                    }
                    if !action.is_empty() {
                        action.push(' ');
                    }
                    action.push_str(&up);
                    self.advance();
                }
                self.scratch.words.push(format!("ON {which} {action}"));
            } else if self.eat_kw("DEFERRABLE")
                || self.eat_kws(&["NOT", "DEFERRABLE"])
                || self.eat_kws(&["INITIALLY", "DEFERRED"])
                || self.eat_kws(&["INITIALLY", "IMMEDIATE"])
                || self.eat_kws(&["MATCH", "FULL"])
                || self.eat_kws(&["MATCH", "PARTIAL"])
                || self.eat_kws(&["MATCH", "SIMPLE"])
            {
                // Postgres FK decorations, discarded.
            } else {
                return take_exact(&mut self.scratch.words, from);
            }
        }
    }

    // ---- column definitions ----------------------------------------------

    /// A column definition; inline `REFERENCES` and `CHECK` clauses become
    /// table constraints on the scratch vector.
    fn column_def(&mut self) -> Result<Column> {
        let name = self.ident()?;
        let (sql_type, serial_auto) = self.sql_type()?;
        let mut col = Column::new(name, sql_type);
        col.auto_increment = serial_auto;
        if serial_auto {
            col.nullable = false; // SERIAL implies NOT NULL
        }
        self.column_options(&mut col)?;
        Ok(col)
    }

    /// A column definition outside a table body (`ALTER TABLE`), whose
    /// inline constraints are dropped.
    fn detached_column_def(&mut self) -> Result<Column> {
        let mark = self.scratch.constraints.len();
        let col = self.column_def();
        self.scratch.constraints.truncate(mark);
        col
    }

    /// Parse a data type. Returns the type and whether it was a SERIAL
    /// pseudo-type (implying auto-increment).
    fn sql_type(&mut self) -> Result<(SqlType, bool)> {
        if self.peek().ident_text().is_none() {
            return Err(self.err_here("data type"));
        }
        let first_tok = self.advance();
        let raw = first_tok.ident_text().expect("checked ident token");
        // Already-uppercase names (the canonical form every dump printed by
        // this workspace carries) are borrowed straight from the source
        // text; only mixed-case input pays for a case-folded copy.
        let mut name: Cow<'_, str> = if raw.bytes().any(|b| b.is_ascii_lowercase()) {
            Cow::Owned(raw.to_ascii_uppercase())
        } else {
            Cow::Borrowed(raw)
        };

        // Multi-word types. (WITH/WITHOUT TIME ZONE for TIME/TIMESTAMP is
        // handled after the params: precision comes first in PG —
        // `timestamp(3) with time zone` — and both orders are re-checked
        // there.)
        if name == "DOUBLE" {
            if self.eat_kw("PRECISION") {
                name = Cow::Borrowed("DOUBLE PRECISION");
            }
        } else if name == "CHARACTER" || name == "CHAR" || name == "NATIONAL" {
            if self.eat_kw("VARYING") {
                name = Cow::Borrowed("VARCHAR");
            } else if name == "NATIONAL" {
                if self.eat_kw("CHARACTER") || self.eat_kw("CHAR") {
                    let varying = self.eat_kw("VARYING");
                    name = Cow::Borrowed(if varying { "NVARCHAR" } else { "NCHAR" });
                }
            } else if name == "CHARACTER" {
                name = Cow::Borrowed("CHAR");
            }
        } else if name == "BIT" && self.eat_kw("VARYING") {
            name = Cow::Borrowed("VARBIT");
        }

        // Parameters.
        let mut params = Vec::new();
        if matches!(self.peek(), TokenKind::LParen) {
            self.advance();
            let from = self.scratch.idents.len();
            loop {
                let p = match self.peek() {
                    TokenKind::RParen => {
                        self.advance();
                        break;
                    }
                    TokenKind::Comma => {
                        self.advance();
                        continue;
                    }
                    // Text that ends inside the list (a lex error ends it
                    // too): `advance` does not move past the end.
                    TokenKind::Eof => return Err(self.eof_here("')'")),
                    TokenKind::Number(n) => {
                        // Copy the `&'a str` out of the token so interning
                        // can borrow `self` after the peek ends.
                        let text: &'a str = n;
                        self.make_ident(text)
                    }
                    TokenKind::StringLit(s) => {
                        let quoted = format!("'{s}'");
                        self.make_ident(&quoted)
                    }
                    other => {
                        let text = raw_text(other);
                        self.make_ident(&text)
                    }
                };
                self.scratch.idents.push(p);
                self.advance();
            }
            params = take_exact(&mut self.scratch.idents, from);
        }

        // WITH/WITHOUT TIME ZONE (after optional precision). `WITH TIME ZONE`
        // canonicalizes to the TZ-carrying type name so a zone change counts
        // as a data-type change in the diff.
        if (name == "TIME" || name == "TIMESTAMP")
            && (self.peek().is_keyword("WITH") || self.peek().is_keyword("WITHOUT"))
        {
            let with = self.advance().is_keyword("WITH");
            self.expect_kw("TIME")?;
            self.expect_kw("ZONE")?;
            if with {
                name = Cow::Borrowed(if name == "TIME" { "TIMETZ" } else { "TIMESTAMPTZ" });
            }
        }

        // MySQL display modifiers.
        let from = self.scratch.words.len();
        while self.peek().is_keyword("UNSIGNED")
            || self.peek().is_keyword("SIGNED")
            || self.peek().is_keyword("ZEROFILL")
        {
            if let Some(w) = self.peek().ident_text() {
                let modifier = w.to_ascii_uppercase();
                self.scratch.words.push(modifier);
            }
            self.advance();
        }

        // Postgres array suffix `[]` (possibly multi-dimensional).
        while matches!(self.peek(), TokenKind::Op(o) if *o == "[") {
            self.advance();
            if matches!(self.peek(), TokenKind::Number(_)) {
                self.advance();
            }
            if matches!(self.peek(), TokenKind::Op(o) if *o == "]") {
                self.advance();
            }
            name.to_mut().push_str("[]");
        }

        // `name` is already uppercase here, so alias lookup needs no second
        // case-fold; un-aliased names are interned verbatim.
        let (canonical, serial) = normalize_type_name(&name);
        let tname = self.make_ident(canonical.unwrap_or(&name));
        let modifiers = take_exact(&mut self.scratch.words, from);
        Ok((SqlType { name: tname, params, modifiers }, serial))
    }

    fn column_options(&mut self, col: &mut Column) -> Result<()> {
        loop {
            if self.eat_kws(&["NOT", "NULL"]) {
                col.nullable = false;
            } else if self.eat_kw("NULL") {
                col.nullable = true;
            } else if self.eat_kw("DEFAULT") {
                col.default = Some(self.default_expr()?);
            } else if self.eat_kw("AUTO_INCREMENT") || self.eat_kw("AUTOINCREMENT") {
                col.auto_increment = true;
            } else if self.eat_kws(&["PRIMARY", "KEY"]) {
                col.inline_primary_key = true;
                col.nullable = false;
            } else if self.eat_kw("UNIQUE") {
                let _ = self.eat_kw("KEY");
                col.unique = true;
            } else if self.eat_kw("KEY") {
                // Bare KEY after a column in MySQL means "make it a key".
            } else if self.eat_kw("COMMENT") {
                if let TokenKind::StringLit(s) = self.peek().clone() {
                    col.comment = Some(s.into_owned());
                    self.advance();
                }
            } else if self.eat_kw("COLLATE")
                || self.eat_kws(&["CHARACTER", "SET"])
                || self.eat_kw("CHARSET")
            {
                let _ = self.ident();
            } else if self.eat_kws(&["ON", "UPDATE"]) || self.eat_kws(&["ON", "DELETE"]) {
                // e.g. `ON UPDATE CURRENT_TIMESTAMP`
                let _ = self.default_expr()?;
            } else if self.eat_kw("REFERENCES") {
                // Inline FK: promote to table-level constraint.
                let foreign_table = self.ident()?;
                let foreign_columns = if matches!(self.peek(), TokenKind::LParen) {
                    self.paren_column_list()?
                } else {
                    Vec::new()
                };
                let actions = self.fk_actions();
                self.scratch.constraints.push(TableConstraint::ForeignKey(ForeignKey {
                    name: None,
                    columns: vec![col.name.clone()],
                    foreign_table,
                    foreign_columns,
                    actions,
                }));
            } else if self.eat_kw("CHECK") {
                let expr = self.capture_parens()?;
                self.scratch.constraints.push(TableConstraint::Check { name: None, expr });
            } else if self.eat_kw("CONSTRAINT") {
                // Named inline constraint: `CONSTRAINT nn NOT NULL` etc.
                let _ = self.ident();
            } else if self.eat_kws(&["GENERATED", "ALWAYS", "AS"])
                || self.eat_kws(&["GENERATED", "BY", "DEFAULT", "AS"])
            {
                if self.eat_kw("IDENTITY") {
                    col.auto_increment = true;
                    if matches!(self.peek(), TokenKind::LParen) {
                        self.skip_parens()?;
                    }
                } else if matches!(self.peek(), TokenKind::LParen) {
                    self.skip_parens()?;
                    let _ = self.eat_kw("STORED") || self.eat_kw("VIRTUAL");
                }
            } else {
                return Ok(());
            }
        }
    }

    /// Parse a DEFAULT expression into raw text. Handles literals, NULL,
    /// keywords like CURRENT_TIMESTAMP (with optional precision), function
    /// calls, signed numbers, and Postgres `::type` casts.
    fn default_expr(&mut self) -> Result<String> {
        let mut out;
        match self.peek().clone() {
            TokenKind::StringLit(s) => {
                out = format!("'{s}'");
                self.advance();
            }
            TokenKind::Number(n) => {
                out = n.to_string();
                self.advance();
            }
            TokenKind::Op(o) if o == "-" || o == "+" => {
                self.advance();
                if let TokenKind::Number(n) = self.peek().clone() {
                    out = format!("{o}{n}");
                    self.advance();
                } else {
                    out = o.to_string();
                }
            }
            TokenKind::LParen => {
                out = self.capture_parens()?;
            }
            TokenKind::Word(w) => {
                out = w.to_string();
                self.advance();
                if matches!(self.peek(), TokenKind::LParen) {
                    out.push_str(&self.capture_parens()?);
                } else if let TokenKind::StringLit(s) = self.peek().clone() {
                    // Charset introducers and bit literals: `_utf8'x'`, `b'0'`.
                    out.push_str(&format!("'{s}'"));
                    self.advance();
                }
            }
            TokenKind::QuotedIdent(q) => {
                out = q.into_owned();
                self.advance();
            }
            _ => return Err(self.err_here("default expression")),
        }
        // Postgres cast chains: `'x'::character varying`.
        while matches!(self.peek(), TokenKind::Op(o) if *o == "::") {
            self.advance();
            let (t, _) = self.sql_type()?;
            out.push_str("::");
            out.push_str(&t.to_string());
        }
        Ok(out)
    }

    // ---- ALTER TABLE -------------------------------------------------------

    fn alter_table(&mut self) -> Result<Statement> {
        self.expect_kw("ALTER")?;
        self.expect_kw("TABLE")?;
        let _ = self.eat_kws(&["IF", "EXISTS"]);
        let _ = self.eat_kw("ONLY"); // Postgres
        let table = self.ident()?;
        let mut ops = Vec::new();
        loop {
            ops.push(self.alter_op()?);
            match self.peek() {
                TokenKind::Comma => {
                    self.advance();
                }
                TokenKind::Semicolon => {
                    self.advance();
                    break;
                }
                TokenKind::Eof => break,
                _ => {
                    // Unknown trailing clause (table options): skip statement.
                    self.skip_to_semicolon();
                    break;
                }
            }
        }
        Ok(Statement::AlterTable { table, ops })
    }

    fn alter_op(&mut self) -> Result<AlterOp> {
        if self.eat_kw("ADD") {
            if self.eat_kw("CONSTRAINT") {
                let name =
                    if !self.peek_constraint_kind() { Some(self.ident()?) } else { None };
                let c = self.table_constraint(name)?;
                return Ok(AlterOp::AddConstraint(c));
            }
            if self.peek_constraint_kind() {
                let c = self.table_constraint(None)?;
                return Ok(AlterOp::AddConstraint(c));
            }
            if self.peek().is_keyword("KEY")
                || self.peek().is_keyword("INDEX")
                || self.peek().is_keyword("FULLTEXT")
                || self.peek().is_keyword("SPATIAL")
            {
                let idx = self.inline_index(false)?;
                return Ok(AlterOp::AddIndex(idx));
            }
            if self.peek().is_keyword("UNIQUE") {
                self.advance();
                let idx = self.inline_index(true)?;
                return Ok(AlterOp::AddIndex(idx));
            }
            let _ = self.eat_kw("COLUMN");
            let _ = self.eat_kws(&["IF", "NOT", "EXISTS"]);
            // ADD COLUMN supports parenthesized multi-column form in MySQL;
            // we parse the single-column form and let apply() handle lists
            // via repeated ops. Parenthesized form: skip gracefully.
            if matches!(self.peek(), TokenKind::LParen) {
                // `ADD (col def, col def)` — parse the first column; skip the
                // rest with balanced-paren awareness (types carry parens).
                self.advance();
                let col = self.detached_column_def()?;
                let mut depth = 1usize;
                loop {
                    match self.peek() {
                        TokenKind::LParen => {
                            depth += 1;
                            self.advance();
                        }
                        TokenKind::RParen => {
                            depth -= 1;
                            self.advance();
                            if depth == 0 {
                                break;
                            }
                        }
                        TokenKind::Eof => break,
                        _ => {
                            self.advance();
                        }
                    }
                }
                return Ok(AlterOp::AddColumn(col));
            }
            let col = self.detached_column_def()?;
            // Position clauses.
            if self.eat_kw("FIRST") {
            } else if self.eat_kw("AFTER") {
                let _ = self.ident();
            }
            // MySQL allows `ADD c INT NOT NULL AFTER x` — col parsed already.
            return Ok(AlterOp::AddColumn(col));
        }
        if self.eat_kw("DROP") {
            if self.eat_kws(&["PRIMARY", "KEY"]) {
                return Ok(AlterOp::DropPrimaryKey);
            }
            if self.eat_kw("CONSTRAINT")
                || self.eat_kws(&["FOREIGN", "KEY"])
                || self.eat_kw("KEY")
                || self.eat_kw("INDEX")
            {
                let _ = self.eat_kws(&["IF", "EXISTS"]);
                let name = self.ident()?;
                let _ = self.eat_kw("CASCADE") || self.eat_kw("RESTRICT");
                return Ok(AlterOp::DropConstraint(name));
            }
            let _ = self.eat_kw("COLUMN");
            let _ = self.eat_kws(&["IF", "EXISTS"]);
            let name = self.ident()?;
            let _ = self.eat_kw("CASCADE") || self.eat_kw("RESTRICT");
            return Ok(AlterOp::DropColumn(name));
        }
        if self.eat_kw("MODIFY") {
            let _ = self.eat_kw("COLUMN");
            let col = self.detached_column_def()?;
            if self.eat_kw("AFTER") {
                let _ = self.ident();
            } else {
                let _ = self.eat_kw("FIRST");
            }
            return Ok(AlterOp::ModifyColumn(col));
        }
        if self.eat_kw("CHANGE") {
            let _ = self.eat_kw("COLUMN");
            let old_name = self.ident()?;
            let col = self.detached_column_def()?;
            if self.eat_kw("AFTER") {
                let _ = self.ident();
            } else {
                let _ = self.eat_kw("FIRST");
            }
            return Ok(AlterOp::ChangeColumn { old_name, new: col });
        }
        if self.eat_kw("ALTER") {
            let _ = self.eat_kw("COLUMN");
            let column = self.ident()?;
            if self.eat_kws(&["TYPE"]) || self.eat_kws(&["SET", "DATA", "TYPE"]) {
                let (sql_type, _) = self.sql_type()?;
                // USING expr — skip.
                if self.eat_kw("USING") {
                    self.skip_using_expr();
                }
                return Ok(AlterOp::SetColumnType { column, sql_type });
            }
            if self.eat_kws(&["SET", "NOT", "NULL"]) {
                return Ok(AlterOp::SetColumnNotNull { column, not_null: true });
            }
            if self.eat_kws(&["DROP", "NOT", "NULL"]) {
                return Ok(AlterOp::SetColumnNotNull { column, not_null: false });
            }
            if self.eat_kws(&["SET", "DEFAULT"]) {
                let d = self.default_expr()?;
                return Ok(AlterOp::SetColumnDefault { column, default: Some(d) });
            }
            if self.eat_kws(&["DROP", "DEFAULT"]) {
                return Ok(AlterOp::SetColumnDefault { column, default: None });
            }
            // Unknown ALTER COLUMN clause: skip to comma/semicolon.
            self.skip_clause();
            return Ok(AlterOp::Ignored);
        }
        if self.eat_kw("RENAME") {
            if self.eat_kw("COLUMN") {
                let old_name = self.ident()?;
                self.expect_kw("TO")?;
                let new_name = self.ident()?;
                return Ok(AlterOp::RenameColumn { old_name, new_name });
            }
            let _ = self.eat_kw("TO") || self.eat_kw("AS");
            let new_name = self.ident()?;
            return Ok(AlterOp::RenameTable { new_name });
        }
        // ENGINE=…, AUTO_INCREMENT=…, CONVERT TO CHARACTER SET, OWNER TO, etc.
        self.skip_clause();
        Ok(AlterOp::Ignored)
    }

    /// Skip the rest of a table-body element: stop *before* the separating
    /// comma or the body's closing paren (balanced inside nested parens).
    fn skip_table_element(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    depth += 1;
                    self.advance();
                }
                TokenKind::RParen => {
                    if depth == 0 {
                        return; // the table body's closing paren
                    }
                    depth -= 1;
                    self.advance();
                }
                TokenKind::Comma if depth == 0 => return,
                TokenKind::Semicolon | TokenKind::Eof => return,
                _ => {
                    self.advance();
                }
            }
        }
    }

    /// Skip to the next top-level comma or semicolon (balanced in parens).
    fn skip_clause(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    depth += 1;
                    self.advance();
                }
                TokenKind::RParen => {
                    depth = depth.saturating_sub(1);
                    self.advance();
                }
                TokenKind::Comma if depth == 0 => return,
                TokenKind::Semicolon | TokenKind::Eof => return,
                _ => {
                    self.advance();
                }
            }
        }
    }

    /// Skip a `USING <expr>` tail inside ALTER COLUMN TYPE.
    fn skip_using_expr(&mut self) {
        self.skip_clause();
    }

    // ---- DROP TABLE / CREATE INDEX ----------------------------------------

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        self.expect_kw("TABLE")?;
        let if_exists = self.eat_kws(&["IF", "EXISTS"]);
        let mut names = vec![self.ident()?];
        while matches!(self.peek(), TokenKind::Comma) {
            self.advance();
            names.push(self.ident()?);
        }
        let _ = self.eat_kw("CASCADE") || self.eat_kw("RESTRICT");
        self.skip_to_semicolon();
        Ok(Statement::DropTable { names, if_exists })
    }

    fn rename_table(&mut self) -> Result<Statement> {
        self.expect_kw("RENAME")?;
        self.expect_kw("TABLE")?;
        let mut renames = Vec::new();
        loop {
            let from = self.ident()?;
            self.expect_kw("TO")?;
            let to = self.ident()?;
            renames.push((from, to));
            if matches!(self.peek(), TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        self.skip_to_semicolon();
        Ok(Statement::RenameTable { renames })
    }

    fn create_index(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        let unique = self.eat_kw("UNIQUE");
        let _ = self.eat_kw("FULLTEXT") || self.eat_kw("SPATIAL");
        self.expect_kw("INDEX")?;
        let _ = self.eat_kw("CONCURRENTLY");
        let _ = self.eat_kws(&["IF", "NOT", "EXISTS"]);
        let name = if !self.peek().is_keyword("ON") { Some(self.ident()?) } else { None };
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.maybe_using_clause();
        let columns = if matches!(self.peek(), TokenKind::LParen) {
            self.paren_column_list()?
        } else {
            Vec::new()
        };
        self.skip_to_semicolon();
        Ok(Statement::CreateIndex { table, index: IndexDef { name, columns, unique } })
    }
}

/// `text` as an [`Ident`], through the held interner if there is one.
fn intern(interning: &mut Option<Interning<'_>>, text: &str) -> Ident {
    match interning {
        Some(i) => i.ident(text),
        None => Ident::new(text),
    }
}

/// Render a token back to approximate raw text (used when capturing
/// expressions verbatim).
fn raw_text(kind: &TokenKind<'_>) -> String {
    match kind {
        TokenKind::Word(w) => (*w).to_string(),
        TokenKind::QuotedIdent(q) => q.to_string(),
        TokenKind::StringLit(s) => format!("'{s}'"),
        TokenKind::Number(n) => (*n).to_string(),
        TokenKind::LParen => "(".into(),
        TokenKind::RParen => ")".into(),
        TokenKind::Comma => ",".into(),
        TokenKind::Semicolon => ";".into(),
        TokenKind::Dot => ".".into(),
        TokenKind::Eq => "=".into(),
        TokenKind::Op(o) => (*o).to_string(),
        TokenKind::Eof => String::new(),
    }
}

/// Normalize type-name aliases across dialects. The input is already
/// uppercased by `sql_type`; returns the canonical static name when the
/// alias table matches (so no fresh `String` is built on the hot path) and
/// whether the type was a SERIAL pseudo-type.
fn normalize_type_name(up: &str) -> (Option<&'static str>, bool) {
    match up {
        "INTEGER" | "INT4" | "MEDIUMINT" => (Some("INT"), false),
        "INT8" => (Some("BIGINT"), false),
        "INT2" => (Some("SMALLINT"), false),
        "SERIAL" | "SERIAL4" => (Some("INT"), true),
        "BIGSERIAL" | "SERIAL8" => (Some("BIGINT"), true),
        "SMALLSERIAL" | "SERIAL2" => (Some("SMALLINT"), true),
        "BOOL" => (Some("BOOLEAN"), false),
        "DEC" | "FIXED" | "NUMERIC" => (Some("DECIMAL"), false),
        "FLOAT4" => (Some("REAL"), false),
        "FLOAT8" => (Some("DOUBLE PRECISION"), false),
        "CHARACTER" => (Some("CHAR"), false),
        _ => (None, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_my(sql: &str) -> Vec<Statement> {
        parse_statements(sql, Dialect::MySql).unwrap()
    }

    fn parse_pg(sql: &str) -> Vec<Statement> {
        parse_statements(sql, Dialect::Postgres).unwrap()
    }

    fn only_table(stmts: Vec<Statement>) -> Arc<Table> {
        match stmts.into_iter().next().unwrap() {
            Statement::CreateTable { table, .. } => table,
            other => panic!("expected CreateTable, got {other:?}"),
        }
    }

    #[test]
    fn simple_create_table() {
        let t =
            only_table(parse_my("CREATE TABLE users (id INT NOT NULL, name VARCHAR(100));"));
        assert_eq!(t.name, "users");
        assert_eq!(t.columns.len(), 2);
        assert!(!t.columns[0].nullable);
        assert!(t.columns[1].nullable);
        assert_eq!(t.columns[1].sql_type, SqlType::with_params("VARCHAR", &["100"]));
    }

    #[test]
    fn create_table_if_not_exists() {
        match &parse_my("CREATE TABLE IF NOT EXISTS t (a INT);")[0] {
            Statement::CreateTable { if_not_exists, .. } => assert!(*if_not_exists),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inline_and_table_level_primary_keys() {
        let t = only_table(parse_my(
            "CREATE TABLE t (id INT PRIMARY KEY, b INT, PRIMARY KEY (id));",
        ));
        assert!(t.columns[0].inline_primary_key);
        assert_eq!(t.primary_key(), vec!["id".to_string()]);
    }

    #[test]
    fn mysql_full_flavor() {
        let sql = r#"
            CREATE TABLE `order_items` (
              `id` int(11) unsigned NOT NULL AUTO_INCREMENT,
              `order_id` int(11) NOT NULL,
              `price` decimal(10,2) DEFAULT '0.00',
              `status` enum('new','paid') NOT NULL DEFAULT 'new',
              `created` timestamp NOT NULL DEFAULT CURRENT_TIMESTAMP ON UPDATE CURRENT_TIMESTAMP,
              `note` text COMMENT 'free form',
              PRIMARY KEY (`id`),
              UNIQUE KEY `uniq_order` (`order_id`),
              KEY `idx_status` (`status`),
              CONSTRAINT `fk_order` FOREIGN KEY (`order_id`) REFERENCES `orders` (`id`) ON DELETE CASCADE
            ) ENGINE=InnoDB DEFAULT CHARSET=utf8;
        "#;
        let t = only_table(parse_my(sql));
        assert_eq!(t.columns.len(), 6);
        let id = t.column("id").unwrap();
        assert!(id.auto_increment);
        assert_eq!(id.sql_type.modifiers, vec!["UNSIGNED".to_string()]);
        assert_eq!(t.column("price").unwrap().default.as_deref(), Some("'0.00'"));
        assert_eq!(
            t.column("status").unwrap().sql_type.params,
            vec!["'new'".to_string(), "'paid'".to_string()]
        );
        assert_eq!(t.column("note").unwrap().comment.as_deref(), Some("free form"));
        assert_eq!(t.primary_key(), vec!["id".to_string()]);
        assert_eq!(t.indexes.len(), 1);
        assert_eq!(t.foreign_keys().count(), 1);
        let fk = t.foreign_keys().next().unwrap();
        assert_eq!(fk.foreign_table, "orders");
        assert_eq!(fk.actions, vec!["ON DELETE CASCADE".to_string()]);
    }

    #[test]
    fn postgres_full_flavor() {
        let sql = r#"
            CREATE TABLE "Accounts" (
              id BIGSERIAL PRIMARY KEY,
              owner_id integer REFERENCES users(id) ON DELETE SET NULL,
              balance numeric(12,2) NOT NULL DEFAULT 0,
              tags text[],
              created_at timestamp with time zone DEFAULT now()
            );
        "#;
        let t = only_table(parse_pg(sql));
        assert_eq!(t.name, "Accounts");
        let id = t.column("id").unwrap();
        assert!(id.auto_increment);
        assert_eq!(id.sql_type.name, "BIGINT");
        assert!(id.inline_primary_key);
        assert_eq!(t.column("balance").unwrap().sql_type.name, "DECIMAL");
        assert_eq!(t.column("tags").unwrap().sql_type.name, "TEXT[]");
        assert_eq!(t.foreign_keys().count(), 1);
        assert_eq!(t.column("created_at").unwrap().default.as_deref(), Some("now()"));
    }

    #[test]
    fn schema_qualified_names_are_stripped() {
        let t = only_table(parse_pg("CREATE TABLE public.users (id int);"));
        assert_eq!(t.name, "users");
    }

    #[test]
    fn alter_table_mysql() {
        let stmts = parse_my(
            "ALTER TABLE t ADD COLUMN age INT NOT NULL AFTER name, \
             DROP COLUMN old, \
             MODIFY COLUMN name VARCHAR(200), \
             CHANGE nick nickname VARCHAR(50);",
        );
        match &stmts[0] {
            Statement::AlterTable { table, ops } => {
                assert_eq!(table, "t");
                assert_eq!(ops.len(), 4);
                assert!(
                    matches!(&ops[0], AlterOp::AddColumn(c) if c.name == "age" && !c.nullable)
                );
                assert!(matches!(&ops[1], AlterOp::DropColumn(n) if n == "old"));
                assert!(
                    matches!(&ops[2], AlterOp::ModifyColumn(c) if c.sql_type == SqlType::with_params("VARCHAR", &["200"]))
                );
                assert!(
                    matches!(&ops[3], AlterOp::ChangeColumn { old_name, new } if old_name == "nick" && new.name == "nickname")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn alter_table_postgres() {
        let stmts = parse_pg(
            "ALTER TABLE ONLY t ALTER COLUMN a TYPE bigint, \
             ALTER COLUMN b SET NOT NULL, \
             ALTER COLUMN c DROP DEFAULT, \
             RENAME COLUMN d TO e;",
        );
        match &stmts[0] {
            Statement::AlterTable { ops, .. } => {
                assert!(
                    matches!(&ops[0], AlterOp::SetColumnType { column, sql_type } if column == "a" && sql_type.name == "BIGINT")
                );
                assert!(matches!(&ops[1], AlterOp::SetColumnNotNull { not_null: true, .. }));
                assert!(matches!(&ops[2], AlterOp::SetColumnDefault { default: None, .. }));
                assert!(
                    matches!(&ops[3], AlterOp::RenameColumn { old_name, new_name } if old_name == "d" && new_name == "e")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn alter_add_constraint() {
        let stmts = parse_pg(
            "ALTER TABLE t ADD CONSTRAINT pk_t PRIMARY KEY (id), \
             ADD CONSTRAINT fk_u FOREIGN KEY (uid) REFERENCES users(id);",
        );
        match &stmts[0] {
            Statement::AlterTable { ops, .. } => {
                assert!(matches!(
                    &ops[0],
                    AlterOp::AddConstraint(TableConstraint::PrimaryKey { name: Some(n), .. }) if n == "pk_t"
                ));
                assert!(matches!(
                    &ops[1],
                    AlterOp::AddConstraint(TableConstraint::ForeignKey(fk)) if fk.foreign_table == "users"
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_table_variants() {
        match &parse_my("DROP TABLE IF EXISTS a, b CASCADE;")[0] {
            Statement::DropTable { names, if_exists } => {
                assert_eq!(names, &["a".to_string(), "b".to_string()]);
                assert!(*if_exists);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_index_statement() {
        match &parse_pg("CREATE UNIQUE INDEX idx_email ON users (email);")[0] {
            Statement::CreateIndex { table, index } => {
                assert_eq!(table, "users");
                assert!(index.unique);
                assert_eq!(index.columns, vec!["email".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_statements_are_skipped() {
        let stmts = parse_my(
            "SET NAMES utf8; \
             INSERT INTO t VALUES (1, 'x'); \
             CREATE TABLE t (a INT); \
             GRANT ALL ON t TO x;",
        );
        let kinds: Vec<_> =
            stmts.iter().map(|s| matches!(s, Statement::CreateTable { .. })).collect();
        assert_eq!(kinds, vec![false, false, true, false]);
    }

    #[test]
    fn create_view_is_skipped() {
        let stmts = parse_my("CREATE VIEW v AS SELECT 1; CREATE TABLE t (a INT);");
        assert!(
            matches!(&stmts[0], Statement::Skipped { leading } if leading == "CREATE VIEW")
        );
        assert!(matches!(&stmts[1], Statement::CreateTable { .. }));
    }

    #[test]
    fn dump_file_with_locks_and_comments() {
        let sql = r#"
            -- MySQL dump 10.13
            /*!40101 SET @saved_cs_client = @@character_set_client */;
            LOCK TABLES `t` WRITE;
            CREATE TABLE `t` (
              `a` int(11) DEFAULT NULL
            );
            UNLOCK TABLES;
        "#;
        let stmts = parse_my(sql);
        assert_eq!(
            stmts.iter().filter(|s| matches!(s, Statement::CreateTable { .. })).count(),
            1
        );
    }

    #[test]
    fn serial_types_normalize() {
        let t = only_table(parse_pg("CREATE TABLE t (a serial, b smallserial, c serial8);"));
        assert_eq!(t.columns[0].sql_type.name, "INT");
        assert!(t.columns[0].auto_increment);
        assert_eq!(t.columns[1].sql_type.name, "SMALLINT");
        assert_eq!(t.columns[2].sql_type.name, "BIGINT");
    }

    #[test]
    fn type_aliases_normalize() {
        let t = only_table(parse_my(
            "CREATE TABLE t (a INTEGER, b BOOL, c NUMERIC(8,3), d CHARACTER VARYING(99), e DOUBLE PRECISION);",
        ));
        assert_eq!(t.columns[0].sql_type.name, "INT");
        assert_eq!(t.columns[1].sql_type.name, "BOOLEAN");
        assert_eq!(t.columns[2].sql_type.name, "DECIMAL");
        assert_eq!(t.columns[3].sql_type, SqlType::with_params("VARCHAR", &["99"]));
        assert_eq!(t.columns[4].sql_type.name, "DOUBLE PRECISION");
    }

    #[test]
    fn composite_primary_key() {
        let t = only_table(parse_my("CREATE TABLE m (a INT, b INT, PRIMARY KEY (a, b));"));
        assert_eq!(t.primary_key(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn key_with_prefix_lengths() {
        let t =
            only_table(parse_my("CREATE TABLE t (a VARCHAR(500), KEY idx_a (a(100) DESC));"));
        assert_eq!(t.indexes[0].columns, vec!["a".to_string()]);
    }

    #[test]
    fn check_constraints_capture_expression() {
        let t = only_table(parse_pg("CREATE TABLE t (a INT, CONSTRAINT pos CHECK (a > 0));"));
        assert!(matches!(
            &t.constraints[0],
            TableConstraint::Check { name: Some(n), .. } if n == "pos"
        ));
    }

    #[test]
    fn default_expression_variants() {
        let t = only_table(parse_pg(
            "CREATE TABLE t (
                a INT DEFAULT -1,
                b TEXT DEFAULT 'x'::character varying,
                c TIMESTAMP DEFAULT CURRENT_TIMESTAMP,
                d NUMERIC DEFAULT 0.0,
                e TEXT DEFAULT NULL
             );",
        ));
        assert_eq!(t.column("a").unwrap().default.as_deref(), Some("-1"));
        assert!(t.column("b").unwrap().default.as_deref().unwrap().starts_with("'x'::"));
        assert_eq!(t.column("c").unwrap().default.as_deref(), Some("CURRENT_TIMESTAMP"));
        assert_eq!(t.column("e").unwrap().default.as_deref(), Some("NULL"));
    }

    #[test]
    fn error_on_garbage_in_table_body() {
        let err = parse_statements("CREATE TABLE t (a INT ;", Dialect::MySql).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn rename_table_op() {
        let stmts = parse_my("ALTER TABLE t RENAME TO s;");
        match &stmts[0] {
            Statement::AlterTable { ops, .. } => {
                assert!(
                    matches!(&ops[0], AlterOp::RenameTable { new_name } if new_name == "s")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn postgres_exclude_and_like_elements_skipped() {
        let t = only_table(parse_pg(
            "CREATE TABLE bookings (
                room INT,
                during TEXT,
                EXCLUDE USING gist (room WITH =, during WITH &&),
                LIKE template_table INCLUDING ALL
             );",
        ));
        assert_eq!(t.columns.len(), 2);
        assert!(t.constraints.is_empty());
    }

    #[test]
    fn partitioned_table_options_skipped() {
        let t = only_table(parse_my(
            "CREATE TABLE metrics (id INT, ts DATE)              PARTITION BY RANGE (ts) (PARTITION p0 VALUES LESS THAN (2020));",
        ));
        assert_eq!(t.columns.len(), 2);
    }

    #[test]
    fn rename_table_statement() {
        let stmts = parse_my("RENAME TABLE old1 TO new1, old2 TO new2;");
        match &stmts[0] {
            Statement::RenameTable { renames } => {
                assert_eq!(renames.len(), 2);
                assert_eq!(renames[0].0, "old1");
                assert_eq!(renames[0].1, "new1");
                assert_eq!(renames[1].0, "old2");
                assert_eq!(renames[1].1, "new2");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ignored_alter_clauses() {
        let stmts = parse_my("ALTER TABLE t ENGINE=InnoDB;");
        match &stmts[0] {
            Statement::AlterTable { ops, .. } => {
                assert!(matches!(ops[0], AlterOp::Ignored));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn generated_identity_column() {
        let t = only_table(parse_pg(
            "CREATE TABLE t (id int GENERATED ALWAYS AS IDENTITY PRIMARY KEY);",
        ));
        assert!(t.columns[0].auto_increment);
    }

    #[test]
    fn parser_reports_its_dialect() {
        for dialect in [Dialect::Generic, Dialect::MySql, Dialect::Postgres] {
            let tokens = Lexer::new("CREATE TABLE t (a INT);", dialect).tokenize().unwrap();
            assert_eq!(Parser::new(tokens, dialect).dialect(), dialect);
        }
    }

    #[test]
    fn streaming_and_eager_schemas_agree() {
        let sql = "CREATE TABLE Users (Id INT PRIMARY KEY, Name VARCHAR(10));\
                   ALTER TABLE users ADD COLUMN age INT;";
        let a = parse_schema(sql, Dialect::MySql).unwrap();
        let tokens = Lexer::new(sql, Dialect::MySql).tokenize().unwrap();
        let stmts = Parser::new(tokens, Dialect::MySql).parse_script().unwrap();
        let b = crate::apply::apply_statements(stmts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn interned_parse_shares_symbols_across_versions() {
        let interner = Interner::new();
        let v1 = parse_schema_interned("CREATE TABLE t (a INT);", Dialect::MySql, &interner)
            .unwrap();
        let v2 =
            parse_schema_interned("CREATE TABLE t (a INT, b INT);", Dialect::MySql, &interner)
                .unwrap();
        let t1 = v1.table("t").unwrap();
        let t2 = v2.table("t").unwrap();
        assert_eq!(t1.name.interner_id(), interner.id());
        assert_eq!(t1.name.symbol(), t2.name.symbol());
        assert_eq!(t1.columns[0].name.symbol(), t2.columns[0].name.symbol());
    }

    #[test]
    fn lex_errors_surface_from_the_streaming_parser() {
        let err = parse_statements("CREATE TABLE t (a INT); 'unterminated", Dialect::MySql)
            .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnterminatedLiteral(_)), "{err:?}");
    }

    #[test]
    fn text_ending_inside_a_type_parameter_list_is_an_error() {
        // The parameter loop once spun at the end of the text, pushing an
        // empty parameter per turn.
        let err = parse_statements("CREATE TABLE t (a INT(", Dialect::MySql).unwrap_err();
        assert_eq!(
            err,
            ParseError::new(ParseErrorKind::UnexpectedEof { expected: "')'".into() }, 1, 23)
        );
        let err = parse_statements("CREATE TABLE t (a INT(10,", Dialect::MySql).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedEof { .. }), "{err:?}");
        let err =
            parse_statements("ALTER TABLE t ALTER COLUMN a TYPE numeric(", Dialect::Postgres)
                .unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedEof { .. }), "{err:?}");
        // A string that never ends ends the tokens too; the lexer's error
        // wins.
        let err = parse_statements("CREATE TABLE t (a enum('yes", Dialect::MySql).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnterminatedLiteral("string literal"), "{err:?}");
    }

    #[test]
    fn tables_hold_vectors_of_exactly_their_length() {
        let sql = "CREATE TABLE t (a INT, b VARCHAR(9), c INT REFERENCES u (x) ON DELETE \
                   CASCADE, d INT UNSIGNED, PRIMARY KEY (a), KEY k (b), UNIQUE (c), \
                   CHECK (a > 0));\nCREATE TABLE e (a INT);";
        for stmt in parse_statements(sql, Dialect::MySql).unwrap() {
            let Statement::CreateTable { table, .. } = stmt else { panic!("{stmt:?}") };
            assert_eq!(table.columns.len(), table.columns.capacity());
            assert_eq!(table.constraints.len(), table.constraints.capacity());
            assert_eq!(table.indexes.len(), table.indexes.capacity());
            for c in &table.columns {
                assert_eq!(c.sql_type.params.len(), c.sql_type.params.capacity());
                assert_eq!(c.sql_type.modifiers.len(), c.sql_type.modifiers.capacity());
            }
            for fk in table.foreign_keys() {
                assert_eq!(fk.actions.len(), fk.actions.capacity());
                assert_eq!(fk.foreign_columns.len(), fk.foreign_columns.capacity());
            }
        }
    }
}
