//! A tolerant recursive-descent parser for embedded DML.
//!
//! The goal is *reference extraction with correct scoping*, not a complete
//! SQL grammar: expressions are walked for column references (recursing into
//! subqueries), clause keywords delimit scopes, and anything the walker does
//! not understand inside an expression is skipped. This tolerance matters —
//! embedded SQL in the wild carries placeholders (`?`, `$1`, `%s`),
//! vendor functions, and string interpolation fragments.

use crate::ast::{
    ColumnRef, DeleteQuery, InsertQuery, Query, SelectItem, SelectQuery, TableRef, UpdateQuery,
};
use coevo_ddl::lexer::Lexer;
use coevo_ddl::token::{Token, TokenKind};
use coevo_ddl::Dialect;
use std::fmt;

/// Query parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.message)
    }
}

impl std::error::Error for QueryError {}

fn err<T>(message: impl Into<String>) -> Result<T, QueryError> {
    Err(QueryError { message: message.into() })
}

/// The deepest nesting of parentheses, subqueries and `UNION` arms a query
/// may have. Each level is a frame of recursion in the parser, so without a
/// cap a hostile string in a scanned source file overflows the stack; real
/// embedded queries stay far below it.
const MAX_DEPTH: usize = 128;

/// Words that terminate an expression scope or are never column references.
const RESERVED: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "ORDER",
    "HAVING",
    "LIMIT",
    "OFFSET",
    "UNION",
    "JOIN",
    "INNER",
    "LEFT",
    "RIGHT",
    "FULL",
    "OUTER",
    "CROSS",
    "ON",
    "AND",
    "OR",
    "NOT",
    "NULL",
    "IN",
    "IS",
    "LIKE",
    "ILIKE",
    "BETWEEN",
    "AS",
    "ASC",
    "DESC",
    "DISTINCT",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "EXISTS",
    "ALL",
    "ANY",
    "SOME",
    "BY",
    "VALUES",
    "SET",
    "INTO",
    "TRUE",
    "FALSE",
    "INTERVAL",
    "CAST",
    "USING",
    "FOR",
    "RETURNING",
];

fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
}

/// Clause keywords that end the current expression scope at depth 0.
const CLAUSE_STOPS: &[&str] = &[
    "FROM",
    "WHERE",
    "GROUP",
    "ORDER",
    "HAVING",
    "LIMIT",
    "OFFSET",
    "UNION",
    "JOIN",
    "INNER",
    "LEFT",
    "RIGHT",
    "FULL",
    "OUTER",
    "CROSS",
    "ON",
    "RETURNING",
    "SET",
    "VALUES",
    "AS",
];

/// Parse one DML statement. A trailing semicolon is tolerated.
pub fn parse_query(sql: &str) -> Result<Query, QueryError> {
    let tokens = Lexer::new(sql, Dialect::Generic)
        .tokenize()
        .map_err(|e| QueryError { message: e.to_string() })?;
    let mut p = QueryParser { tokens, pos: 0, depth: 0 };
    let q = p.query()?;
    // Allow `;` and require end of input (a second statement is a caller
    // error we surface rather than silently ignore).
    while matches!(p.peek(), TokenKind::Semicolon) {
        p.advance();
    }
    if !matches!(p.peek(), TokenKind::Eof) {
        return err(format!("trailing content after query: {}", p.peek()));
    }
    Ok(q)
}

struct QueryParser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Current nesting depth (see [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> QueryParser<'a> {
    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind<'a> {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn advance(&mut self) -> TokenKind<'a> {
        let k = self.tokens[self.pos.min(self.tokens.len() - 1)].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        k
    }

    /// Run `f` one nesting level deeper, failing once the query nests
    /// deeper than [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        if self.depth == MAX_DEPTH {
            return err(format!("query nested deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            err(format!("expected {kw}, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, QueryError> {
        match self.peek().ident_text() {
            Some(t) if !is_reserved(t) || matches!(self.peek(), TokenKind::QuotedIdent(_)) => {
                let t = t.to_string();
                self.advance();
                // Qualified name: keep the last segment.
                let mut name = t;
                while matches!(self.peek(), TokenKind::Dot) {
                    self.advance();
                    match self.peek().ident_text() {
                        Some(seg) => {
                            name = seg.to_string();
                            self.advance();
                        }
                        None => return err("identifier after '.'"),
                    }
                }
                Ok(name)
            }
            _ => err(format!("expected identifier, found {}", self.peek())),
        }
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        if self.peek().is_keyword("SELECT") {
            Ok(Query::Select(self.select()?))
        } else if self.peek().is_keyword("INSERT") {
            self.insert()
        } else if self.peek().is_keyword("UPDATE") {
            self.update()
        } else if self.peek().is_keyword("DELETE") {
            self.delete()
        } else {
            err(format!("expected SELECT/INSERT/UPDATE/DELETE, found {}", self.peek()))
        }
    }

    // ---- SELECT -----------------------------------------------------------

    fn select(&mut self) -> Result<SelectQuery, QueryError> {
        self.nested(Self::select_body)
    }

    fn select_body(&mut self) -> Result<SelectQuery, QueryError> {
        self.expect_kw("SELECT")?;
        let _ = self.eat_kw("DISTINCT") || self.eat_kw("ALL");
        let mut q = SelectQuery::default();

        // Select list.
        loop {
            if matches!(self.peek(), TokenKind::Op(o) if *o == "*") {
                self.advance();
                q.items.push(SelectItem::Star { qualifier: None });
            } else if let (Some(t), TokenKind::Dot, TokenKind::Op(star)) =
                (self.peek().ident_text().map(str::to_string), self.peek_at(1), self.peek_at(2))
            {
                if *star == "*" {
                    self.advance(); // qualifier
                    self.advance(); // .
                    self.advance(); // *
                    q.items.push(SelectItem::Star { qualifier: Some(t) });
                } else {
                    let refs = self.expression(&mut q.subqueries)?;
                    q.items.push(SelectItem::Expr { refs });
                }
            } else {
                let refs = self.expression(&mut q.subqueries)?;
                q.items.push(SelectItem::Expr { refs });
            }
            // Optional alias.
            if self.eat_kw("AS") {
                let _ = self.ident();
            } else if self.peek().ident_text().is_some_and(|t| !is_reserved(t)) {
                self.advance();
            }
            if matches!(self.peek(), TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }

        // FROM clause.
        if self.eat_kw("FROM") {
            self.table_list(&mut q)?;
        }

        // Tail clauses.
        loop {
            if self.eat_kw("WHERE") || self.eat_kw("HAVING") {
                let refs = self.expression(&mut q.subqueries)?;
                q.other_refs.extend(refs);
            } else if self.eat_kw("GROUP") || self.eat_kw("ORDER") {
                self.expect_kw("BY")?;
                loop {
                    let refs = self.expression(&mut q.subqueries)?;
                    q.other_refs.extend(refs);
                    let _ = self.eat_kw("ASC") || self.eat_kw("DESC");
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.advance();
                    } else {
                        break;
                    }
                }
            } else if self.eat_kw("LIMIT") || self.eat_kw("OFFSET") {
                // Numeric or placeholder argument: skip one token.
                if !matches!(self.peek(), TokenKind::Eof | TokenKind::Semicolon) {
                    self.advance();
                }
            } else if self.eat_kw("UNION") {
                let _ = self.eat_kw("ALL");
                let sub = self.select()?;
                q.subqueries.push(sub);
            } else {
                break;
            }
        }
        Ok(q)
    }

    /// FROM table list with joins.
    fn table_list(&mut self, q: &mut SelectQuery) -> Result<(), QueryError> {
        loop {
            // Derived table: FROM (SELECT ...) alias
            if matches!(self.peek(), TokenKind::LParen) && self.peek_at(1).is_keyword("SELECT")
            {
                self.advance(); // (
                let sub = self.select()?;
                q.subqueries.push(sub);
                if !matches!(self.advance(), TokenKind::RParen) {
                    return err("expected ')' after subquery");
                }
                let _ = self.eat_kw("AS");
                if self.peek().ident_text().is_some_and(|t| !is_reserved(t)) {
                    self.advance(); // derived-table alias
                }
            } else {
                let name = self.ident()?;
                let mut tr = TableRef::named(&name);
                if self.eat_kw("AS")
                    || self.peek().ident_text().is_some_and(|t| !is_reserved(t))
                {
                    tr.alias = Some(self.ident()?);
                }
                q.tables.push(tr);
            }

            // JOIN chain.
            if self.eat_kw("JOIN")
                || self.join_prefix()
                || matches!(self.peek(), TokenKind::Comma)
            {
                if matches!(self.peek(), TokenKind::Comma) {
                    self.advance();
                }
                continue;
            }
            // ON clause after a join target is handled by the caller loop
            // (`ON` is a tail keyword collecting refs).
            if self.eat_kw("ON") {
                let refs = self.expression(&mut q.subqueries)?;
                q.other_refs.extend(refs);
                if self.eat_kw("JOIN") || self.join_prefix() {
                    continue;
                }
                if matches!(self.peek(), TokenKind::Comma) {
                    self.advance();
                    continue;
                }
            }
            if self.eat_kw("USING") {
                // USING (col, …): bare column refs against joined tables.
                if matches!(self.peek(), TokenKind::LParen) {
                    self.advance();
                    loop {
                        match self.peek().ident_text() {
                            Some(t) if !is_reserved(t) => {
                                q.other_refs.push(ColumnRef::bare(t));
                                self.advance();
                            }
                            _ => {}
                        }
                        match self.advance() {
                            TokenKind::Comma => continue,
                            TokenKind::RParen => break,
                            TokenKind::Eof => return err("unterminated USING list"),
                            _ => continue,
                        }
                    }
                }
                if self.eat_kw("JOIN") || self.join_prefix() {
                    continue;
                }
            }
            return Ok(());
        }
    }

    /// Consume `LEFT/RIGHT/FULL/INNER/CROSS [OUTER] JOIN` prefixes.
    fn join_prefix(&mut self) -> bool {
        let start = self.pos;
        let had_prefix = self.eat_kw("LEFT")
            || self.eat_kw("RIGHT")
            || self.eat_kw("FULL")
            || self.eat_kw("INNER")
            || self.eat_kw("CROSS");
        if had_prefix {
            let _ = self.eat_kw("OUTER");
            if self.eat_kw("JOIN") {
                return true;
            }
            self.pos = start; // not a join after all
        }
        false
    }

    /// Walk an expression, collecting column references and subqueries.
    /// Stops (without consuming) at a top-level clause keyword, comma,
    /// closing paren, semicolon, or EOF.
    fn expression(
        &mut self,
        subqueries: &mut Vec<SelectQuery>,
    ) -> Result<Vec<ColumnRef>, QueryError> {
        self.nested(|p| p.expression_body(subqueries))
    }

    fn expression_body(
        &mut self,
        subqueries: &mut Vec<SelectQuery>,
    ) -> Result<Vec<ColumnRef>, QueryError> {
        let mut refs = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::Eof
                | TokenKind::Semicolon
                | TokenKind::Comma
                | TokenKind::RParen => return Ok(refs),
                TokenKind::Word(w)
                    if CLAUSE_STOPS.iter().any(|s| w.eq_ignore_ascii_case(s)) =>
                {
                    return Ok(refs);
                }
                TokenKind::LParen => {
                    self.advance();
                    if self.peek().is_keyword("SELECT") {
                        let sub = self.select()?;
                        subqueries.push(sub);
                    } else {
                        // Parenthesized sub-expression or argument list.
                        // Tolerant: `CAST(x AS INT)`-style keywords between
                        // arguments are skipped without becoming refs.
                        loop {
                            let inner = self.expression(subqueries)?;
                            refs.extend(inner);
                            match self.peek() {
                                TokenKind::Comma => {
                                    self.advance();
                                }
                                TokenKind::RParen | TokenKind::Eof => break,
                                TokenKind::Word(w) if w.eq_ignore_ascii_case("AS") => {
                                    // Skip the cast target up to ',' or ')'.
                                    self.advance();
                                    while !matches!(
                                        self.peek(),
                                        TokenKind::Comma | TokenKind::RParen | TokenKind::Eof
                                    ) {
                                        self.advance();
                                    }
                                }
                                _ => {
                                    self.advance();
                                }
                            }
                        }
                    }
                    if !matches!(self.advance(), TokenKind::RParen) {
                        return err("expected ')'");
                    }
                }
                TokenKind::Word(w) => {
                    // Function call: name(…) — the name is not a column.
                    if matches!(self.peek_at(1), TokenKind::LParen) {
                        self.advance(); // function name
                        continue;
                    }
                    if is_reserved(w) {
                        self.advance();
                        continue;
                    }
                    self.advance();
                    if matches!(self.peek(), TokenKind::Dot) {
                        self.advance();
                        match self.peek().clone() {
                            TokenKind::Op("*") => {
                                self.advance(); // qualifier.* in an expression
                            }
                            k => match k.ident_text() {
                                Some(col) => {
                                    refs.push(ColumnRef::qualified(w, col));
                                    self.advance();
                                }
                                None => return err("identifier after '.'"),
                            },
                        }
                    } else {
                        refs.push(ColumnRef::bare(w));
                    }
                }
                TokenKind::QuotedIdent(w) => {
                    self.advance();
                    if matches!(self.peek(), TokenKind::Dot) {
                        self.advance();
                        match self.peek().ident_text() {
                            Some(col) => {
                                refs.push(ColumnRef::qualified(&w, col));
                                self.advance();
                            }
                            None => return err("identifier after '.'"),
                        }
                    } else {
                        refs.push(ColumnRef::bare(&w));
                    }
                }
                // printf-style placeholder (`%s`, `%d`): the word after `%`
                // is part of the placeholder, not a column.
                TokenKind::Op("%") => {
                    self.advance();
                    if matches!(self.peek(), TokenKind::Word(w) if w.len() <= 2) {
                        self.advance();
                    }
                }
                // Named placeholders (`:id`, `@user_id`): same treatment.
                TokenKind::Op(o) if o == ":" || o == "@" => {
                    self.advance();
                    if matches!(self.peek(), TokenKind::Word(_)) {
                        self.advance();
                    }
                }
                // Literals, other operators, `?`/`$1` placeholders: skip.
                _ => {
                    self.advance();
                }
            }
        }
    }

    // ---- INSERT / UPDATE / DELETE -----------------------------------------

    fn insert(&mut self) -> Result<Query, QueryError> {
        self.expect_kw("INSERT")?;
        let _ = self.eat_kw("IGNORE"); // MySQL
        self.expect_kw("INTO")?;
        let table = TableRef::named(&self.ident()?);
        let mut columns = Vec::new();
        if matches!(self.peek(), TokenKind::LParen) {
            self.advance();
            loop {
                match self.peek().ident_text() {
                    Some(t) if !is_reserved(t) => {
                        columns.push(t.to_string());
                        self.advance();
                    }
                    _ => {}
                }
                match self.advance() {
                    TokenKind::Comma => continue,
                    TokenKind::RParen => break,
                    TokenKind::Eof => return err("unterminated column list"),
                    _ => continue,
                }
            }
        }
        let select = if self.peek().is_keyword("SELECT") {
            Some(self.select()?)
        } else {
            // VALUES (...) — skip the payload entirely.
            while !matches!(self.peek(), TokenKind::Eof | TokenKind::Semicolon) {
                if matches!(self.peek(), TokenKind::LParen) {
                    self.skip_parens()?;
                } else {
                    self.advance();
                }
            }
            None
        };
        Ok(Query::Insert(InsertQuery { table, columns, select }))
    }

    fn update(&mut self) -> Result<Query, QueryError> {
        self.expect_kw("UPDATE")?;
        let table = TableRef::named(&self.ident()?);
        self.expect_kw("SET")?;
        let mut set_columns = Vec::new();
        let mut other_refs = Vec::new();
        let mut subqueries = Vec::new();
        loop {
            let col = self.ident()?;
            set_columns.push(col);
            if !matches!(self.peek(), TokenKind::Eq) {
                return err(format!("expected '=' in SET, found {}", self.peek()));
            }
            self.advance();
            other_refs.extend(self.expression(&mut subqueries)?);
            if matches!(self.peek(), TokenKind::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        if self.eat_kw("WHERE") {
            other_refs.extend(self.expression(&mut subqueries)?);
        }
        Ok(Query::Update(UpdateQuery { table, set_columns, other_refs }))
    }

    fn delete(&mut self) -> Result<Query, QueryError> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = TableRef::named(&self.ident()?);
        let mut other_refs = Vec::new();
        let mut subqueries = Vec::new();
        if self.eat_kw("WHERE") {
            other_refs.extend(self.expression(&mut subqueries)?);
        }
        Ok(Query::Delete(DeleteQuery { table, other_refs }))
    }

    fn skip_parens(&mut self) -> Result<(), QueryError> {
        if !matches!(self.advance(), TokenKind::LParen) {
            return err("expected '('");
        }
        let mut depth = 1usize;
        loop {
            match self.advance() {
                TokenKind::LParen => depth += 1,
                TokenKind::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                TokenKind::Eof => return err("unterminated '('"),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> SelectQuery {
        match parse_query(sql).unwrap() {
            Query::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn basic_select() {
        let q = select("SELECT id, email FROM users WHERE active = 1");
        assert_eq!(q.tables, vec![TableRef::named("users")]);
        assert_eq!(q.items.len(), 2);
        assert!(
            matches!(&q.items[0], SelectItem::Expr { refs } if refs == &[ColumnRef::bare("id")])
        );
        assert_eq!(q.other_refs, vec![ColumnRef::bare("active")]);
    }

    #[test]
    fn star_variants() {
        let q = select("SELECT * FROM t");
        assert!(matches!(&q.items[0], SelectItem::Star { qualifier: None }));
        let q = select("SELECT u.* FROM users u");
        assert!(matches!(&q.items[0], SelectItem::Star { qualifier: Some(x) } if x == "u"));
        assert_eq!(q.tables[0].alias.as_deref(), Some("u"));
    }

    #[test]
    fn joins_with_aliases_and_on() {
        let q = select(
            "SELECT o.total, c.email FROM orders o \
             JOIN customers AS c ON o.customer_id = c.id \
             LEFT OUTER JOIN payments p ON p.order_id = o.id",
        );
        let names: Vec<&str> = q.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["orders", "customers", "payments"]);
        assert!(q.other_refs.contains(&ColumnRef::qualified("o", "customer_id")));
        assert!(q.other_refs.contains(&ColumnRef::qualified("p", "order_id")));
    }

    #[test]
    fn functions_are_not_columns() {
        let q = select("SELECT COUNT(*), MAX(price), COALESCE(note, 'x') FROM items");
        let refs: Vec<ColumnRef> = q
            .items
            .iter()
            .flat_map(|i| match i {
                SelectItem::Expr { refs } => refs.clone(),
                _ => vec![],
            })
            .collect();
        assert_eq!(refs, vec![ColumnRef::bare("price"), ColumnRef::bare("note")]);
    }

    #[test]
    fn subquery_in_where() {
        let q = select("SELECT id FROM orders WHERE customer_id IN (SELECT id FROM customers)");
        assert_eq!(q.subqueries.len(), 1);
        assert_eq!(q.subqueries[0].tables, vec![TableRef::named("customers")]);
        assert!(q.other_refs.contains(&ColumnRef::bare("customer_id")));
    }

    #[test]
    fn derived_table() {
        let q = select("SELECT x FROM (SELECT id AS x FROM users) sub");
        assert_eq!(q.subqueries.len(), 1);
        assert!(q.tables.is_empty());
    }

    #[test]
    fn group_order_limit() {
        let q = select(
            "SELECT status FROM orders GROUP BY status HAVING COUNT(id) > 5 \
             ORDER BY status DESC LIMIT 10",
        );
        assert!(q.other_refs.contains(&ColumnRef::bare("status")));
        assert!(q.other_refs.contains(&ColumnRef::bare("id")));
    }

    #[test]
    fn union_parses_as_subquery() {
        let q = select("SELECT id FROM a UNION ALL SELECT id FROM b");
        assert_eq!(q.tables, vec![TableRef::named("a")]);
        assert_eq!(q.subqueries[0].tables, vec![TableRef::named("b")]);
    }

    #[test]
    fn insert_forms() {
        match parse_query("INSERT INTO logs (level, message) VALUES (?, ?)").unwrap() {
            Query::Insert(i) => {
                assert_eq!(i.table.name, "logs");
                assert_eq!(i.columns, vec!["level".to_string(), "message".to_string()]);
                assert!(i.select.is_none());
            }
            other => panic!("{other:?}"),
        }
        match parse_query("INSERT INTO archive SELECT * FROM logs WHERE old = 1").unwrap() {
            Query::Insert(i) => {
                assert!(i.columns.is_empty());
                assert_eq!(i.select.unwrap().tables, vec![TableRef::named("logs")]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_form() {
        match parse_query("UPDATE users SET email = ?, active = 0 WHERE id = ?").unwrap() {
            Query::Update(u) => {
                assert_eq!(u.table.name, "users");
                assert_eq!(u.set_columns, vec!["email".to_string(), "active".to_string()]);
                assert!(u.other_refs.contains(&ColumnRef::bare("id")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delete_form() {
        match parse_query("DELETE FROM sessions WHERE expires_at < now()").unwrap() {
            Query::Delete(d) => {
                assert_eq!(d.table.name, "sessions");
                assert!(d.other_refs.contains(&ColumnRef::bare("expires_at")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn placeholders_tolerated() {
        // `?`, `$1`, `%s` style placeholders appear in embedded SQL.
        assert!(parse_query("SELECT id FROM t WHERE a = ? AND b = $1").is_ok());
        assert!(parse_query("SELECT id FROM t WHERE a = %s").is_ok());
    }

    #[test]
    fn errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("DROP TABLE t").is_err());
        assert!(parse_query("SELECT id FROM users; SELECT 1").is_err());
        assert!(parse_query("UPDATE users WHERE id = 1").is_err()); // missing SET
    }

    #[test]
    fn qualified_names_strip_schema() {
        let q = select("SELECT public.users.email FROM public.users");
        assert_eq!(q.tables[0].name, "users");
    }

    #[test]
    fn using_join() {
        let q = select("SELECT a.x FROM a JOIN b USING (shared_id)");
        assert!(q.other_refs.contains(&ColumnRef::bare("shared_id")));
        assert_eq!(q.tables.len(), 2);
    }

    /// Regression: the parser must answer every malformed input with a
    /// typed [`QueryError`], never a panic — `breaking_queries` demotes
    /// unparseable stored queries instead of aborting a whole scan on them.
    #[test]
    fn malformed_queries_error_without_panicking() {
        let pathological = [
            "",
            "   ",
            "SELECT FROM",
            "SELECT * FROM",
            "INSERT INTO",
            "INSERT INTO t (",
            "UPDATE",
            "UPDATE SET a = 1",
            "DELETE",
            "DELETE FROM",
            "SELECT ((((((((((((((((a FROM t",
            "SELECT 'unterminated FROM t",
            "SELECT a FROM t JOIN",
            "TRUNCATE gibberish %%%",
            "\u{0}\u{0}\u{0}",
        ];
        for sql in pathological {
            let err = parse_query(sql).expect_err(&format!("{sql:?} must not parse"));
            // The error is typed and printable, with a message to surface.
            assert!(!err.message.is_empty(), "{sql:?} produced an empty error");
            assert!(format!("{err}").contains("query parse error"), "{sql:?}: {err}");
        }
    }

    /// `n` subqueries, each in the previous one's `WHERE a IN (…)`; the
    /// innermost reads table `u`.
    fn nested_subqueries(n: usize) -> String {
        let open = "SELECT a FROM t WHERE a IN (".repeat(n);
        format!("{open}SELECT c FROM u{}", ")".repeat(n))
    }

    /// Regression: nesting is capped, so a hostile query errors instead of
    /// overflowing the stack.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let n = 100_000;
        let parens = format!("SELECT a FROM t WHERE {}a = 1{}", "(".repeat(n), ")".repeat(n));
        let err = parse_query(&parens).unwrap_err();
        assert!(err.message.contains(&format!("deeper than {MAX_DEPTH}")), "{err}");

        let err = parse_query(&nested_subqueries(10_000)).unwrap_err();
        assert!(err.message.contains(&format!("deeper than {MAX_DEPTH}")), "{err}");

        let unions = format!("SELECT a FROM t{}", " UNION SELECT a FROM t".repeat(10_000));
        assert!(parse_query(&unions).is_err());
    }

    #[test]
    fn nesting_below_the_cap_still_parses() {
        // The SELECT and its WHERE expression take two levels, each
        // parenthesis one more.
        let nest =
            |n: usize| format!("SELECT a FROM t WHERE {}b = 1{}", "(".repeat(n), ")".repeat(n));
        let q = select(&nest(MAX_DEPTH - 2));
        assert!(q.other_refs.iter().any(|r| r.column == "b"), "{q:?}");
        assert!(parse_query(&nest(MAX_DEPTH - 1)).is_err());

        let mut q = select(&nested_subqueries(30));
        for _ in 0..30 {
            q = q.subqueries.pop().expect("nested subquery");
        }
        assert_eq!(q.tables[0].name, "u");
    }
}
