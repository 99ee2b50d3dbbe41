//! Hand-written streaming, zero-copy SQL lexer.
//!
//! Handles the lexical quirks of real-world MySQL and PostgreSQL dump files:
//! `--` line comments, `#` line comments (MySQL), `/* ... */` block comments
//! (including MySQL's executable-comment form `/*!40101 ... */`, whose body we
//! discard — schema files use them only for session settings), single-quoted
//! strings with `''` and backslash escapes, backtick identifiers (MySQL),
//! double-quoted identifiers (PostgreSQL / ANSI), bracket identifiers
//! (tolerated for stray SQL Server files), and PostgreSQL dollar-quoted
//! strings (`$$ ... $$`, `$tag$ ... $tag$`).
//!
//! Tokens borrow `&str` slices of the source wherever the token value is a
//! verbatim slice (words, numbers, operators, dollar-quoted bodies) and a
//! [`Cow`] for quoted forms, which borrow unless an escape sequence or a
//! non-ASCII byte forces the historical byte-wise rebuild. The streaming
//! entry point is [`Lexer::next_token`], which the streaming parser pulls
//! from; [`Lexer::tokenize`] materializes the whole stream for the eager
//! reference parse ([`crate::parser::Parser::new`]).

use crate::dialect::Dialect;
use crate::error::{ParseError, ParseErrorKind, Result};
use crate::token::{Token, TokenKind};
use std::borrow::Cow;

/// Streaming lexer over a DDL script.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    /// Where the most recently lexed token starts.
    start: usize,
    line: u32,
    column: u32,
    dialect: Dialect,
}

impl<'a> Lexer<'a> {
    /// Construct a new instance.
    pub fn new(src: &'a str, dialect: Dialect) -> Self {
        Self { text: src, src: src.as_bytes(), pos: 0, start: 0, line: 1, column: 1, dialect }
    }

    /// Byte offset where the most recently lexed token starts.
    pub(crate) fn token_start(&self) -> usize {
        self.start
    }

    /// Whether the most recently lexed token is a `;` (the only token that
    /// starts with that byte).
    pub(crate) fn after_semicolon(&self) -> bool {
        self.src.get(self.start) == Some(&b';')
    }

    /// The cursor: byte offset, line and column.
    pub(crate) fn cursor(&self) -> (usize, u32, u32) {
        (self.pos, self.line, self.column)
    }

    /// Move the cursor to `pos`, which a parse of the same bytes reached at
    /// `line` and `column`.
    pub(crate) fn seek(&mut self, pos: usize, line: u32, column: u32) {
        (self.pos, self.line, self.column) = (pos, line, column);
    }

    /// Tokenize the whole input, appending a trailing [`TokenKind::Eof`].
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let is_eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if is_eof {
                return Ok(out);
            }
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError::new(kind, self.line, self.column)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                // Whitespace runs are the single most common byte class in
                // dump files; consume them without the double bounds check
                // `peek` + `bump` would pay per byte.
                Some(b' ') | Some(b'\t') | Some(b'\r') => {
                    self.pos += 1;
                    self.column += 1;
                }
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    self.column = 1;
                }
                Some(b'-') if self.peek_at(1) == Some(b'-') => {
                    self.skip_line_comment();
                }
                Some(b'#') if self.dialect.hash_comments() => {
                    self.skip_line_comment();
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    self.skip_block_comment()?;
                }
                _ => return Ok(()),
            }
        }
    }

    fn skip_line_comment(&mut self) {
        // Scan to the newline in one pass; the run contains no newline, so
        // only the column needs updating.
        let rest = &self.src[self.pos..];
        let n = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        self.pos += n;
        self.column += n as u32;
    }

    fn skip_block_comment(&mut self) -> Result<()> {
        // Consume "/*". Nesting is not part of standard SQL; we do not nest.
        self.bump();
        self.bump();
        loop {
            match self.peek() {
                None => {
                    return Err(self.err(ParseErrorKind::UnterminatedLiteral("block comment")))
                }
                Some(b'*') if self.peek_at(1) == Some(b'/') => {
                    self.bump();
                    self.bump();
                    return Ok(());
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Lex the next token. Past the end of input this keeps returning
    /// [`TokenKind::Eof`]; the streaming parser pulls from here without ever
    /// materializing the token vector.
    pub fn next_token(&mut self) -> Result<Token<'a>> {
        self.skip_trivia()?;
        let (line, column) = (self.line, self.column);
        self.start = self.pos;
        let Some(b) = self.peek() else {
            return Ok(Token { kind: TokenKind::Eof, line, column });
        };
        let kind = match b {
            b'(' => self.single(TokenKind::LParen),
            b')' => self.single(TokenKind::RParen),
            b',' => self.single(TokenKind::Comma),
            b';' => self.single(TokenKind::Semicolon),
            b'.' if !matches!(self.peek_at(1), Some(d) if d.is_ascii_digit()) => {
                self.single(TokenKind::Dot)
            }
            b'=' => self.single(TokenKind::Eq),
            b'\'' => self.string_literal()?,
            b'`' => self.quoted_ident(b'`', "backtick identifier")?,
            b'"' => self.quoted_ident(b'"', "quoted identifier")?,
            b'[' if self.dialect.bracket_idents() => self.bracket_ident()?,
            b'$' if self.dialect.dollar_quotes() && self.looks_like_dollar_quote() => {
                self.dollar_quoted()?
            }
            b'0'..=b'9' => self.number()?,
            b'.' => self.number()?, // ".5" style literal
            _ if is_ident_start(b) => self.word(),
            b'<' | b'>' | b'!' | b'+' | b'-' | b'*' | b'/' | b'%' | b':' | b'|' | b'&'
            | b'~' | b'^' | b'?' | b'@' | b'$' | b'[' | b']' | b'{' | b'}' | b'#' => {
                self.operator()
            }
            other => {
                // Non-ASCII bytes inside identifiers are handled by `word`;
                // a stray non-ASCII byte elsewhere is an error.
                if other >= 0x80 {
                    self.word()
                } else {
                    return Err(self.err(ParseErrorKind::UnexpectedChar(other as char)));
                }
            }
        };
        Ok(Token { kind, line, column })
    }

    fn single(&mut self, kind: TokenKind<'a>) -> TokenKind<'a> {
        self.bump();
        kind
    }

    /// Slice `[start..end)` of the source. Both bounds are always char
    /// boundaries here: every token starts on one, and the scanners below
    /// only stop on ASCII bytes (identifier-continue includes all bytes
    /// ≥ 0x80, and quote/tag delimiters are ASCII).
    fn slice(&self, start: usize, end: usize) -> &'a str {
        &self.text[start..end]
    }

    fn word(&mut self) -> TokenKind<'a> {
        // Identifier-continue bytes never include a newline, so the whole
        // run advances in one pass with a single column update.
        let start = self.pos;
        let rest = &self.src[self.pos..];
        let n = rest.iter().position(|&b| !is_ident_continue(b)).unwrap_or(rest.len());
        self.pos += n;
        self.column += n as u32;
        TokenKind::Word(self.slice(start, self.pos))
    }

    fn operator(&mut self) -> TokenKind<'a> {
        // Greedily take the two-character operators we care about; everything
        // else is a single-character Op. The parser never interprets these
        // beyond skipping expressions, so fidelity is not required.
        let start = self.pos;
        let a = self.bump().unwrap();
        match (a, self.peek()) {
            (b':', Some(b':'))
            | (b'<', Some(b'='))
            | (b'>', Some(b'='))
            | (b'<', Some(b'>'))
            | (b'!', Some(b'='))
            | (b'|', Some(b'|'))
            | (b'&', Some(b'&')) => {
                self.bump();
            }
            _ => {}
        }
        TokenKind::Op(self.slice(start, self.pos))
    }

    fn number(&mut self) -> Result<TokenKind<'a>> {
        let start = self.pos;
        let mut seen_dot = false;
        let mut seen_exp = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    self.bump();
                }
                b'.' if !seen_dot && !seen_exp => {
                    seen_dot = true;
                    self.bump();
                }
                b'e' | b'E' if !seen_exp => {
                    // Only an exponent if followed by a digit or sign+digit —
                    // otherwise this is the start of an identifier (`1e` never
                    // appears in DDL, but `1END` does not either; be strict).
                    let next = self.peek_at(1);
                    let next2 = self.peek_at(2);
                    let is_exp = match next {
                        Some(d) if d.is_ascii_digit() => true,
                        Some(b'+') | Some(b'-') => {
                            matches!(next2, Some(d) if d.is_ascii_digit())
                        }
                        _ => false,
                    };
                    if !is_exp {
                        break;
                    }
                    seen_exp = true;
                    self.bump(); // e
                    self.bump(); // digit or sign
                }
                _ => break,
            }
        }
        let text = self.slice(start, self.pos);
        if text == "." {
            return Err(self.err(ParseErrorKind::BadNumber(text.to_string())));
        }
        Ok(TokenKind::Number(text))
    }

    fn string_literal(&mut self) -> Result<TokenKind<'a>> {
        self.bump(); // opening quote
        let start = self.pos;
        let mut clean = true; // borrowable: no escapes, ASCII only
        loop {
            match self.peek() {
                None => {
                    return Err(self.err(ParseErrorKind::UnterminatedLiteral("string literal")))
                }
                Some(b'\'') => {
                    let end = self.pos;
                    self.bump();
                    if self.peek() == Some(b'\'') {
                        // '' escape
                        clean = false;
                        self.bump();
                    } else if clean {
                        return Ok(TokenKind::StringLit(Cow::Borrowed(self.slice(start, end))));
                    } else {
                        return Ok(TokenKind::StringLit(Cow::Owned(
                            self.rebuild_string(start, end),
                        )));
                    }
                }
                Some(b'\\') if self.dialect.backslash_escapes() => {
                    clean = false;
                    self.bump();
                    self.bump(); // escaped byte, if any
                }
                Some(b) => {
                    if b >= 0x80 {
                        clean = false;
                    }
                    self.bump();
                }
            }
        }
    }

    /// Rebuild a string-literal body exactly as the historical eager lexer
    /// did: bytes pushed as chars (Latin-1 recovery for non-ASCII), `''`
    /// collapsed, backslash escapes resolved per dialect.
    fn rebuild_string(&self, start: usize, end: usize) -> String {
        let bytes = &self.src[start..end];
        let mut out = String::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b == b'\'' {
                // Inside the body every quote is the first half of a `''`
                // escape (a lone quote would have terminated the literal).
                out.push('\'');
                i += 2;
            } else if b == b'\\' && self.dialect.backslash_escapes() {
                i += 1;
                if i < bytes.len() {
                    out.push(unescape(bytes[i]));
                    i += 1;
                }
            } else {
                out.push(b as char);
                i += 1;
            }
        }
        out
    }

    fn quoted_ident(&mut self, quote: u8, what: &'static str) -> Result<TokenKind<'a>> {
        self.bump(); // opening quote
        let start = self.pos;
        let mut clean = true;
        loop {
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnterminatedLiteral(what))),
                Some(b) if b == quote => {
                    let end = self.pos;
                    self.bump();
                    if self.peek() == Some(quote) {
                        // Doubled quote escape inside identifier.
                        clean = false;
                        self.bump();
                    } else if clean {
                        return Ok(TokenKind::QuotedIdent(Cow::Borrowed(
                            self.slice(start, end),
                        )));
                    } else {
                        return Ok(TokenKind::QuotedIdent(Cow::Owned(
                            self.rebuild_quoted(start, end, quote),
                        )));
                    }
                }
                Some(b) => {
                    if b >= 0x80 {
                        clean = false;
                    }
                    self.bump();
                }
            }
        }
    }

    /// Rebuild a quoted-identifier body byte-wise, collapsing doubled-quote
    /// escapes — the historical eager lexer's exact output.
    fn rebuild_quoted(&self, start: usize, end: usize, quote: u8) -> String {
        let bytes = &self.src[start..end];
        let mut out = String::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b == quote {
                out.push(quote as char);
                i += 2;
            } else {
                out.push(b as char);
                i += 1;
            }
        }
        out
    }

    fn bracket_ident(&mut self) -> Result<TokenKind<'a>> {
        self.bump(); // '['
        let start = self.pos;
        let mut clean = true;
        loop {
            match self.peek() {
                None => {
                    return Err(
                        self.err(ParseErrorKind::UnterminatedLiteral("bracket identifier"))
                    )
                }
                Some(b']') => {
                    let end = self.pos;
                    self.bump();
                    return Ok(TokenKind::QuotedIdent(if clean {
                        Cow::Borrowed(self.slice(start, end))
                    } else {
                        Cow::Owned(self.src[start..end].iter().map(|&b| b as char).collect())
                    }));
                }
                Some(b) => {
                    if b >= 0x80 {
                        clean = false;
                    }
                    self.bump();
                }
            }
        }
    }

    /// A `$` starts a dollar-quote only when followed by `$` or `tag$`.
    fn looks_like_dollar_quote(&self) -> bool {
        let mut i = 1;
        loop {
            match self.peek_at(i) {
                Some(b'$') => return true,
                Some(b) if is_ident_continue(b) => i += 1,
                _ => return false,
            }
        }
    }

    fn dollar_quoted(&mut self) -> Result<TokenKind<'a>> {
        // Read the opening tag `$...$`.
        let tag_start = self.pos;
        self.bump(); // first '$'
        while let Some(b) = self.peek() {
            self.bump();
            if b == b'$' {
                break;
            }
        }
        let tag_end = self.pos;
        let body_start = self.pos;
        let tag_len = tag_end - tag_start;
        // Scan for the closing tag.
        loop {
            if self.pos + tag_len > self.src.len() {
                return Err(
                    self.err(ParseErrorKind::UnterminatedLiteral("dollar-quoted string"))
                );
            }
            if self.src[self.pos..self.pos + tag_len] == self.src[tag_start..tag_end] {
                let body = self.slice(body_start, self.pos);
                for _ in 0..tag_len {
                    self.bump();
                }
                return Ok(TokenKind::StringLit(Cow::Borrowed(body)));
            }
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$' || b >= 0x80
}

fn unescape(b: u8) -> char {
    match b {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        other => other as char,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(s, Dialect::MySql).tokenize().unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn lex_pg(s: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(s, Dialect::Postgres)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn words_and_punctuation() {
        let toks = lex("CREATE TABLE t (id INT);");
        assert_eq!(
            toks,
            vec![
                TokenKind::Word("CREATE"),
                TokenKind::Word("TABLE"),
                TokenKind::Word("t"),
                TokenKind::LParen,
                TokenKind::Word("id"),
                TokenKind::Word("INT"),
                TokenKind::RParen,
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn backtick_identifiers() {
        let toks = lex("`order` `weird``name`");
        assert_eq!(
            toks,
            vec![
                TokenKind::QuotedIdent("order".into()),
                TokenKind::QuotedIdent("weird`name".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn double_quoted_identifiers() {
        let toks = lex_pg(r#""User" "a""b""#);
        assert_eq!(
            toks,
            vec![
                TokenKind::QuotedIdent("User".into()),
                TokenKind::QuotedIdent("a\"b".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        let toks = lex(r"'it''s' 'a\nb'");
        assert_eq!(
            toks,
            vec![
                TokenKind::StringLit("it's".into()),
                TokenKind::StringLit("a\nb".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn postgres_strings_no_backslash_escape() {
        let toks = lex_pg(r"'a\nb'");
        assert_eq!(toks, vec![TokenKind::StringLit(r"a\nb".into()), TokenKind::Eof]);
    }

    #[test]
    fn clean_literals_borrow_from_the_source() {
        let src = "'plain' `name` \"Quoted\" $$body$$";
        let toks = Lexer::new(src, Dialect::Postgres).tokenize().unwrap();
        for t in &toks {
            match &t.kind {
                TokenKind::StringLit(c) | TokenKind::QuotedIdent(c) => {
                    assert!(matches!(c, Cow::Borrowed(_)), "{:?} should borrow", t.kind);
                }
                _ => {}
            }
        }
        // Escaped forms must rebuild (owned) with identical content.
        let toks = lex("'it''s'");
        assert!(matches!(&toks[0], TokenKind::StringLit(Cow::Owned(s)) if s == "it's"));
    }

    #[test]
    fn non_ascii_literal_bytes_keep_latin1_recovery() {
        // Byte-wise recovery of non-ASCII literal content predates the
        // zero-copy lexer; the rebuilt value must match it byte for byte.
        let toks = lex("'café'");
        let TokenKind::StringLit(s) = &toks[0] else { panic!("{toks:?}") };
        let expected: String = "café".bytes().map(|b| b as char).collect();
        assert!(matches!(s, Cow::Owned(_)));
        assert_eq!(s.as_ref(), expected);
    }

    #[test]
    fn streaming_matches_eager_tokenize() {
        let src = "CREATE TABLE `t` (a INT DEFAULT 'x''y', b DECIMAL(10,2)); -- c\n$$q$$";
        let eager = Lexer::new(src, Dialect::Postgres).tokenize().unwrap();
        let mut lexer = Lexer::new(src, Dialect::Postgres);
        let mut streamed = Vec::new();
        loop {
            let t = lexer.next_token().unwrap();
            let eof = t.kind == TokenKind::Eof;
            streamed.push(t);
            if eof {
                break;
            }
        }
        assert_eq!(eager, streamed);
    }

    #[test]
    fn line_comments() {
        let toks = lex("a -- comment to end\nb # another\nc");
        assert_eq!(
            toks,
            vec![
                TokenKind::Word("a"),
                TokenKind::Word("b"),
                TokenKind::Word("c"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn hash_is_not_comment_in_postgres() {
        // Postgres has no # comments; '#' lexes as an operator.
        let toks = lex_pg("a # b");
        assert!(toks.contains(&TokenKind::Op("#")) || toks.len() == 4);
    }

    #[test]
    fn block_comments_including_executable() {
        let toks = lex("/* plain */ a /*!40101 SET x=1 */ b");
        assert_eq!(toks, vec![TokenKind::Word("a"), TokenKind::Word("b"), TokenKind::Eof,]);
    }

    #[test]
    fn unterminated_block_comment_errors() {
        let err = Lexer::new("/* never ends", Dialect::MySql).tokenize().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnterminatedLiteral("block comment"));
    }

    #[test]
    fn unterminated_string_errors() {
        let err = Lexer::new("'open", Dialect::MySql).tokenize().unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnterminatedLiteral("string literal"));
    }

    #[test]
    fn numbers() {
        let toks = lex("1 2.5 10e3 1.5E-2 .5");
        assert_eq!(
            toks,
            vec![
                TokenKind::Number("1"),
                TokenKind::Number("2.5"),
                TokenKind::Number("10e3"),
                TokenKind::Number("1.5E-2"),
                TokenKind::Number(".5"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn number_followed_by_word_does_not_eat_exponentless_e() {
        // "10 END" vs "10END": the latter lexes as number 10 then word END.
        let toks = lex("10END");
        assert_eq!(
            toks,
            vec![TokenKind::Number("10"), TokenKind::Word("END"), TokenKind::Eof,]
        );
    }

    #[test]
    fn dollar_quoted_strings() {
        let toks = lex_pg("$$hello$$ $fn$body; with 'quotes'$fn$");
        assert_eq!(
            toks,
            vec![
                TokenKind::StringLit("hello".into()),
                TokenKind::StringLit("body; with 'quotes'".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn dollar_not_a_quote_in_mysql() {
        // MySQL has no dollar quoting; `$$` lexes as operators.
        let toks = lex("$$x$$");
        assert!(matches!(toks[0], TokenKind::Op(_)));
    }

    #[test]
    fn operators_and_eq() {
        let toks = lex("a = b <> c <= d :: e");
        assert!(toks.contains(&TokenKind::Eq));
        assert!(toks.contains(&TokenKind::Op("<>")));
        assert!(toks.contains(&TokenKind::Op("<=")));
        assert!(toks.contains(&TokenKind::Op("::")));
    }

    #[test]
    fn dot_separates_qualified_names() {
        let toks = lex("public.users");
        assert_eq!(
            toks,
            vec![
                TokenKind::Word("public"),
                TokenKind::Dot,
                TokenKind::Word("users"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = Lexer::new("a\n  b", Dialect::MySql).tokenize().unwrap();
        assert_eq!((toks[0].line, toks[0].column), (1, 1));
        assert_eq!((toks[1].line, toks[1].column), (2, 3));
    }

    #[test]
    fn utf8_identifiers_survive() {
        let toks = lex("café");
        assert!(matches!(&toks[0], TokenKind::Word(w) if w.contains("caf")));
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(lex(""), vec![TokenKind::Eof]);
        assert_eq!(lex("   \n\t "), vec![TokenKind::Eof]);
    }
}
