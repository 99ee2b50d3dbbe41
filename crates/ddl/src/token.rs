//! Token definitions produced by the [`crate::lexer::Lexer`].
//!
//! Tokens are zero-copy: a [`Token`] borrows `&str` slices of the source
//! text wherever the token's value is a verbatim slice (words, numbers,
//! operators), and a [`Cow`] for quoted literals, which borrow unless an
//! escape sequence or non-UTF-8 byte recovery forced the lexer to build the
//! value. The parser pulls them from the lexer one at a time; the only
//! materialized token vector is [`crate::lexer::Lexer::tokenize`]'s.

use std::borrow::Cow;
use std::fmt;

/// A single lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// The kind of this item.
    pub kind: TokenKind<'a>,
    /// 1-based line where the token starts.
    pub line: u32,
    /// 1-based column where the token starts.
    pub column: u32,
}

/// The lexical class of a token, borrowing from the source where possible.
///
/// SQL keywords are *not* distinguished at the lexer level: identifiers carry
/// their raw text and the parser matches keywords case-insensitively. This
/// keeps the lexer dialect-agnostic (MySQL and PostgreSQL share the token
/// shapes; they differ in quoting rules, handled by the lexer options).
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// A bare word: keyword, table/column name, or function name.
    Word(&'a str),
    /// A quoted identifier (backticks, double quotes, or brackets), with
    /// quotes stripped and escapes resolved.
    QuotedIdent(Cow<'a, str>),
    /// A string literal ('...' or dollar-quoted), contents only.
    StringLit(Cow<'a, str>),
    /// A numeric literal, verbatim.
    Number(&'a str),
    /// Opening parenthesis.
    LParen,
    /// Closing parenthesis.
    RParen,
    /// Comma separator.
    Comma,
    /// Statement terminator.
    Semicolon,
    /// Name qualifier dot.
    Dot,
    /// Equality / assignment sign.
    Eq,
    /// Any other operator-ish punctuation we tolerate but never interpret
    /// (e.g. `<`, `>`, `+`, `-`, `*`, `/`, `::`, `!=`).
    Op(&'a str),
    /// End of input sentinel.
    Eof,
}

impl TokenKind<'_> {
    /// The identifier text if this token can serve as an identifier.
    pub fn ident_text(&self) -> Option<&str> {
        match self {
            TokenKind::Word(w) => Some(w),
            TokenKind::QuotedIdent(q) => Some(q),
            _ => None,
        }
    }

    /// True if this is a bare word matching `kw` case-insensitively.
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Word(w) => write!(f, "{w}"),
            TokenKind::QuotedIdent(q) => write!(f, "\"{q}\""),
            TokenKind::StringLit(s) => write!(f, "'{s}'"),
            TokenKind::Number(n) => write!(f, "{n}"),
            TokenKind::LParen => write!(f, "'('"),
            TokenKind::RParen => write!(f, "')'"),
            TokenKind::Comma => write!(f, "','"),
            TokenKind::Semicolon => write!(f, "';'"),
            TokenKind::Dot => write!(f, "'.'"),
            TokenKind::Eq => write!(f, "'='"),
            TokenKind::Op(o) => write!(f, "'{o}'"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_text_for_words_and_quoted() {
        assert_eq!(TokenKind::Word("users").ident_text(), Some("users"));
        assert_eq!(TokenKind::QuotedIdent(Cow::Borrowed("order")).ident_text(), Some("order"));
        assert_eq!(TokenKind::Comma.ident_text(), None);
        assert_eq!(TokenKind::StringLit(Cow::Borrowed("x")).ident_text(), None);
    }

    #[test]
    fn keyword_match_is_case_insensitive() {
        assert!(TokenKind::Word("CREATE").is_keyword("create"));
        assert!(TokenKind::Word("create").is_keyword("CREATE"));
        assert!(TokenKind::Word("Create").is_keyword("create"));
        // Quoted identifiers are never keywords.
        assert!(!TokenKind::QuotedIdent(Cow::Borrowed("create")).is_keyword("create"));
    }

    #[test]
    fn display_round_trips_meaningfully() {
        assert_eq!(TokenKind::Word("users").to_string(), "users");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
        assert_eq!(TokenKind::Comma.to_string(), "','");
    }
}
