//! Property: the interned streaming parse and the eager reference parse are
//! observationally identical on everything the generator can emit.
//!
//! The study parses every DDL version through `parse_schema_interned`: the
//! lexer is pulled token by token and every identifier goes through one warm
//! shared interner. The reference lexes the whole script first
//! (`Lexer::tokenize`, so a lex error always wins), parses the buffered
//! tokens with `Parser::new` and no interner, then applies. Silent
//! divergence between the two is the failure mode to fear: a cold study
//! would "pass" while measuring two different parsers. This drives both over
//! generator corpora under proptest-chosen seeds and corpus sizes and
//! asserts model equality and printer-round-trip equality for every DDL
//! version text.
//!
//! The study's `ParseCache` recalls statements a project's previous version
//! already held instead of parsing them again. The second half checks that
//! memo against a fresh `parse_schema` of every version, on the paper
//! corpus, the 2 000-project CI corpus, histories derived from real dump
//! files (the only inputs with `ALTER` and `CREATE INDEX`, so the only ones
//! where a table the memo shares is changed within its version) and
//! hand-written histories built around what the memo must not get wrong:
//! values and every error with its line and column. Every byte prefix of the real dumps must parse or fail, the
//! same way on both paths, and every parsed table must hold vectors of
//! exactly their length.

use coevo_corpus::{generate_corpus, generate_nth, CorpusSpec};
use coevo_ddl::{
    apply_statements, parse_schema, parse_schema_interned, print_schema, Dialect, Interner,
    Lexer, ParseCache, Parser, Schema,
};
use proptest::prelude::*;

/// The eager, interner-free reference parse.
fn reference_parse(text: &str, dialect: Dialect) -> Schema {
    let tokens = Lexer::new(text, dialect).tokenize().expect("reference lex");
    let stmts = Parser::new(tokens, dialect).parse_script().expect("reference parse");
    apply_statements(stmts).expect("reference apply")
}

proptest! {
    // Each case parses a few hundred DDL texts twice; keep the case count
    // modest so the suite stays inside normal `cargo test` time.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interned_parse_equals_eager_reference(seed in any::<u64>(), per_taxon in 1usize..4) {
        let mut spec = CorpusSpec::paper().with_per_taxon(per_taxon);
        spec.seed = seed;
        let interner = Interner::new();
        for project in generate_corpus(&spec) {
            let dialect = project.raw.dialect;
            for (_, text) in &project.raw.ddl_versions {
                let reference = reference_parse(text, dialect);
                let interned =
                    parse_schema_interned(text, dialect, &interner).expect("interned parse");

                // The models are equal, field by field.
                prop_assert_eq!(&reference, &interned);

                // Printing the interned parse and re-parsing it (through the
                // default path) lands on the same model: interning leaks
                // nothing into the printed form.
                let printed = print_schema(&interned, dialect);
                let reparsed = parse_schema(&printed, dialect).expect("reparse printed");
                prop_assert_eq!(&interned, &reparsed);
            }
        }
    }
}

/// Parse `history` in order through one memo, checking each version
/// against a fresh parse: the same schema, tables of exactly their length,
/// or the same error. Returns the number of versions that failed to parse.
fn memo_matches_fresh<'a>(
    cache: &mut ParseCache,
    history: impl IntoIterator<Item = (&'a str, Dialect)>,
) -> usize {
    let mut errors = 0;
    for (text, dialect) in history {
        match (cache.parse(text, dialect), parse_schema(text, dialect)) {
            (Ok(memo), Ok(fresh)) => {
                assert_eq!(*memo, fresh, "{text:?}");
                for t in memo.tables.iter().chain(&fresh.tables) {
                    assert_eq!(t.columns.len(), t.columns.capacity(), "{text:?}");
                    assert_eq!(t.constraints.len(), t.constraints.capacity(), "{text:?}");
                    assert_eq!(t.indexes.len(), t.indexes.capacity(), "{text:?}");
                }
            }
            (Err(memo), Err(fresh)) => {
                assert_eq!(memo, fresh, "{text:?}");
                errors += 1;
            }
            (memo, fresh) => panic!("{text:?}: memo {memo:?}, fresh {fresh:?}"),
        }
    }
    errors
}

#[test]
fn memo_equals_fresh_parse_on_the_paper_corpus() {
    let mut recalled = 0;
    for project in generate_corpus(&CorpusSpec::paper()) {
        let mut cache = ParseCache::new();
        let versions =
            project.raw.ddl_versions.iter().map(|(_, t)| (t.as_str(), project.raw.dialect));
        memo_matches_fresh(&mut cache, versions);
        recalled += cache.hits();
    }
    assert!(recalled > 1_000, "{recalled}");
}

#[test]
fn memo_equals_fresh_parse_on_the_ci_corpus() {
    let mut spec = CorpusSpec::paper().with_total(2_000);
    spec.seed = 5;
    let mut recalled = 0;
    for i in 0..2_000 {
        let project = generate_nth(&spec, i).expect("index < total");
        let mut cache = ParseCache::new();
        let versions =
            project.raw.ddl_versions.iter().map(|(_, t)| (t.as_str(), project.raw.dialect));
        memo_matches_fresh(&mut cache, versions);
        recalled += cache.hits();
    }
    assert!(recalled > 10_000, "{recalled}");
}

/// One history under one dialect; returns the statements recalled.
fn history(versions: &[&str], dialect: Dialect) -> u64 {
    let mut cache = ParseCache::new();
    memo_matches_fresh(&mut cache, versions.iter().map(|t| (*t, dialect)));
    cache.hits()
}

/// A dump's statements, each with the comments and blank lines before it:
/// the text split after every line that ends in `;` outside a `$$` body.
fn statements(dump: &str) -> Vec<&str> {
    let (mut out, mut start, mut in_body) = (Vec::new(), 0, false);
    let mut at = 0;
    for line in dump.split_inclusive('\n') {
        at += line.len();
        in_body ^= line.matches("$$").count() % 2 == 1;
        if !in_body && line.trim_end().ends_with(';') {
            out.push(&dump[start..at]);
            start = at;
        }
    }
    out.push(&dump[start..]);
    out
}

/// Versions derived from a real dump, in the order one memo parses them:
/// every statement prefix, each followed by itself plus an `ALTER` of every
/// table, plus a `CREATE INDEX` on every table and plus a broken statement;
/// the dump without each statement in turn; the dump with each pair of
/// statements swapped. The whole dump sits between the variants of the
/// last two kinds, so each is recalled from it and it from each.
fn derived_versions(dump: &str, dialect: Dialect) -> Vec<String> {
    let stmts = statements(dump);
    let schema = parse_schema(dump, dialect).expect("fixture parses");
    let (mut alters, mut indexes) = (String::new(), String::new());
    for t in &schema.tables {
        alters.push_str(&format!("ALTER TABLE {} ADD COLUMN coevo_extra INT;\n", t.name));
        let column = &t.columns[0].name;
        indexes.push_str(&format!("CREATE INDEX coevo_i ON {} ({column});\n", t.name));
    }
    let broken = "CREATE TABLE coevo_broken (x INT,\n  );\n";
    let mut versions = Vec::new();
    for k in 0..=stmts.len() {
        let prefix = stmts[..k].concat();
        for suffix in ["", &alters, &indexes, broken] {
            versions.push(format!("{prefix}{suffix}"));
        }
    }
    for i in 0..stmts.len() {
        let mut without = stmts.clone();
        without.remove(i);
        versions.extend([without.concat(), dump.to_string()]);
    }
    for i in 0..stmts.len() {
        for j in i + 1..stmts.len() {
            let mut swapped = stmts.clone();
            swapped.swap(i, j);
            versions.extend([swapped.concat(), dump.to_string()]);
        }
    }
    versions
}

#[test]
fn memo_equals_fresh_parse_on_histories_derived_from_real_dumps() {
    let dumps = [
        (include_str!("../../ddl/tests/fixtures/blog_mysql.sql"), Dialect::MySql),
        (include_str!("../../ddl/tests/fixtures/tracker_postgres.sql"), Dialect::Postgres),
        (include_str!("../../ddl/tests/fixtures/wiki_mysql.sql"), Dialect::MySql),
    ];
    for (dump, dialect) in dumps {
        assert_eq!(statements(dump).concat(), dump);
        let versions = derived_versions(dump, dialect);
        let mut cache = ParseCache::new();
        let errors =
            memo_matches_fresh(&mut cache, versions.iter().map(|v| (v.as_str(), dialect)));
        let stmts = statements(dump).len();
        // The broken statement fails after every prefix, nothing else does.
        assert_eq!(errors, stmts + 1);
        assert!(cache.hits() > cache.misses(), "{} / {}", cache.hits(), cache.misses());
    }
}

#[test]
fn every_byte_prefix_of_a_real_dump_parses_or_fails_the_same_both_ways() {
    // Text that ended inside a type's parameter list once hung the parser;
    // every prefix must now return, through `parse_schema` and through one
    // memo fed the prefixes in order, with equal results.
    let dumps = [
        (include_str!("../../ddl/tests/fixtures/blog_mysql.sql"), Dialect::MySql),
        (include_str!("../../ddl/tests/fixtures/tracker_postgres.sql"), Dialect::Postgres),
        (include_str!("../../ddl/tests/fixtures/wiki_mysql.sql"), Dialect::MySql),
    ];
    for (dump, dialect) in dumps {
        let prefixes: Vec<&str> = (0..=dump.len())
            .filter(|&i| dump.is_char_boundary(i))
            .map(|i| &dump[..i])
            .collect();
        let mut cache = ParseCache::new();
        let errors = memo_matches_fresh(&mut cache, prefixes.iter().map(|p| (*p, dialect)));
        assert!(errors > 0 && errors < prefixes.len(), "{errors} of {}", prefixes.len());
    }
}

const A: &str = "CREATE TABLE a (\n  x INT,\n  PRIMARY KEY (x)\n);\n";
const B: &str = "CREATE TABLE b (y INT NOT NULL);\n";
const C: &str = "CREATE TABLE c (z VARCHAR(10) DEFAULT 'q');\n";

#[test]
fn alter_after_create_of_a_recalled_table() {
    let ab = format!("{A}{B}");
    let altered = format!("{A}{B}ALTER TABLE a ADD COLUMN w INT;\n");
    let indexed = format!("{altered}CREATE INDEX bi ON b (y);\n");
    let renamed = format!("{A}{B}ALTER TABLE b RENAME TO bb;\n");
    let dropped = format!("{A}{B}DROP TABLE a;\n");
    let recreated = format!("{A}{B}{A}CREATE TABLE a (v INT);\n");
    // Each altered table must come back unaltered when the ALTER goes.
    let recalled = history(
        &[&ab, &altered, &indexed, &ab, &renamed, &ab, &dropped, &ab, &recreated, &ab, &ab],
        Dialect::MySql,
    );
    assert!(recalled >= 12, "{recalled}");
}

#[test]
fn reordered_statements() {
    let abc = format!("{A}{B}{C}");
    let cab = format!("{C}{A}{B}");
    let bca = format!("{B}{C}{A}");
    let dup = format!("{A}{A}{B}{B}");
    assert!(history(&[&abc, &cab, &bca, &abc, &dup, &abc, &dup], Dialect::Generic) >= 12);
}

#[test]
fn semicolons_inside_strings_comments_and_parens() {
    let v1 = "CREATE TABLE a (x VARCHAR(9) DEFAULT 'p;q' COMMENT 'r;\ns');\n\
              -- a; comment\n\
              /* block; comment */ CREATE TABLE b (y INT CHECK (y IN (1;2)), z INT);\n\
              CREATE TABLE c (w INT);\n";
    let v2 = v1.replace("(w INT)", "(w INT, v INT)");
    let v3 = v1.replace("'p;q'", "'p;r'");
    let v4 = v1.replace("-- a; comment", "-- a; comment;");
    assert!(history(&[v1, &v2, &v3, &v4, v1], Dialect::MySql) >= 8);
}

#[test]
fn last_statement_without_semicolon_gains_a_suffix() {
    // On one line, and over several (where the recall key, which stops
    // at the first newline, cannot tell the versions apart).
    for last in ["CREATE TABLE b (y INT)", "CREATE TABLE b (\n  y INT\n)"] {
        let v1 = format!("{A}{last}");
        let v2 = format!("{v1} ENGINE=InnoDB");
        let v3 = format!("{v1}\n;\n{C}");
        let v4 = format!("{v1}, w");
        // A later `CREATE TABLE` is swallowed into `b`'s table options.
        let v5 = format!("{v1}\n{C}");
        let v6 = format!("{v1}  \n-- trailing\n");
        let versions =
            [&v1, &v2, &v1, &v3, &v1, &v4, &v1, &v5, &v1, &v6, &v6].map(String::as_str);
        assert!(history(&versions, Dialect::MySql) >= 6);
    }
}

#[test]
fn dialect_switch_between_calls() {
    // `#` starts a comment in MySQL (and Generic) only: PostgreSQL reads
    // `# note CREATE TABLE b (y INT);` as one skipped statement.
    let v1 = format!("{A}# note\nCREATE TABLE b (y INT);\n{C}");
    let v2 = v1.replace("(y INT)", "(y INT, u INT)");
    let mut cache = ParseCache::new();
    let mut calls = Vec::new();
    for text in [&v1, &v1, &v2, &v1, &v2] {
        for dialect in [Dialect::MySql, Dialect::Postgres, Dialect::Generic] {
            calls.push((text.as_str(), dialect));
        }
    }
    memo_matches_fresh(&mut cache, calls);
    assert!(cache.hits() > 0);
}

#[test]
fn parse_error_after_recalled_statements() {
    let ok = format!("{A}\n{B}{C}");
    // A parse error, and a lex error, on the line after the recalled
    // statements; then on their own line, where only the column tells.
    let errors = [
        format!("{ok}CREATE TABLE e (z INT,\n  );\n"),
        format!("{ok}CREATE TABLE e (z VARCHAR(3) DEFAULT 'x);\n"),
        format!("{ok}  CREATE TABLE e (z INT INT INT);\n"),
        format!("{A}{B} CREATE TABLE e (z INT,"),
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE e (".to_string(),
        format!("{ok}/* unterminated"),
        format!("{ok}DROP TABLE nope;\n"),
        // On the last line of a recalled multi-line statement.
        format!("{} CREATE TABLE e (z INT INT);\n", A.trim_end()),
        format!("{}\n{} CREATE TABLE e (", A.trim_end(), B.trim_end()),
    ];
    for e in &errors {
        let oneline = "CREATE TABLE a (x INT); CREATE TABLE b (y INT);";
        let recalled = history(&[&ok, e, oneline, e, &ok, e, &ok], Dialect::MySql);
        assert!(recalled >= 3, "{e:?}: {recalled}");
    }
}
