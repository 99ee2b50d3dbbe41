//! Property: the interned streaming parse and the eager reference parse are
//! observationally identical on everything the generator can emit.
//!
//! The study parses every DDL version through `parse_schema_interned`: the
//! lexer is pulled token by token and every identifier goes through one warm
//! shared interner. The reference lexes the whole script first
//! (`Lexer::tokenize`, so a lex error always wins), parses the buffered
//! tokens with `Parser::new` and no interner, then applies and seals. Silent
//! divergence between the two is the failure mode to fear: a cold study
//! would "pass" while measuring two different parsers. This drives both over
//! generator corpora under proptest-chosen seeds and corpus sizes and
//! asserts model equality, fingerprint equality, and printer-round-trip
//! equality for every DDL version text.

use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_ddl::{
    apply_statements, fingerprint, parse_schema, parse_schema_interned, print_schema, Dialect,
    Interner, Lexer, Parser, Schema,
};
use proptest::prelude::*;

/// The eager, interner-free reference parse.
fn reference_parse(text: &str, dialect: Dialect) -> Schema {
    let tokens = Lexer::new(text, dialect).tokenize().expect("reference lex");
    let stmts = Parser::new(tokens, dialect).parse_script().expect("reference parse");
    let mut schema = apply_statements(stmts).expect("reference apply");
    schema.seal();
    schema
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

                // The models are equal — field by field, not just by hash —
                // and their structural fingerprints agree.
                prop_assert_eq!(&reference, &interned);
                prop_assert_eq!(
                    fingerprint::of_schema(&reference),
                    fingerprint::of_schema(&interned)
                );

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
