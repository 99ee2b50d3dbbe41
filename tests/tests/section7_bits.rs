//! Bit-level pin of every Section 7 number on the paper corpus
//! (`CorpusSpec::paper()`, n = 195): Shapiro–Wilk W and p, Kruskal–Wallis H
//! and p, the post-hoc Mann–Whitney p-values, χ² and Fisher on all three
//! lag tables, both headline Kendall τ and the correlation matrix. Every
//! value is compared by `f64::to_bits`, so a kernel rewrite that moves any
//! number by one ulp fails here.

use coevo_core::study::Section7;
use coevo_core::Study;
use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_engine::pipeline::project_from_artifacts;
use std::fmt::Write;

fn paper_section7() -> Section7 {
    let projects = generate_corpus(&CorpusSpec::paper())
        .into_iter()
        .map(|p| project_from_artifacts(p.into()).expect("pipeline"))
        .collect();
    Study::new(projects).run().section7
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn opt_bits(x: Option<f64>) -> String {
    x.map_or_else(|| "none".to_string(), bits)
}

/// One `name value-bits` line per number, in `Section7` field order.
fn render(s7: &Section7) -> String {
    let mut out = String::new();
    for e in &s7.normality {
        writeln!(out, "shapiro.{}.w {}", e.attribute, bits(e.w)).unwrap();
        writeln!(out, "shapiro.{}.p {}", e.attribute, bits(e.p_value)).unwrap();
    }
    for (name, effect) in
        [("sync_10", &s7.sync_by_taxon), ("attainment_75", &s7.attainment75_by_taxon)]
    {
        match effect {
            Some(k) => {
                writeln!(out, "kruskal.{name}.h {}", bits(k.h)).unwrap();
                writeln!(out, "kruskal.{name}.df {}", k.df).unwrap();
                writeln!(out, "kruskal.{name}.p {}", bits(k.p_value)).unwrap();
                for (t, m) in &k.medians {
                    writeln!(out, "kruskal.{name}.median.{t} {}", bits(*m)).unwrap();
                }
            }
            None => writeln!(out, "kruskal.{name} none").unwrap(),
        }
    }
    for c in &s7.sync_posthoc {
        writeln!(out, "posthoc.{}~{}.p {}", c.a, c.b, bits(c.adjusted_p)).unwrap();
    }
    for t in &s7.lag_tests {
        writeln!(out, "lag.{}.chi2 {}", t.flag, bits(t.chi2_statistic)).unwrap();
        writeln!(out, "lag.{}.chi2_p {}", t.flag, bits(t.chi2_p)).unwrap();
        writeln!(out, "lag.{}.fisher_p {}", t.flag, opt_bits(t.fisher_p)).unwrap();
    }
    writeln!(out, "kendall.sync_05~sync_10 {}", opt_bits(s7.kendall_sync_5_10)).unwrap();
    writeln!(
        out,
        "kendall.advance_over_time~advance_over_source {}",
        opt_bits(s7.kendall_advance_time_source)
    )
    .unwrap();
    for (a, b, tau) in &s7.correlation_matrix {
        writeln!(out, "matrix.{a}~{b} {}", bits(*tau)).unwrap();
    }
    out
}

#[test]
fn paper_corpus_section7_is_bit_stable() {
    let rendered = render(&paper_section7());
    let golden = include_str!("../golden/section7_paper.bits");
    if rendered != golden {
        println!("{rendered}");
    }
    assert_eq!(rendered, golden, "Section 7 moved on the paper corpus");
}
