//! Calibration harness: run the full 195-project study on the paper corpus
//! and check that the population statistics land inside tolerance bands of
//! the paper's published numbers. Run with `--nocapture` to see the full
//! measured-vs-paper report.

use coevo_core::Study;
use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_engine::pipeline::project_from_artifacts;

fn run_study() -> coevo_core::StudyResults {
    let corpus = generate_corpus(&CorpusSpec::paper());
    let projects: Vec<_> = corpus
        .into_iter()
        .map(|p| project_from_artifacts(p.into()).expect("pipeline"))
        .collect();
    Study::new(projects).run()
}

#[test]
fn calibration_headline_numbers() {
    let results = run_study();
    let n = results.measures.len() as f64;
    assert_eq!(results.measures.len(), 195);

    println!("\n===== calibration report (paper → measured) =====");

    // --- Fig 6: life percentage of schema advance ---
    let src_09 = results.fig6.rows[0].source_pct;
    let time_09 = results.fig6.rows[0].time_pct;
    let src_ge_05: f64 = results.fig6.rows[..5].iter().map(|r| r.source_pct).sum();
    let time_ge_05: f64 = results.fig6.rows[..5].iter().map(|r| r.time_pct).sum();
    println!("fig6 advance≥0.9 over source: 41% → {:.0}%", src_09 * 100.0);
    println!("fig6 advance≥0.9 over time:   51% → {:.0}%", time_09 * 100.0);
    println!("fig6 advance≥0.5 over source: 71% → {:.0}%", src_ge_05 * 100.0);
    println!("fig6 advance≥0.5 over time:   78% → {:.0}%", time_ge_05 * 100.0);
    println!("fig6 blank: 2 → {}", results.fig6.blank);

    // --- Fig 7: always in advance ---
    let f7 = &results.fig7;
    println!(
        "fig7 always over time:   80 (41%) → {} ({:.0}%)",
        f7.total_time,
        f7.total_time as f64 / n * 100.0
    );
    println!(
        "fig7 always over source: 57 (29%) → {} ({:.0}%)",
        f7.total_source,
        f7.total_source as f64 / n * 100.0
    );
    println!(
        "fig7 always over both:   55 (28%) → {} ({:.0}%)",
        f7.total_both,
        f7.total_both as f64 / n * 100.0
    );
    for r in &f7.rows {
        println!(
            "  fig7 {}: n={} time={} source={} both={}",
            r.taxon, r.projects, r.always_over_time, r.always_over_source, r.always_over_both
        );
    }

    // --- Fig 8: attainment ---
    let grid = &results.fig8;
    let alpha_idx = |a: f64| grid.alphas.iter().position(|&x| (x - a).abs() < 1e-9).unwrap();
    let a75 = &grid.counts[alpha_idx(0.75)];
    let a80 = &grid.counts[alpha_idx(0.80)];
    let a100 = &grid.counts[alpha_idx(1.00)];
    println!("fig8 75% within [0,20):  98 → {}", a75[0]);
    println!("fig8 75% ranges: [98,36,34,27] → {a75:?}");
    println!("fig8 80% within [0,20):  94 → {}", a80[0]);
    println!("fig8 80% ranges: [94,36,36,29] → {a80:?}");
    println!("fig8 100% ranges: [60,33,40,62] → {a100:?}");

    // --- Fig 4 / §9: synchronicity ---
    println!("fig4 sync10 histogram: {:?}", results.fig4.counts);
    println!(
        "hand-in-hand (sync10 ≥ 0.8): ~20% → {:.0}%",
        results.hand_in_hand_share(0.8) * 100.0
    );

    // --- §7 statistics ---
    let s7 = &results.section7;
    for e in &s7.normality {
        println!("shapiro {}: W={:.3} p={:.2e}", e.attribute, e.w, e.p_value);
    }
    if let Some(k) = &s7.sync_by_taxon {
        println!("kruskal taxon→sync10: p=0.003 → p={:.4}", k.p_value);
        for (t, m) in &k.medians {
            println!("  median sync10 {t}: {m:.2}");
        }
    }
    if let Some(k) = &s7.attainment75_by_taxon {
        println!("kruskal taxon→att75: p=0.006 → p={:.4}", k.p_value);
        for (t, m) in &k.medians {
            println!("  median att75 {t}: {m:.2}");
        }
    }
    for lt in &s7.lag_tests {
        println!("lag {} chi2 p={:.3} fisher p={:?}", lt.flag, lt.chi2_p, lt.fisher_p);
    }
    println!("kendall sync5~sync10: 0.67 → {:.2}", s7.kendall_sync_5_10.unwrap_or(f64::NAN));
    println!(
        "kendall advTime~advSource: 0.75 → {:.2}",
        s7.kendall_advance_time_source.unwrap_or(f64::NAN)
    );
    println!("=================================================\n");

    // ---- tolerance bands (loose: ±12 percentage points / shape checks) ----
    let pct = |x: f64| x * 100.0;
    assert!((29.0..=53.0).contains(&pct(src_09)), "src≥0.9 {}", pct(src_09));
    assert!((39.0..=63.0).contains(&pct(time_09)), "time≥0.9 {}", pct(time_09));
    assert!(time_09 >= src_09, "time advance should dominate source advance");
    assert!((59.0..=83.0).contains(&pct(src_ge_05)));
    assert!((66.0..=90.0).contains(&pct(time_ge_05)));

    assert!(f7.total_time >= f7.total_source, "paper: time 80 > source 57");
    assert!(f7.total_both <= f7.total_source);
    assert!(
        f7.total_source as i64 - f7.total_both as i64 <= 8,
        "both ({}) should closely track source ({})",
        f7.total_both,
        f7.total_source
    );
    assert!((60..=100).contains(&f7.total_time), "always-time {}", f7.total_time);
    assert!((40..=75).contains(&f7.total_source), "always-source {}", f7.total_source);

    assert!((78..=118).contains(&a75[0]), "75% attain in first 20%: {}", a75[0]);
    assert!((74..=114).contains(&a80[0]), "80% attain in first 20%: {}", a80[0]);
    assert!((40..=80).contains(&a100[0]), "100% attain in first 20%: {}", a100[0]);
    assert!(
        a100[3] >= 35,
        "a sizable tail must attain 100% only after 80% of life: {}",
        a100[3]
    );

    // Monotone attainment: higher α is never attained earlier in aggregate.
    assert!(a75[0] >= a80[0]);
    assert!(a80[0] >= a100[0]);

    // Statistical decisions (not exact p-values): taxon affects both
    // synchronicity and attainment significantly; measures correlate.
    let s7 = &results.section7;
    for e in &s7.normality {
        assert!(e.p_value < 0.01, "normality should be rejected for {}", e.attribute);
    }
    let ks = s7.sync_by_taxon.as_ref().unwrap();
    assert!(ks.p_value < 0.05, "taxon→sync10 p={}", ks.p_value);
    let ka = s7.attainment75_by_taxon.as_ref().unwrap();
    assert!(ka.p_value < 0.05, "taxon→att75 p={}", ka.p_value);
    let tau_sync = s7.kendall_sync_5_10.unwrap();
    assert!((0.4..=0.95).contains(&tau_sync), "tau sync {tau_sync}");
    let tau_adv = s7.kendall_advance_time_source.unwrap();
    assert!((0.5..=0.95).contains(&tau_adv), "tau advance {tau_adv}");
}

#[test]
fn corpus_spreads_over_all_sync_buckets() {
    // Paper Fig. 4: "all kinds of behaviors" — every bucket populated.
    let results = run_study();
    for (i, &c) in results.fig4.counts.iter().enumerate() {
        assert!(c > 0, "fig4 bucket {i} is empty: {:?}", results.fig4.counts);
    }
}

#[test]
fn long_projects_gravitate_to_mid_sync() {
    // Paper Fig. 5: beyond 60 months, high synchronicity empties out.
    let results = run_study();
    let long_high =
        results.fig5.iter().filter(|p| p.duration_months > 60 && p.sync_10 > 0.8).count();
    let long_all = results.fig5.iter().filter(|p| p.duration_months > 60).count();
    assert!(long_all >= 10, "need a populated >60-month band: {long_all}");
    assert!(
        (long_high as f64) / (long_all as f64) < 0.35,
        "too many highly-synchronous long projects: {long_high}/{long_all}"
    );
}
