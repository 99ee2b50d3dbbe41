//! The study aggregation — Figures 4–8 and the Section 7 tests — composed
//! from the public `coevo-core` figure functions and `coevo-stats` tests in
//! the order `coevo_core::study::section7_cached` calls them, with one span
//! around every test call. The Fisher memo keyed by contingency table
//! mirrors `coevo_core::StatsCache`, so warm serve summaries skip the same
//! enumerations the daemon skips.

use crate::{count, count_max, trace};
use coevo_core::study::{
    fig4, fig5, fig6, fig7, fig8, LagTest, NormalityEntry, PairwiseComparison, Section7,
    TaxonEffect,
};
use coevo_core::{ProjectMeasures, StudyResults};
use coevo_stats::{
    chi_square_independence, fisher_exact_rx2, fisher_rx2_monte_carlo, kendall_tau_b,
    kruskal_wallis, mann_whitney_u, median, shapiro_wilk, KruskalResult, ShapiroResult,
};
use coevo_taxa::Taxon;
use std::collections::HashMap;

/// Fisher p-values by contingency table, as `StatsCache` keeps them.
#[derive(Default)]
pub struct FisherMemo(HashMap<Vec<(u64, u64)>, Option<f64>>);

impl FisherMemo {
    fn p(&mut self, rows: &[(u64, u64)]) -> Option<f64> {
        let _s = trace::span("stats.fisher");
        if let Some(p) = self.0.get(rows) {
            return *p;
        }
        count("stats.fisher_exact_calls", 1);
        let p = fisher_exact_rx2(rows, 2_000_000).or_else(|| {
            count("stats.fisher_mc_calls", 1);
            fisher_rx2_monte_carlo(rows, 100_000, 0xF15E)
        });
        self.0.insert(rows.to_vec(), p);
        p
    }
}

/// Figures and Section 7 over `measures`.
pub fn study_results(measures: Vec<ProjectMeasures>, memo: &mut FisherMemo) -> StudyResults {
    let (f4, f5, f6, f7, f8) = trace::timed("core.figures", || {
        (fig4(&measures), fig5(&measures), fig6(&measures), fig7(&measures), fig8(&measures))
    });
    let section7 = trace::timed("core.section7", || section7(&measures, memo));
    StudyResults { measures, fig4: f4, fig5: f5, fig6: f6, fig7: f7, fig8: f8, section7 }
}

fn kendall(x: &[f64], y: &[f64]) -> Option<f64> {
    let _s = trace::span("stats.kendall");
    count_max("stats.kendall_n", x.len() as u64);
    kendall_tau_b(x, y)
}

fn section7(measures: &[ProjectMeasures], memo: &mut FisherMemo) -> Section7 {
    let attrs: Vec<(&str, Vec<f64>)> = vec![
        ("sync_05", measures.iter().map(|m| m.sync_05).collect()),
        ("sync_10", measures.iter().map(|m| m.sync_10).collect()),
        (
            "advance_over_source",
            measures.iter().filter_map(|m| m.advance.over_source).collect(),
        ),
        ("advance_over_time", measures.iter().filter_map(|m| m.advance.over_time).collect()),
        ("attainment_75", measures.iter().filter_map(|m| m.attainment.at_75).collect()),
        ("duration", measures.iter().map(|m| m.duration_months() as f64).collect()),
    ];
    let normality: Vec<NormalityEntry> = attrs
        .iter()
        .filter_map(|(name, values)| {
            let _s = trace::span("stats.shapiro");
            shapiro_wilk(values).map(|ShapiroResult { w, p_value }| NormalityEntry {
                attribute: name.to_string(),
                w,
                p_value,
            })
        })
        .collect();

    let sync_by_taxon = taxon_effect(measures, |m| Some(m.sync_10));
    let attainment75_by_taxon = taxon_effect(measures, |m| m.attainment.at_75);
    let sync_posthoc = pairwise_posthoc(measures, |m| Some(m.sync_10));

    let lag_tests = ["time", "source", "both"]
        .iter()
        .filter_map(|&flag| {
            let pick = |m: &ProjectMeasures| match flag {
                "time" => m.advance.always_over_time,
                "source" => m.advance.always_over_source,
                _ => m.advance.always_over_both,
            };
            let table: Vec<Vec<u64>> = Taxon::ALL
                .into_iter()
                .map(|t| {
                    let yes =
                        measures.iter().filter(|m| m.taxon == t && pick(m)).count() as u64;
                    let no =
                        measures.iter().filter(|m| m.taxon == t && !pick(m)).count() as u64;
                    vec![yes, no]
                })
                .collect();
            let chi2 = trace::timed("stats.chi2", || chi_square_independence(&table))?;
            let rows: Vec<(u64, u64)> = table.iter().map(|r| (r[0], r[1])).collect();
            let fisher_p = memo.p(&rows);
            Some(LagTest {
                flag: flag.to_string(),
                chi2_statistic: chi2.statistic,
                chi2_p: chi2.p_value,
                fisher_p,
            })
        })
        .collect();

    let sync5: Vec<f64> = measures.iter().map(|m| m.sync_05).collect();
    let sync10: Vec<f64> = measures.iter().map(|m| m.sync_10).collect();
    let kendall_sync_5_10 = kendall(&sync5, &sync10);

    let paired: Vec<(f64, f64)> = measures
        .iter()
        .filter_map(|m| Some((m.advance.over_time?, m.advance.over_source?)))
        .collect();
    let at: Vec<f64> = paired.iter().map(|p| p.0).collect();
    let asrc: Vec<f64> = paired.iter().map(|p| p.1).collect();
    let kendall_advance_time_source = kendall(&at, &asrc);

    let nan = f64::NAN;
    let columns: Vec<(&str, Vec<f64>)> = vec![
        ("sync_10", measures.iter().map(|m| m.sync_10).collect()),
        (
            "advance_over_source",
            measures.iter().map(|m| m.advance.over_source.unwrap_or(nan)).collect(),
        ),
        (
            "advance_over_time",
            measures.iter().map(|m| m.advance.over_time.unwrap_or(nan)).collect(),
        ),
        ("attainment_75", measures.iter().map(|m| m.attainment.at_75.unwrap_or(nan)).collect()),
        ("duration", measures.iter().map(|m| m.duration_months() as f64).collect()),
    ];
    let mut correlation_matrix = Vec::new();
    for i in 0..columns.len() {
        for j in (i + 1)..columns.len() {
            let pairs: Vec<(f64, f64)> = columns[i]
                .1
                .iter()
                .zip(&columns[j].1)
                .filter(|(a, b)| a.is_finite() && b.is_finite())
                .map(|(a, b)| (*a, *b))
                .collect();
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Some(tau) = kendall(&xs, &ys) {
                correlation_matrix.push((
                    columns[i].0.to_string(),
                    columns[j].0.to_string(),
                    tau,
                ));
            }
        }
    }

    Section7 {
        normality,
        sync_by_taxon,
        attainment75_by_taxon,
        sync_posthoc,
        lag_tests,
        kendall_sync_5_10,
        kendall_advance_time_source,
        correlation_matrix,
    }
}

fn taxon_effect(
    measures: &[ProjectMeasures],
    value: impl Fn(&ProjectMeasures) -> Option<f64>,
) -> Option<TaxonEffect> {
    let groups: Vec<Vec<f64>> = Taxon::ALL
        .into_iter()
        .map(|t| measures.iter().filter(|m| m.taxon == t).filter_map(&value).collect())
        .collect();
    let refs: Vec<&[f64]> = groups.iter().map(|g| g.as_slice()).collect();
    let _s = trace::span("stats.kruskal");
    let KruskalResult { h, df, p_value } = kruskal_wallis(&refs)?;
    let medians = Taxon::ALL
        .into_iter()
        .zip(&groups)
        .filter_map(|(t, g)| median(g).map(|m| (t, m)))
        .collect();
    Some(TaxonEffect { h, df, p_value, medians })
}

fn pairwise_posthoc(
    measures: &[ProjectMeasures],
    value: impl Fn(&ProjectMeasures) -> Option<f64>,
) -> Vec<PairwiseComparison> {
    let groups: Vec<(Taxon, Vec<f64>)> = Taxon::ALL
        .into_iter()
        .map(|t| (t, measures.iter().filter(|m| m.taxon == t).filter_map(&value).collect()))
        .collect();
    let mut raw: Vec<(Taxon, Taxon, f64)> = Vec::new();
    for i in 0..groups.len() {
        for j in (i + 1)..groups.len() {
            let r = trace::timed("stats.mann_whitney", || {
                mann_whitney_u(&groups[i].1, &groups[j].1)
            });
            if let Some(r) = r {
                raw.push((groups[i].0, groups[j].0, r.p_value));
            }
        }
    }
    let k = raw.len() as f64;
    raw.into_iter()
        .map(|(a, b, p)| PairwiseComparison { a, b, adjusted_p: (p * k).min(1.0) })
        .collect()
}
