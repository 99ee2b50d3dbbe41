//! The end-to-end study pipeline: from per-project inputs to every figure
//! and statistical test of the paper.

use crate::progress::{ProjectData, ProjectMeasures};
use coevo_stats::{
    bucket_counts, chi_square_independence, fisher_certificate_log10, fisher_exact_rx2,
    fisher_rx2_monte_carlo_shared, kendall_tau_b, kruskal_wallis, mann_whitney_u, median,
    shapiro_wilk_with, Bucketing, Chi2Result, KruskalResult, ShapiroResult, ShapiroWeights,
};
use coevo_taxa::{Taxon, TaxonomyConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The study: a corpus of projects plus the taxonomy configuration.
pub struct Study {
    /// The projects.
    pub projects: Vec<ProjectData>,
    /// The config.
    pub config: TaxonomyConfig,
}

impl Study {
    /// Construct a new instance.
    pub fn new(projects: Vec<ProjectData>) -> Self {
        Self { projects, config: TaxonomyConfig::default() }
    }

    /// Run every analysis of the paper.
    pub fn run(&self) -> StudyResults {
        let measures: Vec<ProjectMeasures> =
            self.projects.iter().map(|p| p.measures(&self.config)).collect();
        StudyResults::from_measures(measures)
    }
}

/// Figure 4: breakdown of projects per value range of 10%-synchronicity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Histogram {
    /// Bucket labels, ascending (`[0%-20%)` … `[80%-100%]`).
    pub labels: Vec<String>,
    /// The counts.
    pub counts: Vec<u64>,
}

/// One point of Figure 5's duration × synchronicity scatter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Point {
    /// The name, as written in the source.
    pub name: String,
    /// The evolution taxon.
    pub taxon: Taxon,
    /// Project duration in elapsed months.
    pub duration_months: usize,
    /// The sync 10.
    pub sync_10: f64,
}

/// One row of Figure 6 (a range of the life-percentage measure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// `"0.9-1.0"`, `"0.8-0.9"`, … descending as in the paper.
    pub range: String,
    /// Projects in this range for the *source* measure.
    pub source_count: u64,
    /// Share of all projects (source measure).
    pub source_pct: f64,
    /// The source cum pct.
    pub source_cum_pct: f64,
    /// Projects in this range for the *time* measure.
    pub time_count: u64,
    /// Share of all projects (time measure).
    pub time_pct: f64,
    /// The time cum pct.
    pub time_cum_pct: f64,
}

/// Figure 6: life percentage of schema advance over source and over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Table {
    /// The rows.
    pub rows: Vec<Fig6Row>,
    /// Projects with no measurable advance (single-month lives).
    pub blank: u64,
    /// The total.
    pub total: u64,
}

/// One taxon's row of Figure 7 (counts of always-in-advance projects).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// The evolution taxon.
    pub taxon: Taxon,
    /// The projects.
    pub projects: u64,
    /// The always over time.
    pub always_over_time: u64,
    /// The always over source.
    pub always_over_source: u64,
    /// The always over both.
    pub always_over_both: u64,
}

/// Figure 7: always-in-advance counts per taxon, plus the totals the paper
/// headlines (time 80 ≈ 41%, source 57 ≈ 29%, both 55 ≈ 28%).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Table {
    /// The rows.
    pub rows: Vec<Fig7Row>,
    /// Projects always in advance of time.
    pub total_time: u64,
    /// Projects always in advance of source.
    pub total_source: u64,
    /// Projects always in advance of both.
    pub total_both: u64,
    /// Total projects in the study.
    pub total_projects: u64,
}

/// Figure 8: for each completion level α, how many projects attained it
/// within each lifetime range [0–20), [20–50), [50–80), [80–100]%.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Grid {
    /// The four α levels (0.50, 0.75, 0.80, 1.00).
    pub alphas: Vec<f64>,
    /// The four lifetime-range labels.
    pub range_labels: Vec<String>,
    /// `counts[a][r]` = projects attaining α = alphas\[a\] in range r.
    pub counts: Vec<Vec<u64>>,
    /// Projects whose schema never attains the level (zero-activity).
    pub unattained: Vec<u64>,
}

/// One Shapiro–Wilk entry of the normality screen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalityEntry {
    /// The attribute.
    pub attribute: String,
    /// The W statistic.
    pub w: f64,
    /// The p-value of the test.
    pub p_value: f64,
}

/// A Kruskal–Wallis result with per-taxon medians.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaxonEffect {
    /// The H statistic.
    pub h: f64,
    /// Degrees of freedom.
    pub df: usize,
    /// The p-value of the test.
    pub p_value: f64,
    /// The medians.
    pub medians: Vec<(Taxon, f64)>,
}

/// Chi-square + Fisher on one taxon × binary-flag contingency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LagTest {
    /// The flag.
    pub flag: String,
    /// The chi2 statistic.
    pub chi2_statistic: f64,
    /// The chi2 p.
    pub chi2_p: f64,
    /// The Fisher r×2 p-value ([`FisherP::p`]): exact, a certified upper
    /// bound at most 1e-5 (which renders like any p below it), or a Monte
    /// Carlo estimate. `None` for a degenerate table.
    pub fisher_p: Option<f64>,
}

/// One post-hoc pairwise comparison (Mann–Whitney U, Bonferroni-adjusted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairwiseComparison {
    /// The a.
    pub a: Taxon,
    /// The b.
    pub b: Taxon,
    /// Bonferroni-adjusted two-sided p-value (already multiplied by the
    /// number of comparisons, capped at 1).
    pub adjusted_p: f64,
}

/// Section 7: the paper's statistical analysis, extended with post-hoc
/// pairwise taxon comparisons (an addition beyond the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section7 {
    /// The normality.
    pub normality: Vec<NormalityEntry>,
    /// The sync by taxon.
    pub sync_by_taxon: Option<TaxonEffect>,
    /// The attainment75 by taxon.
    pub attainment75_by_taxon: Option<TaxonEffect>,
    /// Pairwise Mann–Whitney follow-up on the sync-by-taxon effect.
    pub sync_posthoc: Vec<PairwiseComparison>,
    /// The lag tests.
    pub lag_tests: Vec<LagTest>,
    /// Kendall τ between 5%- and 10%-synchronicity (paper: 0.67).
    pub kendall_sync_5_10: Option<f64>,
    /// Kendall τ between advance-over-time and advance-over-source (0.75).
    pub kendall_advance_time_source: Option<f64>,
    /// Kendall τ between every pair of study measures (the paper's "other
    /// tests" on the relationships of synchronicity and attainment with
    /// project characteristics).
    pub correlation_matrix: Vec<(String, String, f64)>,
}

/// Everything the paper's evaluation section reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyResults {
    /// The measures.
    pub measures: Vec<ProjectMeasures>,
    /// The fig4.
    pub fig4: Fig4Histogram,
    /// The fig5.
    pub fig5: Vec<Fig5Point>,
    /// The fig6.
    pub fig6: Fig6Table,
    /// The fig7.
    pub fig7: Fig7Table,
    /// The fig8.
    pub fig8: Fig8Grid,
    /// The section7.
    pub section7: Section7,
}

impl StudyResults {
    /// Derive all figures and tests from per-project measures.
    pub fn from_measures(measures: Vec<ProjectMeasures>) -> Self {
        Self::from_measures_cached(measures, &mut StatsCache::default())
    }

    /// Like [`StudyResults::from_measures`], but memoizing the expensive
    /// Fisher tests in `cache`. Callers that recompute the study after small
    /// deltas (one project, one month) keep the cache across calls and skip
    /// the Fisher tests whenever the contingency tables are unchanged; the
    /// answers are bit-identical to the uncached path.
    pub fn from_measures_cached(
        measures: Vec<ProjectMeasures>,
        cache: &mut StatsCache,
    ) -> Self {
        let fig4 = fig4(&measures);
        let fig5 = fig5(&measures);
        let fig6 = fig6(&measures);
        let fig7 = fig7(&measures);
        let fig8 = fig8(&measures);
        let section7 = section7_cached(&measures, cache);
        Self { measures, fig4, fig5, fig6, fig7, fig8, section7 }
    }

    /// Projects with 10%-synchronicity at or above `threshold` — the paper's
    /// "hand-in-hand" share (§9 reports ~20% at high synchronicity).
    pub fn hand_in_hand_share(&self, threshold: f64) -> f64 {
        if self.measures.is_empty() {
            return 0.0;
        }
        let hits = self.measures.iter().filter(|m| m.sync_10 >= threshold).count();
        hits as f64 / self.measures.len() as f64
    }
}

/// Compute Figure 4 (the synchronicity histogram) from measures.
pub fn fig4(measures: &[ProjectMeasures]) -> Fig4Histogram {
    let bucketing = Bucketing::equal_width(5);
    let values: Vec<f64> = measures.iter().map(|m| m.sync_10).collect();
    let (counts, _) = bucket_counts(&values, &bucketing);
    Fig4Histogram { labels: (0..bucketing.len()).map(|i| bucketing.label(i)).collect(), counts }
}

/// Compute Figure 5 (the duration × synchronicity scatter points).
pub fn fig5(measures: &[ProjectMeasures]) -> Vec<Fig5Point> {
    measures
        .iter()
        .map(|m| Fig5Point {
            name: m.name.clone(),
            taxon: m.taxon,
            duration_months: m.duration_months(),
            sync_10: m.sync_10,
        })
        .collect()
}

/// Compute Figure 6 (the advance table).
pub fn fig6(measures: &[ProjectMeasures]) -> Fig6Table {
    let bucketing = Bucketing::equal_width(10);
    let source: Vec<f64> = measures.iter().filter_map(|m| m.advance.over_source).collect();
    let time: Vec<f64> = measures.iter().filter_map(|m| m.advance.over_time).collect();
    let blank = (measures.len() - source.len()) as u64;
    let (src_counts, _) = bucket_counts(&source, &bucketing);
    let (time_counts, _) = bucket_counts(&time, &bucketing);
    let total = measures.len() as f64;

    // Descending ranges, with cumulative percentages from the top.
    let mut rows = Vec::new();
    let mut src_cum = 0.0;
    let mut time_cum = 0.0;
    for i in (0..bucketing.len()).rev() {
        let source_pct = src_counts[i] as f64 / total;
        let time_pct = time_counts[i] as f64 / total;
        src_cum += source_pct;
        time_cum += time_pct;
        rows.push(Fig6Row {
            range: format!("{:.1}-{:.1}", i as f64 / 10.0, (i + 1) as f64 / 10.0),
            source_count: src_counts[i],
            source_pct,
            source_cum_pct: src_cum,
            time_count: time_counts[i],
            time_pct,
            time_cum_pct: time_cum,
        });
    }
    Fig6Table { rows, blank, total: measures.len() as u64 }
}

/// Compute Figure 7 (always-in-advance per taxon).
pub fn fig7(measures: &[ProjectMeasures]) -> Fig7Table {
    let mut rows: Vec<Fig7Row> = Taxon::ALL
        .into_iter()
        .map(|taxon| Fig7Row {
            taxon,
            projects: 0,
            always_over_time: 0,
            always_over_source: 0,
            always_over_both: 0,
        })
        .collect();
    for m in measures {
        let row =
            rows.iter_mut().find(|r| r.taxon == m.taxon).expect("all taxa are pre-populated");
        row.projects += 1;
        if m.advance.always_over_time {
            row.always_over_time += 1;
        }
        if m.advance.always_over_source {
            row.always_over_source += 1;
        }
        if m.advance.always_over_both {
            row.always_over_both += 1;
        }
    }
    let total_time = rows.iter().map(|r| r.always_over_time).sum();
    let total_source = rows.iter().map(|r| r.always_over_source).sum();
    let total_both = rows.iter().map(|r| r.always_over_both).sum();
    Fig7Table {
        rows,
        total_time,
        total_source,
        total_both,
        total_projects: measures.len() as u64,
    }
}

/// Compute Figure 8 (the attainment grid).
pub fn fig8(measures: &[ProjectMeasures]) -> Fig8Grid {
    let bucketing = Bucketing::attainment_ranges();
    let alphas = crate::attainment::ATTAINMENT_ALPHAS.to_vec();
    let mut counts = Vec::new();
    let mut unattained = Vec::new();
    for &alpha in &alphas {
        let values: Vec<f64> =
            measures.iter().filter_map(|m| m.attainment.get(alpha)).collect();
        let (c, _) = bucket_counts(&values, &bucketing);
        counts.push(c);
        unattained.push((measures.len() - values.len()) as u64);
    }
    Fig8Grid {
        alphas,
        range_labels: (0..bucketing.len()).map(|i| bucketing.label(i)).collect(),
        counts,
        unattained,
    }
}

/// Memo for the expensive parts of [`section7`]. Long-lived recomputing
/// callers (the incremental study behind `coevo serve`) carry one across
/// summaries; cached and fresh answers are the same deterministic numbers.
///
/// - Fisher p-values, keyed by the contingency table. Their input, the
///   taxon × always-in-advance table, is a handful of small counts that a
///   one-month append to a single project rarely moves. A table is settled
///   by the first of: the certificate, when it bounds p by the Monte
///   Carlo's own floor 1/(1 + samples) (every lag table from a few hundred
///   projects up, in microseconds); the exact network walk within its node
///   budget (the paper's n = 195 tables, a few milliseconds each); and the
///   seeded Monte Carlo, shared by the tables neither settles.
/// - Shapiro–Wilk weights, keyed by sample size: n normal quantiles each,
///   most of a normality screen's cost. Only the sizes the latest Section 7
///   used are kept, so a growing daemon does not pile up O(n²) bytes.
///   Missing sizes are computed on up to `workers` threads, one size each
///   (see [`StatsCache::with_workers`]); the default cache is serial.
#[derive(Debug, Clone, Default)]
pub struct StatsCache {
    /// Fisher p-values by table rows.
    fisher: HashMap<Vec<(u64, u64)>, Option<FisherP>>,
    /// Shapiro–Wilk weights by sample size.
    shapiro: HashMap<usize, ShapiroWeights>,
    /// Threads that may compute weights at once (0 or 1: the caller's).
    workers: usize,
}

/// How a Fisher r×2 p-value was settled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FisherP {
    /// The exact p-value.
    Exact(f64),
    /// A certified upper bound, p ≤ 10^`log10`.
    AtMost {
        /// log₁₀ of the bound.
        log10: f64,
    },
    /// A Monte Carlo estimate (1 + hits) / (1 + samples).
    MonteCarlo {
        /// The estimate.
        p: f64,
        /// Sampled tables no more probable than the observed one.
        hits: u64,
        /// Tables sampled.
        samples: u32,
    },
}

impl FisherP {
    /// The p-value to report: the exact value, the bound (floored at the
    /// smallest normal `f64`, as at corpus scale it underflows), or the
    /// estimate.
    pub fn p(self) -> f64 {
        match self {
            Self::Exact(p) | Self::MonteCarlo { p, .. } => p,
            Self::AtMost { log10 } => 10f64.powf(log10).max(f64::MIN_POSITIVE),
        }
    }
}

/// The exact walk's node budget before Monte Carlo takes over.
const FISHER_EXACT_BUDGET: u64 = 2_000_000;
/// Monte Carlo samples, in the style of R's `simulate.p.value`.
const FISHER_MC_SAMPLES: u32 = 100_000;
/// The Monte Carlo seed: every table replays the same stream.
const FISHER_MC_SEED: u64 = 0xF15E;

impl StatsCache {
    /// An empty cache that computes Shapiro–Wilk weights of different
    /// sizes on up to `workers` scoped threads. Each weight is the same
    /// function of its size on any thread, so the answers are the serial
    /// cache's, bit for bit.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }

    /// The Fisher r×2 p-value of each table, memoized by the table itself:
    /// certificate, then exact walk, then one shared Monte Carlo run for
    /// the rest, so tables with the same row sums shuffle once between
    /// them; every answer has the bits of a lookup of its own.
    fn fisher_ps(&mut self, tables: &[Vec<(u64, u64)>]) -> Vec<Option<FisherP>> {
        // The Monte Carlo cannot resolve a p below its floor.
        let floor_log10 = -(1.0 + f64::from(FISHER_MC_SAMPLES)).log10();
        let mut simulate: Vec<&[(u64, u64)]> = Vec::new();
        for rows in tables {
            if self.fisher.contains_key(rows) {
                continue;
            }
            let settled = match fisher_certificate_log10(rows) {
                Some(log10) if log10 <= floor_log10 => Some(FisherP::AtMost { log10 }),
                _ => fisher_exact_rx2(rows, FISHER_EXACT_BUDGET).map(FisherP::Exact),
            };
            match settled {
                Some(p) => {
                    self.fisher.insert(rows.clone(), Some(p));
                }
                None => simulate.push(rows),
            }
        }
        let simulated =
            fisher_rx2_monte_carlo_shared(&simulate, FISHER_MC_SAMPLES, FISHER_MC_SEED);
        for (rows, p) in simulate.into_iter().zip(simulated) {
            let p = p.map(|p| FisherP::MonteCarlo {
                p,
                hits: (p * (1.0 + f64::from(FISHER_MC_SAMPLES))).round() as u64 - 1,
                samples: FISHER_MC_SAMPLES,
            });
            self.fisher.insert(rows.to_vec(), p);
        }
        tables.iter().map(|rows| self.fisher[rows]).collect()
    }

    /// Public entry to the memoized Fisher r×2 test, for callers outside the
    /// Section 7 pipeline (e.g. the compatibility FROZEN-vs-ACTIVE contrast).
    pub fn fisher_rx2(&mut self, rows: &[(u64, u64)]) -> Option<f64> {
        self.fisher_ps(&[rows.to_vec()])[0].map(FisherP::p)
    }

    /// Shapiro–Wilk weights for every size in `sizes` that the test accepts,
    /// after dropping those of every other size.
    fn shapiro_weights(&mut self, sizes: &[usize]) -> &HashMap<usize, ShapiroWeights> {
        self.shapiro.retain(|n, _| sizes.contains(n));
        let mut missing: Vec<usize> =
            sizes.iter().copied().filter(|n| !self.shapiro.contains_key(n)).collect();
        missing.sort_unstable();
        missing.dedup();
        self.shapiro.extend(shapiro_weights_of(&missing, self.workers));
        &self.shapiro
    }
}

/// [`ShapiroWeights::new`] of every size the test accepts, the sizes split
/// over at most `workers` scoped threads.
fn shapiro_weights_of(sizes: &[usize], workers: usize) -> Vec<(usize, ShapiroWeights)> {
    let weights = |sizes: &[usize]| -> Vec<(usize, ShapiroWeights)> {
        sizes.iter().filter_map(|&n| Some((n, ShapiroWeights::new(n).ok()?))).collect()
    };
    let threads = workers.min(sizes.len());
    if threads <= 1 {
        return weights(sizes);
    }
    std::thread::scope(|scope| {
        let chunks: Vec<_> = sizes
            .chunks(sizes.len().div_ceil(threads))
            .map(|chunk| scope.spawn(move || weights(chunk)))
            .collect();
        chunks.into_iter().flat_map(|c| c.join().expect("weights thread panicked")).collect()
    })
}

/// Compute the Section 7 statistical analysis.
pub fn section7(measures: &[ProjectMeasures]) -> Section7 {
    section7_cached(measures, &mut StatsCache::default())
}

/// [`section7`] with the Fisher tests and Shapiro–Wilk weights memoized in
/// `cache`.
pub fn section7_cached(measures: &[ProjectMeasures], cache: &mut StatsCache) -> Section7 {
    // Normality screen over the study's attributes.
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
    let sizes: Vec<usize> = attrs.iter().map(|(_, values)| values.len()).collect();
    let weights = cache.shapiro_weights(&sizes);
    let normality: Vec<NormalityEntry> = attrs
        .iter()
        .filter_map(|(name, values)| {
            let weights = weights.get(&values.len())?;
            shapiro_wilk_with(weights, values).map(|ShapiroResult { w, p_value }| {
                NormalityEntry { attribute: name.to_string(), w, p_value }
            })
        })
        .collect();

    let sync_by_taxon = taxon_effect(measures, |m| Some(m.sync_10));
    let attainment75_by_taxon = taxon_effect(measures, |m| m.attainment.at_75);
    let sync_posthoc = pairwise_posthoc(measures, |m| Some(m.sync_10));

    // taxon × {always, not-always} contingency per flag, for the flags
    // whose χ² is defined; their Fisher tests go to the cache as one batch.
    let mut fisher_tables: Vec<Vec<(u64, u64)>> = Vec::new();
    let lag_chi2: Vec<(&str, Chi2Result)> = ["time", "source", "both"]
        .into_iter()
        .filter_map(|flag| {
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
            let chi2 = chi_square_independence(&table)?;
            fisher_tables.push(table.iter().map(|r| (r[0], r[1])).collect());
            Some((flag, chi2))
        })
        .collect();
    let lag_tests = lag_chi2
        .into_iter()
        .zip(cache.fisher_ps(&fisher_tables))
        .map(|((flag, chi2), fisher_p)| LagTest {
            flag: flag.to_string(),
            chi2_statistic: chi2.statistic,
            chi2_p: chi2.p_value,
            fisher_p: fisher_p.map(FisherP::p),
        })
        .collect();

    let sync5: Vec<f64> = measures.iter().map(|m| m.sync_05).collect();
    let sync10: Vec<f64> = measures.iter().map(|m| m.sync_10).collect();
    let kendall_sync_5_10 = kendall_tau_b(&sync5, &sync10);

    // Paired advance measures (only projects with both defined).
    let paired: Vec<(f64, f64)> = measures
        .iter()
        .filter_map(|m| Some((m.advance.over_time?, m.advance.over_source?)))
        .collect();
    let at: Vec<f64> = paired.iter().map(|p| p.0).collect();
    let asrc: Vec<f64> = paired.iter().map(|p| p.1).collect();
    let kendall_advance_time_source = kendall_tau_b(&at, &asrc);

    // Pairwise Kendall correlations across the study's measures.
    let measure_columns: Vec<(&str, Vec<f64>)> = vec![
        ("sync_10", measures.iter().map(|m| m.sync_10).collect()),
        (
            "advance_over_source",
            measures.iter().map(|m| m.advance.over_source.unwrap_or(f64::NAN)).collect(),
        ),
        (
            "advance_over_time",
            measures.iter().map(|m| m.advance.over_time.unwrap_or(f64::NAN)).collect(),
        ),
        (
            "attainment_75",
            measures.iter().map(|m| m.attainment.at_75.unwrap_or(f64::NAN)).collect(),
        ),
        ("duration", measures.iter().map(|m| m.duration_months() as f64).collect()),
    ];
    let mut correlation_matrix = Vec::new();
    for i in 0..measure_columns.len() {
        for j in (i + 1)..measure_columns.len() {
            // Pair-complete observations only.
            let pairs: Vec<(f64, f64)> = measure_columns[i]
                .1
                .iter()
                .zip(&measure_columns[j].1)
                .filter(|(a, b)| a.is_finite() && b.is_finite())
                .map(|(a, b)| (*a, *b))
                .collect();
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            if let Some(tau) = kendall_tau_b(&xs, &ys) {
                correlation_matrix.push((
                    measure_columns[i].0.to_string(),
                    measure_columns[j].0.to_string(),
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
        .map(|t| {
            measures.iter().filter(|m| m.taxon == t).filter_map(&value).collect::<Vec<f64>>()
        })
        .collect();
    let refs: Vec<&[f64]> = groups.iter().map(|g| g.as_slice()).collect();
    let KruskalResult { h, df, p_value } = kruskal_wallis(&refs)?;
    let medians = Taxon::ALL
        .into_iter()
        .zip(&groups)
        .filter_map(|(t, g)| median(g).map(|m| (t, m)))
        .collect();
    Some(TaxonEffect { h, df, p_value, medians })
}

/// Bonferroni-adjusted pairwise Mann–Whitney comparisons between all taxon
/// pairs (only pairs where both groups are non-empty are reported).
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
            if let Some(r) = mann_whitney_u(&groups[i].1, &groups[j].1) {
                raw.push((groups[i].0, groups[j].0, r.p_value));
            }
        }
    }
    let k = raw.len() as f64;
    raw.into_iter()
        .map(|(a, b, p)| PairwiseComparison { a, b, adjusted_p: (p * k).min(1.0) })
        .collect()
}

/// Helper re-exported for reports: the chi-square result type.
pub type Chi2 = Chi2Result;

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_heartbeat::{Heartbeat, YearMonth};

    fn ym() -> YearMonth {
        YearMonth::new(2015, 1).unwrap()
    }

    /// A tiny synthetic corpus with varied behaviors.
    fn corpus() -> Vec<ProjectData> {
        let mut out = Vec::new();
        // Frozen-ish: schema all at birth, project spreads out.
        for i in 0..4 {
            let project = Heartbeat::new(ym(), vec![5; 10 + i]);
            let schema = {
                let mut a = vec![0u64; 10 + i];
                a[0] = 15;
                Heartbeat::new(ym(), a)
            };
            out.push(ProjectData::new(&format!("frozen/{i}"), project, schema, 15));
        }
        // Active: schema keeps pace with project.
        for i in 0..4 {
            let project = Heartbeat::new(ym(), vec![8; 12]);
            let schema = Heartbeat::new(ym(), vec![10; 12]);
            out.push(ProjectData::new(&format!("active/{i}"), project, schema, 10 + i));
        }
        // Late bloomer: schema changes at the end.
        let project = Heartbeat::new(ym(), vec![3; 8]);
        let schema = {
            let mut a = vec![0u64; 8];
            a[0] = 5;
            a[7] = 20;
            Heartbeat::new(ym(), a)
        };
        out.push(ProjectData::new("late/0", project, schema, 5));
        // Single-month project (blank advance).
        out.push(ProjectData::new(
            "tiny/0",
            Heartbeat::new(ym(), vec![4]),
            Heartbeat::new(ym(), vec![6]),
            6,
        ));
        out
    }

    #[test]
    fn study_runs_end_to_end() {
        let results = Study::new(corpus()).run();
        assert_eq!(results.measures.len(), 10);
        // Figure sums must cover all projects.
        assert_eq!(results.fig4.counts.iter().sum::<u64>(), 10);
        assert_eq!(results.fig5.len(), 10);
        assert_eq!(
            results.fig6.rows.iter().map(|r| r.source_count).sum::<u64>() + results.fig6.blank,
            10
        );
        for (a, c) in results.fig8.alphas.iter().zip(&results.fig8.counts) {
            let covered: u64 = c.iter().sum();
            let un = results.fig8.unattained
                [results.fig8.alphas.iter().position(|x| x == a).unwrap()];
            assert_eq!(covered + un, 10);
        }
    }

    #[test]
    fn fig6_cumulative_is_monotone_and_ends_at_total() {
        let results = Study::new(corpus()).run();
        let rows = &results.fig6.rows;
        for w in rows.windows(2) {
            assert!(w[1].source_cum_pct >= w[0].source_cum_pct - 1e-12);
            assert!(w[1].time_cum_pct >= w[0].time_cum_pct - 1e-12);
        }
        let last = rows.last().unwrap();
        // Ends at (total − blank) / total.
        let expect = (10.0 - results.fig6.blank as f64) / 10.0;
        assert!((last.source_cum_pct - expect).abs() < 1e-9);
    }

    #[test]
    fn fig7_totals_consistent() {
        let results = Study::new(corpus()).run();
        let f7 = &results.fig7;
        assert_eq!(f7.total_projects, 10);
        assert_eq!(f7.rows.iter().map(|r| r.projects).sum::<u64>(), f7.total_projects);
        // "Both" can never exceed either single flag.
        assert!(f7.total_both <= f7.total_time);
        assert!(f7.total_both <= f7.total_source);
        // Birth-burst schemas are always in advance of time.
        assert!(f7.total_time >= 4);
    }

    #[test]
    fn section7_is_populated() {
        let results = Study::new(corpus()).run();
        let s7 = &results.section7;
        assert!(!s7.normality.is_empty());
        assert!(s7.kendall_sync_5_10.is_some());
        assert!(s7.kendall_advance_time_source.is_some());
        for t in &s7.lag_tests {
            assert!((0.0..=1.0).contains(&t.chi2_p));
            if let Some(fp) = t.fisher_p {
                assert!((0.0..=1.0 + 1e-9).contains(&fp));
            }
        }
    }

    #[test]
    fn hand_in_hand_share_bounds() {
        let results = Study::new(corpus()).run();
        let share = results.hand_in_hand_share(0.8);
        assert!((0.0..=1.0).contains(&share));
        assert!(results.hand_in_hand_share(0.0) >= share);
    }

    #[test]
    fn empty_study() {
        let results = Study::new(vec![]).run();
        assert_eq!(results.measures.len(), 0);
        assert_eq!(results.fig4.counts.iter().sum::<u64>(), 0);
        assert!(results.section7.kendall_sync_5_10.is_none());
        assert_eq!(results.hand_in_hand_share(0.5), 0.0);
    }

    #[test]
    fn threaded_shapiro_weights_equal_the_serial_ones_bit_for_bit() {
        let sizes = [3, 11, 12, 195, 4_949, 5_000];
        let threaded = shapiro_weights_of(&sizes, 2);
        assert_eq!(threaded.len(), sizes.len());
        for (n, weights) in threaded {
            let serial = ShapiroWeights::new(n).unwrap();
            assert_eq!(weights, serial, "n = {n}");
            assert_eq!(format!("{weights:?}"), format!("{serial:?}"), "n = {n}");
        }
        // Sizes the test rejects get no weights, on threads or not.
        assert!(shapiro_weights_of(&[2, 5_001], 2).is_empty());
        let mut cache = StatsCache::with_workers(2);
        let have = cache.shapiro_weights(&[195, 12, 195, 2]);
        assert_eq!(have.len(), 2);
        assert_eq!(have[&12], ShapiroWeights::new(12).unwrap());
    }
}
