//! # coevo-stats — statistics substrate
//!
//! Every statistical procedure of the paper's Section 7, implemented from
//! scratch:
//!
//! - [`shapiro::shapiro_wilk`] — normality (Royston's AS R94 approximation),
//!   and [`shapiro::shapiro_wilk_with`] with [`shapiro::ShapiroWeights`]
//!   computed once per sample size;
//! - [`kruskal::kruskal_wallis`] — taxon effects on synchronicity/attainment
//!   (ties-corrected H, chi-square approximation);
//! - [`chi2::chi_square_independence`] — taxon × lag contingency tests;
//! - [`fisher::fisher_exact_2x2`] / [`fisher::fisher_exact_rx2`] — exact
//!   tests on the same contingency tables (the r×2 one by Mehta and Patel's
//!   network algorithm), [`fisher::fisher_certificate_log10`], a certified
//!   upper bound on the r×2 p-value for tables whose p is far below any
//!   simulation's floor, and [`fisher::fisher_rx2_monte_carlo_shared`], the
//!   seeded Monte Carlo fallback for tables neither settles, one shuffle
//!   stream shared by tables with the same row sums;
//! - [`kendall::kendall_tau_b`] — the correlation the paper reports between
//!   synchronicity measures (0.67) and advance measures (0.75), by Knight's
//!   O(n log n) algorithm;
//! - [`dist`] — normal and chi-square distributions via the regularized
//!   incomplete gamma function (Lanczos log-gamma, series + continued
//!   fraction);
//! - [`describe`] / [`histogram`] — medians, quantiles, and the bucketing
//!   behind Figures 4, 6, and 8.

#![warn(missing_docs)]

pub mod chi2;
pub mod describe;
pub mod dist;
pub mod fisher;
pub mod histogram;
pub mod kendall;
pub mod kruskal;
pub mod mannwhitney;
pub mod rank;
pub mod regression;
pub mod shapiro;

pub use chi2::{chi_square_independence, Chi2Result};
pub use describe::{mean, median, quantile, std_dev, variance};
pub use fisher::{
    fisher_certificate_log10, fisher_exact_2x2, fisher_exact_rx2, fisher_rx2_monte_carlo,
    fisher_rx2_monte_carlo_shared,
};
pub use histogram::{bucket_counts, Bucketing};
pub use kendall::kendall_tau_b;
pub use kruskal::{kruskal_wallis, kruskal_wallis_with, KruskalResult};
pub use mannwhitney::{mann_whitney_u, spearman_rho, MannWhitneyResult};
pub use rank::rank_with_ties;
pub use regression::{linear_fit, LinearFit};
pub use shapiro::{
    shapiro_wilk, shapiro_wilk_checked, shapiro_wilk_with, ShapiroError, ShapiroResult,
    ShapiroWeights,
};
