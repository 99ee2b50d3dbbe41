//! Rendering the per-taxon rename profile printed by `coevo study
//! --renames`.
//!
//! Like [`crate::compat`], this module is engine-agnostic: the engine
//! tallies rename counts per study taxon during the study's own pass, and
//! the CLI hands them over as plain per-taxon counters, so the report crate
//! stays independent of the matcher that produced them.

use crate::table::TextTable;

/// One taxon's aggregated rename profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RenameTaxonRow {
    /// The taxon label (or `TOTAL` for the footer row).
    pub taxon: String,
    /// Evolution steps examined (births excluded — a birth has no old
    /// column to rename).
    pub steps: u64,
    /// Steps on which at least one rename was detected.
    pub steps_with_renames: u64,
    /// Detected `Renamed` changes.
    pub renames: u64,
    /// Rename-aware Total Activity over the same steps.
    pub activity: u64,
    /// `renames / activity`: the share of activity units the matcher
    /// reclassified from eject+inject pairs to renames.
    pub rename_rate: f64,
}

impl RenameTaxonRow {
    /// The rate for raw counters (`0.0` on zero activity).
    pub fn rate(renames: u64, activity: u64) -> f64 {
        if activity == 0 {
            0.0
        } else {
            renames as f64 / activity as f64
        }
    }
}

/// Render the per-taxon rename table of `coevo study --renames`.
pub fn render_rename_profiles(rows: &[RenameTaxonRow]) -> String {
    let mut table =
        TextTable::new(["taxon", "steps", "w/renames", "renames", "activity", "rename-rate"]);
    for r in rows {
        table.row([
            r.taxon.clone(),
            r.steps.to_string(),
            r.steps_with_renames.to_string(),
            r.renames.to_string(),
            r.activity.to_string(),
            rate_pct(r.rename_rate),
        ]);
    }
    table.render()
}

/// A rate as a percentage with two significant digits, and no decimals
/// from 10% up. Rename rates run well under 1% of activity, where the
/// whole-percent `pct` of the other tables reads `0%`.
fn rate_pct(x: f64) -> String {
    let p = x * 100.0;
    let decimals = if p > 0.0 && p < 10.0 { (1.0 - p.log10().floor()) as usize } else { 0 };
    format!("{p:.decimals$}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(taxon: &str, steps: u64, with: u64, renames: u64, activity: u64) -> RenameTaxonRow {
        RenameTaxonRow {
            taxon: taxon.into(),
            steps,
            steps_with_renames: with,
            renames,
            activity,
            rename_rate: RenameTaxonRow::rate(renames, activity),
        }
    }

    #[test]
    fn rate_is_zero_on_zero_activity() {
        assert_eq!(RenameTaxonRow::rate(0, 0), 0.0);
        assert_eq!(RenameTaxonRow::rate(1, 4), 0.25);
    }

    #[test]
    fn rates_show_two_significant_digits_below_ten_percent() {
        assert_eq!(rate_pct(0.0), "0%");
        assert_eq!(rate_pct(0.15), "15%");
        assert_eq!(rate_pct(1.0), "100%");
        assert_eq!(rate_pct(0.015), "1.5%");
        assert_eq!(rate_pct(321.0 / 150_000.0), "0.21%");
        assert_eq!(rate_pct(0.000_012), "0.0012%");
    }

    #[test]
    fn golden_rename_profile_table() {
        // Pinned byte-for-byte: a change to alignment, headers, or rate
        // formatting must update this test deliberately.
        let rows = vec![
            row("FROZEN", 4, 1, 1, 10),
            row("ACTIVE", 20, 6, 9, 60),
            row("MODERATE", 900, 40, 321, 150_000),
            row("TOTAL", 924, 47, 331, 150_070),
        ];
        let text = render_rename_profiles(&rows);
        let expected = "\
taxon     steps  w/renames  renames  activity  rename-rate
----------------------------------------------------------
FROZEN        4          1        1        10          10%
ACTIVE       20          6        9        60          15%
MODERATE    900         40      321    150000        0.21%
TOTAL       924         47      331    150070        0.22%
";
        assert_eq!(text, expected, "rendered:\n{text}");
    }
}
