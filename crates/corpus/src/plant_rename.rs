//! Ground-truth planting for the rename oracle: synthesize a project whose
//! history contains *labeled* column renames — including adversarial shapes
//! (same-type sibling decoys, rename + retype, rename + reposition, swapped
//! pairs) and benign eject/inject churn that must **not** be reported as a
//! rename.
//!
//! Like [`crate::plant_compat_project`], the generator evolves schema models
//! one operation per version, so each step's true rename set is known by
//! construction. The rename oracle measures the scored matcher's precision
//! and recall against these labels without ever trusting the matcher.

use coevo_ddl::{print_schema, Column, Dialect, Schema, SqlType, Table};
use coevo_heartbeat::DateTime;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The operation a planted rename-study step performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RenamePlantKind {
    /// Rename one column in place (name changes, type and position stay).
    PureRename,
    /// Rename one column and widen its type along a provable ladder — the
    /// matcher must still pair it through the same-family type score.
    RenameWiden,
    /// Rename one column *and* move it to a different declared position —
    /// positional evidence degrades, name evidence must carry the pair.
    RenameReposition,
    /// Rename two same-type sibling columns in one step — the assignment
    /// must not cross the pairs.
    SwapPair,
    /// Rename one column and simultaneously inject a fresh same-type
    /// sibling — the decoy must stay unmatched.
    SiblingDecoy,
    /// Benign churn: eject one column and inject an unrelated one. The
    /// ground-truth rename set is empty; any detection is a false positive.
    BenignChurn,
}

impl RenamePlantKind {
    /// Ground truth: how many renames this step plants.
    pub fn planted_renames(self) -> usize {
        match self {
            RenamePlantKind::SwapPair => 2,
            RenamePlantKind::BenignChurn => 0,
            _ => 1,
        }
    }
}

/// One true rename, identified the way the diff reports it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlantedRename {
    /// The table the rename happened in (as written).
    pub table: String,
    /// The old column name.
    pub from: String,
    /// The new column name.
    pub to: String,
}

/// One planted evolution step with its ground-truth rename set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlantedRenameStep {
    /// Index into `ddl_versions` of the version this step *produced*
    /// (1-based over the history; version 0 is the birth).
    pub index: usize,
    /// The operation performed.
    pub kind: RenamePlantKind,
    /// The true renames of this step (empty for benign churn).
    pub renames: Vec<PlantedRename>,
}

/// A synthesized project with known per-step rename ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantedRenameProject {
    /// Project name (seed-stamped).
    pub name: String,
    /// Dialect the DDL versions are printed in.
    pub dialect: Dialect,
    /// Dated DDL version texts, oldest first. `steps.len() + 1` entries.
    pub ddl_versions: Vec<(DateTime, String)>,
    /// The labeled evolution steps, in history order.
    pub steps: Vec<PlantedRenameStep>,
}

impl PlantedRenameProject {
    /// Total planted renames across the history.
    pub fn planted_rename_count(&self) -> usize {
        self.steps.iter().map(|s| s.renames.len()).sum()
    }
}

/// Column bases for planted tables. Consecutive entries are mutually
/// dissimilar (no shared prefixes or bigram overlap to speak of), so churn
/// negatives never hand the matcher a near-miss by accident.
const RENAME_BASES: &[&str] = &[
    "total_price",
    "owner_ref",
    "unit_count",
    "long_body",
    "rank_score",
    "currency_code",
    "short_label",
    "batch_code",
    "created_stamp",
    "update_flag",
];

/// Table-name pool.
const RENAME_TABLES: &[&str] = &["orders", "invoices", "shipments"];

fn commit_date(i: usize) -> DateTime {
    let year = 2020 + i / 12;
    let month = 1 + i % 12;
    DateTime::parse(&format!("{year:04}-{month:02}-15 10:00:00 +0000"))
        .expect("valid plant date")
}

/// True when two column names share a meaningful prefix — the conservative
/// proxy for "the scored matcher could plausibly pair these". Fresh churn
/// and decoy names are required to *fail* this test against their victim.
fn related_names(a: &str, b: &str) -> bool {
    let n = a.len().min(b.len()).min(6);
    n > 0 && a.as_bytes()[..n] == b.as_bytes()[..n]
}

/// Next unused column name for `table`, skipping names related to `avoid`.
fn fresh_unrelated(table: &Table, serial: &mut usize, avoid: &str) -> String {
    loop {
        let base = RENAME_BASES[*serial % RENAME_BASES.len()];
        let name = if *serial < RENAME_BASES.len() {
            base.to_string()
        } else {
            format!("{base}_{}", *serial / RENAME_BASES.len())
        };
        *serial += 1;
        if table.column(&name).is_none() && !related_names(&name, avoid) {
            return name;
        }
    }
}

/// A realistic rename of `from`, collision-guarded against `table`:
/// underscore removal, pluralization, or a version/ref suffix — all keep
/// name similarity high, the way real-world column renames do.
fn rename_target(table: &Table, from: &str, roll: u32, serial: &mut usize) -> String {
    let variants = [
        from.replace('_', ""),
        format!("{from}s"),
        format!("{from}_v2"),
        format!("{from}_ref"),
    ];
    for k in 0..variants.len() as u32 {
        let cand = &variants[((roll + k) as usize) % variants.len()];
        if cand != from && table.column(cand).is_none() {
            return cand.clone();
        }
    }
    *serial += 1;
    format!("{from}_r{serial}")
}

/// Synthesize a project with `steps` labeled rename-study steps (so
/// `steps + 1` DDL versions). Deterministic in `seed`.
pub fn plant_rename_project(seed: u64, steps: usize) -> PlantedRenameProject {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E_4A3E);
    // Birth: three tables, each with a row_key anchor plus four columns of
    // mixed types (the widening ladder needs integer columns to climb).
    let mut serial = 0usize;
    let mut tables: Vec<Arc<Table>> = Vec::new();
    for name in RENAME_TABLES {
        let mut table = Table::new(*name);
        table.columns.push(Column::new("row_key", SqlType::simple("INT")));
        let types = ["INT", "SMALLINT", "VARCHAR(40)", "INT"];
        for ty in types {
            let cname = RENAME_BASES[serial % RENAME_BASES.len()].to_string();
            let cname = if serial < RENAME_BASES.len() {
                cname
            } else {
                format!("{cname}_{}", serial / RENAME_BASES.len())
            };
            serial += 1;
            let sql_type = match ty.split_once('(') {
                Some((base, rest)) => SqlType::with_params(base, &[rest.trim_end_matches(')')]),
                None => SqlType::simple(ty),
            };
            table.columns.push(Column::new(cname, sql_type));
        }
        tables.push(table.into());
    }
    let mut schema = Schema::from_tables(tables);
    let dialect = Dialect::Generic;
    let mut ddl_versions = vec![(commit_date(0), print_schema(&schema, dialect))];
    let mut planted: Vec<PlantedRenameStep> = Vec::new();

    for i in 0..steps {
        // Guarantee at least one genuine rename per project.
        let force_rename = i + 1 == steps && planted.iter().all(|s| s.renames.is_empty());
        let mut roll = rng.gen_range(0..6u32);
        if force_rename && roll == 5 {
            roll = 0;
        }
        let t_idx = rng.gen_range(0..schema.tables.len());
        let sub_roll = rng.gen_range(0..4u32);
        let (kind, renames) =
            plant_step(&mut rng, &mut schema, t_idx, roll, sub_roll, &mut serial);
        planted.push(PlantedRenameStep { index: i + 1, kind, renames });
        ddl_versions.push((commit_date(i + 1), print_schema(&schema, dialect)));
    }

    PlantedRenameProject {
        name: format!("planted_rename_{seed:016x}"),
        dialect,
        ddl_versions,
        steps: planted,
    }
}

/// Apply one operation to `schema.tables[t_idx]`, returning the kind
/// actually performed and its true rename set. Falls back from shape-
/// dependent kinds (widen, swap) to a pure rename so every step succeeds.
fn plant_step(
    rng: &mut ChaCha8Rng,
    schema: &mut Schema,
    t_idx: usize,
    roll: u32,
    sub_roll: u32,
    serial: &mut usize,
) -> (RenamePlantKind, Vec<PlantedRename>) {
    let rename_one = |table: &mut Table, c_idx: usize, sub_roll: u32, serial: &mut usize| {
        let from = table.columns[c_idx].name.to_string();
        let to = rename_target(table, &from, sub_roll, serial);
        table.columns[c_idx].name = to.clone().into();
        PlantedRename { table: table.name.to_string(), from, to }
    };
    // Non-anchor column picks (index 0 is the stable row_key).
    let pick =
        |rng: &mut ChaCha8Rng, table: &Table| 1 + rng.gen_range(0..table.columns.len() - 1);

    match roll {
        // Rename + widen: requires an integer column below the ladder top.
        1 => {
            let table = Arc::make_mut(&mut schema.tables[t_idx]);
            let target =
                table.columns.iter().enumerate().skip(1).find(|(_, c)| {
                    matches!(c.sql_type.name.key(), "smallint" | "int" | "integer")
                });
            if let Some((c_idx, _)) = target.map(|(i, c)| (i, c.clone())) {
                let rename = rename_one(table, c_idx, sub_roll, serial);
                let col = &mut table.columns[c_idx];
                let wider =
                    if col.sql_type.name.key() == "smallint" { "INT" } else { "BIGINT" };
                col.sql_type = SqlType::simple(wider);
                return (RenamePlantKind::RenameWiden, vec![rename]);
            }
            let c_idx = pick(rng, table);
            (RenamePlantKind::PureRename, vec![rename_one(table, c_idx, sub_roll, serial)])
        }
        // Rename + reposition: move the renamed column to the far end.
        2 => {
            let table = Arc::make_mut(&mut schema.tables[t_idx]);
            let c_idx = pick(rng, table);
            let rename = rename_one(table, c_idx, sub_roll, serial);
            let col = table.columns.remove(c_idx);
            if c_idx == table.columns.len() {
                table.columns.insert(1, col);
            } else {
                table.columns.push(col);
            }
            (RenamePlantKind::RenameReposition, vec![rename])
        }
        // Swap pair: two unrelated same-step renames.
        3 => {
            let table = Arc::make_mut(&mut schema.tables[t_idx]);
            let pairs: Vec<(usize, usize)> = (1..table.columns.len())
                .flat_map(|a| ((a + 1)..table.columns.len()).map(move |b| (a, b)))
                .filter(|&(a, b)| {
                    !related_names(table.columns[a].key(), table.columns[b].key())
                })
                .collect();
            if let Some(&(a, b)) = pairs.get(rng.gen_range(0..pairs.len().max(1))) {
                let first = rename_one(table, a, sub_roll, serial);
                let second = rename_one(table, b, sub_roll.wrapping_add(1), serial);
                return (RenamePlantKind::SwapPair, vec![first, second]);
            }
            let c_idx = pick(rng, table);
            (RenamePlantKind::PureRename, vec![rename_one(table, c_idx, sub_roll, serial)])
        }
        // Sibling decoy: rename + inject an unrelated same-type column.
        4 => {
            let table = Arc::make_mut(&mut schema.tables[t_idx]);
            let c_idx = pick(rng, table);
            let rename = rename_one(table, c_idx, sub_roll, serial);
            let decoy_type = table.columns[c_idx].sql_type.clone();
            let decoy = fresh_unrelated(table, serial, &rename.from);
            table.columns.push(Column::new(decoy, decoy_type));
            (RenamePlantKind::SiblingDecoy, vec![rename])
        }
        // Benign churn: eject + inject, unrelated name, half cross-family.
        5 => {
            let table = Arc::make_mut(&mut schema.tables[t_idx]);
            let c_idx = pick(rng, table);
            let victim = table.columns.remove(c_idx);
            let fresh = fresh_unrelated(table, serial, victim.key());
            let fresh_type = if sub_roll.is_multiple_of(2) {
                // Cross-family vs the ejected column: disqualified outright.
                if matches!(victim.sql_type.name.key(), "varchar" | "text" | "char") {
                    SqlType::simple("INT")
                } else {
                    SqlType::simple("TEXT")
                }
            } else {
                // Same family — a genuine hard negative the scorer must
                // reject on name + position evidence alone.
                victim.sql_type.clone()
            };
            table.columns.push(Column::new(fresh, fresh_type));
            (RenamePlantKind::BenignChurn, vec![])
        }
        // Pure rename.
        _ => {
            let table = Arc::make_mut(&mut schema.tables[t_idx]);
            let c_idx = pick(rng, table);
            (RenamePlantKind::PureRename, vec![rename_one(table, c_idx, sub_roll, serial)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planting_is_deterministic() {
        let a = plant_rename_project(42, 12);
        let b = plant_rename_project(42, 12);
        assert_eq!(a, b);
        let c = plant_rename_project(43, 12);
        assert_ne!(a.ddl_versions, c.ddl_versions);
    }

    #[test]
    fn shapes_line_up() {
        let p = plant_rename_project(7, 20);
        assert_eq!(p.ddl_versions.len(), 21);
        assert_eq!(p.steps.len(), 20);
        assert!(p.planted_rename_count() > 0, "at least one true rename");
        for (i, s) in p.steps.iter().enumerate() {
            assert_eq!(s.index, i + 1);
            assert_eq!(s.renames.len(), s.kind.planted_renames(), "{:?}", s.kind);
        }
        for w in p.ddl_versions.windows(2) {
            assert!(w[0].0.unix_seconds() < w[1].0.unix_seconds());
        }
    }

    #[test]
    fn every_version_parses() {
        let p = plant_rename_project(11, 24);
        for (_, sql) in &p.ddl_versions {
            coevo_ddl::parse_schema(sql, p.dialect).expect("planted DDL parses");
        }
    }

    #[test]
    fn all_step_kinds_appear_across_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..20 {
            for s in plant_rename_project(seed, 16).steps {
                seen.insert(format!("{:?}", s.kind));
            }
        }
        for kind in [
            "PureRename",
            "RenameWiden",
            "RenameReposition",
            "SwapPair",
            "SiblingDecoy",
            "BenignChurn",
        ] {
            assert!(seen.contains(kind), "kind {kind} never planted: {seen:?}");
        }
    }

    #[test]
    fn planted_renames_reference_real_columns() {
        let p = plant_rename_project(3, 16);
        for s in &p.steps {
            let pre =
                coevo_ddl::parse_schema(&p.ddl_versions[s.index - 1].1, p.dialect).unwrap();
            let post = coevo_ddl::parse_schema(&p.ddl_versions[s.index].1, p.dialect).unwrap();
            for r in &s.renames {
                let pre_t = pre.table(&r.table).expect("table pre-step");
                let post_t = post.table(&r.table).expect("table post-step");
                assert!(pre_t.column(&r.from).is_some(), "{r:?} missing pre-step");
                assert!(pre_t.column(&r.to).is_none(), "{r:?} target pre-exists");
                assert!(post_t.column(&r.to).is_some(), "{r:?} missing post-step");
                assert!(post_t.column(&r.from).is_none(), "{r:?} source survived");
            }
        }
    }
}
