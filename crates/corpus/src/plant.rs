//! Ground-truth planting for the compatibility oracle: synthesize a project
//! whose history interleaves *labeled* breaking and benign schema changes,
//! with stored queries in the sources that demonstrably break at each
//! destructive step.
//!
//! The generator evolves schema *models* (not text) one operation per
//! version, so every step's compatibility class is known by construction:
//! the oracle can demand "zero missed breaking steps" and "no broken stored
//! query on a non-breaking step" without ever trusting the classifier it is
//! checking.

use coevo_ddl::{print_schema, Column, Dialect, Schema, SqlType, Table};
use coevo_heartbeat::DateTime;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The operation a planted step performs. The first three are benign
/// (compatible in at least one direction); the last four are breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlantKind {
    /// Add a nullable column to an existing table (benign, backward).
    AddNullable,
    /// Create a brand-new table (benign, backward).
    AddTable,
    /// Widen a column's type along a provable ladder (benign, full).
    WidenType,
    /// Add a NOT NULL column without a default (breaking).
    AddRequired,
    /// Remove a column that a stored query selects (breaking).
    EjectColumn,
    /// Drop a table that a stored query reads (breaking).
    DropTable,
    /// Narrow a column's type (breaking, no query evidence).
    NarrowType,
}

impl PlantKind {
    /// Ground truth: is this operation breaking?
    pub fn breaking(self) -> bool {
        matches!(
            self,
            PlantKind::AddRequired
                | PlantKind::EjectColumn
                | PlantKind::DropTable
                | PlantKind::NarrowType
        )
    }

    /// Does this operation break a planted stored query? Only read-surface
    /// removals do — a narrowed type or a required column leaves every
    /// existing `SELECT` valid.
    pub fn breaks_query(self) -> bool {
        matches!(self, PlantKind::EjectColumn | PlantKind::DropTable)
    }
}

/// One planted evolution step with its ground-truth label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlantedStep {
    /// Index into `ddl_versions` of the version this step *produced*
    /// (1-based over the history; version 0 is the birth).
    pub index: usize,
    /// The operation performed.
    pub kind: PlantKind,
    /// Ground truth: the step is breaking (`kind.breaking()`, denormalized
    /// for serialized reproducers).
    pub breaking: bool,
    /// The identifier the step targets: `table.column` for column
    /// operations, the table name for table operations.
    pub victim: String,
}

/// A synthesized project with known per-step compatibility ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlantedProject {
    /// Project name (seed-stamped).
    pub name: String,
    /// Dialect the DDL versions are printed in.
    pub dialect: Dialect,
    /// Dated DDL version texts, oldest first. `steps.len() + 1` entries.
    pub ddl_versions: Vec<(DateTime, String)>,
    /// Synthetic `(path, text)` sources holding one stored query per
    /// eject/drop victim — valid before the step, broken after it.
    pub sources: Vec<(String, String)>,
    /// The labeled evolution steps, in history order.
    pub steps: Vec<PlantedStep>,
}

/// Column-name pool for planted tables: every name is ≥ 4 characters and
/// outside the impact scanner's generic stoplist, so a reference in the
/// sources is always eligible as evidence.
const PLANT_COLUMNS: &[&str] = &[
    "total_price",
    "unit_count",
    "created_stamp",
    "updated_stamp",
    "owner_ref",
    "batch_code",
    "rank_score",
    "currency_code",
    "short_label",
    "long_body",
];

/// Table-name pool for planted tables.
const PLANT_TABLES: &[&str] =
    &["orders", "invoices", "shipments", "payments", "sessions", "devices", "readings"];

fn commit_date(i: usize) -> DateTime {
    let year = 2020 + i / 12;
    let month = 1 + i % 12;
    DateTime::parse(&format!("{year:04}-{month:02}-15 10:00:00 +0000"))
        .expect("valid plant date")
}

fn fresh_column(schema: &Schema, table_idx: usize, serial: &mut usize) -> String {
    let table = &schema.tables[table_idx];
    loop {
        let base = PLANT_COLUMNS[*serial % PLANT_COLUMNS.len()];
        let name = if *serial < PLANT_COLUMNS.len() {
            base.to_string()
        } else {
            format!("{base}_{}", *serial / PLANT_COLUMNS.len())
        };
        *serial += 1;
        if table.column(&name).is_none() {
            return name;
        }
    }
}

/// Synthesize a project with `steps` labeled evolution steps (so `steps + 1`
/// DDL versions). Deterministic in `seed`: the same seed always yields the
/// same histories, sources, and labels.
pub fn plant_compat_project(seed: u64, steps: usize) -> PlantedProject {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0_4BA7);
    plant_with_rng(&mut rng, seed, steps)
}

fn plant_with_rng(rng: &mut ChaCha8Rng, seed: u64, steps: usize) -> PlantedProject {
    // Birth: two tables with a few nullable columns each.
    let mut serial = 0usize;
    let mut tables: Vec<Arc<Table>> = Vec::new();
    for name in PLANT_TABLES.iter().take(2) {
        let mut table = Table::new(*name);
        table.columns.push(Column::new("row_key", SqlType::simple("INT")));
        for _ in 0..2 {
            let name = {
                let base = PLANT_COLUMNS[serial % PLANT_COLUMNS.len()];
                serial += 1;
                base.to_string()
            };
            table.columns.push(Column::new(name, SqlType::simple("INT")));
        }
        tables.push(table.into());
    }
    let mut schema = Schema::from_tables(tables);
    let dialect = Dialect::Generic;
    let mut ddl_versions = vec![(commit_date(0), print_schema(&schema, dialect))];
    let mut planted: Vec<PlantedStep> = Vec::new();
    let mut queries: Vec<String> = Vec::new();
    let mut next_table = 2usize;

    for i in 0..steps {
        // Alternate benign and breaking deterministically-randomly, but
        // guarantee at least one breaking step per project.
        let force_breaking = i + 1 == steps && planted.iter().all(|s| !s.breaking);
        let breaking = force_breaking || rng.gen_range(0..100u32) < 45;
        let kind =
            plan_step(rng, &mut schema, breaking, &mut serial, &mut next_table, &mut queries);
        let (kind, victim) = kind;
        debug_assert_eq!(kind.breaking(), breaking);
        planted.push(PlantedStep { index: i + 1, kind, breaking, victim });
        ddl_versions.push((commit_date(i + 1), print_schema(&schema, dialect)));
    }

    let mut source = String::from("// planted stored queries (compat oracle ground truth)\n");
    for (i, q) in queries.iter().enumerate() {
        source.push_str(&format!("let q{i} = \"{q}\";\n"));
    }
    PlantedProject {
        name: format!("planted_compat_{seed:016x}"),
        dialect,
        ddl_versions,
        sources: vec![("src/queries.rs".to_string(), source)],
        steps: planted,
    }
}

/// Apply one operation of the requested polarity to `schema`, returning the
/// kind performed and the victim identifier. Eject/drop steps first plant a
/// stored query against the victim so the removal has query evidence.
fn plan_step(
    rng: &mut ChaCha8Rng,
    schema: &mut Schema,
    breaking: bool,
    serial: &mut usize,
    next_table: &mut usize,
    queries: &mut Vec<String>,
) -> (PlantKind, String) {
    if breaking {
        // Pick among the breaking ops; fall back across choices so the step
        // always succeeds no matter the current schema shape.
        let roll = rng.gen_range(0..4u32);
        // Eject: a non-key column from a table with ≥ 2 columns.
        if roll == 0 || roll == 1 {
            if let Some((t_idx, c_idx)) = pick_column(rng, schema) {
                let table = schema.tables[t_idx].name.to_string();
                let col = schema.tables[t_idx].columns[c_idx].name.to_string();
                queries.push(format!("SELECT {col} FROM {table}"));
                Arc::make_mut(&mut schema.tables[t_idx]).columns.remove(c_idx);
                return (PlantKind::EjectColumn, format!("{table}.{col}"));
            }
        }
        // Drop: a whole table, but never the last one.
        if roll == 2 && schema.tables.len() > 1 {
            let t_idx = rng.gen_range(0..schema.tables.len());
            let table = schema.tables[t_idx].name.to_string();
            let col = schema.tables[t_idx].columns[0].name.to_string();
            queries.push(format!("SELECT {col} FROM {table}"));
            schema.tables.remove(t_idx);
            return (PlantKind::DropTable, table);
        }
        // Narrow: any INT/BIGINT column steps down the ladder.
        if roll == 3 {
            if let Some((t_idx, c_idx)) = pick_typed(schema, &["BIGINT", "INT"]) {
                let table = schema.tables[t_idx].name.to_string();
                let col = &mut Arc::make_mut(&mut schema.tables[t_idx]).columns[c_idx];
                let name = col.name.to_string();
                let narrower =
                    if col.sql_type.name.key() == "bigint" { "INT" } else { "SMALLINT" };
                col.sql_type = SqlType::simple(narrower);
                return (PlantKind::NarrowType, format!("{table}.{name}"));
            }
        }
        // Fallback: a required (NOT NULL, no default) column always works.
        let t_idx = rng.gen_range(0..schema.tables.len());
        let name = fresh_column(schema, t_idx, serial);
        let mut col = Column::new(name.clone(), SqlType::simple("INT"));
        col.nullable = false;
        let table = schema.tables[t_idx].name.to_string();
        Arc::make_mut(&mut schema.tables[t_idx]).columns.push(col);
        (PlantKind::AddRequired, format!("{table}.{name}"))
    } else {
        let roll = rng.gen_range(0..3u32);
        if roll == 0 {
            // New table.
            let name = if *next_table < PLANT_TABLES.len() {
                PLANT_TABLES[*next_table].to_string()
            } else {
                format!("{}_{}", PLANT_TABLES[*next_table % PLANT_TABLES.len()], *next_table)
            };
            *next_table += 1;
            let mut table = Table::new(name.clone());
            table.columns.push(Column::new("row_key", SqlType::simple("INT")));
            schema.tables.push(table.into());
            return (PlantKind::AddTable, name);
        }
        if roll == 1 {
            // Widen an INT-ish column.
            if let Some((t_idx, c_idx)) = pick_typed(schema, &["SMALLINT", "INT"]) {
                let table = schema.tables[t_idx].name.to_string();
                let col = &mut Arc::make_mut(&mut schema.tables[t_idx]).columns[c_idx];
                let name = col.name.to_string();
                let wider =
                    if col.sql_type.name.key() == "smallint" { "INT" } else { "BIGINT" };
                col.sql_type = SqlType::simple(wider);
                return (PlantKind::WidenType, format!("{table}.{name}"));
            }
        }
        // Fallback: a nullable column always works.
        let t_idx = rng.gen_range(0..schema.tables.len());
        let name = fresh_column(schema, t_idx, serial);
        let table = schema.tables[t_idx].name.to_string();
        let column = Column::new(name.clone(), SqlType::simple("INT"));
        Arc::make_mut(&mut schema.tables[t_idx]).columns.push(column);
        (PlantKind::AddNullable, format!("{table}.{name}"))
    }
}

/// A `(table, column)` pick with the column removable: the table keeps at
/// least one column and the pick is never the `row_key` anchor.
fn pick_column(rng: &mut ChaCha8Rng, schema: &Schema) -> Option<(usize, usize)> {
    let candidates: Vec<usize> =
        (0..schema.tables.len()).filter(|&t| schema.tables[t].columns.len() >= 2).collect();
    if candidates.is_empty() {
        return None;
    }
    let t_idx = candidates[rng.gen_range(0..candidates.len())];
    let cols = &schema.tables[t_idx].columns;
    let c_candidates: Vec<usize> = (1..cols.len()).collect(); // index 0 is the row_key anchor
    if c_candidates.is_empty() {
        return None;
    }
    Some((t_idx, c_candidates[rng.gen_range(0..c_candidates.len())]))
}

/// First `(table, column)` whose type name is in `names` (deterministic
/// scan; the RNG already decided *whether* to look).
fn pick_typed(schema: &Schema, names: &[&str]) -> Option<(usize, usize)> {
    for (t_idx, table) in schema.tables.iter().enumerate() {
        for (c_idx, col) in table.columns.iter().enumerate() {
            // Skip the anchor so narrow/widen never races the eject pool dry.
            if c_idx == 0 {
                continue;
            }
            if names.iter().any(|n| n.eq_ignore_ascii_case(col.sql_type.name.key())) {
                return Some((t_idx, c_idx));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planting_is_deterministic() {
        let a = plant_compat_project(42, 8);
        let b = plant_compat_project(42, 8);
        assert_eq!(a, b);
        let c = plant_compat_project(43, 8);
        assert_ne!(a.ddl_versions, c.ddl_versions);
    }

    #[test]
    fn shapes_line_up() {
        let p = plant_compat_project(7, 10);
        assert_eq!(p.ddl_versions.len(), 11);
        assert_eq!(p.steps.len(), 10);
        assert!(p.steps.iter().any(|s| s.breaking), "at least one breaking step");
        for (i, s) in p.steps.iter().enumerate() {
            assert_eq!(s.index, i + 1);
            assert_eq!(s.breaking, s.kind.breaking());
        }
        // Dates strictly increase so history order is stable.
        for w in p.ddl_versions.windows(2) {
            assert!(w[0].0.unix_seconds() < w[1].0.unix_seconds());
        }
    }

    #[test]
    fn every_version_parses() {
        let p = plant_compat_project(11, 12);
        for (_, sql) in &p.ddl_versions {
            coevo_ddl::parse_schema(sql, p.dialect).expect("planted DDL parses");
        }
    }

    #[test]
    fn eject_and_drop_steps_have_a_stored_query_victim() {
        let p = plant_compat_project(99, 16);
        let source = &p.sources[0].1;
        for s in p.steps.iter().filter(|s| s.kind.breaks_query()) {
            let table = s.victim.split('.').next().unwrap();
            assert!(source.contains(&format!("FROM {table}")), "{}: {source}", s.victim);
        }
    }

    #[test]
    fn planted_queries_parse_and_validate_against_their_pre_step_schema() {
        let p = plant_compat_project(5, 12);
        // Each planted query must be *valid* on the version just before its
        // step (otherwise `breaking_queries` would skip it as pre-broken).
        for (q_iter, s) in p.steps.iter().filter(|s| s.kind.breaks_query()).enumerate() {
            let pre = &p.ddl_versions[s.index - 1].1;
            let schema = coevo_ddl::parse_schema(pre, p.dialect).unwrap();
            let text = &p.sources[0].1;
            let q = coevo_query::extract_sql_strings(text)
                .into_iter()
                .nth(q_iter)
                .expect("query present");
            let parsed = coevo_query::parse_query(&q.sql).expect("query parses");
            assert!(
                coevo_query::validate(&parsed, &schema).is_empty(),
                "query {q_iter} invalid pre-step: {}",
                q.sql
            );
        }
    }
}
