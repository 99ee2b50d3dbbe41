//! Evolving-schema generation: building an initial schema model and mutating
//! it commit by commit with a precise activity budget.
//!
//! Every mutation op has a known Total Activity cost under the diff engine
//! (inject = 1, eject = 1, type change = 1, key change = 1, new table = its
//! attribute count, dropped table = its attribute count), so a generator can
//! schedule an exact amount of evolution per commit and the measured
//! heartbeat will reproduce it.

use coevo_ddl::{Column, Schema, SqlType, Table};
use rand::Rng;
use std::sync::Arc;

/// Domain-flavored vocabulary for table/column names; combined with numeric
/// suffixes when exhausted.
const TABLE_STEMS: &[&str] = &[
    "users",
    "accounts",
    "orders",
    "items",
    "products",
    "invoices",
    "payments",
    "sessions",
    "messages",
    "comments",
    "tags",
    "categories",
    "events",
    "logs",
    "settings",
    "devices",
    "sensors",
    "readings",
    "alerts",
    "customers",
    "addresses",
    "shipments",
    "reviews",
    "subscriptions",
    "permissions",
    "roles",
    "notes",
    "changesets",
    "attachments",
    "audits",
];

// NOTE: must not contain "id" — every generated table carries a hardcoded
// `id` primary-key column, and duplicate column names would corrupt the
// diff engine's name-based matching.
const COLUMN_STEMS: &[&str] = &[
    "name",
    "email",
    "status",
    "created_at",
    "updated_at",
    "amount",
    "price",
    "quantity",
    "description",
    "title",
    "body",
    "kind",
    "owner_id",
    "parent_id",
    "value",
    "label",
    "url",
    "code",
    "rank",
    "score",
    "notes",
    "enabled",
    "version",
    "uuid",
    "ref_id",
    "total",
    "currency",
    "started_at",
    "finished_at",
];

const TYPE_POOL: &[fn() -> SqlType] = &[
    || SqlType::simple("INT"),
    || SqlType::simple("BIGINT"),
    || SqlType::simple("TEXT"),
    || SqlType::simple("BOOLEAN"),
    || SqlType::simple("DATE"),
    || SqlType::simple("TIMESTAMP"),
    || SqlType::with_params("VARCHAR", &["255"]),
    || SqlType::with_params("VARCHAR", &["100"]),
    || SqlType::with_params("DECIMAL", &["10", "2"]),
];

/// Per-commit-window tracking of touched entities, preventing op overlap
/// that would make measured activity fall below the declared budget.
#[derive(Default)]
struct Window {
    /// Tables created in this window (lowercased keys): may receive fresh
    /// injections, but must not be dropped, ejected from, or retyped.
    new_tables: Vec<String>,
    /// Tables whose columns were touched: must not be dropped.
    touched_tables: Vec<String>,
    /// (table key, column key) pairs injected, ejected, or retyped.
    touched_columns: Vec<(String, String)>,
}

impl Window {
    /// Tables that must not be *dropped*: window-new or touched.
    fn table_is_excluded(&self, tkey: &str) -> bool {
        self.new_tables.iter().any(|t| t == tkey)
            || self.touched_tables.iter().any(|t| t == tkey)
    }

    /// Tables whose columns must not be ejected/retyped (their attributes
    /// count as born-with-table in the window's diff).
    fn table_is_new(&self, tkey: &str) -> bool {
        self.new_tables.iter().any(|t| t == tkey)
    }

    fn column_is_touched(&self, tkey: &str, ckey: &str) -> bool {
        self.touched_columns.iter().any(|(t, c)| t == tkey && c == ckey)
    }
}

/// A mutable evolving schema with name-generation state.
pub struct EvolvingSchema {
    /// The schema.
    pub schema: Schema,
    next_table_id: usize,
    next_column_id: usize,
}

impl EvolvingSchema {
    /// Generate an initial schema with `tables` tables of
    /// `cols_per_table_min..=cols_per_table_max` columns each.
    pub fn initial<R: Rng>(
        rng: &mut R,
        tables: usize,
        cols_min: usize,
        cols_max: usize,
    ) -> Self {
        let mut this = Self { schema: Schema::new(), next_table_id: 0, next_column_id: 0 };
        for _ in 0..tables {
            let cols = rng.gen_range(cols_min..=cols_max.max(cols_min));
            this.add_table(rng, cols);
        }
        this
    }

    fn fresh_table_name(&mut self) -> String {
        let i = self.next_table_id;
        self.next_table_id += 1;
        if i < TABLE_STEMS.len() {
            TABLE_STEMS[i].to_string()
        } else {
            format!("{}_{}", TABLE_STEMS[i % TABLE_STEMS.len()], i / TABLE_STEMS.len())
        }
    }

    fn fresh_column_name(&mut self) -> String {
        let i = self.next_column_id;
        self.next_column_id += 1;
        if i < COLUMN_STEMS.len() {
            COLUMN_STEMS[i].to_string()
        } else {
            format!("{}_{}", COLUMN_STEMS[i % COLUMN_STEMS.len()], i / COLUMN_STEMS.len())
        }
    }

    fn random_type<R: Rng>(rng: &mut R) -> SqlType {
        TYPE_POOL[rng.gen_range(0..TYPE_POOL.len())]()
    }

    /// Pick an index in the front 70% of `0..len`, biased toward the very
    /// front (u² law): change concentrates on a "hot" subset of tables and a
    /// cold tail never mutates, reproducing the locality findings of the
    /// literature (60–90% of changes in 20% of the tables; ~40% of tables
    /// never change). Tables born later append at the end — automatically
    /// cold.
    fn hot_biased_index<R: Rng>(rng: &mut R, len: usize) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        (((u * u) * len as f64 * 0.7) as usize).min(len.saturating_sub(1))
    }

    /// Add a new table with `cols` columns (activity cost: `cols`).
    /// Returns the actual cost.
    pub fn add_table<R: Rng>(&mut self, rng: &mut R, cols: usize) -> u64 {
        let cols = cols.max(1);
        let name = self.fresh_table_name();
        let mut t = Table::new(name.as_str());
        let mut id_col = Column::new("id", SqlType::simple("INT"));
        id_col.nullable = false;
        id_col.inline_primary_key = true;
        id_col.auto_increment = true;
        t.columns.push(id_col);
        for _ in 1..cols {
            let cname = self.fresh_column_name();
            // Column names repeat across tables; make them unique within the
            // table by construction (fresh ids are globally unique).
            t.columns.push(Column::new(cname.as_str(), Self::random_type(rng)));
        }
        self.schema.tables.push(t.into());
        cols as u64
    }

    /// [`Self::add_table`], also reporting the new table's key — lets the
    /// budget loop record window membership without re-reading (and
    /// potentially panicking on) the table list.
    fn add_table_keyed<R: Rng>(&mut self, rng: &mut R, cols: usize) -> (u64, String) {
        let cost = self.add_table(rng, cols);
        let key = self.schema.tables.last().map(|t| t.key().to_string()).unwrap_or_default();
        (cost, key)
    }

    /// Drop a random table (activity cost: its attribute count); no-op with
    /// cost 0 when the schema is empty or `keep_at_least` tables remain.
    pub fn drop_table<R: Rng>(&mut self, rng: &mut R, keep_at_least: usize) -> u64 {
        if self.schema.tables.len() <= keep_at_least {
            return 0;
        }
        let idx = rng.gen_range(0..self.schema.tables.len());
        let t = self.schema.tables.remove(idx);
        t.columns.len() as u64
    }

    /// Inject one attribute into a random table (cost 1; 0 if no tables).
    pub fn inject_attribute<R: Rng>(&mut self, rng: &mut R) -> u64 {
        if self.schema.tables.is_empty() {
            return 0;
        }
        let cname = self.fresh_column_name();
        let ty = Self::random_type(rng);
        let idx = rng.gen_range(0..self.schema.tables.len());
        Arc::make_mut(&mut self.schema.tables[idx])
            .columns
            .push(Column::new(cname.as_str(), ty));
        1
    }

    /// Eject one non-key attribute from a random table (cost 1; 0 if none
    /// ejectable). Keeps at least one column per table.
    pub fn eject_attribute<R: Rng>(&mut self, rng: &mut R) -> u64 {
        let candidates: Vec<usize> = self
            .schema
            .tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.columns.len() > 1)
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return 0;
        }
        let t_idx = candidates[rng.gen_range(0..candidates.len())];
        let t = Arc::make_mut(&mut self.schema.tables[t_idx]);
        let col_candidates: Vec<usize> = t
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.inline_primary_key)
            .map(|(i, _)| i)
            .collect();
        if col_candidates.is_empty() {
            return 0;
        }
        let c_idx = col_candidates[rng.gen_range(0..col_candidates.len())];
        t.columns.remove(c_idx);
        1
    }

    /// Change the type of one random non-key attribute (cost 1; 0 if none).
    pub fn change_type<R: Rng>(&mut self, rng: &mut R) -> u64 {
        let mut spots: Vec<(usize, usize)> = Vec::new();
        for (ti, t) in self.schema.tables.iter().enumerate() {
            for (ci, c) in t.columns.iter().enumerate() {
                if !c.inline_primary_key {
                    spots.push((ti, ci));
                }
            }
        }
        if spots.is_empty() {
            return 0;
        }
        let (ti, ci) = spots[Self::hot_biased_index(rng, spots.len())];
        let old = self.schema.tables[ti].columns[ci].sql_type.clone();
        // Draw a genuinely different type.
        for _ in 0..16 {
            let new = Self::random_type(rng);
            if new != old {
                Arc::make_mut(&mut self.schema.tables[ti]).columns[ci].sql_type = new;
                return 1;
            }
        }
        0
    }

    /// Spend an exact activity `budget` on a mix of mutation ops, weighted
    /// toward intra-table change (the dominant category in the dataset).
    ///
    /// Ops within one window never overlap on the same column or table, so
    /// the pairwise diff of the window's two endpoint versions measures
    /// *exactly* `budget` Total Activity (a column injected and then ejected
    /// in the same commit would otherwise vanish from the diff). Returns the
    /// activity actually spent — always `budget`, because injections and
    /// table births into fresh names can absorb any remainder.
    pub fn spend_budget<R: Rng>(&mut self, rng: &mut R, budget: u64) -> u64 {
        let mut window = Window::default();
        let mut spent = 0u64;
        while spent < budget {
            let remaining = budget - spent;
            let roll = rng.gen_range(0..100u32);
            let got = if remaining >= 4 && roll < 12 {
                // Table birth sized to fit the remaining budget.
                let cols = rng.gen_range(2..=remaining.min(8)) as usize;
                let (cost, key) = self.add_table_keyed(rng, cols);
                window.new_tables.push(key);
                cost
            } else if remaining >= 3 && roll < 18 {
                self.drop_untouched_table_within(remaining, &window)
            } else if roll < 48 {
                self.inject_window(rng, &mut window)
            } else if roll < 66 {
                self.eject_untouched(rng, &mut window)
            } else {
                self.change_type_untouched(rng, &mut window)
            };
            if got == 0 {
                // The chosen op had no valid target; injection always works
                // (re-seeding a table if the schema is empty).
                let fallback = self.inject_window(rng, &mut window);
                spent += if fallback == 0 {
                    let cols = remaining.clamp(1, 3) as usize;
                    let (cost, key) = self.add_table_keyed(rng, cols);
                    window.new_tables.push(key);
                    cost
                } else {
                    fallback
                };
            } else {
                spent += got;
            }
        }
        spent
    }

    /// Window-aware injection: a fresh column into a random table, recorded
    /// as touched so no later op in the window ejects/retypes it or drops
    /// its table.
    fn inject_window<R: Rng>(&mut self, rng: &mut R, window: &mut Window) -> u64 {
        if self.schema.tables.is_empty() {
            return 0;
        }
        let cname = self.fresh_column_name();
        let ty = Self::random_type(rng);
        let idx = Self::hot_biased_index(rng, self.schema.tables.len());
        let t = Arc::make_mut(&mut self.schema.tables[idx]);
        let tkey = t.key().to_string();
        t.columns.push(Column::new(cname.as_str(), ty));
        window.touched_columns.push((tkey.clone(), cname.to_ascii_lowercase()));
        window.touched_tables.push(tkey);
        1
    }

    /// Eject a random non-key attribute from a table that is neither new nor
    /// already touched in this window; record the table as touched.
    fn eject_untouched<R: Rng>(&mut self, rng: &mut R, window: &mut Window) -> u64 {
        let mut spots: Vec<(usize, usize)> = Vec::new();
        for (ti, t) in self.schema.tables.iter().enumerate() {
            if window.table_is_new(t.key()) {
                continue;
            }
            if t.columns.len() <= 1 {
                continue;
            }
            for (ci, c) in t.columns.iter().enumerate() {
                if !c.inline_primary_key && !window.column_is_touched(t.key(), c.key()) {
                    spots.push((ti, ci));
                }
            }
        }
        if spots.is_empty() {
            return 0;
        }
        let (ti, ci) = spots[Self::hot_biased_index(rng, spots.len())];
        let tkey = self.schema.tables[ti].key().to_string();
        let ckey = self.schema.tables[ti].columns[ci].key().to_string();
        Arc::make_mut(&mut self.schema.tables[ti]).columns.remove(ci);
        window.touched_columns.push((tkey.clone(), ckey));
        window.touched_tables.push(tkey);
        1
    }

    /// Change the type of a random attribute not yet touched this window and
    /// not in a window-new table; record it as touched.
    fn change_type_untouched<R: Rng>(&mut self, rng: &mut R, window: &mut Window) -> u64 {
        let mut spots: Vec<(usize, usize)> = Vec::new();
        for (ti, t) in self.schema.tables.iter().enumerate() {
            if window.table_is_new(t.key()) {
                continue;
            }
            for (ci, c) in t.columns.iter().enumerate() {
                if !c.inline_primary_key && !window.column_is_touched(t.key(), c.key()) {
                    spots.push((ti, ci));
                }
            }
        }
        if spots.is_empty() {
            return 0;
        }
        let (ti, ci) = spots[Self::hot_biased_index(rng, spots.len())];
        let old = self.schema.tables[ti].columns[ci].sql_type.clone();
        for _ in 0..16 {
            let new = Self::random_type(rng);
            if new != old {
                let tkey = self.schema.tables[ti].key().to_string();
                let ckey = self.schema.tables[ti].columns[ci].key().to_string();
                Arc::make_mut(&mut self.schema.tables[ti]).columns[ci].sql_type = new;
                window.touched_columns.push((tkey.clone(), ckey));
                window.touched_tables.push(tkey);
                return 1;
            }
        }
        0
    }

    /// Drop the first pre-window, untouched table whose attribute count fits
    /// within `budget` (never the last table). Cost = attribute count, or 0.
    fn drop_untouched_table_within(&mut self, budget: u64, window: &Window) -> u64 {
        if self.schema.tables.len() <= 1 {
            return 0;
        }
        let idx = self.schema.tables.iter().position(|t| {
            (t.columns.len() as u64) <= budget && !window.table_is_excluded(t.key())
        });
        match idx {
            Some(i) => {
                let t = self.schema.tables.remove(i);
                t.columns.len() as u64
            }
            None => 0,
        }
    }

    /// The schema's current attribute count.
    pub fn attribute_count(&self) -> usize {
        self.schema.attribute_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_ddl::{parse_schema, print_schema, Dialect};
    use coevo_diff::diff_schemas;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn initial_schema_has_requested_shape() {
        let mut r = rng(1);
        let s = EvolvingSchema::initial(&mut r, 5, 3, 7);
        assert_eq!(s.schema.tables.len(), 5);
        for t in &s.schema.tables {
            assert!((3..=7).contains(&t.columns.len()));
            assert_eq!(t.primary_key(), vec!["id".to_string()]);
        }
    }

    #[test]
    fn generated_schema_is_parseable() -> Result<(), coevo_ddl::ParseError> {
        let mut r = rng(2);
        let s = EvolvingSchema::initial(&mut r, 8, 2, 9);
        for dialect in [Dialect::MySql, Dialect::Postgres, Dialect::Generic] {
            let text = print_schema(&s.schema, dialect);
            let parsed = parse_schema(&text, dialect)?;
            assert_eq!(parsed.attribute_count(), s.schema.attribute_count());
        }
        Ok(())
    }

    #[test]
    fn mutation_costs_match_diff_engine() {
        let mut r = rng(3);
        let mut s = EvolvingSchema::initial(&mut r, 4, 3, 6);
        for op in 0..5u8 {
            let before = s.schema.clone();
            let declared = match op {
                0 => s.add_table(&mut r, 4),
                1 => s.drop_table(&mut r, 1),
                2 => s.inject_attribute(&mut r),
                3 => s.eject_attribute(&mut r),
                _ => s.change_type(&mut r),
            };
            let measured = diff_schemas(&before, &s.schema).total_activity();
            assert_eq!(
                declared, measured,
                "op {op}: declared {declared} ≠ measured {measured}"
            );
        }
    }

    #[test]
    fn spend_budget_is_exact_through_the_pipeline() {
        for seed in 0..10 {
            let mut r = rng(100 + seed);
            let mut s = EvolvingSchema::initial(&mut r, 5, 3, 6);
            for budget in [1u64, 3, 7, 20, 45] {
                let before = s.schema.clone();
                let spent = s.spend_budget(&mut r, budget);
                assert_eq!(spent, budget, "seed {seed} budget {budget}");
                let measured = diff_schemas(&before, &s.schema).total_activity();
                assert_eq!(measured, budget, "measured mismatch at seed {seed}");
            }
        }
    }

    #[test]
    fn determinism_under_same_seed() {
        let build = || {
            let mut r = rng(42);
            let mut s = EvolvingSchema::initial(&mut r, 5, 3, 6);
            s.spend_budget(&mut r, 30);
            print_schema(&s.schema, Dialect::MySql)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn eject_never_removes_primary_key() {
        let mut r = rng(9);
        let mut s = EvolvingSchema::initial(&mut r, 2, 2, 3);
        for _ in 0..100 {
            s.eject_attribute(&mut r);
        }
        for t in &s.schema.tables {
            assert!(!t.columns.is_empty());
            assert!(t.columns.iter().any(|c| c.inline_primary_key));
        }
    }
}
