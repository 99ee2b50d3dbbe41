//! # coevo-diff — schema diff engine
//!
//! Pairwise comparison of schema versions, producing the attribute-level
//! change categories whose sum is the paper's central measure, **Total
//! Activity**:
//!
//! - attributes **born with** a new table;
//! - attributes **injected** into an existing table;
//! - attributes **deleted with** a removed table;
//! - attributes **ejected** from a surviving table;
//! - attributes with a **changed data type**;
//! - attributes with changed **primary-key participation**.
//!
//! On top of the single-step diff, [`SchemaHistory`] turns a sequence of
//! dated DDL versions into the per-commit delta sequence and the **Schema
//! (Monthly) Heartbeat** consumed by the co-evolution analysis.
//!
//! ```
//! use coevo_ddl::{parse_schema, Dialect};
//! use coevo_diff::diff_schemas;
//!
//! let v1 = parse_schema("CREATE TABLE t (a INT, b INT);", Dialect::Generic).unwrap();
//! let v2 = parse_schema("CREATE TABLE t (a BIGINT, c INT);", Dialect::Generic).unwrap();
//! let delta = diff_schemas(&v1, &v2);
//! let acts = delta.breakdown();
//! assert_eq!(acts.attrs_injected, 1);     // c
//! assert_eq!(acts.attrs_ejected, 1);      // b
//! assert_eq!(acts.attrs_type_changed, 1); // a: INT → BIGINT
//! assert_eq!(acts.total(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activity;
pub mod changes;
pub mod constraint_diff;
pub mod growth;
pub mod history;
pub mod localization;
mod names;
pub mod rename;
pub mod schema_diff;
pub mod smo;
pub mod table_diff;

pub use activity::ActivityBreakdown;
pub use changes::{AttributeChange, SchemaDelta, TableDelta, TableFate};
pub use constraint_diff::{diff_constraints, ConstraintDelta, ForeignKeyChange, IndexChange};
pub use growth::{net_growth, schema_size_series, SizePoint};
pub use history::{DiffMode, SchemaHistory, SchemaVersion, VersionDelta};
pub use localization::{change_localization, gini_coefficient, ChangeLocalization};
pub use rename::{
    bigram_dice, jaro_winkler, pair_renames, rename_score, type_transition, RenameCounts,
    RenameField, TypeTransition, DEFAULT_RENAME_THRESHOLD,
};
pub use schema_diff::{
    diff_schemas, diff_schemas_counted, diff_schemas_legacy, diff_schemas_with, DiffStats,
    MatchPolicy,
};
pub use smo::{delta_to_smos, Smo};
pub use table_diff::{diff_tables, diff_tables_legacy};
