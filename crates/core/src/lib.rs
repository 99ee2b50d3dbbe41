//! # coevo-core — joint source and schema co-evolution analysis
//!
//! The paper's primary contribution: measures of how a relational schema
//! co-evolves with the project that hosts it, computed over cumulative
//! fractional heartbeats (see [`coevo_heartbeat`]).
//!
//! - **RQ1 — [`synchronicity`]**: θ-synchronicity, the fraction of months
//!   where cumulative schema and project progress are within θ of each
//!   other ("hand-in-hand" co-evolution).
//! - **RQ2 — [`advance`]**: the life percentage of schema advance over time
//!   and over source, and the *always-in-advance* predicates.
//! - **RQ3 — [`attainment`]**: α-attainment fractional timepoints — how
//!   early the schema collects a given share of its total evolution.
//! - **[`study`]**: the end-to-end pipeline producing every figure and
//!   statistical test of the paper from a collection of project inputs.
//!
//! ```
//! use coevo_core::progress::ProjectData;
//! use coevo_core::synchronicity::theta_synchronicity;
//! use coevo_heartbeat::{Heartbeat, YearMonth};
//!
//! let start = YearMonth::new(2015, 1).unwrap();
//! let project = Heartbeat::new(start, vec![10, 10, 10, 10]);
//! let schema = Heartbeat::new(start, vec![20, 0, 0, 20]);
//! let p = ProjectData::new("demo/app", project, schema, 0).joint_progress();
//! let sync = theta_synchronicity(&p.schema, &p.project, 0.10);
//! assert!(sync < 1.0);
//! ```

#![warn(missing_docs)]

pub mod advance;
pub mod attainment;
pub mod fold;
pub mod progress;
pub mod study;
pub mod synchronicity;

pub use advance::{advance_measures, AdvanceMeasures};
pub use attainment::{attainment_fraction, AttainmentLevels, ATTAINMENT_ALPHAS};
pub use fold::{
    AdvanceFold, AttainmentFold, CumulativeFold, FoldOutputs, MeasureFold, MeasureFolds,
    ThetaSyncFold,
};
pub use progress::{ProjectData, ProjectMeasures};
pub use study::{FisherP, StatsCache, Study, StudyResults};
pub use synchronicity::{theta_synchronicity, theta_synchronous_at};
