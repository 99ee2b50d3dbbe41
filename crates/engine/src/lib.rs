//! # coevo-engine — the study's execution engine
//!
//! An instrumented, fault-tolerant parallel engine that runs the *entire*
//! study — corpus generation (or on-disk loading) → per-project measurement
//! pipeline → figures → Section-7 statistics — behind one builder-style
//! entry point:
//!
//! ```no_run
//! use coevo_engine::{FailurePolicy, Source, StudyConfig, StudyRunner};
//!
//! let report = StudyRunner::new(StudyConfig::default())
//!     .with_workers(8)
//!     .with_failure_policy(FailurePolicy::CollectAndContinue)
//!     .run(Source::paper())
//!     .expect("study");
//! println!("{} projects, {} failures", report.projects.len(), report.failures.len());
//! println!("{}", report.metrics.render());
//! ```
//!
//! Three properties define the engine:
//!
//! - **fault tolerance** — a project with a corrupt DDL version or a
//!   truncated git log is demoted to a structured [`ProjectFailure`]
//!   (project, stage, typed cause) in [`EngineReport::failures`]; the study
//!   completes on the survivors instead of aborting;
//! - **observability** — every stage (load, parse, diff, heartbeat,
//!   measure, stats) records wall-time spans and item counters into a
//!   [`Metrics`] snapshot that `coevo study --profile` prints;
//! - **determinism** — work fans out over scoped worker threads sharing
//!   one queue, but results are re-assembled in input order, so parallel
//!   output is byte-identical to the sequential path.

#![warn(missing_docs)]

pub mod allocs;
mod error;
pub mod incremental;
mod metrics;
pub mod pipeline;
mod runner;
mod store_stage;
mod streamed;

pub use error::{EngineError, EngineErrorKind, FailurePolicy, ProjectFailure, Stage};
pub use incremental::{
    artifacts_to_events, IncrementalStudy, IngestError, ProjectEvent, ProjectSnapshot,
    ProjectState,
};
pub use metrics::{Metrics, MetricsSnapshot, StageMetrics, StoreEvent, StoreMetrics};
pub use runner::{
    EngineReport, RenameProfile, Source, StudyConfig, StudyRunner, DEFAULT_BATCH,
};
pub use streamed::StreamedReport;
