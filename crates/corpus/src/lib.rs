//! # coevo-corpus — dataset substrate
//!
//! The paper analyzes the Schema_Evo_2019 dataset: 195 real schema histories
//! (DDL file versions plus commit metadata) from GitHub. That dataset is not
//! redistributable here, so this crate provides its *synthetic equivalent*:
//! a seeded, deterministic generator that emits, per project,
//!
//! - a history of **DDL texts** (real SQL, evolved by mutating a schema
//!   model and printing it), and
//! - a **git log** in `git log --name-status --date=iso` format,
//!
//! as raw [`ProjectArtifacts`]. The crate measures nothing itself: the
//! engine's one per-project pipeline (`coevo_engine::pipeline`: SQL →
//! [`coevo_ddl`] parse → [`coevo_diff`] diff → heartbeats → [`coevo_core`]
//! measures) takes generated and real projects alike. Per-taxon generative
//! parameters are calibrated so population-level aggregates land near the
//! published counts; see `EXPERIMENTS.md` for paper-vs-measured values.
//!
//! The [`loader`] module provides the real-data path: it reads a directory
//! with DDL versions and a `git log` dump into the same
//! [`ProjectArtifacts`], so the same pipeline runs on an actual project.

#![warn(missing_docs)]

pub mod artifacts;
pub mod case_study;
pub mod digest;
pub mod generator;
pub mod loader;
pub mod plant;
pub mod plant_rename;
pub mod project_gen;
pub mod schema_gen;
pub mod shard;
pub mod spec;

pub use artifacts::ProjectArtifacts;
pub use case_study::case_study_project;
pub use generator::{generate_corpus, generate_nth, CorpusSpec, GeneratedProject};
pub use plant::{plant_compat_project, PlantKind, PlantedProject, PlantedStep};
pub use plant_rename::{
    plant_rename_project, PlantedRename, PlantedRenameProject, PlantedRenameStep,
    RenamePlantKind,
};
pub use shard::{
    generate_sharded, CorpusManifest, CorpusStream, Frame, ShardEntry, ShardError, ShardReader,
    ShardWriter, CORPUS_FORMAT_VERSION,
};
pub use spec::{paper_spec, TaxonSpec};
