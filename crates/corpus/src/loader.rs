//! The real-data path: persisting and loading project histories on disk.
//!
//! Layout of a project directory:
//!
//! ```text
//! <dir>/
//!   manifest.json      # name, dialect, ordered version file names + dates
//!   git.log            # `git log --name-status --no-merges --date=iso` dump
//!   versions/
//!     0001.sql
//!     0002.sql
//!     ...
//! ```
//!
//! A user with a real clone produces `git.log` with the study's exact git
//! command and dumps each historical version of the DDL file (e.g. via
//! `git show <sha>:<path>`). This module is the only reader of the layout:
//! it returns the raw [`ProjectArtifacts`], which the engine's per-project
//! pipeline (`coevo_engine::pipeline`) measures exactly like generated ones.

use crate::artifacts::ProjectArtifacts;
use crate::generator::{default_workers, generate_ordered, CorpusSpec, GeneratedProject};
use coevo_ddl::Dialect;
use coevo_heartbeat::DateTime;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// The manifest of a stored project history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// The name, as written in the source.
    pub name: String,
    /// Dialect name (`mysql` / `postgres` / `generic`).
    pub dialect: String,
    /// Optional taxon label (slug), as assigned by a human or the
    /// classifier.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub taxon: Option<String>,
    /// Ordered versions: file name (under `versions/`) and ISO commit date.
    pub versions: Vec<ManifestVersion>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
/// One DDL version entry of a manifest.
pub struct ManifestVersion {
    /// The file.
    pub file: String,
    /// The commit timestamp.
    pub date: String,
}

/// Loader/saver errors. Each names what failed: the file (relative to the
/// project directory), the manifest, or the offending manifest value.
#[derive(Debug)]
pub enum LoaderError {
    /// A file of the project directory could not be read or written.
    Io {
        /// The file, relative to the project directory (`versions/0001.sql`).
        file: String,
        /// The underlying error.
        error: io::Error,
    },
    /// Manifest (de)serialization error.
    Json(serde_json::Error),
    /// A version date that does not parse.
    BadDate(String),
    /// An unrecognized dialect name.
    BadDialect(String),
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { file, error } => write!(f, "{file}: {error}"),
            Self::Json(e) => write!(f, "manifest: {e}"),
            Self::BadDate(s) => write!(f, "bad date {s:?}"),
            Self::BadDialect(s) => write!(f, "unknown dialect {s:?}"),
        }
    }
}

impl std::error::Error for LoaderError {}

impl From<serde_json::Error> for LoaderError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e)
    }
}

/// Attach the failing file's name to an I/O error.
fn io_at(file: impl Into<String>) -> impl FnOnce(io::Error) -> LoaderError {
    let file = file.into();
    move |error| LoaderError::Io { file, error }
}

/// Parse a manifest from its JSON text (exposed so downstream tools can
/// inspect manifests without depending on a JSON library themselves).
pub fn manifest_from_json(text: &str) -> Result<Manifest, LoaderError> {
    Ok(serde_json::from_str(text)?)
}

/// Save a generated project to disk in the loader's layout.
pub fn save_project(dir: &Path, project: &GeneratedProject) -> Result<(), LoaderError> {
    fs::create_dir_all(dir.join("versions")).map_err(io_at("versions"))?;
    let mut versions = Vec::new();
    for (i, (date, text)) in project.raw.ddl_versions.iter().enumerate() {
        let file = format!("{:04}.sql", i + 1);
        fs::write(dir.join("versions").join(&file), text)
            .map_err(io_at(format!("versions/{file}")))?;
        versions.push(ManifestVersion { file, date: date.to_string() });
    }
    let manifest = Manifest {
        name: project.raw.name.clone(),
        dialect: project.raw.dialect.name().to_string(),
        taxon: Some(project.raw.taxon.slug().to_string()),
        versions,
    };
    fs::write(dir.join("manifest.json"), serde_json::to_string_pretty(&manifest)?)
        .map_err(io_at("manifest.json"))?;
    fs::write(dir.join("git.log"), &project.git_log).map_err(io_at("git.log"))?;
    Ok(())
}

/// Generate `spec`'s corpus into `dir` in the loader's layout, one
/// directory per project (its name with `/` spelled `__`). Projects are
/// generated and saved on every core; the files do not depend on the core
/// count. Returns the number of projects written, or the error of the
/// first project in corpus order that failed to save. This is what
/// `coevo generate` runs.
pub fn save_corpus(dir: &Path, spec: &CorpusSpec) -> Result<usize, LoaderError> {
    let mut written = 0;
    generate_ordered(
        spec,
        default_workers(),
        |p| save_project(&dir.join(p.raw.name.replace('/', "__")), &p),
        |()| {
            written += 1;
            Ok(())
        },
    )?;
    Ok(written)
}

/// Read a project directory's `manifest.json`.
pub fn read_manifest(dir: &Path) -> Result<Manifest, LoaderError> {
    manifest_from_json(
        &fs::read_to_string(dir.join("manifest.json")).map_err(io_at("manifest.json"))?,
    )
}

/// Read the raw artifacts of the project directory `dir` described by
/// `manifest` (already read, e.g. by a pre-pass that orders projects by
/// name): the git log and every DDL version, in manifest order. Nothing is
/// parsed but the version dates.
pub fn read_project(dir: &Path, manifest: &Manifest) -> Result<ProjectArtifacts, LoaderError> {
    let dialect = Dialect::from_name(&manifest.dialect)
        .ok_or_else(|| LoaderError::BadDialect(manifest.dialect.clone()))?;
    let git_log = fs::read_to_string(dir.join("git.log")).map_err(io_at("git.log"))?;
    let mut ddl_versions = Vec::with_capacity(manifest.versions.len());
    for v in &manifest.versions {
        let date =
            DateTime::parse(&v.date).map_err(|_| LoaderError::BadDate(v.date.clone()))?;
        let text = fs::read_to_string(dir.join("versions").join(&v.file))
            .map_err(io_at(format!("versions/{}", v.file)))?;
        ddl_versions.push((date, text));
    }
    Ok(ProjectArtifacts {
        name: manifest.name.clone(),
        taxon: manifest.taxon.as_deref().and_then(coevo_taxa::Taxon::parse),
        dialect,
        ddl_versions,
        git_log,
    })
}

/// Read a project directory: its manifest, then its artifacts.
pub fn load_project(dir: &Path) -> Result<ProjectArtifacts, LoaderError> {
    read_project(dir, &read_manifest(dir)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_corpus, CorpusSpec};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coevo_loader_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = 1;
        }
        let corpus = generate_corpus(&spec);
        let dir = tmpdir("rt");
        for (i, p) in corpus.iter().enumerate() {
            let pdir = dir.join(format!("p{i}"));
            save_project(&pdir, p).unwrap();
            assert_eq!(load_project(&pdir).unwrap(), ProjectArtifacts::from_generated(p));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_corpus_reports_the_first_failing_project_in_corpus_order() {
        let spec = CorpusSpec::paper().with_total(24);
        let dirs: Vec<_> =
            generate_corpus(&spec).iter().map(|p| p.raw.name.replace('/', "__")).collect();
        let dir = tmpdir("savecorpus");
        // Project 3 cannot create its directory and project 5 cannot write
        // its first version file; whichever worker fails first, project 3's
        // error is the one reported, as a serial loop would.
        fs::write(dir.join(&dirs[3]), "").unwrap();
        fs::create_dir_all(dir.join(&dirs[5]).join("versions/0001.sql")).unwrap();
        let err = save_corpus(&dir, &spec).unwrap_err();
        assert!(matches!(&err, LoaderError::Io { file, .. } if file == "versions"), "{err}");
        assert!(dir.join(&dirs[2]).join("git.log").exists());
        fs::remove_file(dir.join(&dirs[3])).unwrap();
        fs::remove_dir_all(dir.join(&dirs[5])).unwrap();
        assert_eq!(save_corpus(&dir, &spec).unwrap(), 24);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 24);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_errors() {
        let dir = tmpdir("missing");
        assert!(matches!(load_project(&dir), Err(LoaderError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_version_file_errors() {
        // A manifest that references a version file that was never written
        // (e.g. the save was killed mid-way) is a typed Io error, not a
        // panic, and it names the missing file.
        let spec = CorpusSpec::paper().with_per_taxon(1);
        let p = &generate_corpus(&spec)[0];
        let dir = tmpdir("trunc");
        save_project(&dir, p).unwrap();
        fs::remove_file(dir.join("versions/0001.sql")).unwrap();
        let err = load_project(&dir).unwrap_err();
        assert!(matches!(&err, LoaderError::Io { file, .. } if file == "versions/0001.sql"));
        assert!(err.to_string().starts_with("versions/0001.sql: "), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_errors() {
        let dir = tmpdir("badjson");
        fs::write(dir.join("manifest.json"), "{not json").unwrap();
        assert!(matches!(load_project(&dir), Err(LoaderError::Json(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_dialect_errors() {
        let dir = tmpdir("baddialect");
        fs::write(
            dir.join("manifest.json"),
            r#"{"name":"x","dialect":"oracle","versions":[]}"#,
        )
        .unwrap();
        fs::write(dir.join("git.log"), "").unwrap();
        assert!(matches!(load_project(&dir), Err(LoaderError::BadDialect(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
