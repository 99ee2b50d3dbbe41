//! Deterministic input digests: the store-key foundation.
//!
//! A warm-restart result store (see `coevo-store`) addresses a per-project
//! result by *what the pipeline consumed* to produce it. This module defines
//! that recipe for corpus projects, whether generated in memory or loaded
//! from disk:
//!
//! - [`history_hash`] — the identity and DDL history of a project: name,
//!   taxon label, dialect name, and every dated version text, all
//!   length-prefixed and domain-tagged so adjacent fields cannot alias;
//! - [`vcs_hash`] — the raw `git log` text, byte-for-byte.
//!
//! Both are FNV-1a 64 over the exact bytes, so two loads of the same corpus
//! — or a generation and its save/load round trip — agree exactly, and any
//! byte of difference (a touched version file, an extra commit) changes the
//! digest. Dates are hashed through their canonical rendering, the same
//! text the on-disk manifest stores, which keeps generated and loaded
//! projects in agreement.

use crate::generator::GeneratedProject;
use coevo_ddl::fingerprint::Fnv1a;
use coevo_heartbeat::DateTime;

// Domain-separator tags for the two digest kinds: a history and a vcs hash
// of coincidentally identical bytes still differ.
const TAG_HISTORY: u8 = 0xA1;
const TAG_VCS: u8 = 0xB2;

/// Content hash of a project's DDL history: name, optional taxon label,
/// dialect name, and every dated version text, oldest first.
pub fn history_hash(
    name: &str,
    taxon_slug: Option<&str>,
    dialect_name: &str,
    versions: &[(DateTime, String)],
) -> u64 {
    let mut h = Fnv1a::new();
    h.tag(TAG_HISTORY);
    h.write_str(name);
    h.write_opt_str(taxon_slug);
    h.write_str(dialect_name);
    h.write_u64(versions.len() as u64);
    for (date, text) in versions {
        h.write_str(&date.to_string());
        h.write_str(text);
    }
    h.finish().0
}

/// Content hash of the raw vcs log text.
pub fn vcs_hash(git_log: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.tag(TAG_VCS);
    h.write_str(git_log);
    h.finish().0
}

impl GeneratedProject {
    /// This project's `(history, vcs)` input hashes — identical to what an
    /// on-disk save/load round trip of the same project reports.
    pub fn input_hashes(&self) -> (u64, u64) {
        (
            history_hash(
                &self.raw.name,
                Some(self.raw.taxon.slug()),
                self.raw.dialect.name(),
                &self.raw.ddl_versions,
            ),
            vcs_hash(&self.git_log),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_corpus, CorpusSpec};
    use crate::loader::save_project;

    fn small_corpus() -> Vec<GeneratedProject> {
        let mut spec = CorpusSpec::paper();
        for t in &mut spec.taxa {
            t.count = 1;
        }
        generate_corpus(&spec)
    }

    /// Re-read a saved project's raw artifacts and hash them exactly as the
    /// engine does for on-disk sources.
    fn hashes_from_disk(dir: &std::path::Path) -> (u64, u64) {
        crate::loader::load_project(dir).unwrap().input_hashes()
    }

    #[test]
    fn two_generations_agree_byte_for_byte() {
        let a: Vec<(u64, u64)> = small_corpus().iter().map(|p| p.input_hashes()).collect();
        let b: Vec<(u64, u64)> = small_corpus().iter().map(|p| p.input_hashes()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn disk_round_trip_preserves_hashes() {
        let dir = std::env::temp_dir().join(format!("coevo_digest_rt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (i, p) in small_corpus().iter().enumerate() {
            let pdir = dir.join(format!("p{i}"));
            save_project(&pdir, p).unwrap();
            // Two loads of the same on-disk project agree, and both agree
            // with the in-memory generation they came from.
            let first = hashes_from_disk(&pdir);
            let second = hashes_from_disk(&pdir);
            assert_eq!(first, second);
            assert_eq!(first, p.input_hashes(), "project {}", p.raw.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_input_byte_feeds_the_history_hash() {
        let p = &small_corpus()[0];
        let (base, _) = p.input_hashes();
        let versions = &p.raw.ddl_versions;
        let dialect = p.raw.dialect.name();
        let taxon = Some(p.raw.taxon.slug());

        assert_ne!(base, history_hash("other", taxon, dialect, versions));
        assert_ne!(base, history_hash(&p.raw.name, None, dialect, versions));
        assert_ne!(base, history_hash(&p.raw.name, taxon, "mysql2", versions));

        let mut touched = versions.clone();
        touched.last_mut().unwrap().1.push(' ');
        assert_ne!(base, history_hash(&p.raw.name, taxon, dialect, &touched));

        let truncated = &versions[..versions.len() - 1];
        assert_ne!(base, history_hash(&p.raw.name, taxon, dialect, truncated));
    }

    #[test]
    fn vcs_hash_tracks_log_bytes() {
        let p = &small_corpus()[0];
        assert_eq!(vcs_hash(&p.git_log), vcs_hash(&p.git_log));
        assert_ne!(vcs_hash(&p.git_log), vcs_hash(&format!("{} ", p.git_log)));
        // Domain separation: identical bytes hash differently per kind.
        assert_ne!(vcs_hash("x"), history_hash("x", None, "", &[]));
    }
}
