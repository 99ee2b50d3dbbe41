//! CLI-layer corruption handling: `coevo store verify` on a store with a
//! bit-flipped entry must exit nonzero and name the quarantined entry.

use coevo_cli::run;
use coevo_corpus::{generate_corpus, CorpusSpec, ProjectArtifacts};
use coevo_engine::{Source, StudyConfig, StudyRunner};
use std::path::{Path, PathBuf};

fn populated_store(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("coevo_cli_verify_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let projects: Vec<ProjectArtifacts> =
        generate_corpus(&CorpusSpec::paper().with_per_taxon(1))
            .iter()
            .map(ProjectArtifacts::from_generated)
            .collect();
    let report = StudyRunner::new(StudyConfig::default())
        .with_store(&dir)
        .run(Source::InMemory(projects))
        .expect("populating study run");
    assert!(!report.projects.is_empty());
    dir
}

fn entry_files(store: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store.join("entries"))
        .expect("entries dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "entry"))
        .collect();
    files.sort();
    files
}

#[test]
fn store_verify_exits_nonzero_and_names_the_quarantined_entry() {
    let dir = populated_store("bitflip");
    let files = entry_files(&dir);
    assert!(!files.is_empty(), "study must have published entries");

    // Flip one payload bit in the first entry.
    let victim = &files[0];
    let mut bytes = std::fs::read(victim).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, bytes).expect("write corrupted entry");

    let verify = ["store", "verify", dir.to_str().expect("UTF-8 temp path")];
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = run(&verify, &mut out, &mut err);
    let text = String::from_utf8(out).expect("utf-8 CLI output");
    let err = String::from_utf8(err).expect("utf-8 CLI errors");
    assert_eq!(code, 1, "verify must fail on a corrupt store:\n{text}{err}");
    assert!(err.starts_with("error: 1 corrupt or stale entr"), "{err}");
    let stem = victim.file_stem().expect("entry stem").to_string_lossy();
    assert!(text.contains("quarantined"), "{text}");
    assert!(text.contains(stem.as_ref()), "output must name the quarantined entry:\n{text}");
    // The corrupt file was moved aside into quarantine/.
    assert!(!victim.exists());
    assert!(std::fs::read_dir(dir.join("quarantine")).expect("quarantine dir").count() > 0);

    // A second verify pass is clean and exits 0.
    let mut out = Vec::new();
    let code = run(&verify, &mut out, &mut std::io::stderr());
    assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));

    let _ = std::fs::remove_dir_all(&dir);
}
