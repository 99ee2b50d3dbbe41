//! Byte pins of the corpus generator. Generation runs on every core; these
//! goldens were captured from the serial generator, so they fail if the
//! parallel one changes, drops or reorders a byte.
//!
//! - `corpus-gen-60.json`: the manifest of
//!   `coevo corpus gen --projects 60 --shard-size 7 --seed 3`. Each shard's
//!   checksum folds every record's checksum, so equal manifests mean equal
//!   shard bytes.
//! - `generate-per-taxon-2-seed-3.digest`: one line per file of the
//!   `coevo generate --per-taxon 2 --seed 3` tree, sorted by path: the
//!   file's 64-bit FNV-1a, its length and its path.

use coevo_cli::run;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("coevo_gen_golden_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn coevo(argv: &[&str]) {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = run(argv, &mut out, &mut err);
    let (out, err) = (String::from_utf8_lossy(&out), String::from_utf8_lossy(&err));
    assert_eq!(code, 0, "coevo {argv:?}: {out}{err}");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(relative path, bytes)` of every file under `dir`.
fn files(dir: &Path, rel: &str, out: &mut Vec<(String, Vec<u8>)>) {
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        let rel = if rel.is_empty() { name } else { format!("{rel}/{name}") };
        if entry.file_type().unwrap().is_dir() {
            files(&entry.path(), &rel, out);
        } else {
            out.push((rel, fs::read(entry.path()).unwrap()));
        }
    }
}

#[test]
fn corpus_gen_manifest_matches_the_golden() {
    let dir = tmp("shards");
    let gen = ["corpus", "gen", "--projects", "60", "--shard-size", "7", "--seed", "3"];
    coevo(&[&gen[..], &["--out", dir.to_str().unwrap()]].concat());
    let manifest = fs::read_to_string(dir.join("corpus.json")).unwrap();
    assert!(manifest == golden("corpus-gen-60.json"), "corpus.json differs from the golden");
    let stream = coevo_corpus::CorpusStream::open(&dir).unwrap();
    assert_eq!(stream.load_all().unwrap().len(), 60);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn generate_tree_matches_the_golden_digest() {
    let dir = tmp("tree");
    coevo(&["generate", dir.to_str().unwrap(), "--per-taxon", "2", "--seed", "3"]);
    let mut tree = Vec::new();
    files(&dir, "", &mut tree);
    tree.sort();
    let digest: String = tree
        .iter()
        .map(|(rel, bytes)| format!("{:016x} {:>8} {rel}\n", fnv1a(bytes), bytes.len()))
        .collect();
    assert_eq!(digest, golden("generate-per-taxon-2-seed-3.digest"));
    let _ = fs::remove_dir_all(&dir);
}
