//! Streamed-vs-eager study differentials over sharded corpora: the
//! streaming engine (`StudyRunner::run_streamed`) must be bit-for-bit
//! indistinguishable from the in-memory path — on the full 195-project
//! paper corpus, under mid-shard corruption with `CollectAndContinue`, and
//! under arbitrary permutations of the manifest's shard order.

use coevo_corpus::shard::save_manifest;
use coevo_corpus::{generate_sharded, CorpusSpec};
use coevo_engine::{FailurePolicy, Source, StudyConfig, StudyRunner};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("coevo_streamed_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The acceptance differential: the paper's full 195-project corpus,
/// sharded on disk, studied three ways — eager over the generated corpus,
/// eager over the shards, and streamed over the shards — must agree on
/// every result struct AND on the serialized JSON bytes.
#[test]
fn full_paper_corpus_streamed_equals_in_memory_bit_for_bit() {
    let dir = tmpdir("full195");
    let spec = CorpusSpec::paper();
    let manifest = generate_sharded(&dir, &spec, 32).expect("generate sharded corpus");
    assert_eq!(manifest.total_projects, 195);
    assert_eq!(manifest.shards.len(), 7); // ceil(195 / 32)

    let runner = StudyRunner::new(StudyConfig::default());
    let generated = runner.run(Source::Spec(spec)).expect("eager generated");
    let eager = runner.run(Source::Sharded(dir.clone())).expect("eager sharded");
    let streamed = runner
        .with_max_resident(32)
        .run_streamed(Source::Sharded(dir.clone()))
        .expect("streamed sharded");

    assert_eq!(generated.results, eager.results);
    assert_eq!(streamed.results, eager.results);
    assert!(streamed.failures.is_empty());
    assert_eq!(streamed.results.measures.len(), 195);

    let eager_json = serde_json::to_string(&eager.results).expect("serialize");
    let streamed_json = serde_json::to_string(&streamed.results).expect("serialize");
    assert_eq!(eager_json, streamed_json, "serialized results must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-shard corruption under `CollectAndContinue`: both paths must demote
/// exactly the corrupted record to the same structured failure and compute
/// identical results from the survivors; `FailFast` must surface it as a
/// hard error on both paths.
#[test]
fn mid_shard_corruption_is_demoted_identically_in_both_paths() {
    let dir = tmpdir("corrupt");
    let spec = CorpusSpec::paper().with_per_taxon(2); // 12 projects
    let manifest = generate_sharded(&dir, &spec, 4).expect("generate sharded corpus");
    assert_eq!(manifest.shards.len(), 3);

    // Corrupt the first record of the middle shard: overwrite the first
    // byte of its stored checksum (magic 8 + count 4 + record length 4 =
    // offset 16; the body starts after the 8-byte checksum, at 24).
    let victim = dir.join(&manifest.shards[1].file);
    let mut bytes = std::fs::read(&victim).expect("read shard");
    bytes[16] = b'!';
    std::fs::write(&victim, &bytes).expect("rewrite shard");

    let runner = StudyRunner::new(StudyConfig::default());
    let eager = runner.run(Source::Sharded(dir.clone())).expect("eager completes");
    let streamed =
        runner.run_streamed(Source::Sharded(dir.clone())).expect("streamed completes");

    assert_eq!(eager.failures.len(), 1, "{:?}", eager.failures);
    assert!(
        eager.failures[0].project.contains("[record 0]"),
        "failure names the record: {:?}",
        eager.failures
    );
    assert_eq!(streamed.failures, eager.failures);
    assert_eq!(streamed.results, eager.results);
    assert_eq!(streamed.results.measures.len(), 11);

    let failfast =
        StudyRunner::new(StudyConfig::default()).with_failure_policy(FailurePolicy::FailFast);
    failfast.run(Source::Sharded(dir.clone())).expect_err("eager fail-fast");
    failfast.run_streamed(Source::Sharded(dir.clone())).expect_err("streamed fail-fast");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `coevo study --shards` over `dir`: its exit code and stdout.
fn study_shards(dir: &std::path::Path) -> (i32, String) {
    let mut out = Vec::new();
    let code = coevo_cli::run(&["study", "--shards", dir.to_str().unwrap()], &mut out);
    (code, String::from_utf8(out).unwrap())
}

fn skip_warnings(text: &str) -> Vec<&str> {
    text.lines().filter(|l| l.starts_with("warning: skipped")).collect()
}

/// A flipped byte inside one record's DDL text fails exactly that record —
/// its own checksum catches it before the project is measured — and a
/// shard whose checksum disagrees with the manifest contributes one failure
/// and none of its unverified projects.
#[test]
fn corrupt_records_and_shards_are_not_measured() {
    let dir = tmpdir("ddlflip");
    let spec = CorpusSpec::paper().with_per_taxon(2); // 12 projects
    let mut manifest = generate_sharded(&dir, &spec, 4).expect("generate sharded corpus");
    let victim = dir.join(&manifest.shards[1].file);
    let clean = std::fs::read(&victim).expect("read shard");

    // Record 0 comes first, so the first `CREATE TABLE` is in its first DDL
    // version. Changing the case of the table name's first letter keeps the
    // SQL valid: only the checksum can tell.
    let mut bytes = clean.clone();
    let at = bytes.windows(13).position(|w| w == b"CREATE TABLE ").expect("DDL text") + 13;
    bytes[at] ^= 0x20;
    std::fs::write(&victim, &bytes).expect("rewrite shard");
    let (code, text) = study_shards(&dir);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("studying 12 projects"), "{text}");
    let warnings = skip_warnings(&text);
    assert_eq!(warnings.len(), 1, "{text}");
    assert!(
        warnings[0].starts_with(
            "warning: skipped shards/shard-00001.csh[record 0]: load stage: checksum mismatch"
        ),
        "{text}"
    );
    let runner = StudyRunner::new(StudyConfig::default());
    let report = runner.run(Source::Sharded(dir.clone())).expect("study completes");
    assert_eq!(report.results.measures.len(), 11);

    // The shard's bytes are intact but its manifest checksum is not.
    std::fs::write(&victim, &clean).expect("restore shard");
    manifest.shards[1].checksum ^= 1;
    save_manifest(&dir, &manifest).expect("rewrite manifest");
    let (code, text) = study_shards(&dir);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("studying 9 projects"), "{text}");
    let warnings = skip_warnings(&text);
    assert_eq!(warnings.len(), 1, "{text}");
    assert!(
        warnings[0].starts_with(
            "warning: skipped shards/shard-00001.csh: load stage: \
             shards/shard-00001.csh: checksum mismatch (manifest"
        ),
        "{text}"
    );
    let report = runner.run(Source::Sharded(dir.clone())).expect("study completes");
    assert_eq!(report.results.measures.len(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard file that vanishes after the manifest was written (operator
/// error, partial rsync) demotes that shard's projects to one failure per
/// shard in both paths, identically.
#[test]
fn missing_shard_file_fails_identically_in_both_paths() {
    let dir = tmpdir("missing");
    let spec = CorpusSpec::paper().with_per_taxon(1); // 6 projects
    let manifest = generate_sharded(&dir, &spec, 2).expect("generate sharded corpus");
    std::fs::remove_file(dir.join(&manifest.shards[2].file)).expect("remove shard");

    let runner = StudyRunner::new(StudyConfig::default());
    let eager = runner.run(Source::Sharded(dir.clone())).expect("eager completes");
    let streamed =
        runner.run_streamed(Source::Sharded(dir.clone())).expect("streamed completes");
    assert_eq!(eager.failures.len(), 1, "{:?}", eager.failures);
    assert_eq!(eager.failures[0].project, manifest.shards[2].file);
    assert_eq!(streamed.failures, eager.failures);
    assert_eq!(streamed.results, eager.results);
    assert_eq!(streamed.results.measures.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard order in the manifest is presentation, not semantics: each
    /// entry carries its global start offset, so any permutation of the
    /// manifest's shard list yields byte-identical study results from both
    /// the eager and the streamed path.
    #[test]
    fn shard_order_permutations_yield_identical_results(
        swaps in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..16)
    ) {
        let dir = tmpdir(&format!("perm{}", std::thread::current().name().map(|n| n.len()).unwrap_or(0)));
        let spec = CorpusSpec::paper().with_per_taxon(2); // 12 projects
        let mut manifest = generate_sharded(&dir, &spec, 3).expect("generate sharded corpus");
        prop_assert_eq!(manifest.shards.len(), 4);

        let runner = StudyRunner::new(StudyConfig::default());
        let baseline = runner.run(Source::Sharded(dir.clone())).expect("baseline");

        // Apply the permutation script to the manifest's shard order and
        // rewrite it (entries keep their start offsets — only list position
        // changes).
        let n = manifest.shards.len();
        for (a, b) in swaps {
            manifest.shards.swap(a % n, b % n);
        }
        save_manifest(&dir, &manifest).expect("rewrite manifest");

        let eager = runner.run(Source::Sharded(dir.clone())).expect("permuted eager");
        let streamed = runner
            .with_max_resident(5)
            .run_streamed(Source::Sharded(dir.clone()))
            .expect("permuted streamed");
        prop_assert_eq!(&eager.results, &baseline.results);
        prop_assert_eq!(&streamed.results, &baseline.results);
        prop_assert!(streamed.failures.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
