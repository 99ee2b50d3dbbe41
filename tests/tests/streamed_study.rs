//! Streamed-vs-eager study differentials over sharded corpora: the
//! streaming engine (`StudyRunner::run_streamed`) must be bit-for-bit
//! indistinguishable from the in-memory path — on the full 195-project
//! paper corpus, under mid-shard corruption with `CollectAndContinue`, and
//! under arbitrary permutations of the manifest's shard order.

use coevo_corpus::shard::save_manifest;
use coevo_corpus::{
    generate_corpus, generate_sharded, CorpusManifest, CorpusSpec, CorpusStream,
    ProjectArtifacts, ShardError, ShardWriter,
};
use coevo_diff::MatchPolicy;
use coevo_engine::{
    EngineError, EngineErrorKind, FailurePolicy, ProjectFailure, Source, Stage, StudyConfig,
    StudyRunner,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

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

/// `coevo study --shards` over `dir`: its exit code and stdout. Skipped
/// projects are warnings on stdout; stderr holds errors only, so it must
/// stay empty.
fn study_shards(dir: &std::path::Path) -> (i32, String) {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code =
        coevo_cli::run(&["study", "--shards", dir.to_str().unwrap()], &mut out, &mut err);
    let err = String::from_utf8(err).unwrap();
    assert!(err.is_empty(), "{err}");
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

// ---------------------------------------------------------------------------
// Lazy-load differential: workers frame, decode and measure shard records
// one at a time. Whatever the cap and the worker count, a corrupt corpus
// must yield exactly what the `ShardReader` iterator implies when every
// shard is read whole before any of it runs.
// ---------------------------------------------------------------------------

/// Records per shard of the planted corpus.
const SHARD: usize = 4;

/// 12 projects in 3 shards of 4. Project 4 (shard 1, record 0) has a
/// truncated git log and project 9 (shard 2, record 1) an unparseable DDL
/// version: both load, and fail at the parse stage.
fn planted_projects() -> Vec<ProjectArtifacts> {
    let spec = CorpusSpec::paper().with_per_taxon(2);
    let mut projects: Vec<ProjectArtifacts> =
        generate_corpus(&spec).iter().map(ProjectArtifacts::from_generated).collect();
    projects[4].git_log = "commit abcdef\nAuthor: A <a@b.c>\n".into();
    projects[9].ddl_versions[0].1 = "CREATE TABLE t (a INT".into();
    projects
}

fn write_sharded(dir: &Path, projects: &[ProjectArtifacts]) -> CorpusManifest {
    let mut w = ShardWriter::create(dir, 0, SHARD).expect("create corpus");
    for p in projects {
        w.push(p).expect("push record");
    }
    w.finish().expect("finish corpus")
}

/// Start and body length of record `i` of a shard file.
fn record_at(bytes: &[u8], i: usize) -> (usize, usize) {
    let mut at = 12;
    for _ in 0..i {
        at += 12 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    }
    (at, u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize)
}

/// The corruptions, each planted on a fresh copy of the planted corpus.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// One byte of shard 1's record 2 body flipped.
    FlippedBody,
    /// Shard 1's record 1 rewritten with a valid record checksum, so only
    /// the manifest's shard checksum disagrees.
    RewrittenRecord,
    /// Shard 1 cut off in the middle of record 2's body.
    TruncatedShard,
    /// Shard 2's file deleted.
    MissingShard,
}

fn corrupt(dir: &Path, manifest: &CorpusManifest, how: Corruption) {
    let shard = |i: usize| dir.join(&manifest.shards[i].file);
    match how {
        Corruption::FlippedBody => {
            let mut bytes = std::fs::read(shard(1)).unwrap();
            let (at, len) = record_at(&bytes, 2);
            bytes[at + 12 + len / 2] ^= 0x20;
            std::fs::write(shard(1), bytes).unwrap();
        }
        Corruption::RewrittenRecord => {
            // The same corpus with project 5's log touched, written by the
            // writer (so every record checksum is valid); its shard 1
            // replaces the original under the original manifest.
            let mut projects = planted_projects();
            projects[5].git_log.push('\n');
            let other = dir.with_extension("rewritten");
            let _ = std::fs::remove_dir_all(&other);
            let m = write_sharded(&other, &projects);
            std::fs::copy(other.join(&m.shards[1].file), shard(1)).unwrap();
            let _ = std::fs::remove_dir_all(&other);
        }
        Corruption::TruncatedShard => {
            let bytes = std::fs::read(shard(1)).unwrap();
            let (at, len) = record_at(&bytes, 2);
            std::fs::write(shard(1), &bytes[..at + 12 + len / 2]).unwrap();
        }
        Corruption::MissingShard => std::fs::remove_file(shard(2)).unwrap(),
    }
}

fn load_failure(project: String, detail: String) -> ProjectFailure {
    ProjectFailure::from(EngineError {
        project,
        stage: Stage::Load,
        kind: EngineErrorKind::Load(detail),
    })
}

/// Per shard, in `start` order: the projects and the load failures the
/// unchanged `ShardReader` iterator implies. A record error fails that
/// record; any other error fails the shard under its file name; a shard
/// checksum error also withdraws every project the shard yielded.
fn iterator_reference(dir: &Path) -> Vec<(Vec<ProjectArtifacts>, Vec<ProjectFailure>)> {
    let stream = CorpusStream::open(dir).expect("open corpus");
    let mut entries = stream.manifest().shards.clone();
    entries.sort_by_key(|e| e.start);
    let mut shards = Vec::new();
    for entry in &entries {
        let mut projects = Vec::new();
        let mut failures = Vec::new();
        match stream.shard_reader(entry) {
            Err(e) => failures.push(load_failure(entry.file.clone(), e.to_string())),
            Ok(reader) => {
                for record in reader {
                    match record {
                        Ok(p) => projects.push(p),
                        Err(ShardError::Record { file, index, detail }) => failures
                            .push(load_failure(format!("{file}[record {index}]"), detail)),
                        Err(e @ ShardError::Checksum { .. }) => {
                            projects.clear();
                            failures.push(load_failure(entry.file.clone(), e.to_string()));
                        }
                        Err(e) => {
                            failures.push(load_failure(entry.file.clone(), e.to_string()))
                        }
                    }
                }
            }
        }
        shards.push((projects, failures));
    }
    shards
}

fn rename_runner() -> StudyRunner {
    StudyRunner::new(StudyConfig::default()).with_match_policy(MatchPolicy::rename_detection())
}

#[test]
fn lazy_load_matches_the_shard_iterator_under_corruption() {
    const LOG: &str = "plasma/focused-shot-frozen-0: parse stage: git log parse error at line \
                       2: commit abcdef has no Date: line";
    const DDL: &str = "openkit/focused-shot-low-1: parse stage: expected ',' or ')' in table \
                       definition, found end of input at line 1, column 22";
    const FLIPPED: &str = "shards/shard-00001.csh[record 2]: load stage: checksum mismatch \
                           (record 0x";
    const REWRITTEN: &str = "shards/shard-00001.csh: load stage: shards/shard-00001.csh: \
                             checksum mismatch (manifest 0x";
    const TRUNCATED: &str = "shards/shard-00001.csh: load stage: shards/shard-00001.csh: \
                             truncated (record 2 declares 65186 bytes, 32593 left)";
    const MISSING: &str = "shards/shard-00002.csh: load stage: ";
    // Per corruption: the expected failure lines (prefixes, sorted by
    // project), and the fail-fast error. Shard 1 fails first: in it the
    // load failure wins over the earlier record's parse failure, and a
    // shard checksum failure withdraws the parse failure with the records.
    let cases: [(Corruption, &[&str], &str); 4] = [
        (Corruption::FlippedBody, &[DDL, LOG, FLIPPED], FLIPPED),
        (Corruption::RewrittenRecord, &[DDL, REWRITTEN], REWRITTEN),
        (Corruption::TruncatedShard, &[DDL, LOG, TRUNCATED], TRUNCATED),
        (Corruption::MissingShard, &[LOG, MISSING], LOG),
    ];
    for (how, expected_lines, fail_fast_line) in cases {
        let dir = tmpdir(&format!("lazy_{how:?}"));
        let manifest = write_sharded(&dir, &planted_projects());
        corrupt(&dir, &manifest, how);

        // The reference: the iterator's projects studied in memory, its
        // load failures merged with the study's parse failures.
        let shards = iterator_reference(&dir);
        let projects: Vec<_> = shards.iter().flat_map(|(p, _)| p.clone()).collect();
        let reference =
            rename_runner().with_workers(1).run(Source::InMemory(projects)).unwrap();
        let mut failures: Vec<_> = shards.iter().flat_map(|(_, f)| f.clone()).collect();
        failures.extend(reference.failures.iter().cloned());
        failures.sort_by(|a, b| a.project.cmp(&b.project));

        let lines: Vec<String> = failures.iter().map(ToString::to_string).collect();
        assert_eq!(lines.len(), expected_lines.len(), "{how:?}: {lines:#?}");
        for (line, prefix) in lines.iter().zip(expected_lines) {
            assert!(
                line.starts_with(prefix),
                "{how:?}: {line:?} does not start with {prefix:?}"
            );
        }
        if let Corruption::MissingShard = how {
            let missing = dir.join("shards/shard-00002.csh");
            let tail = format!("{}: No such file or directory (os error 2)", missing.display());
            assert!(lines[1].ends_with(&tail), "{}", lines[1]);
        }
        let withdrawn = matches!(how, Corruption::RewrittenRecord);

        for workers in [1, 2, 4] {
            let runner = rename_runner().with_workers(workers);
            let uncapped = runner.run(Source::Sharded(dir.clone())).expect("uncapped run");
            assert_eq!(uncapped.results, reference.results, "{how:?} uncapped w{workers}");
            assert_eq!(uncapped.renames, reference.renames, "{how:?} uncapped w{workers}");
            assert_eq!(uncapped.failures, failures, "{how:?} uncapped w{workers}");
            assert!(!uncapped.renames.is_empty());
            let loads = uncapped.metrics.stage(Stage::Load).unwrap().items;
            assert_eq!(
                loads as usize,
                shards.iter().map(|(p, _)| p.len()).sum::<usize>()
                    + usize::from(withdrawn) * SHARD,
                "{how:?}: loaded items"
            );
            for cap in [1, 3, SHARD] {
                let capped = runner
                    .clone()
                    .with_max_resident(cap)
                    .run_streamed(Source::Sharded(dir.clone()))
                    .expect("capped run");
                assert_eq!(capped.results, reference.results, "{how:?} cap {cap} w{workers}");
                assert_eq!(capped.renames, reference.renames, "{how:?} cap {cap} w{workers}");
                assert_eq!(capped.failures, failures, "{how:?} cap {cap} w{workers}");
            }
        }

        // FailFast: the first shard (in `start` order) holding a failure
        // decides. Its load failures win over its parse failures, as if the
        // shard had been read whole before any of it ran.
        let expected_err = shards
            .iter()
            .find_map(|(projects, loads)| {
                loads.first().map(|f| f.error.clone()).or_else(|| {
                    projects.iter().find_map(|p| rename_runner().run_project(p).err())
                })
            })
            .expect("every case fails");
        assert!(
            expected_err.to_string().starts_with(fail_fast_line),
            "{how:?}: {expected_err}"
        );
        for workers in [1, 2, 4] {
            let runner = rename_runner()
                .with_workers(workers)
                .with_failure_policy(FailurePolicy::FailFast);
            let err = runner.run(Source::Sharded(dir.clone())).expect_err("fail-fast");
            assert_eq!(err, expected_err, "{how:?} uncapped w{workers}");
            for cap in [1, 3, SHARD] {
                let err = runner
                    .clone()
                    .with_max_resident(cap)
                    .run_streamed(Source::Sharded(dir.clone()))
                    .expect_err("fail-fast");
                assert_eq!(err, expected_err, "{how:?} cap {cap} w{workers}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
