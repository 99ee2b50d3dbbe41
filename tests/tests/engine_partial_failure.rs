//! Fault tolerance of the execution engine: corrupt artifacts in an on-disk
//! corpus demote their projects to structured failures while the study
//! completes on the survivors.

use coevo_corpus::loader::{read_manifest, read_project, save_project};
use coevo_corpus::{generate_corpus, CorpusSpec, ProjectArtifacts};
use coevo_engine::{
    EngineError, EngineErrorKind, FailurePolicy, ProjectFailure, Source, Stage, StudyConfig,
    StudyRunner,
};
use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};

/// Write a one-project-per-taxon corpus to disk and corrupt two projects:
/// one gets a truncated DDL version, the other a truncated git log. Returns
/// the corpus dir and the two victims' names (DDL victim, log victim).
fn corrupted_corpus(tag: &str) -> (PathBuf, String, String) {
    let dir =
        std::env::temp_dir().join(format!("coevo_engine_fail_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = 1;
    }
    let corpus = generate_corpus(&spec);
    assert_eq!(corpus.len(), 6);
    for p in &corpus {
        save_project(&dir.join(p.raw.name.replace('/', "__")), p).unwrap();
    }

    let ddl_victim = &corpus[1];
    let ddl_dir = dir.join(ddl_victim.raw.name.replace('/', "__"));
    fs::write(ddl_dir.join("versions/0001.sql"), "CREATE TABLE t (a INT").unwrap();

    let log_victim = &corpus[4];
    let log_dir = dir.join(log_victim.raw.name.replace('/', "__"));
    fs::write(log_dir.join("git.log"), "commit abcdef\nAuthor: A <a@b.c>\n").unwrap();

    (dir, ddl_victim.raw.name.clone(), log_victim.raw.name.clone())
}

#[test]
fn corrupt_projects_are_demoted_to_failures() {
    let (dir, ddl_name, log_name) = corrupted_corpus("collect");

    let report = StudyRunner::new(StudyConfig::default())
        .with_failure_policy(FailurePolicy::CollectAndContinue)
        .run(Source::OnDisk(dir.clone()))
        .expect("study completes despite corrupt projects");

    // Exactly the two victims failed, both at the parse stage, with the
    // structured cause preserved through `Error::source()`.
    assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
    let ddl_failure =
        report.failures.iter().find(|f| f.project == ddl_name).expect("DDL victim reported");
    assert_eq!(ddl_failure.stage, Stage::Parse);
    assert!(matches!(ddl_failure.error.kind, EngineErrorKind::Ddl(_)));
    assert!(ddl_failure.error.source().is_some());

    let log_failure =
        report.failures.iter().find(|f| f.project == log_name).expect("log victim reported");
    assert_eq!(log_failure.stage, Stage::Parse);
    assert!(matches!(log_failure.error.kind, EngineErrorKind::GitLog(_)));
    assert!(log_failure.error.source().is_some());

    // The survivors carried the study: four projects, figures included.
    assert_eq!(report.projects.len(), 4);
    assert!(report.projects.iter().all(|p| p.name != ddl_name && p.name != log_name));
    assert_eq!(report.results.measures.len(), 4);
    assert_eq!(report.results.fig4.counts.iter().sum::<u64>(), 4);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fail_fast_aborts_on_first_corrupt_project() {
    let (dir, _, _) = corrupted_corpus("failfast");

    let err = StudyRunner::new(StudyConfig::default())
        .with_failure_policy(FailurePolicy::FailFast)
        .run(Source::OnDisk(dir.clone()))
        .expect_err("fail-fast surfaces the corruption");
    assert_eq!(err.stage, Stage::Parse);

    let _ = fs::remove_dir_all(&dir);
}

/// The two load corruptions of an on-disk corpus.
#[derive(Debug, Clone, Copy)]
enum LoadCorruption {
    /// A project's `manifest.json` is not JSON.
    UnreadableManifest,
    /// A file a project's manifest lists under `versions/` is gone.
    MissingVersion,
}

fn load_failure(project: &str, detail: String) -> EngineError {
    EngineError {
        project: project.to_string(),
        stage: Stage::Load,
        kind: EngineErrorKind::Load(detail),
    }
}

/// What loading the whole corpus up front implies: the manifest pre-pass
/// failures, then every project directory in manifest-name order, loaded
/// or failed.
fn eager_reference(
    dir: &Path,
) -> (Vec<EngineError>, Vec<Result<ProjectArtifacts, EngineError>>) {
    let mut dirs: Vec<PathBuf> =
        fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    dirs.sort();
    let mut named = Vec::new();
    let mut pre = Vec::new();
    for d in dirs {
        let name = d.file_name().unwrap().to_string_lossy().into_owned();
        match read_manifest(&d) {
            Ok(m) => named.push((d, name, m)),
            Err(e) => pre.push(load_failure(&name, e.to_string())),
        }
    }
    named.sort_by(|a, b| a.2.name.cmp(&b.2.name));
    let loaded = named
        .into_iter()
        .map(|(d, name, m)| {
            read_project(&d, &m).map_err(|e| load_failure(&name, e.to_string()))
        })
        .collect();
    (pre, loaded)
}

/// Loading is lazy — each worker reads the next project directory itself —
/// yet every cap and worker count yields what an eager load implies, and
/// fail-fast returns the first failure of the first batch holding one, a
/// load failure winning over a parse failure in the same batch.
#[test]
fn lazy_on_disk_load_matches_an_eager_load() {
    // The run order is manifest-name order: `dbworks/active-0` (the
    // manifest victim), `dbworks/frozen-0`, the DDL victim, the log victim,
    // `plasma/moderate-0` (the version victim), `quartz/...`.
    const DDL: &str = "openkit/almost-frozen-0: parse stage: expected ',' or ')' in table \
                       definition, found end of input at line 1, column 22";
    const LOG: &str = "plasma/focused-shot-low-0: parse stage: git log parse error at line 2: \
                       commit abcdef has no Date: line";
    const MANIFEST: &str = "dbworks__active-0: load stage: manifest: expected '\"' at byte 1";
    const VERSION: &str = "plasma__moderate-0: load stage: versions/0001.sql: No such file or \
                           directory (os error 2)";
    // Per corruption: the expected failure lines (by project) and the
    // fail-fast error per cap (1, 3, 5, uncapped).
    let cases: [(LoadCorruption, &[&str], [&str; 4]); 2] = [
        // Manifest failures join the first batch, so they always win.
        (LoadCorruption::UnreadableManifest, &[MANIFEST, DDL, LOG], [MANIFEST; 4]),
        // The version victim runs fifth: in a later batch than the DDL
        // victim (cap 1, 3) that batch fails first; in the same batch
        // (cap 5, uncapped) the load failure wins.
        (LoadCorruption::MissingVersion, &[DDL, LOG, VERSION], [DDL, DDL, VERSION, VERSION]),
    ];
    for (how, expected_lines, fail_fast_lines) in cases {
        let (dir, ddl_name, log_name) = corrupted_corpus(&format!("lazy_{how:?}"));
        let corpus = {
            let mut spec = CorpusSpec::paper();
            for t in &mut spec.taxa {
                t.count = 1;
            }
            generate_corpus(&spec)
        };
        let victim = match how {
            LoadCorruption::UnreadableManifest => &corpus[5],
            LoadCorruption::MissingVersion => &corpus[3],
        };
        let vdir = dir.join(victim.raw.name.replace('/', "__"));
        match how {
            LoadCorruption::UnreadableManifest => {
                fs::write(vdir.join("manifest.json"), "{not json").unwrap()
            }
            LoadCorruption::MissingVersion => {
                fs::remove_file(vdir.join("versions/0001.sql")).unwrap()
            }
        }

        let (pre, loaded) = eager_reference(&dir);
        let projects: Vec<_> = loaded.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
        let runner = StudyRunner::new(StudyConfig::default());
        let reference = runner.clone().with_workers(1).run(Source::InMemory(projects)).unwrap();
        let mut failures: Vec<_> = pre.iter().cloned().map(ProjectFailure::from).collect();
        failures.extend(
            loaded.iter().filter_map(|r| r.as_ref().err().cloned().map(ProjectFailure::from)),
        );
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
        assert!(failures.iter().any(|f| f.project == ddl_name));
        assert!(failures.iter().any(|f| f.project == log_name));

        for workers in [1, 2, 4] {
            let runner = runner.clone().with_workers(workers);
            let uncapped = runner.run(Source::OnDisk(dir.clone())).expect("uncapped run");
            assert_eq!(uncapped.results, reference.results, "{how:?} uncapped w{workers}");
            assert_eq!(uncapped.projects, reference.projects, "{how:?} uncapped w{workers}");
            assert_eq!(uncapped.failures, failures, "{how:?} uncapped w{workers}");
            for cap in [1, 3, 5] {
                let capped = runner
                    .clone()
                    .with_max_resident(cap)
                    .run_streamed(Source::OnDisk(dir.clone()))
                    .expect("capped run");
                assert_eq!(capped.results, reference.results, "{how:?} cap {cap} w{workers}");
                assert_eq!(capped.failures, failures, "{how:?} cap {cap} w{workers}");
            }
        }

        // FailFast, batch by batch over the eager load: the first batch
        // holding a failure decides, its load failures first.
        for (cap, line) in [1, 3, 5, usize::MAX].into_iter().zip(fail_fast_lines) {
            let expected = loaded
                .chunks(cap)
                .enumerate()
                .find_map(|(i, batch)| {
                    let mut loads = if i == 0 { pre.clone() } else { Vec::new() };
                    loads.extend(batch.iter().filter_map(|r| r.as_ref().err().cloned()));
                    loads.first().cloned().or_else(|| {
                        let mut ok = batch.iter().filter_map(|r| r.as_ref().ok());
                        ok.find_map(|p| runner.run_project(p).err())
                    })
                })
                .expect("every case fails");
            assert!(expected.to_string().starts_with(line), "{how:?} cap {cap}: {expected}");
            for workers in [1, 2, 4] {
                let runner = runner
                    .clone()
                    .with_workers(workers)
                    .with_failure_policy(FailurePolicy::FailFast);
                let source = Source::OnDisk(dir.clone());
                let err = match cap {
                    usize::MAX => runner.run(source).map(|_| ()),
                    cap => runner.with_max_resident(cap).run_streamed(source).map(|_| ()),
                }
                .expect_err("fail-fast");
                assert_eq!(err, expected, "{how:?} cap {cap} w{workers}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
