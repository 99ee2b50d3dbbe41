//! The batch study modes: `coevo study --from DIR --store DIR` (paper-rerun)
//! and `coevo study --shards DIR --max-resident 500 --renames` (stream-5k),
//! each replayed through the engine's per-project pipeline
//! (`coevo_engine::pipeline::process`) one project at a time.

use crate::section7::{study_results, FisherMemo};
use crate::{count, read, trace, Res};
use coevo_core::{ProjectData, ProjectMeasures, StudyResults};
use coevo_corpus::{CorpusStream, ProjectArtifacts, ShardEntry};
use coevo_ddl::fingerprint::Fnv1a;
use coevo_ddl::{Dialect, ParseCache};
use coevo_diff::{MatchPolicy, SchemaHistory, SchemaVersion};
use coevo_engine::allocs;
use coevo_heartbeat::DateTime;
use coevo_report::rename::{render_rename_profiles, RenameTaxonRow};
use coevo_report::{render_all_figures, research_question_answers};
use coevo_store::{InputDigest, Lookup, ResultStore};
use coevo_taxa::{Taxon, TaxonomyConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Parse a project's DDL versions through one parse cache, as the engine's
/// parse stage does.
fn parse_versions(p: &ProjectArtifacts) -> Res<Vec<SchemaVersion>> {
    let _s = trace::span("ddl.parse");
    let before = allocs::snapshot();
    let mut cache = ParseCache::new();
    let mut versions = Vec::with_capacity(p.ddl_versions.len());
    for (date, text) in &p.ddl_versions {
        let schema = cache.parse(text, p.dialect).map_err(|e| format!("{}: {e}", p.name))?;
        versions.push(SchemaVersion { date: *date, schema });
    }
    count("ddl.versions_parsed", cache.misses());
    count("ddl.cache_hits", cache.hits());
    count("ddl.allocs", allocs::snapshot().since(before).allocs);
    Ok(versions)
}

/// Git log, DDL versions, diff, heartbeats and measures of one project.
/// With `probe_by_name` the versions are also diffed by name under a
/// `probe.` span, which the reconciliation leaves out, so the cost of
/// rename scoring can be read off as the difference.
fn measure_project(
    p: &ProjectArtifacts,
    policy: MatchPolicy,
    probe_by_name: bool,
) -> Res<(ProjectData, ProjectMeasures)> {
    let fail = |what: &str| format!("{}: {what}", p.name);
    let repo = trace::timed("vcs.parse_log", || coevo_vcs::parse_log(&p.git_log))
        .map_err(|e| fail(&e.to_string()))?;
    let versions = parse_versions(p)?;
    if probe_by_name {
        let copy = trace::timed("probe.clone", || versions.clone());
        let _probe = trace::span("probe.diff_by_name");
        std::hint::black_box(SchemaHistory::from_schemas(copy, MatchPolicy::ByName));
    }
    let history =
        trace::timed("diff.history", || SchemaHistory::from_schemas(versions, policy))
            .ok_or_else(|| fail("no DDL versions"))?;
    let stats = history.diff_stats();
    count("diff.tables_diffed", stats.tables_diffed);
    count("diff.fingerprint_elided", stats.elided());
    count(
        "diff.renames_matched",
        history.deltas().iter().map(|d| d.breakdown.attrs_renamed).sum(),
    );
    let hb = trace::span("heartbeat");
    let project_hb =
        coevo_vcs::monthly::project_heartbeat(&repo).ok_or_else(|| fail("no commits"))?;
    let schema_hb = history.heartbeat();
    let birth = history.deltas().first().map_or(0, |d| d.breakdown.total());
    drop(hb);
    let _m = trace::span("core.measure");
    let mut data = ProjectData::new(&p.name, project_hb, schema_hb, birth);
    if let Some(t) = p.taxon {
        data = data.with_taxon(t);
    }
    let measures = data.measures(&TaxonomyConfig::default());
    Ok((data, measures))
}

fn render_study(projects: usize, results: &StudyResults) -> String {
    format!(
        "studying {projects} projects\n{}\n{}\n",
        render_all_figures(results),
        research_question_answers(results)
    )
}

/// A store entry's payload, as the engine's store stage writes it.
#[derive(Serialize, Deserialize)]
struct Stored {
    data: ProjectData,
    measures: ProjectMeasures,
}

/// The engine's store configuration hash (`store_config_hash` in
/// `coevo-engine`) for the default taxonomy. If the engine's recipe moves
/// on, every lookup here misses, and `run.py` reports the replay as out of
/// step with the engine.
fn store_config_hash(policy: MatchPolicy) -> u64 {
    let mut h = Fnv1a::new();
    h.tag(0xC5);
    h.write_str(
        &serde_json::to_string(&TaxonomyConfig::default()).expect("taxonomy config serializes"),
    );
    h.write_str(&policy.digest_tag());
    h.write_str(&format!("{:?}", [0.05f64, 0.10]));
    h.write_str(&format!("{:?}", coevo_core::ATTAINMENT_ALPHAS));
    h.write_u64(u64::from(coevo_store::FORMAT_VERSION));
    h.finish().0
}

fn load_project(dir: &Path) -> Res<ProjectArtifacts> {
    let manifest = coevo_corpus::loader::manifest_from_json(&read(&dir.join("manifest.json"))?)
        .map_err(|e| e.to_string())?;
    let dialect = Dialect::from_name(&manifest.dialect)
        .ok_or_else(|| format!("unknown dialect {:?}", manifest.dialect))?;
    let git_log = read(&dir.join("git.log"))?;
    let mut ddl_versions = Vec::with_capacity(manifest.versions.len());
    for v in &manifest.versions {
        let date = DateTime::parse(&v.date).map_err(|e| format!("{:?}: {e}", v.date))?;
        ddl_versions.push((date, read(&dir.join("versions").join(&v.file))?));
    }
    let taxon = manifest.taxon.as_deref().and_then(Taxon::parse);
    Ok(ProjectArtifacts { name: manifest.name, taxon, dialect, ddl_versions, git_log })
}

/// Every project directory under `dir`, ordered by manifest name as the
/// engine orders an on-disk corpus.
fn load_on_disk(dir: &Path) -> Res<Vec<ProjectArtifacts>> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("manifest.json").exists())
        .collect();
    dirs.sort();
    let mut projects = dirs.iter().map(|d| load_project(d)).collect::<Res<Vec<_>>>()?;
    projects.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(projects)
}

/// paper-rerun: store lookups, the pipeline for the misses, the study.
pub fn paper(corpus: &Path, store_dir: &Path) -> Res<String> {
    let _root = trace::span("replay.paper");
    let projects = trace::timed("corpus.load", || load_on_disk(corpus))?;
    let store = trace::timed("store.open", || ResultStore::open(store_dir))
        .map_err(|e| e.to_string())?;
    let config = store_config_hash(MatchPolicy::ByName);
    let mut measures = Vec::with_capacity(projects.len());
    for p in &projects {
        let get = trace::span("store.get");
        let history = coevo_corpus::digest::history_hash(
            &p.name,
            p.taxon.map(|t| t.slug()),
            p.dialect.name(),
            &p.ddl_versions,
        );
        let digest =
            InputDigest::new(history, coevo_corpus::digest::vcs_hash(&p.git_log), config);
        let lookup = store.get::<Stored>(&digest);
        drop(get);
        if let Lookup::Hit(stored) = lookup {
            count("store.hits", 1);
            measures.push(stored.measures);
            continue;
        }
        count("store.misses", 1);
        let (data, m) = measure_project(p, MatchPolicy::ByName, false)?;
        let _put = trace::span("store.put");
        store.put(&digest, &Stored { data, measures: m.clone() }).map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(store.entry_path(&digest)).map_or(0, |f| f.len());
        count("store.bytes_written", bytes);
        measures.push(m);
    }
    let n = measures.len();
    let results = study_results(measures, &mut FisherMemo::default());
    Ok(trace::timed("report.render", || render_study(n, &results)))
}

fn read_shard(
    corpus: &CorpusStream,
    dir: &Path,
    entry: &ShardEntry,
) -> Res<Vec<ProjectArtifacts>> {
    let _s = trace::span("corpus.shard_read");
    count(
        "corpus.shard_bytes",
        std::fs::metadata(dir.join(&entry.file)).map_or(0, |f| f.len()),
    );
    let reader = corpus.shard_reader(entry).map_err(|e| e.to_string())?;
    reader.map(|r| r.map_err(|e| e.to_string())).collect()
}

/// stream-5k: shard by shard through the pipeline, the study, then the
/// command line's rename walk.
pub fn stream(shards: &Path) -> Res<String> {
    let policy = MatchPolicy::rename_detection();
    let _root = trace::span("replay.stream");
    let corpus = CorpusStream::open(shards).map_err(|e| e.to_string())?;
    let mut entries = corpus.manifest().shards.clone();
    entries.sort_by_key(|e| e.start);
    let mut measures = Vec::with_capacity(corpus.len());
    for entry in &entries {
        for p in read_shard(&corpus, shards, entry)? {
            measures.push(measure_project(&p, policy, true)?.1);
        }
    }
    let n = measures.len();
    let results = study_results(measures, &mut FisherMemo::default());
    let mut text = trace::timed("report.render", || render_study(n, &results));
    text.push_str(&rename_walk(&corpus, shards, policy)?);
    Ok(text)
}

/// The command line's second corpus walk behind `--renames`
/// (`rename_profiles` in `coevo-cli`): every shard in manifest order, every
/// history parsed and diffed again under the rename policy and counted per
/// taxon.
fn rename_walk(corpus: &CorpusStream, dir: &Path, policy: MatchPolicy) -> Res<String> {
    let _walk = trace::span("cli.rename_walk");
    // steps, steps with renames, renames, activity
    let mut per_taxon: BTreeMap<Taxon, [u64; 4]> = BTreeMap::new();
    for entry in &corpus.manifest().shards {
        for p in read_shard(corpus, dir, entry)? {
            let taxon = p.taxon.ok_or_else(|| format!("{}: no taxon label", p.name))?;
            let versions = parse_versions(&p)?;
            let history = trace::timed("diff.walk_history", || {
                SchemaHistory::from_schemas(versions, policy)
            })
            .ok_or_else(|| format!("{}: no DDL versions", p.name))?;
            let c = per_taxon.entry(taxon).or_default();
            for d in history.deltas().iter().skip(1) {
                let renamed = d.breakdown.attrs_renamed;
                c[0] += 1;
                c[1] += u64::from(renamed > 0);
                c[2] += renamed;
                c[3] += d.breakdown.total();
            }
        }
    }
    let _render = trace::span("report.render");
    let row = |label: &str, c: &[u64; 4]| RenameTaxonRow {
        taxon: label.to_string(),
        steps: c[0],
        steps_with_renames: c[1],
        renames: c[2],
        activity: c[3],
        rename_rate: RenameTaxonRow::rate(c[2], c[3]),
    };
    let mut rows = Vec::new();
    let mut total = [0u64; 4];
    for taxon in Taxon::ALL {
        let Some(c) = per_taxon.get(&taxon) else { continue };
        for (t, v) in total.iter_mut().zip(c) {
            *t += v;
        }
        rows.push(row(taxon.name(), c));
    }
    rows.push(row("TOTAL", &total));
    let threshold = policy.rename_threshold().unwrap_or_default();
    Ok(format!(
        "per-taxon rename profile (threshold {threshold}):\n{}",
        render_rename_profiles(&rows)
    ))
}
