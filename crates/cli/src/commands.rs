//! Subcommand implementations.

use coevo_corpus::loader::{load_project, save_project};
use coevo_corpus::{case_study_project, generate_corpus, CorpusSpec};
use coevo_ddl::Dialect;
use coevo_diff::{
    change_localization, delta_to_smos, diff_constraints, diff_schemas, net_growth,
    schema_size_series, MatchPolicy, RenameCounts, SchemaHistory,
};
use coevo_engine::pipeline::project_from_artifacts;
use coevo_engine::{Batches, RenameProfile, Source, StudyConfig, StudyRunner, DEFAULT_BATCH};
use coevo_oracle::CheckConfig;
use coevo_report::csv::{fig4_csv, fig6_csv, fig8_csv, measures_csv};
use coevo_report::linechart::joint_progress_chart;
use coevo_report::rename::{render_rename_profiles, RenameTaxonRow};
use coevo_report::render_all_figures;
use coevo_report::violations::{render_violations, ViolationRow};
use coevo_taxa::TaxonomyConfig;
use std::io::Write;
use std::path::Path;

type CmdResult = Result<(), String>;

fn io_err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// `coevo study`: the full corpus study — over the generated corpus, an
/// on-disk corpus directory (`from_dir`), or a sharded one (`shards_dir`).
/// Runs on the execution engine: projects that fail to load or parse are
/// reported as warnings and the study proceeds on the survivors. With
/// `max_resident` set the engine streams shard-sized batches, holding at
/// most that many projects in memory; the output is byte-identical to the
/// uncapped run. With `renames` the diff stage pairs ejected/injected
/// columns through the scored matcher (at `rename_threshold` when given)
/// and the per-taxon rename profile the same pass tallied is appended to
/// the report.
#[allow(clippy::too_many_arguments)]
pub fn study(
    seed: u64,
    csv_dir: Option<&Path>,
    from_dir: Option<&Path>,
    shards_dir: Option<&Path>,
    max_resident: Option<usize>,
    workers: Option<usize>,
    profile: bool,
    store: Option<&Path>,
    renames: bool,
    rename_threshold: Option<f64>,
    out: &mut dyn Write,
) -> CmdResult {
    let source = match (from_dir, shards_dir) {
        (Some(dir), _) => Source::OnDisk(dir.to_path_buf()),
        (None, Some(dir)) => Source::Sharded(dir.to_path_buf()),
        (None, None) => Source::GeneratedCorpus(seed),
    };
    let policy = match (renames, rename_threshold) {
        (false, _) => MatchPolicy::ByName,
        (true, None) => MatchPolicy::rename_detection(),
        (true, Some(t)) => MatchPolicy::rename_detection_with(t),
    };
    let mut runner = StudyRunner::new(StudyConfig::default()).with_match_policy(policy);
    if let Some(n) = workers {
        runner = runner.with_workers(n);
    }
    if let Some(dir) = store {
        runner = runner.with_store(dir);
    }
    // Streamed and uncapped runs are pinned byte-identical, so the choice
    // here only changes peak memory, never the output below.
    let (results, rename_profile, failures, metrics) = match max_resident {
        Some(n) => {
            let r = runner.with_max_resident(n).run_streamed(source).map_err(io_err)?;
            (r.results, r.renames, r.failures, r.metrics)
        }
        None => {
            let r = runner.run(source).map_err(io_err)?;
            (r.results, r.renames, r.failures, r.metrics)
        }
    };
    writeln!(out, "studying {} projects", results.measures.len() + failures.len())
        .map_err(io_err)?;
    for failure in &failures {
        writeln!(out, "warning: skipped {failure}").map_err(io_err)?;
    }
    let results = &results;
    writeln!(out, "{}", render_all_figures(results)).map_err(io_err)?;
    writeln!(out, "{}", coevo_report::research_question_answers(results)).map_err(io_err)?;
    if renames {
        let threshold = policy.rename_threshold().unwrap_or_default();
        writeln!(out, "per-taxon rename profile (threshold {threshold}):").map_err(io_err)?;
        write!(out, "{}", render_rename_profiles(&rename_rows(&rename_profile)))
            .map_err(io_err)?;
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        std::fs::write(dir.join("measures.csv"), measures_csv(results)).map_err(io_err)?;
        std::fs::write(dir.join("fig4.csv"), fig4_csv(results)).map_err(io_err)?;
        std::fs::write(dir.join("fig6.csv"), fig6_csv(results)).map_err(io_err)?;
        std::fs::write(dir.join("fig8.csv"), fig8_csv(results)).map_err(io_err)?;
        writeln!(out, "CSV files written to {}", dir.display()).map_err(io_err)?;
    }
    if profile {
        writeln!(out, "{}", metrics.render()).map_err(io_err)?;
    }
    Ok(())
}

/// One row per taxon with tallies, in taxon order, then the `TOTAL` row.
fn rename_rows(profile: &RenameProfile) -> Vec<RenameTaxonRow> {
    let row = |label: &str, c: &RenameCounts| RenameTaxonRow {
        taxon: label.to_string(),
        steps: c.steps,
        steps_with_renames: c.steps_with_renames,
        renames: c.renames,
        activity: c.activity,
        rename_rate: RenameTaxonRow::rate(c.renames, c.activity),
    };
    let mut total = RenameCounts::default();
    let mut rows = Vec::new();
    for (taxon, c) in profile {
        total.merge(c);
        rows.push(row(taxon.name(), c));
    }
    rows.push(row("TOTAL", &total));
    rows
}

/// `coevo corpus gen`: write a sharded corpus — versioned manifest plus
/// fixed-size shard files — scaled to `projects` total projects with the
/// paper's taxon mix. Generation streams one project at a time, so corpora
/// far larger than memory are fine.
pub fn corpus_gen(
    out_dir: &Path,
    projects: usize,
    shard_size: usize,
    seed: u64,
    out: &mut dyn Write,
) -> CmdResult {
    if shard_size == 0 {
        return Err("--shard-size must be at least 1".to_string());
    }
    let mut spec = CorpusSpec::paper().with_total(projects);
    spec.seed = seed;
    let manifest =
        coevo_corpus::generate_sharded(out_dir, &spec, shard_size).map_err(io_err)?;
    writeln!(
        out,
        "wrote {} projects in {} shard(s) (≤{} projects each) to {}",
        manifest.total_projects,
        manifest.shards.len(),
        manifest.shard_size,
        out_dir.display()
    )
    .map_err(io_err)?;
    Ok(())
}

/// `coevo corpus info <dir>`: print a sharded corpus's manifest summary.
pub fn corpus_info(dir: &Path, out: &mut dyn Write) -> CmdResult {
    let stream = coevo_corpus::CorpusStream::open(dir).map_err(io_err)?;
    let m = stream.manifest();
    writeln!(out, "sharded corpus at {}", dir.display()).map_err(io_err)?;
    writeln!(out, "  format version: {}", m.format).map_err(io_err)?;
    writeln!(out, "  seed: {}", m.seed).map_err(io_err)?;
    writeln!(
        out,
        "  projects: {} in {} shard(s) (≤{} each)",
        m.total_projects,
        m.shards.len(),
        m.shard_size
    )
    .map_err(io_err)?;
    for s in &m.shards {
        writeln!(
            out,
            "  {}: projects {}..{} (checksum {:016x})",
            s.file,
            s.start,
            s.start + s.projects,
            s.checksum
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// `coevo serve`: run the incremental study daemon until a client sends
/// `shutdown`. The listening address is printed (and flushed) before the
/// accept loop starts, so wrappers can parse it — with `--addr 127.0.0.1:0`
/// the kernel-assigned port is the only way to find the daemon.
pub fn serve(addr: Option<&str>, store: Option<&Path>, out: &mut dyn Write) -> CmdResult {
    let config = coevo_serve::ServeConfig {
        addr: addr.unwrap_or(coevo_serve::DEFAULT_ADDR).to_string(),
        store_dir: store.map(Path::to_path_buf),
        taxonomy: TaxonomyConfig::default(),
    };
    let server = coevo_serve::Server::bind(&config).map_err(io_err)?;
    writeln!(out, "coevo serve listening on {}", server.local_addr()).map_err(io_err)?;
    if let Some(dir) = store {
        writeln!(
            out,
            "snapshots under {} ({} project(s) restored)",
            dir.display(),
            server.restored_projects()
        )
        .map_err(io_err)?;
    }
    out.flush().map_err(io_err)?;
    server.run().map_err(io_err)
}

/// `coevo store stats <dir>`: entry/byte/quarantine counts of a result
/// store.
pub fn store_stats(dir: &Path, out: &mut dyn Write) -> CmdResult {
    let store = coevo_store::ResultStore::open(dir).map_err(io_err)?;
    let stats = store.stats().map_err(io_err)?;
    writeln!(out, "result store at {}", dir.display()).map_err(io_err)?;
    writeln!(out, "  format version: {}", stats.format).map_err(io_err)?;
    writeln!(out, "  entries: {} ({} bytes)", stats.entries, stats.entry_bytes)
        .map_err(io_err)?;
    writeln!(out, "  quarantined: {}", stats.quarantined).map_err(io_err)?;
    Ok(())
}

/// `coevo store verify <dir>`: validate every entry's header and checksum,
/// quarantining failures. Errors (exit code 1) when any entry failed, so CI
/// can gate on store health.
pub fn store_verify(dir: &Path, out: &mut dyn Write) -> CmdResult {
    let store = coevo_store::ResultStore::open(dir).map_err(io_err)?;
    let report = store.verify().map_err(io_err)?;
    writeln!(out, "checked {} entries: {} ok", report.checked, report.ok).map_err(io_err)?;
    for name in &report.quarantined {
        writeln!(out, "  quarantined {name}").map_err(io_err)?;
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} corrupt or stale entr{} quarantined (they will be recomputed on the next run)",
            report.quarantined.len(),
            if report.quarantined.len() == 1 { "y" } else { "ies" },
        ))
    }
}

/// `coevo store gc <dir> --max-bytes N`: evict least-recently-used entries
/// beyond the byte budget.
pub fn store_gc(dir: &Path, max_bytes: u64, out: &mut dyn Write) -> CmdResult {
    let store = coevo_store::ResultStore::open(dir).map_err(io_err)?;
    let report = store.gc(max_bytes).map_err(io_err)?;
    writeln!(
        out,
        "kept {} entries ({} bytes), evicted {} ({} bytes reclaimed)",
        report.kept, report.kept_bytes, report.evicted, report.evicted_bytes
    )
    .map_err(io_err)?;
    Ok(())
}

/// `coevo check`: the metamorphic/differential correctness harness over a
/// seeded generated corpus. Exits nonzero (via `Err`) when any check
/// fires; each violation is shrunk and serialized as a replayable
/// reproducer.
pub fn check(
    full: bool,
    seed: u64,
    repro_dir: Option<&Path>,
    out: &mut dyn Write,
) -> CmdResult {
    let mut cfg = if full { CheckConfig::full(seed) } else { CheckConfig::quick(seed) };
    cfg.repro_dir = Some(match repro_dir {
        Some(dir) => dir.to_path_buf(),
        None => std::env::temp_dir().join(format!("coevo-check-{seed:x}")),
    });
    let report = coevo_oracle::run_check(&cfg);
    writeln!(
        out,
        "checked {} projects × {} mutators × {} oracles (seed {seed}): \
         {} mutations applied, {} oracle runs, {} invariant sweeps",
        report.projects,
        report.mutators,
        report.oracles,
        report.mutation_runs,
        report.oracle_runs,
        report.invariant_checks,
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "compat family: {} planted steps, {} BREAKING, false-alarm rate {:.2}",
        report.compat.steps,
        report.compat.breaking_steps,
        report.compat.false_alarm_rate(),
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "rename family: {} planted steps, {} planted renames, precision {:.2}, recall {:.2}",
        report.rename.steps,
        report.rename.planted,
        report.rename.precision(),
        report.rename.recall(),
    )
    .map_err(io_err)?;
    let rows: Vec<ViolationRow> = report
        .violations
        .iter()
        .map(|v| ViolationRow {
            project: v.project.clone(),
            mutation: v.mutation_label(),
            oracle: v.check.clone(),
            detail: v.detail.clone(),
            repro: v.repro_path.as_ref().map(|p| p.display().to_string()),
        })
        .collect();
    write!(out, "{}", render_violations(&rows)).map_err(io_err)?;
    if report.ok() {
        Ok(())
    } else {
        Err(format!("{} correctness violation(s)", report.violations.len()))
    }
}

/// `coevo measure <dir>`: one on-disk project through the full pipeline,
/// with the extension analyses (localization, growth).
pub fn measure(dir: &Path, out: &mut dyn Write) -> CmdResult {
    let project = load_project(dir).map_err(io_err)?;
    let data = project_from_artifacts(project.clone()).map_err(io_err)?;
    let cfg = TaxonomyConfig::default();
    let m = data.measures(&cfg);

    writeln!(out, "project: {}", m.name).map_err(io_err)?;
    writeln!(out, "  lifetime: {} months ({} elapsed)", m.months, m.duration_months())
        .map_err(io_err)?;
    writeln!(out, "  taxon: {}", m.taxon).map_err(io_err)?;
    writeln!(
        out,
        "  schema activity: {} total ({} at birth)",
        m.schema_total_activity, data.birth_activity
    )
    .map_err(io_err)?;
    writeln!(out, "  project activity: {} file updates", m.project_total_activity)
        .map_err(io_err)?;
    writeln!(out, "  5%-synchronicity:  {:.2}", m.sync_05).map_err(io_err)?;
    writeln!(out, "  10%-synchronicity: {:.2}", m.sync_10).map_err(io_err)?;
    writeln!(out, "  advance over source: {:?}", m.advance.over_source).map_err(io_err)?;
    writeln!(out, "  advance over time:   {:?}", m.advance.over_time).map_err(io_err)?;
    writeln!(
        out,
        "  attainment 50/75/80/100%: {:?} {:?} {:?} {:?}",
        m.attainment.at_50, m.attainment.at_75, m.attainment.at_80, m.attainment.at_100
    )
    .map_err(io_err)?;
    writeln!(out, "\n{}", joint_progress_chart(&data, 14, 70)).map_err(io_err)?;

    // The extension analyses walk the schema history itself.
    if let Some(history) = SchemaHistory::from_ddl_texts(
        project.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
        project.dialect,
    )
    .map_err(io_err)?
    {
        let loc = change_localization(&history);
        writeln!(out, "change localization:").map_err(io_err)?;
        writeln!(
            out,
            "  tables seen {} | untouched {:.0}% | top-20% tables carry {:.0}% of change | gini {:.2}",
            loc.tables_seen,
            loc.untouched_fraction * 100.0,
            loc.top20_share * 100.0,
            loc.gini
        )
        .map_err(io_err)?;
        let (dattrs, dtables) = net_growth(&history);
        let series = schema_size_series(&history);
        let xs: Vec<f64> = (0..series.len()).map(|i| i as f64).collect();
        let ys: Vec<f64> = series.iter().map(|p| p.attributes as f64).collect();
        write!(out, "growth: {dattrs:+} attributes, {dtables:+} tables").map_err(io_err)?;
        if let Some(fit) = coevo_stats::linear_fit(&xs, &ys) {
            writeln!(out, " ({:+.2} attributes/month, R² {:.2})", fit.slope, fit.r_squared)
                .map_err(io_err)?;
        } else {
            writeln!(out).map_err(io_err)?;
        }
    }
    Ok(())
}

/// `coevo generate <dir>`: write a corpus in the loader layout.
pub fn generate(
    dir: &Path,
    seed: u64,
    per_taxon: Option<usize>,
    out: &mut dyn Write,
) -> CmdResult {
    let mut spec = CorpusSpec::paper();
    spec.seed = seed;
    if let Some(n) = per_taxon {
        for t in &mut spec.taxa {
            t.count = n;
            t.single_month_count = t.single_month_count.min(n);
        }
    }
    let corpus = generate_corpus(&spec);
    for p in &corpus {
        let pdir = dir.join(p.raw.name.replace('/', "__"));
        save_project(&pdir, p).map_err(io_err)?;
    }
    writeln!(out, "wrote {} projects to {}", corpus.len(), dir.display()).map_err(io_err)?;
    Ok(())
}

/// `coevo case-study`: the paper's §3.3 project.
pub fn case_study(out: &mut dyn Write) -> CmdResult {
    let data = project_from_artifacts(case_study_project().into()).map_err(io_err)?;
    let m = data.measures(&TaxonomyConfig::default());
    writeln!(out, "{} — the paper's §3.3 case study", data.name).map_err(io_err)?;
    writeln!(out, "  10%-synchronicity: {:.2}", m.sync_10).map_err(io_err)?;
    writeln!(out, "  attainment 50%: {:?}  80%: {:?}", m.attainment.at_50, m.attainment.at_80)
        .map_err(io_err)?;
    writeln!(out, "\n{}", joint_progress_chart(&data, 16, 66)).map_err(io_err)?;
    Ok(())
}

/// `coevo compat <OLD> <NEW>`: classify one schema change by compatibility
/// level. With `src_dir`, the migration-impact layer cross-checks a
/// BREAKING call against stored queries and source references and reports
/// a false-alarm verdict when nothing corroborates it.
pub fn compat_single(
    old: &Path,
    new: &Path,
    dialect: Dialect,
    src_dir: Option<&Path>,
    out: &mut dyn Write,
) -> CmdResult {
    let old_sql =
        std::fs::read_to_string(old).map_err(|e| format!("{}: {e}", old.display()))?;
    let new_sql =
        std::fs::read_to_string(new).map_err(|e| format!("{}: {e}", new.display()))?;
    let old_schema = coevo_ddl::parse_schema(&old_sql, dialect).map_err(io_err)?;
    let new_schema = coevo_ddl::parse_schema(&new_sql, dialect).map_err(io_err)?;
    let delta = diff_schemas(&old_schema, &new_schema);
    let constraints = diff_constraints(&old_schema, &new_schema);

    let mut sources: Vec<(String, String)> = Vec::new();
    if let Some(dir) = src_dir {
        collect_sources(dir, &mut sources)?;
        sources.sort_by(|a, b| a.0.cmp(&b.0));
    }
    let refs: Vec<(&str, &str)> =
        sources.iter().map(|(p, t)| (p.as_str(), t.as_str())).collect();
    let verdict = coevo_compat::verdict_for_step(
        &old_schema,
        &new_schema,
        &delta,
        &constraints,
        src_dir.map(|_| refs.as_slice()),
    );

    let rows: Vec<coevo_report::compat::StepRuleRow> = verdict
        .classification
        .hits
        .iter()
        .map(|h| coevo_report::compat::StepRuleRow {
            rule: h.rule.to_string(),
            level: h.level.to_string(),
            table: h.table.clone(),
            subject: h.subject.clone(),
        })
        .collect();
    let evidence = verdict.evidence.as_ref().map(|e| coevo_report::compat::EvidenceSummary {
        broken_queries: e.broken_queries.clone(),
        breaking_refs: e.breaking_refs,
        files: e.files,
        queries_scanned: e.queries_scanned,
        queries_demoted: e.queries_demoted,
    });
    let text = coevo_report::compat::render_step_report(
        verdict.level().as_str(),
        &rows,
        evidence.as_ref().map(|e| (e, verdict.false_alarm)),
    );
    write!(out, "{text}").map_err(io_err)
}

/// Corpus-mode `coevo compat`: per-taxon compatibility profiles with the
/// FROZEN-vs-ACTIVE breaking-rate contrast. Walks a sharded corpus one shard
/// at a time (`shards_dir`) or generates one batch by batch, through the
/// engine's batch planner, so a corrupt shard record is skipped with a
/// warning exactly as `coevo study` skips it. Both paths aggregate
/// order-independent per-taxon counters, so their output is byte-identical
/// for the same corpus.
pub fn compat_corpus(
    shards_dir: Option<&Path>,
    seed: u64,
    projects: Option<usize>,
    out: &mut dyn Write,
) -> CmdResult {
    use std::collections::BTreeMap;

    let source = match shards_dir {
        Some(dir) => Source::Sharded(dir.to_path_buf()),
        None => {
            let mut spec = match projects {
                Some(n) => CorpusSpec::paper().with_total(n),
                None => CorpusSpec::paper(),
            };
            spec.seed = seed;
            Source::Spec(spec)
        }
    };
    let mut per_taxon: BTreeMap<coevo_taxa::Taxon, coevo_compat::CompatProfile> =
        BTreeMap::new();
    let mut measured = 0usize;
    let mut skipped: Vec<String> = Vec::new();
    for batch in Batches::plan(source, DEFAULT_BATCH).map_err(io_err)? {
        skipped.extend(batch.failures.iter().map(ToString::to_string));
        for p in &batch.projects {
            let Some(taxon) = p.taxon else {
                skipped.push(format!("{}: no taxon label", p.name));
                continue;
            };
            let history = match SchemaHistory::from_ddl_texts(
                p.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
                p.dialect,
            ) {
                Ok(Some(h)) => h,
                Ok(None) => {
                    skipped.push(format!("{}: no DDL versions", p.name));
                    continue;
                }
                Err(e) => {
                    skipped.push(format!("{}: {e}", p.name));
                    continue;
                }
            };
            per_taxon.entry(taxon).or_default().merge(&coevo_compat::profile_history(&history));
            measured += 1;
        }
    }

    writeln!(out, "compatibility profiles over {measured} projects").map_err(io_err)?;
    for s in &skipped {
        writeln!(out, "warning: skipped {s}").map_err(io_err)?;
    }
    let mut total = coevo_compat::CompatProfile::default();
    let mut rows: Vec<coevo_report::compat::CompatTaxonRow> = Vec::new();
    for taxon in coevo_taxa::Taxon::ALL {
        let Some(profile) = per_taxon.get(&taxon) else { continue };
        total.merge(profile);
        rows.push(taxon_row(taxon.name(), profile));
    }
    rows.push(taxon_row("TOTAL", &total));
    let contrast = coevo_compat::frozen_active_contrast(
        &per_taxon,
        &mut coevo_core::StatsCache::default(),
    );
    let contrast_row = coevo_report::compat::ContrastRow {
        frozen: (contrast.frozen.0, contrast.frozen.0 + contrast.frozen.1),
        active: (contrast.active.0, contrast.active.0 + contrast.active.1),
        fisher_p: contrast.fisher_p,
    };
    write!(out, "{}", coevo_report::compat::render_compat_profiles(&rows, Some(&contrast_row)))
        .map_err(io_err)
}

fn taxon_row(
    label: &str,
    p: &coevo_compat::CompatProfile,
) -> coevo_report::compat::CompatTaxonRow {
    coevo_report::compat::CompatTaxonRow {
        taxon: label.to_string(),
        steps: p.steps as u64,
        none: p.none as u64,
        full: p.full as u64,
        backward: p.backward as u64,
        forward: p.forward as u64,
        breaking: p.breaking as u64,
        breaking_rate: p.breaking_rate(),
    }
}

/// `coevo diff`: diff two DDL files.
pub fn diff(
    old: &Path,
    new: &Path,
    dialect: Dialect,
    smo: bool,
    out: &mut dyn Write,
) -> CmdResult {
    let old_sql =
        std::fs::read_to_string(old).map_err(|e| format!("{}: {e}", old.display()))?;
    let new_sql =
        std::fs::read_to_string(new).map_err(|e| format!("{}: {e}", new.display()))?;
    let old_schema = coevo_ddl::parse_schema(&old_sql, dialect).map_err(io_err)?;
    let new_schema = coevo_ddl::parse_schema(&new_sql, dialect).map_err(io_err)?;
    let delta = diff_schemas(&old_schema, &new_schema);
    let b = delta.breakdown();
    writeln!(out, "Total Activity: {}", b.total()).map_err(io_err)?;
    writeln!(
        out,
        "  born with table: {} | injected: {} | deleted with table: {} | ejected: {} | type changed: {} | key changed: {}",
        b.attrs_born_with_table,
        b.attrs_injected,
        b.attrs_deleted_with_table,
        b.attrs_ejected,
        b.attrs_type_changed,
        b.attrs_key_changed,
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "  tables created: {} | dropped: {}",
        delta.tables_created(),
        delta.tables_dropped()
    )
    .map_err(io_err)?;
    let constraints = diff_constraints(&old_schema, &new_schema);
    if !constraints.is_empty() {
        writeln!(out, "constraint changes (informational, not counted as activity):")
            .map_err(io_err)?;
        for c in &constraints.foreign_keys {
            match c {
                coevo_diff::ForeignKeyChange::Added { table, fk } => {
                    writeln!(out, "  + FK on {table} → {}", fk.foreign_table).map_err(io_err)?
                }
                coevo_diff::ForeignKeyChange::Removed { table, fk } => {
                    writeln!(out, "  - FK on {table} → {}", fk.foreign_table).map_err(io_err)?
                }
            }
        }
        for c in &constraints.indexes {
            match c {
                coevo_diff::IndexChange::Added { table, index } => {
                    writeln!(out, "  + index on {table} ({})", index.columns.join(", "))
                        .map_err(io_err)?
                }
                coevo_diff::IndexChange::Removed { table, index } => {
                    writeln!(out, "  - index on {table} ({})", index.columns.join(", "))
                        .map_err(io_err)?
                }
            }
        }
    }
    if smo {
        writeln!(out, "\nSMO script:").map_err(io_err)?;
        for s in delta_to_smos(&delta) {
            writeln!(out, "  {s};").map_err(io_err)?;
        }
    }
    Ok(())
}

/// `coevo impact`: scan a source tree for files at risk from a schema
/// change.
pub fn impact(
    old: &Path,
    new: &Path,
    src_dir: &Path,
    dialect: Dialect,
    out: &mut dyn Write,
) -> CmdResult {
    let old_sql =
        std::fs::read_to_string(old).map_err(|e| format!("{}: {e}", old.display()))?;
    let new_sql =
        std::fs::read_to_string(new).map_err(|e| format!("{}: {e}", new.display()))?;
    let old_schema = coevo_ddl::parse_schema(&old_sql, dialect).map_err(io_err)?;
    let new_schema = coevo_ddl::parse_schema(&new_sql, dialect).map_err(io_err)?;
    let delta = diff_schemas(&old_schema, &new_schema);

    // Collect readable text files under the source tree.
    let mut sources: Vec<(String, String)> = Vec::new();
    collect_sources(src_dir, &mut sources)?;
    sources.sort_by(|a, b| a.0.cmp(&b.0));

    let analyzer =
        coevo_impact::ImpactAnalyzer::new(&old_schema, &coevo_impact::ScanConfig::default());
    let refs: Vec<(&str, &str)> =
        sources.iter().map(|(p, t)| (p.as_str(), t.as_str())).collect();
    let report = analyzer.impact_of(&delta, &refs);

    writeln!(
        out,
        "schema delta: {} activity units; {} source files scanned",
        delta.total_activity(),
        sources.len()
    )
    .map_err(io_err)?;
    if report.files.is_empty() {
        writeln!(out, "no files reference the changed schema elements").map_err(io_err)?;
        return Ok(());
    }
    writeln!(out, "{} file(s) at risk (most breaking references first):", report.files.len())
        .map_err(io_err)?;
    for f in &report.files {
        writeln!(out, "  {} ({} breaking)", f.path, f.breaking_references()).map_err(io_err)?;
        for h in &f.hits {
            let lines: Vec<String> = h.lines.iter().map(|l| l.to_string()).collect();
            writeln!(
                out,
                "    {}{} ({:?}) at line(s) {}",
                h.identifier,
                if h.breaking { " [BREAKING]" } else { "" },
                h.kind,
                lines.join(", ")
            )
            .map_err(io_err)?;
        }
    }
    Ok(())
}

/// `coevo check-queries`: find embedded SQL in a source tree and report the
/// queries a schema change breaks (valid before, invalid after).
pub fn check_queries(
    old: &Path,
    new: &Path,
    src_dir: &Path,
    dialect: Dialect,
    out: &mut dyn Write,
) -> CmdResult {
    let old_sql =
        std::fs::read_to_string(old).map_err(|e| format!("{}: {e}", old.display()))?;
    let new_sql =
        std::fs::read_to_string(new).map_err(|e| format!("{}: {e}", new.display()))?;
    let old_schema = coevo_ddl::parse_schema(&old_sql, dialect).map_err(io_err)?;
    let new_schema = coevo_ddl::parse_schema(&new_sql, dialect).map_err(io_err)?;

    let mut sources: Vec<(String, String)> = Vec::new();
    collect_sources(src_dir, &mut sources)?;
    sources.sort_by(|a, b| a.0.cmp(&b.0));

    let mut total_embedded = 0usize;
    let mut total_broken = 0usize;
    for (path, text) in &sources {
        let embedded = coevo_query::extract_sql_strings(text);
        if embedded.is_empty() {
            continue;
        }
        total_embedded += embedded.len();
        let sqls: Vec<&str> = embedded.iter().map(|e| e.sql.as_str()).collect();
        let broken = coevo_query::breaking_queries(&old_schema, &new_schema, &sqls);
        if broken.is_empty() {
            continue;
        }
        writeln!(out, "{path}:").map_err(io_err)?;
        for b in &broken {
            total_broken += 1;
            let line = embedded.iter().find(|e| e.sql == b.sql).map(|e| e.line).unwrap_or(0);
            writeln!(out, "  line {line}: {}", b.sql.trim()).map_err(io_err)?;
            for issue in &b.issues {
                writeln!(
                    out,
                    "    {:?} {}{}",
                    issue.kind,
                    issue.name,
                    if issue.context.is_empty() {
                        String::new()
                    } else {
                        format!(" (in {})", issue.context)
                    }
                )
                .map_err(io_err)?;
            }
        }
    }
    writeln!(
        out,
        "{total_embedded} embedded quer{} scanned, {total_broken} broken by the change",
        if total_embedded == 1 { "y" } else { "ies" }
    )
    .map_err(io_err)?;
    Ok(())
}

fn collect_sources(dir: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(io_err)?;
        let path = entry.path();
        if path.is_dir() {
            // Skip VCS internals and build output.
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name == ".git" || name == "target" || name == "node_modules" {
                continue;
            }
            collect_sources(&path, out)?;
        } else if let Ok(text) = std::fs::read_to_string(&path) {
            out.push((path.display().to_string(), text));
        }
        // Unreadable (binary) files are skipped silently.
    }
    Ok(())
}

/// `coevo parse`: validate and summarize one DDL file.
pub fn parse(file: &Path, dialect: Dialect, out: &mut dyn Write) -> CmdResult {
    let sql = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let schema = coevo_ddl::parse_schema(&sql, dialect).map_err(io_err)?;
    writeln!(
        out,
        "{}: {} tables, {} attributes",
        file.display(),
        schema.tables.len(),
        schema.attribute_count()
    )
    .map_err(io_err)?;
    for t in &schema.tables {
        writeln!(
            out,
            "  {} ({} columns{})",
            t.name,
            t.columns.len(),
            if t.primary_key().is_empty() {
                String::new()
            } else {
                format!(", pk: {}", t.primary_key().join("+"))
            }
        )
        .map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("coevo_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn generate_then_measure_round_trip() {
        let dir = tmp("genmeasure");
        let mut out = Vec::new();
        generate(&dir, 11, Some(1), &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("wrote 6 projects"));
        // Measure the first project directory.
        let first = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut out = Vec::new();
        measure(&first, &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("10%-synchronicity"), "{text}");
        assert!(text.contains("change localization"), "{text}");
        assert!(text.contains("growth:"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_from_on_disk_corpus() {
        let dir = tmp("studyfrom");
        let mut gen_out = Vec::new();
        generate(&dir, 3, Some(1), &mut gen_out).unwrap();
        let mut out = Vec::new();
        study(0, None, Some(&dir), None, None, None, false, None, false, None, &mut out)
            .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("studying 6 projects"), "{text}");
        assert!(text.contains("Figure 4"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_from_names_the_file_a_project_failed_to_load() {
        let dir = tmp("studyfromload");
        generate(&dir, 3, Some(1), &mut Vec::new()).unwrap();
        let mut dirs: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        dirs.sort();
        let name = |p: &Path| p.file_name().unwrap().to_string_lossy().into_owned();
        std::fs::remove_file(dirs[0].join("versions/0001.sql")).unwrap();
        let manifest = dirs[1].join("manifest.json");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let date = text.lines().find(|l| l.contains("\"date\"")).unwrap();
        let bad = format!("{}\"tomorrow\"", &date[..date.find(':').unwrap() + 2]);
        std::fs::write(&manifest, text.replacen(date, &bad, 1)).unwrap();

        let mut out = Vec::new();
        study(0, None, Some(&dir), None, None, None, false, None, false, None, &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let warnings: Vec<&str> =
            text.lines().filter(|l| l.starts_with("warning: skipped")).collect();
        let mut expected = [
            format!(
                "warning: skipped {}: load stage: versions/0001.sql: \
                 No such file or directory (os error 2)",
                name(&dirs[0])
            ),
            format!("warning: skipped {}: load stage: bad date \"tomorrow\"", name(&dirs[1])),
        ];
        expected.sort();
        assert_eq!(warnings, expected, "{text}");
        assert!(text.contains("studying 6 projects"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_renames_prints_per_taxon_profile() {
        let dir = tmp("studyrenames");
        let mut gen_out = Vec::new();
        generate(&dir, 11, Some(1), &mut gen_out).unwrap();
        let mut out = Vec::new();
        study(0, None, Some(&dir), None, None, None, false, None, true, Some(0.7), &mut out)
            .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("per-taxon rename profile (threshold 0.7):"), "{text}");
        assert!(text.contains("rename-rate"), "{text}");
        assert!(text.contains("TOTAL"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `coevo study --renames` over an on-disk or sharded corpus.
    fn renames_study(
        from_dir: Option<&Path>,
        shards_dir: Option<&Path>,
        max_resident: Option<usize>,
    ) -> String {
        let mut out = Vec::new();
        study(
            0,
            None,
            from_dir,
            shards_dir,
            max_resident,
            None,
            false,
            None,
            true,
            None,
            &mut out,
        )
        .expect("study --renames");
        String::from_utf8(out).unwrap()
    }

    /// The `TOTAL` row of a printed rename profile.
    fn rename_total(text: &str) -> RenameCounts {
        let line = text.lines().rev().find(|l| l.starts_with("TOTAL")).expect("TOTAL row");
        let v: Vec<u64> =
            line.split_whitespace().skip(1).take(4).map(|x| x.parse().unwrap()).collect();
        RenameCounts { steps: v[0], steps_with_renames: v[1], renames: v[2], activity: v[3] }
    }

    /// One project's rename tallies, computed straight from its DDL texts.
    fn rename_counts_of(
        versions: &[(coevo_heartbeat::DateTime, String)],
        dialect: Dialect,
    ) -> RenameCounts {
        let history = SchemaHistory::from_ddl_texts_with(
            versions.iter().map(|(d, s)| (*d, s.as_str())),
            dialect,
            MatchPolicy::rename_detection(),
        )
        .unwrap()
        .unwrap();
        RenameCounts::of_history(&history)
    }

    /// The ACTIVE project of a generated on-disk corpus and its tallies.
    fn active_project(corpus: &Path) -> (std::path::PathBuf, RenameCounts) {
        let dir = std::fs::read_dir(corpus)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_string_lossy().contains("__active-"))
            .expect("an ACTIVE project");
        let p = load_project(&dir).unwrap();
        let counts = rename_counts_of(&p.ddl_versions, p.dialect);
        assert!(counts.steps > 0, "the project must weigh on the profile");
        (dir, counts)
    }

    fn minus(a: RenameCounts, b: RenameCounts) -> RenameCounts {
        RenameCounts {
            steps: a.steps - b.steps,
            steps_with_renames: a.steps_with_renames - b.steps_with_renames,
            renames: a.renames - b.renames,
            activity: a.activity - b.activity,
        }
    }

    fn skip_warnings(text: &str) -> usize {
        text.lines().filter(|l| l.starts_with("warning: skipped")).count()
    }

    #[test]
    fn renames_profile_the_survivors_of_a_corrupt_shard_record() {
        let dir = tmp("renamescorrupt");
        let corpus = dir.join("shards");
        corpus_gen(&corpus, 12, 5, 7, &mut Vec::new()).unwrap();
        let clean = renames_study(None, Some(&corpus), None);

        // Record 0 of the first shard whose record 0 has evolution steps:
        // tally it, then corrupt its payload (magic 8 + count 4 + record
        // length 4 bytes precede it).
        let stream = coevo_corpus::CorpusStream::open(&corpus).unwrap();
        let (entry, victim_counts) = stream
            .manifest()
            .shards
            .iter()
            .find_map(|e| {
                let p = stream.shard_reader(e).unwrap().next().unwrap().unwrap();
                let counts = rename_counts_of(&p.ddl_versions, p.dialect);
                (counts.steps > 0).then(|| (e.clone(), counts))
            })
            .expect("a shard opening with an evolving project");
        let path = corpus.join(&entry.file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16] = b'!';
        std::fs::write(&path, &bytes).unwrap();

        let text = renames_study(None, Some(&corpus), None);
        assert_eq!(skip_warnings(&text), 1, "{text}");
        assert!(text.contains("[record 0]"), "{text}");
        assert!(text.contains("per-taxon rename profile"), "{text}");
        assert_eq!(rename_total(&text), minus(rename_total(&clean), victim_counts));
        assert_eq!(renames_study(None, Some(&corpus), Some(2)), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn renames_profile_the_survivors_of_an_unreadable_manifest() {
        let dir = tmp("renamesmanifest");
        generate(&dir, 11, Some(1), &mut Vec::new()).unwrap();
        let clean = renames_study(Some(&dir), None, None);

        let (victim, victim_counts) = active_project(&dir);
        std::fs::write(victim.join("manifest.json"), "{ not json").unwrap();

        let text = renames_study(Some(&dir), None, None);
        assert_eq!(skip_warnings(&text), 1, "{text}");
        let name = victim.file_name().unwrap().to_string_lossy().into_owned();
        assert!(text.contains(&format!("warning: skipped {name}")), "{text}");
        assert_eq!(rename_total(&text), minus(rename_total(&clean), victim_counts));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unlabelled_project_is_profiled_under_its_classified_taxon() {
        let dir = tmp("renamesunlabelled");
        generate(&dir, 11, Some(1), &mut Vec::new()).unwrap();
        let labelled = renames_study(Some(&dir), None, None);

        // Drop the taxon label: the study classifies the project itself,
        // and the rename profile counts it under that same taxon.
        let manifest = active_project(&dir).0.join("manifest.json");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let unlabelled: String = text
            .lines()
            .filter(|l| !l.contains("\"taxon\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(text, unlabelled);
        std::fs::write(&manifest, unlabelled).unwrap();

        let text = renames_study(Some(&dir), None, None);
        assert_eq!(skip_warnings(&text), 0, "{text}");
        assert!(text.contains("studying 6 projects"), "{text}");
        assert_eq!(rename_total(&text), rename_total(&labelled));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_backed_renames_rerun_is_served_and_identical() {
        let dir = tmp("renamesstore");
        let corpus = dir.join("corpus");
        let store = dir.join("store");
        generate(&corpus, 7, Some(1), &mut Vec::new()).unwrap();
        let run = || {
            let mut out = Vec::new();
            study(
                0,
                None,
                Some(&corpus),
                None,
                None,
                None,
                true,
                Some(&store),
                true,
                None,
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let (cold, warm) = (run(), run());
        assert!(cold.contains("0/6 served"), "{cold}");
        assert!(warm.contains("6/6 served"), "{warm}");
        let body = |t: &str| t.split("execution profile").next().unwrap().to_string();
        assert!(body(&warm).contains("per-taxon rename profile"), "{warm}");
        assert_eq!(body(&cold), body(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_profile_prints_stage_timing() {
        let dir = tmp("studyprofile");
        let mut gen_out = Vec::new();
        generate(&dir, 5, Some(1), &mut gen_out).unwrap();
        let mut out = Vec::new();
        study(0, None, Some(&dir), None, None, Some(2), true, None, false, None, &mut out)
            .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("execution profile"), "{text}");
        for stage in ["load", "parse", "diff", "heartbeat", "measure", "stats"] {
            assert!(text.contains(stage), "missing stage {stage}: {text}");
        }
        assert!(text.contains("2 workers"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_with_store_serves_rerun_from_store() {
        let dir = tmp("studystore");
        let corpus = dir.join("corpus");
        let store = dir.join("store");
        let mut gen_out = Vec::new();
        generate(&corpus, 7, Some(1), &mut gen_out).unwrap();
        let mut cold = Vec::new();
        study(
            0,
            None,
            Some(&corpus),
            None,
            None,
            None,
            true,
            Some(&store),
            false,
            None,
            &mut cold,
        )
        .unwrap();
        let cold_text = String::from_utf8_lossy(&cold);
        assert!(cold_text.contains("0/6 served"), "{cold_text}");
        assert!(cold_text.contains("6 miss"), "{cold_text}");
        let mut warm = Vec::new();
        study(
            0,
            None,
            Some(&corpus),
            None,
            None,
            None,
            true,
            Some(&store),
            false,
            None,
            &mut warm,
        )
        .unwrap();
        let warm_text = String::from_utf8_lossy(&warm);
        assert!(warm_text.contains("6/6 served"), "{warm_text}");
        assert!(warm_text.contains("6 hit"), "{warm_text}");
        // Everything up to the profile (figures, answers) is byte-identical.
        let cold_body = cold_text.split("execution profile").next().unwrap().to_string();
        let warm_body = warm_text.split("execution profile").next().unwrap().to_string();
        assert_eq!(cold_body, warm_body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_gen_info_and_streamed_study_round_trip() {
        let dir = tmp("corpusgen");
        let corpus = dir.join("shards");
        let mut out = Vec::new();
        corpus_gen(&corpus, 12, 5, 7, &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("wrote 12 projects in 3 shard(s)"), "{text}");

        let mut info_out = Vec::new();
        corpus_info(&corpus, &mut info_out).unwrap();
        let info = String::from_utf8_lossy(&info_out);
        assert!(info.contains("projects: 12 in 3 shard(s)"), "{info}");
        assert!(info.contains("shard-00000"), "{info}");

        // Eager and streamed runs over the sharded corpus print identical
        // bytes (no --profile: stage timings are nondeterministic).
        let mut eager = Vec::new();
        study(0, None, None, Some(&corpus), None, None, false, None, false, None, &mut eager)
            .unwrap();
        let eager_text = String::from_utf8_lossy(&eager);
        assert!(eager_text.contains("studying 12 projects"), "{eager_text}");
        let mut streamed = Vec::new();
        study(
            0,
            None,
            None,
            Some(&corpus),
            Some(5),
            None,
            false,
            None,
            false,
            None,
            &mut streamed,
        )
        .unwrap();
        assert_eq!(eager, streamed);

        // Generating into the same directory twice is fine (idempotent
        // layout), and gen with a bad shard size errors.
        assert!(corpus_gen(&corpus, 0, 0, 7, &mut Vec::new()).is_err());
        let mut info_out = Vec::new();
        assert!(corpus_info(&dir.join("nope"), &mut info_out).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_subcommands_round_trip() {
        let dir = tmp("storecmds");
        let corpus = dir.join("corpus");
        let store_dir = dir.join("store");
        let mut gen_out = Vec::new();
        generate(&corpus, 9, Some(1), &mut gen_out).unwrap();
        let mut out = Vec::new();
        study(
            0,
            None,
            Some(&corpus),
            None,
            None,
            None,
            false,
            Some(&store_dir),
            false,
            None,
            &mut out,
        )
        .unwrap();

        let mut stats_out = Vec::new();
        store_stats(&store_dir, &mut stats_out).unwrap();
        let stats_text = String::from_utf8_lossy(&stats_out);
        assert!(stats_text.contains("entries: 6"), "{stats_text}");
        assert!(stats_text.contains("quarantined: 0"), "{stats_text}");

        let mut verify_out = Vec::new();
        store_verify(&store_dir, &mut verify_out).unwrap();
        let verify_text = String::from_utf8_lossy(&verify_out);
        assert!(verify_text.contains("checked 6 entries: 6 ok"), "{verify_text}");

        // Corrupt one entry: verify reports it, quarantines it, and errors.
        let entry = std::fs::read_dir(store_dir.join("entries"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&entry).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&entry, &bytes).unwrap();
        let mut verify_out = Vec::new();
        let err = store_verify(&store_dir, &mut verify_out).unwrap_err();
        assert!(err.contains("1 corrupt or stale entry"), "{err}");
        let verify_text = String::from_utf8_lossy(&verify_out);
        assert!(verify_text.contains("checked 6 entries: 5 ok"), "{verify_text}");
        assert!(verify_text.contains("quarantined"), "{verify_text}");

        let mut gc_out = Vec::new();
        store_gc(&store_dir, 0, &mut gc_out).unwrap();
        let gc_text = String::from_utf8_lossy(&gc_out);
        assert!(gc_text.contains("kept 0 entries"), "{gc_text}");
        assert!(gc_text.contains("evicted 5"), "{gc_text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_command() {
        let dir = tmp("diff");
        std::fs::write(dir.join("old.sql"), "CREATE TABLE t (a INT, b INT);").unwrap();
        std::fs::write(dir.join("new.sql"), "CREATE TABLE t (a BIGINT, c INT);").unwrap();
        let mut out = Vec::new();
        diff(&dir.join("old.sql"), &dir.join("new.sql"), Dialect::Generic, true, &mut out)
            .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("Total Activity: 3"), "{text}");
        assert!(text.contains("SMO script:"), "{text}");
        assert!(text.contains("DROP COLUMN b"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_reports_constraint_changes() {
        let dir = tmp("diffc");
        std::fs::write(dir.join("old.sql"), "CREATE TABLE t (a INT, b INT, KEY k (a));")
            .unwrap();
        std::fs::write(dir.join("new.sql"), "CREATE TABLE t (a INT, b INT, KEY k (a, b));")
            .unwrap();
        let mut out = Vec::new();
        diff(&dir.join("old.sql"), &dir.join("new.sql"), Dialect::MySql, false, &mut out)
            .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("Total Activity: 0"), "{text}");
        assert!(text.contains("+ index on t (a, b)"), "{text}");
        assert!(text.contains("- index on t (a)"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_command() {
        let dir = tmp("parse");
        std::fs::write(
            dir.join("s.sql"),
            "CREATE TABLE users (id INT PRIMARY KEY, email TEXT);",
        )
        .unwrap();
        let mut out = Vec::new();
        parse(&dir.join("s.sql"), Dialect::Generic, &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("1 tables, 2 attributes"), "{text}");
        assert!(text.contains("pk: id"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn impact_command() {
        let dir = tmp("impact");
        std::fs::write(dir.join("old.sql"), "CREATE TABLE invoices (id INT, total_price INT);")
            .unwrap();
        std::fs::write(dir.join("new.sql"), "CREATE TABLE invoices (id INT);").unwrap();
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/billing.js"), "const total = row.total_price;\n").unwrap();
        std::fs::write(dir.join("src/other.js"), "console.log('hi');\n").unwrap();
        let mut out = Vec::new();
        impact(
            &dir.join("old.sql"),
            &dir.join("new.sql"),
            &dir.join("src"),
            Dialect::Generic,
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("billing.js"), "{text}");
        assert!(text.contains("[BREAKING]"), "{text}");
        assert!(!text.contains("other.js"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_queries_command() {
        let dir = tmp("checkq");
        std::fs::write(dir.join("old.sql"), "CREATE TABLE invoices (id INT, total_price INT);")
            .unwrap();
        std::fs::write(dir.join("new.sql"), "CREATE TABLE invoices (id INT);").unwrap();
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(
            dir.join("src/billing.py"),
            "q = 'SELECT total_price FROM invoices'\nok = 'SELECT id FROM invoices'\n",
        )
        .unwrap();
        let mut out = Vec::new();
        check_queries(
            &dir.join("old.sql"),
            &dir.join("new.sql"),
            &dir.join("src"),
            Dialect::Generic,
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("2 embedded queries scanned, 1 broken"), "{text}");
        assert!(text.contains("total_price"), "{text}");
        assert!(text.contains("line 1"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compat_single_command_with_evidence() {
        let dir = tmp("compat1");
        std::fs::write(dir.join("old.sql"), "CREATE TABLE invoices (id INT, total_price INT);")
            .unwrap();
        std::fs::write(dir.join("new.sql"), "CREATE TABLE invoices (id INT);").unwrap();
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/billing.py"), "q = 'SELECT total_price FROM invoices'\n")
            .unwrap();
        let mut out = Vec::new();
        compat_single(
            &dir.join("old.sql"),
            &dir.join("new.sql"),
            Dialect::Generic,
            Some(&dir.join("src")),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("compatibility: BREAKING"), "{text}");
        assert!(text.contains("attr-ejected"), "{text}");
        assert!(text.contains("breaks: SELECT total_price FROM invoices"), "{text}");
        assert!(!text.contains("false alarm"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compat_single_command_flags_false_alarms() {
        let dir = tmp("compat2");
        // Narrowing with nothing referencing the column: BREAKING by rule,
        // but nothing corroborates — the verdict must say so.
        std::fs::write(dir.join("old.sql"), "CREATE TABLE t (a BIGINT);").unwrap();
        std::fs::write(dir.join("new.sql"), "CREATE TABLE t (a INT);").unwrap();
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/app.js"), "console.log('unrelated');\n").unwrap();
        let mut out = Vec::new();
        compat_single(
            &dir.join("old.sql"),
            &dir.join("new.sql"),
            Dialect::Generic,
            Some(&dir.join("src")),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("type-narrowed"), "{text}");
        assert!(text.contains("possible false alarm"), "{text}");

        // Without --src there is no evidence and no verdict line.
        let mut out = Vec::new();
        compat_single(
            &dir.join("old.sql"),
            &dir.join("new.sql"),
            Dialect::Generic,
            None,
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("compatibility: BREAKING"), "{text}");
        assert!(!text.contains("evidence:"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compat_corpus_sharded_matches_in_memory_byte_for_byte() {
        let dir = tmp("compatcorpus");
        let corpus = dir.join("shards");
        corpus_gen(&corpus, 12, 5, 7, &mut Vec::new()).unwrap();

        let mut streamed = Vec::new();
        compat_corpus(Some(&corpus), 0, None, &mut streamed).unwrap();
        let mut in_memory = Vec::new();
        compat_corpus(None, 7, Some(12), &mut in_memory).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&streamed),
            String::from_utf8_lossy(&in_memory),
            "sharded and in-memory corpus modes must print identical bytes"
        );

        let text = String::from_utf8_lossy(&streamed);
        assert!(text.contains("compatibility profiles over 12 projects"), "{text}");
        assert!(text.contains("BREAKING"), "{text}");
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.contains("FROZEN-side breaking-rate"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compat_corpus_skips_a_corrupt_shard_record() {
        let dir = tmp("compatcorrupt");
        let corpus = dir.join("shards");
        corpus_gen(&corpus, 12, 5, 7, &mut Vec::new()).unwrap();
        // The first payload byte of record 0 (after magic 8 + count 4 +
        // record length 4), as `study --shards` is checked against above.
        let path = corpus.join("shards/shard-00000.csh");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16] = b'!';
        std::fs::write(&path, &bytes).unwrap();

        let mut out = Vec::new();
        compat_corpus(Some(&corpus), 0, None, &mut out).expect("a corrupt record is skipped");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(skip_warnings(&text), 1, "{text}");
        assert!(
            text.contains("warning: skipped shards/shard-00000.csh[record 0]: load stage: "),
            "{text}"
        );
        assert!(text.contains("compatibility profiles over 11 projects"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn case_study_command() {
        let mut out = Vec::new();
        case_study(&mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("osm-comments-parser"));
    }

    #[test]
    fn missing_file_errors() {
        let mut out = Vec::new();
        assert!(parse(Path::new("/nonexistent.sql"), Dialect::Generic, &mut out).is_err());
        assert!(measure(Path::new("/nonexistent_dir"), &mut out).is_err());
    }
}
