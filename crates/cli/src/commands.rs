//! Subcommand implementations.

use crate::args::{usage, Args, CmdResult};
use coevo_corpus::loader::{load_project, save_corpus};
use coevo_corpus::{case_study_project, CorpusSpec};
use coevo_ddl::Schema;
use coevo_diff::{
    change_localization, delta_to_smos, diff_constraints, diff_schemas, net_growth,
    schema_size_series, MatchPolicy, RenameCounts, SchemaHistory,
};
use coevo_engine::pipeline::project_from_artifacts;
use coevo_engine::{RenameProfile, Source, StudyConfig, StudyRunner};
use coevo_oracle::CheckConfig;
use coevo_report::csv::{fig4_csv, fig6_csv, fig8_csv, measures_csv};
use coevo_report::linechart::joint_progress_chart;
use coevo_report::rename::{render_rename_profiles, RenameTaxonRow};
use coevo_report::render_all_figures;
use coevo_report::violations::{render_violations, ViolationRow};
use coevo_taxa::TaxonomyConfig;
use std::error::Error;
use std::io::Write;
use std::path::Path;

/// `coevo study`: the full corpus study — over the generated corpus, an
/// on-disk corpus directory (`--from`), or a sharded one (`--shards`).
/// Runs on the execution engine: projects that fail to load or parse are
/// reported as warnings and the study proceeds on the survivors. With
/// `--max-resident` the engine streams shard-sized batches, holding at
/// most that many projects in memory; the output is byte-identical to the
/// uncapped run. With `--renames` the diff stage pairs ejected/injected
/// columns through the scored matcher (at `--rename-threshold` when given)
/// and the per-taxon rename profile the same pass tallied is appended to
/// the report.
pub(crate) fn study(a: &Args, out: &mut dyn Write) -> CmdResult {
    a.exclusive("from", "shards")?;
    let seed = a.seed()?;
    let (max_resident, workers) = (a.num("max-resident")?, a.num("workers")?);
    let renames = a.switch("renames");
    let threshold: Option<f64> = a.num("rename-threshold")?;
    if let Some(t) = threshold {
        if !renames {
            return Err(usage("--rename-threshold requires --renames"));
        }
        if !(0.0..=1.0).contains(&t) {
            return Err(usage(format!("--rename-threshold must be in [0, 1], got {t}")));
        }
    }
    let source = match (a.path_flag("from"), a.path_flag("shards")) {
        (Some(dir), _) => Source::OnDisk(dir.to_path_buf()),
        (None, Some(dir)) => Source::Sharded(dir.to_path_buf()),
        (None, None) => Source::GeneratedCorpus(seed),
    };
    let policy = match (renames, threshold) {
        (false, _) => MatchPolicy::ByName,
        (true, None) => MatchPolicy::rename_detection(),
        (true, Some(t)) => MatchPolicy::rename_detection_with(t),
    };
    let mut runner = StudyRunner::new(StudyConfig::default()).with_match_policy(policy);
    if let Some(n) = workers {
        runner = runner.with_workers(n);
    }
    if let Some(dir) = a.path_flag("store") {
        runner = runner.with_store(dir);
    }
    // Streamed and uncapped runs are pinned byte-identical, so the choice
    // here only changes peak memory, never the output below.
    let (results, rename_profile, failures, metrics) = match max_resident {
        Some(n) => {
            let r = runner.with_max_resident(n).run_streamed(source)?;
            (r.results, r.renames, r.failures, r.metrics)
        }
        None => {
            let r = runner.run(source)?;
            (r.results, r.renames, r.failures, r.metrics)
        }
    };
    writeln!(out, "studying {} projects", results.measures.len() + failures.len())?;
    for failure in &failures {
        writeln!(out, "warning: skipped {failure}")?;
    }
    let results = &results;
    writeln!(out, "{}", render_all_figures(results))?;
    writeln!(out, "{}", coevo_report::research_question_answers(results))?;
    if renames {
        let threshold = policy.rename_threshold().unwrap_or_default();
        writeln!(out, "per-taxon rename profile (threshold {threshold}):")?;
        write!(out, "{}", render_rename_profiles(&rename_rows(&rename_profile)))?;
    }
    if let Some(dir) = a.path_flag("csv") {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("measures.csv"), measures_csv(results))?;
        std::fs::write(dir.join("fig4.csv"), fig4_csv(results))?;
        std::fs::write(dir.join("fig6.csv"), fig6_csv(results))?;
        std::fs::write(dir.join("fig8.csv"), fig8_csv(results))?;
        writeln!(out, "CSV files written to {}", dir.display())?;
    }
    if a.switch("profile") {
        writeln!(out, "{}", metrics.render())?;
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
/// fixed-size shard files — scaled to `--projects` total projects with the
/// paper's taxon mix. Projects are generated on every core and written in
/// corpus order, a bounded window at a time, so corpora far larger than
/// memory are fine and the bytes do not depend on the core count.
pub(crate) fn corpus_gen(a: &Args, out: &mut dyn Write) -> CmdResult {
    let projects = a.need("projects")?;
    let out_dir = a.path_flag("out").ok_or_else(|| a.missing("out"))?;
    let shard_size = a.num("shard-size")?.unwrap_or(1000);
    let mut spec = CorpusSpec::paper().with_total(projects);
    spec.seed = a.seed()?;
    if shard_size == 0 {
        return Err("--shard-size must be at least 1".into());
    }
    let manifest = coevo_corpus::generate_sharded(out_dir, &spec, shard_size)?;
    writeln!(
        out,
        "wrote {} projects in {} shard(s) (≤{} projects each) to {}",
        manifest.total_projects,
        manifest.shards.len(),
        manifest.shard_size,
        out_dir.display()
    )?;
    Ok(())
}

/// `coevo corpus info <dir>`: print a sharded corpus's manifest summary.
pub(crate) fn corpus_info(a: &Args, out: &mut dyn Write) -> CmdResult {
    let dir = a.path(0);
    let stream = coevo_corpus::CorpusStream::open(dir)?;
    let m = stream.manifest();
    writeln!(out, "sharded corpus at {}", dir.display())?;
    writeln!(out, "  format version: {}", m.format)?;
    writeln!(out, "  seed: {}", m.seed)?;
    writeln!(
        out,
        "  projects: {} in {} shard(s) (≤{} each)",
        m.total_projects,
        m.shards.len(),
        m.shard_size
    )?;
    for s in &m.shards {
        writeln!(
            out,
            "  {}: projects {}..{} (checksum {:016x})",
            s.file,
            s.start,
            s.start + s.projects,
            s.checksum
        )?;
    }
    Ok(())
}

/// `coevo serve`: run the incremental study daemon until a client sends
/// `shutdown`. The listening address is printed (and flushed) before the
/// accept loop starts, so wrappers can parse it — with `--addr 127.0.0.1:0`
/// the kernel-assigned port is the only way to find the daemon.
pub(crate) fn serve(a: &Args, out: &mut dyn Write) -> CmdResult {
    let store = a.path_flag("store");
    let config = coevo_serve::ServeConfig {
        addr: a.value("addr").unwrap_or(coevo_serve::DEFAULT_ADDR).to_string(),
        store_dir: store.map(Path::to_path_buf),
        taxonomy: TaxonomyConfig::default(),
    };
    let server = coevo_serve::Server::bind(&config)?;
    writeln!(out, "coevo serve listening on {}", server.local_addr())?;
    if let Some(dir) = store {
        writeln!(
            out,
            "snapshots under {} ({} project(s) restored)",
            dir.display(),
            server.restored_projects()
        )?;
    }
    out.flush()?;
    Ok(server.run()?)
}

/// `coevo store stats <dir>`: entry/byte/quarantine counts of a result
/// store.
pub(crate) fn store_stats(a: &Args, out: &mut dyn Write) -> CmdResult {
    let dir = a.path(0);
    let store = coevo_store::ResultStore::open(dir)?;
    let stats = store.stats()?;
    writeln!(out, "result store at {}", dir.display())?;
    writeln!(out, "  format version: {}", stats.format)?;
    writeln!(out, "  entries: {} ({} bytes)", stats.entries, stats.entry_bytes)?;
    writeln!(out, "  quarantined: {}", stats.quarantined)?;
    Ok(())
}

/// `coevo store verify <dir>`: validate every entry's header and checksum,
/// quarantining failures. Errors (exit code 1) when any entry failed, so CI
/// can gate on store health.
pub(crate) fn store_verify(a: &Args, out: &mut dyn Write) -> CmdResult {
    let dir = a.path(0);
    let store = coevo_store::ResultStore::open(dir)?;
    let report = store.verify()?;
    writeln!(out, "checked {} entries: {} ok", report.checked, report.ok)?;
    for name in &report.quarantined {
        writeln!(out, "  quarantined {name}")?;
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} corrupt or stale entr{} quarantined (they will be recomputed on the next run)",
            report.quarantined.len(),
            if report.quarantined.len() == 1 { "y" } else { "ies" },
        )
        .into())
    }
}

/// `coevo store gc <dir> --max-bytes N`: evict least-recently-used entries
/// beyond the byte budget.
pub(crate) fn store_gc(a: &Args, out: &mut dyn Write) -> CmdResult {
    let max_bytes = a.need("max-bytes")?;
    let store = coevo_store::ResultStore::open(a.path(0))?;
    let report = store.gc(max_bytes)?;
    writeln!(
        out,
        "kept {} entries ({} bytes), evicted {} ({} bytes reclaimed)",
        report.kept, report.kept_bytes, report.evicted, report.evicted_bytes
    )?;
    Ok(())
}

/// `coevo check`: the metamorphic/differential correctness harness over a
/// seeded generated corpus. Exits nonzero (via `Err`) when any check
/// fires; each violation is shrunk and serialized as a replayable
/// reproducer.
pub(crate) fn check(a: &Args, out: &mut dyn Write) -> CmdResult {
    a.exclusive("quick", "full")?;
    let seed = a.seed()?;
    let mut cfg =
        if a.switch("full") { CheckConfig::full(seed) } else { CheckConfig::quick(seed) };
    cfg.repro_dir = Some(match a.path_flag("repro") {
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
    )?;
    writeln!(
        out,
        "compat family: {} planted steps, {} BREAKING, false-alarm rate {:.2}",
        report.compat.steps,
        report.compat.breaking_steps,
        report.compat.false_alarm_rate(),
    )?;
    writeln!(
        out,
        "rename family: {} planted steps, {} planted renames, precision {:.2}, recall {:.2}",
        report.rename.steps,
        report.rename.planted,
        report.rename.precision(),
        report.rename.recall(),
    )?;
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
    write!(out, "{}", render_violations(&rows))?;
    if report.ok() {
        Ok(())
    } else {
        Err(format!("{} correctness violation(s)", report.violations.len()).into())
    }
}

/// `coevo measure <dir>`: one on-disk project through the full pipeline,
/// with the extension analyses (localization, growth).
pub(crate) fn measure(a: &Args, out: &mut dyn Write) -> CmdResult {
    let project = load_project(a.path(0))?;
    let data = project_from_artifacts(project.clone())?;
    let cfg = TaxonomyConfig::default();
    let m = data.measures(&cfg);

    writeln!(out, "project: {}", m.name)?;
    writeln!(out, "  lifetime: {} months ({} elapsed)", m.months, m.duration_months())?;
    writeln!(out, "  taxon: {}", m.taxon)?;
    writeln!(
        out,
        "  schema activity: {} total ({} at birth)",
        m.schema_total_activity, data.birth_activity
    )?;
    writeln!(out, "  project activity: {} file updates", m.project_total_activity)?;
    writeln!(out, "  5%-synchronicity:  {:.2}", m.sync_05)?;
    writeln!(out, "  10%-synchronicity: {:.2}", m.sync_10)?;
    writeln!(out, "  advance over source: {:?}", m.advance.over_source)?;
    writeln!(out, "  advance over time:   {:?}", m.advance.over_time)?;
    writeln!(
        out,
        "  attainment 50/75/80/100%: {:?} {:?} {:?} {:?}",
        m.attainment.at_50, m.attainment.at_75, m.attainment.at_80, m.attainment.at_100
    )?;
    writeln!(out, "\n{}", joint_progress_chart(&data, 14, 70))?;

    // The extension analyses walk the schema history itself.
    if let Some(history) = SchemaHistory::from_ddl_texts(
        project.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
        project.dialect,
    )? {
        let loc = change_localization(&history);
        writeln!(out, "change localization:")?;
        writeln!(
            out,
            "  tables seen {} | untouched {:.0}% | top-20% tables carry {:.0}% of change | gini {:.2}",
            loc.tables_seen,
            loc.untouched_fraction * 100.0,
            loc.top20_share * 100.0,
            loc.gini
        )?;
        let (dattrs, dtables) = net_growth(&history);
        let series = schema_size_series(&history);
        let xs: Vec<f64> = (0..series.len()).map(|i| i as f64).collect();
        let ys: Vec<f64> = series.iter().map(|p| p.attributes as f64).collect();
        write!(out, "growth: {dattrs:+} attributes, {dtables:+} tables")?;
        if let Some(fit) = coevo_stats::linear_fit(&xs, &ys) {
            writeln!(out, " ({:+.2} attributes/month, R² {:.2})", fit.slope, fit.r_squared)?;
        } else {
            writeln!(out)?;
        }
    }
    Ok(())
}

/// `coevo generate <dir>`: write a corpus in the loader layout, generating
/// and saving projects on every core (the files do not depend on the core
/// count).
pub(crate) fn generate(a: &Args, out: &mut dyn Write) -> CmdResult {
    let dir = a.path(0);
    let mut spec = CorpusSpec::paper();
    spec.seed = a.seed()?;
    if let Some(n) = a.num("per-taxon")? {
        spec = spec.with_per_taxon(n);
    }
    let written = save_corpus(dir, &spec)?;
    writeln!(out, "wrote {written} projects to {}", dir.display())?;
    Ok(())
}

/// `coevo case-study`: the paper's §3.3 project.
pub(crate) fn case_study(_: &Args, out: &mut dyn Write) -> CmdResult {
    let data = project_from_artifacts(case_study_project().into())?;
    let m = data.measures(&TaxonomyConfig::default());
    writeln!(out, "{} — the paper's §3.3 case study", data.name)?;
    writeln!(out, "  10%-synchronicity: {:.2}", m.sync_10)?;
    writeln!(out, "  attainment 50%: {:?}  80%: {:?}", m.attainment.at_50, m.attainment.at_80)?;
    writeln!(out, "\n{}", joint_progress_chart(&data, 16, 66))?;
    Ok(())
}

/// `coevo compat`: one schema change with two DDL positionals, a whole
/// corpus without them.
pub(crate) fn compat(a: &Args, out: &mut dyn Write) -> CmdResult {
    if a.positionals().is_empty() {
        compat_corpus(a, out)
    } else {
        compat_single(a, out)
    }
}

/// `coevo compat <OLD> <NEW>`: classify one schema change by compatibility
/// level. With `--src`, the migration-impact layer cross-checks a
/// BREAKING call against stored queries and source references and reports
/// a false-alarm verdict when nothing corroborates it.
fn compat_single(a: &Args, out: &mut dyn Write) -> CmdResult {
    if a.value("shards").is_some() {
        return Err(usage("--shards is corpus mode: drop the DDL files"));
    }
    let (old_schema, new_schema) = schema_pair(a)?;
    let delta = diff_schemas(&old_schema, &new_schema);
    let constraints = diff_constraints(&old_schema, &new_schema);

    let sources = a.path_flag("src").map(sources_under).transpose()?;
    let refs: Option<Vec<(&str, &str)>> =
        sources.as_ref().map(|s| s.iter().map(|(p, t)| (p.as_str(), t.as_str())).collect());
    let verdict = coevo_compat::verdict_for_step(
        &old_schema,
        &new_schema,
        &delta,
        &constraints,
        refs.as_deref(),
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
    Ok(write!(out, "{text}")?)
}

/// Corpus-mode `coevo compat`: per-taxon compatibility profiles with the
/// FROZEN-vs-ACTIVE breaking-rate contrast. Walks a sharded corpus
/// (`--shards`) or a generated one through the engine's worker pool
/// (`StudyRunner::for_each_batch`), so a corrupt shard record is skipped
/// with a warning exactly as `coevo study` skips it. Both paths aggregate
/// order-independent per-taxon counters, so their output is byte-identical
/// for the same corpus.
fn compat_corpus(a: &Args, out: &mut dyn Write) -> CmdResult {
    use std::collections::BTreeMap;

    a.exclusive("shards", "projects")?;
    let (seed, projects) = (a.seed()?, a.num("projects")?);
    let source = match a.path_flag("shards") {
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
    let profile = |p: &coevo_corpus::ProjectArtifacts| {
        let taxon = p.taxon.ok_or_else(|| format!("{}: no taxon label", p.name))?;
        let history = SchemaHistory::from_ddl_texts(
            p.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
            p.dialect,
        )
        .map_err(|e| format!("{}: {e}", p.name))?
        .ok_or_else(|| format!("{}: no DDL versions", p.name))?;
        Ok((taxon, coevo_compat::profile_history(&history)))
    };
    StudyRunner::new(StudyConfig::default()).for_each_batch(
        source,
        profile,
        |failures, profiles: Vec<Result<_, String>>| {
            skipped.extend(failures.iter().map(ToString::to_string));
            for r in profiles {
                match r {
                    Ok((taxon, p)) => {
                        per_taxon.entry(taxon).or_default().merge(&p);
                        measured += 1;
                    }
                    Err(reason) => skipped.push(reason),
                }
            }
        },
    )?;

    writeln!(out, "compatibility profiles over {measured} projects")?;
    for s in &skipped {
        writeln!(out, "warning: skipped {s}")?;
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
    Ok(write!(
        out,
        "{}",
        coevo_report::compat::render_compat_profiles(&rows, Some(&contrast_row))
    )?)
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
pub(crate) fn diff(a: &Args, out: &mut dyn Write) -> CmdResult {
    let (old_schema, new_schema) = schema_pair(a)?;
    let delta = diff_schemas(&old_schema, &new_schema);
    let b = delta.breakdown();
    writeln!(out, "Total Activity: {}", b.total())?;
    writeln!(
        out,
        "  born with table: {} | injected: {} | deleted with table: {} | ejected: {} | type changed: {} | key changed: {}",
        b.attrs_born_with_table,
        b.attrs_injected,
        b.attrs_deleted_with_table,
        b.attrs_ejected,
        b.attrs_type_changed,
        b.attrs_key_changed,
    )?;
    writeln!(
        out,
        "  tables created: {} | dropped: {}",
        delta.tables_created(),
        delta.tables_dropped()
    )?;
    let constraints = diff_constraints(&old_schema, &new_schema);
    if !constraints.is_empty() {
        writeln!(out, "constraint changes (informational, not counted as activity):")?;
        for c in &constraints.foreign_keys {
            match c {
                coevo_diff::ForeignKeyChange::Added { table, fk } => {
                    writeln!(out, "  + FK on {table} → {}", fk.foreign_table)?
                }
                coevo_diff::ForeignKeyChange::Removed { table, fk } => {
                    writeln!(out, "  - FK on {table} → {}", fk.foreign_table)?
                }
            }
        }
        for c in &constraints.indexes {
            match c {
                coevo_diff::IndexChange::Added { table, index } => {
                    writeln!(out, "  + index on {table} ({})", index.columns.join(", "))?
                }
                coevo_diff::IndexChange::Removed { table, index } => {
                    writeln!(out, "  - index on {table} ({})", index.columns.join(", "))?
                }
            }
        }
    }
    if a.switch("smo") {
        writeln!(out, "\nSMO script:")?;
        for s in delta_to_smos(&delta) {
            writeln!(out, "  {s};")?;
        }
    }
    Ok(())
}

/// `coevo impact`: scan a source tree for files at risk from a schema
/// change.
pub(crate) fn impact(a: &Args, out: &mut dyn Write) -> CmdResult {
    let (old_schema, new_schema) = schema_pair(a)?;
    let delta = diff_schemas(&old_schema, &new_schema);
    let sources = sources_under(a.path(2))?;
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
    )?;
    if report.files.is_empty() {
        writeln!(out, "no files reference the changed schema elements")?;
        return Ok(());
    }
    writeln!(out, "{} file(s) at risk (most breaking references first):", report.files.len())?;
    for f in &report.files {
        writeln!(out, "  {} ({} breaking)", f.path, f.breaking_references())?;
        for h in &f.hits {
            let lines: Vec<String> = h.lines.iter().map(|l| l.to_string()).collect();
            writeln!(
                out,
                "    {}{} ({:?}) at line(s) {}",
                h.identifier,
                if h.breaking { " [BREAKING]" } else { "" },
                h.kind,
                lines.join(", ")
            )?;
        }
    }
    Ok(())
}

/// `coevo check-queries`: find embedded SQL in a source tree and report the
/// queries a schema change breaks (valid before, invalid after).
pub(crate) fn check_queries(a: &Args, out: &mut dyn Write) -> CmdResult {
    let (old_schema, new_schema) = schema_pair(a)?;
    let mut total_embedded = 0usize;
    let mut total_broken = 0usize;
    for (path, text) in &sources_under(a.path(2))? {
        let embedded = coevo_query::extract_sql_strings(text);
        total_embedded += embedded.len();
        // One literal at a time, so each broken query keeps its own line
        // even when the same SQL appears twice.
        let broken: Vec<_> = embedded
            .iter()
            .flat_map(|e| {
                let sql = [e.sql.as_str()];
                let broken = coevo_query::breaking_queries(&old_schema, &new_schema, &sql);
                broken.into_iter().map(move |b| (e.line, b))
            })
            .collect();
        if broken.is_empty() {
            continue;
        }
        writeln!(out, "{path}:")?;
        total_broken += broken.len();
        for (line, b) in &broken {
            writeln!(out, "  line {line}: {}", b.sql.trim())?;
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
                )?;
            }
        }
    }
    writeln!(
        out,
        "{total_embedded} embedded quer{} scanned, {total_broken} broken by the change",
        if total_embedded == 1 { "y" } else { "ies" }
    )?;
    Ok(())
}

/// The two DDL positionals, both read before either is parsed under
/// `--dialect`.
fn schema_pair(a: &Args) -> Result<(Schema, Schema), Box<dyn Error>> {
    let dialect = a.dialect()?;
    let (old, new) = (read_text(a.path(0)), read_text(a.path(1)));
    let (old, new) = (old?, new?);
    Ok((coevo_ddl::parse_schema(&old, dialect)?, coevo_ddl::parse_schema(&new, dialect)?))
}

/// A file's text; the error names the file.
fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The UTF-8 files under `root`, as (path, text) sorted by path. The walk
/// skips VCS internals and build output, does not follow symbolic links
/// (a link to an ancestor would loop) and reads only regular files (a FIFO
/// would block, a device would never end); unreadable or binary files are
/// skipped silently.
fn sources_under(root: &Path) -> Result<Vec<(String, String)>, Box<dyn Error>> {
    let mut sources = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let entry = entry?;
            let kind = entry.file_type()?;
            let skip =
                matches!(entry.file_name().to_str(), Some(".git" | "target" | "node_modules"));
            if kind.is_dir() && !skip {
                dirs.push(entry.path());
            } else if kind.is_file() {
                if let Ok(text) = std::fs::read_to_string(entry.path()) {
                    sources.push((entry.path().display().to_string(), text));
                }
            }
        }
    }
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(sources)
}

/// `coevo parse`: validate and summarize one DDL file.
pub(crate) fn parse(a: &Args, out: &mut dyn Write) -> CmdResult {
    let (file, dialect) = (a.path(0), a.dialect()?);
    let schema = coevo_ddl::parse_schema(&read_text(file)?, dialect)?;
    writeln!(
        out,
        "{}: {} tables, {} attributes",
        file.display(),
        schema.tables.len(),
        schema.attribute_count()
    )?;
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
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coevo_ddl::Dialect;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("coevo_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn s(p: &Path) -> &str {
        p.to_str().expect("UTF-8 temp path")
    }

    /// `coevo argv…`: the exit code, stdout and stderr.
    fn coevo(argv: &[&str]) -> (i32, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = crate::run(argv, &mut out, &mut err);
        (code, String::from_utf8(out).unwrap(), String::from_utf8(err).unwrap())
    }

    /// `coevo argv…`, which must exit 0: its stdout.
    fn ok(argv: &[&str]) -> String {
        let (code, text, err) = coevo(argv);
        assert_eq!(code, 0, "coevo {argv:?}:\n{text}{err}");
        text
    }

    #[test]
    fn generate_then_measure_round_trip() {
        let dir = tmp("genmeasure");
        let text = ok(&["generate", s(&dir), "--seed", "11", "--per-taxon", "1"]);
        assert!(text.contains("wrote 6 projects"));
        // Measure the first project directory.
        let first = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let text = ok(&["measure", s(&first)]);
        assert!(text.contains("10%-synchronicity"), "{text}");
        assert!(text.contains("change localization"), "{text}");
        assert!(text.contains("growth:"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_into_an_unwritable_directory_exits_1_naming_the_file() {
        let dir = tmp("genunwritable");
        let file = dir.join("file");
        std::fs::write(&file, "").unwrap();
        let (code, text, err) =
            coevo(&["generate", s(&file.join("corpus")), "--per-taxon", "1"]);
        assert_eq!(code, 1);
        assert_eq!(err, "error: versions: Not a directory (os error 20)\n");
        assert!(!text.contains("error:"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_from_on_disk_corpus() {
        let dir = tmp("studyfrom");
        ok(&["generate", s(&dir), "--seed", "3", "--per-taxon", "1"]);
        let text = ok(&["study", "--from", s(&dir)]);
        assert!(text.contains("studying 6 projects"), "{text}");
        assert!(text.contains("Figure 4"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_from_names_the_file_a_project_failed_to_load() {
        let dir = tmp("studyfromload");
        ok(&["generate", s(&dir), "--seed", "3", "--per-taxon", "1"]);
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

        let text = ok(&["study", "--from", s(&dir)]);
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
    fn study_from_skips_a_git_log_line_that_splits_a_character() {
        // `é` is two bytes; the status-letter slice once split it and the
        // worker's panic took the whole study down.
        let dir = tmp("studyfromutf8");
        ok(&["generate", s(&dir), "--seed", "3", "--per-taxon", "1"]);
        let mut dirs: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        dirs.sort();
        let log = dirs[0].join("git.log");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("\u{e9}\tfoo\n");
        std::fs::write(&log, &text).unwrap();
        let line = text.lines().count();

        let out = ok(&["study", "--from", s(&dir)]);
        let warnings: Vec<&str> =
            out.lines().filter(|l| l.starts_with("warning: skipped")).collect();
        assert_eq!(warnings.len(), 1, "{out}");
        let expected = format!(
            ": parse stage: git log parse error at line {line}: \
             unrecognized line \"\u{e9}\\tfoo\""
        );
        assert!(warnings[0].ends_with(&expected), "{out}");
        assert!(out.contains("studying 6 projects"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn study_renames_prints_per_taxon_profile() {
        let dir = tmp("studyrenames");
        ok(&["generate", s(&dir), "--seed", "11", "--per-taxon", "1"]);
        let text = ok(&["study", "--from", s(&dir), "--renames", "--rename-threshold", "0.7"]);
        assert!(text.contains("per-taxon rename profile (threshold 0.7):"), "{text}");
        assert!(text.contains("rename-rate"), "{text}");
        assert!(text.contains("TOTAL"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `coevo study --renames` with the corpus flags `extra`.
    fn renames_study(extra: &[&str]) -> String {
        ok(&[&["study", "--renames"], extra].concat())
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
    fn active_project(corpus: &Path) -> (PathBuf, RenameCounts) {
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

    /// `coevo corpus gen` of the 12-project, 5-per-shard corpus at `out`.
    fn corpus_gen_12(out: &Path) {
        let gen = ["corpus", "gen", "--projects", "12", "--shard-size", "5", "--seed", "7"];
        ok(&[&gen[..], &["--out", s(out)]].concat());
    }

    #[test]
    fn renames_profile_the_survivors_of_a_corrupt_shard_record() {
        let dir = tmp("renamescorrupt");
        let corpus = dir.join("shards");
        corpus_gen_12(&corpus);
        let clean = renames_study(&["--shards", s(&corpus)]);

        // Record 0 of the first shard whose record 0 has evolution steps:
        // tally it, then corrupt its stored checksum (offset 16: magic 8 +
        // count 4 + record length 4 bytes precede it).
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

        let text = renames_study(&["--shards", s(&corpus)]);
        assert_eq!(skip_warnings(&text), 1, "{text}");
        assert!(text.contains("[record 0]"), "{text}");
        assert!(text.contains("per-taxon rename profile"), "{text}");
        assert_eq!(rename_total(&text), minus(rename_total(&clean), victim_counts));
        assert_eq!(renames_study(&["--shards", s(&corpus), "--max-resident", "2"]), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn renames_profile_the_survivors_of_an_unreadable_manifest() {
        let dir = tmp("renamesmanifest");
        ok(&["generate", s(&dir), "--seed", "11", "--per-taxon", "1"]);
        let clean = renames_study(&["--from", s(&dir)]);

        let (victim, victim_counts) = active_project(&dir);
        std::fs::write(victim.join("manifest.json"), "{ not json").unwrap();

        let text = renames_study(&["--from", s(&dir)]);
        assert_eq!(skip_warnings(&text), 1, "{text}");
        let name = victim.file_name().unwrap().to_string_lossy().into_owned();
        assert!(text.contains(&format!("warning: skipped {name}")), "{text}");
        assert_eq!(rename_total(&text), minus(rename_total(&clean), victim_counts));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unlabelled_project_is_profiled_under_its_classified_taxon() {
        let dir = tmp("renamesunlabelled");
        ok(&["generate", s(&dir), "--seed", "11", "--per-taxon", "1"]);
        let labelled = renames_study(&["--from", s(&dir)]);

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

        let text = renames_study(&["--from", s(&dir)]);
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
        ok(&["generate", s(&corpus), "--seed", "7", "--per-taxon", "1"]);
        let run = || renames_study(&["--from", s(&corpus), "--profile", "--store", s(&store)]);
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
        ok(&["generate", s(&dir), "--seed", "5", "--per-taxon", "1"]);
        let text = ok(&["study", "--from", s(&dir), "--workers", "2", "--profile"]);
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
        ok(&["generate", s(&corpus), "--seed", "7", "--per-taxon", "1"]);
        let run = || ok(&["study", "--from", s(&corpus), "--profile", "--store", s(&store)]);
        let cold_text = run();
        assert!(cold_text.contains("0/6 served"), "{cold_text}");
        assert!(cold_text.contains("6 miss"), "{cold_text}");
        let warm_text = run();
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
        let gen = ["corpus", "gen", "--projects", "12", "--shard-size", "5", "--seed", "7"];
        let text = ok(&[&gen[..], &["--out", s(&corpus)]].concat());
        assert!(text.contains("wrote 12 projects in 3 shard(s)"), "{text}");

        let info = ok(&["corpus", "info", s(&corpus)]);
        assert!(info.contains("projects: 12 in 3 shard(s)"), "{info}");
        assert!(info.contains("  format version: 2\n"), "{info}");
        assert!(info.contains("shard-00000"), "{info}");

        // Eager and streamed runs over the sharded corpus print identical
        // bytes (no --profile: stage timings are nondeterministic).
        let eager = ok(&["study", "--shards", s(&corpus)]);
        assert!(eager.contains("studying 12 projects"), "{eager}");
        let streamed = ok(&["study", "--shards", s(&corpus), "--max-resident", "5"]);
        assert_eq!(eager, streamed);

        // Generating into the same directory twice is fine (idempotent
        // layout), and gen with a bad shard size errors.
        let bad =
            ["corpus", "gen", "--projects", "0", "--shard-size", "0", "--out", s(&corpus)];
        assert_eq!(coevo(&bad).0, 1);
        assert_eq!(coevo(&["corpus", "info", s(&dir.join("nope"))]).0, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_gen_defaults_to_1000_per_shard_and_the_default_seed() {
        let dir = tmp("corpusgendefaults");
        let text = ok(&["corpus", "gen", "--projects", "3", "--out", s(&dir)]);
        assert!(
            text.contains("wrote 3 projects in 1 shard(s) (≤1000 projects each)"),
            "{text}"
        );
        let info = ok(&["corpus", "info", s(&dir)]);
        assert!(info.contains(&format!("  seed: {}\n", crate::args::DEFAULT_SEED)), "{info}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_subcommands_round_trip() {
        let dir = tmp("storecmds");
        let corpus = dir.join("corpus");
        let store_dir = dir.join("store");
        ok(&["generate", s(&corpus), "--seed", "9", "--per-taxon", "1"]);
        ok(&["study", "--from", s(&corpus), "--store", s(&store_dir)]);

        let stats_text = ok(&["store", "stats", s(&store_dir)]);
        assert!(stats_text.contains("entries: 6"), "{stats_text}");
        assert!(stats_text.contains("quarantined: 0"), "{stats_text}");

        let verify_text = ok(&["store", "verify", s(&store_dir)]);
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
        let (code, verify_text, err) = coevo(&["store", "verify", s(&store_dir)]);
        assert_eq!(code, 1, "{verify_text}");
        assert!(err.starts_with("error: 1 corrupt or stale entr"), "{err}");
        assert!(!verify_text.contains("error:"), "{verify_text}");
        assert!(verify_text.contains("checked 6 entries: 5 ok"), "{verify_text}");
        assert!(verify_text.contains("quarantined"), "{verify_text}");

        let gc_text = ok(&["store", "gc", s(&store_dir), "--max-bytes", "0"]);
        assert!(gc_text.contains("kept 0 entries"), "{gc_text}");
        assert!(gc_text.contains("evicted 5"), "{gc_text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_command() {
        let dir = tmp("diff");
        std::fs::write(dir.join("old.sql"), "CREATE TABLE t (a INT, b INT);").unwrap();
        std::fs::write(dir.join("new.sql"), "CREATE TABLE t (a BIGINT, c INT);").unwrap();
        let text = ok(&["diff", s(&dir.join("old.sql")), s(&dir.join("new.sql")), "--smo"]);
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
        let (old, new) = (dir.join("old.sql"), dir.join("new.sql"));
        let text = ok(&["diff", s(&old), s(&new), "--dialect", "mysql"]);
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
        let text = ok(&["parse", s(&dir.join("s.sql"))]);
        assert!(text.contains("1 tables, 2 attributes"), "{text}");
        assert!(text.contains("pk: id"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A change dropping `invoices.total_price`, with `src/` files `files`.
    fn dropped_column(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let dir = tmp(tag);
        std::fs::write(dir.join("old.sql"), "CREATE TABLE invoices (id INT, total_price INT);")
            .unwrap();
        std::fs::write(dir.join("new.sql"), "CREATE TABLE invoices (id INT);").unwrap();
        std::fs::create_dir_all(dir.join("src")).unwrap();
        for (name, text) in files {
            std::fs::write(dir.join("src").join(name), text).unwrap();
        }
        dir
    }

    /// `coevo <sub> old.sql new.sql src` over a [`dropped_column`] tree.
    fn scan(sub: &str, dir: &Path) -> String {
        let [old, new, src] = ["old.sql", "new.sql", "src"].map(|f| dir.join(f));
        ok(&[sub, s(&old), s(&new), s(&src)])
    }

    #[test]
    fn impact_command() {
        let dir = dropped_column(
            "impact",
            &[
                ("billing.js", "const total = row.total_price;\n"),
                ("other.js", "console.log('hi');\n"),
            ],
        );
        let text = scan("impact", &dir);
        assert!(text.contains("billing.js"), "{text}");
        assert!(text.contains("[BREAKING]"), "{text}");
        assert!(!text.contains("other.js"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_queries_command() {
        // The same broken literal twice: each report keeps its own line.
        let py = "q = 'SELECT total_price FROM invoices'\nok = 'SELECT id FROM invoices'\n\n\
                  again = 'SELECT total_price FROM invoices'\n";
        let dir = dropped_column("checkq", &[("billing.py", py)]);
        let text = scan("check-queries", &dir);
        assert!(text.contains("3 embedded queries scanned, 2 broken"), "{text}");
        assert!(text.contains("total_price"), "{text}");
        assert!(text.contains("line 1: SELECT total_price"), "{text}");
        assert!(text.contains("line 4: SELECT total_price"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The walk neither follows links (a loop back to an ancestor, a link
    /// to a device) nor opens special files (a FIFO would block forever).
    #[cfg(unix)]
    #[test]
    fn source_walk_skips_links_and_special_files() {
        let py = "q = 'SELECT total_price FROM invoices'\nok = 'SELECT id FROM invoices'\n";
        let dir = dropped_column("checkqlinks", &[("app.py", py)]);
        let src = dir.join("src");
        std::os::unix::fs::symlink("..", src.join("up")).unwrap();
        std::os::unix::fs::symlink("/dev/zero", src.join("zero.py")).unwrap();
        std::os::unix::fs::symlink(src.join("app.py"), src.join("copy.py")).unwrap();
        let fifo = src.join("pipe.py");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status().unwrap();
        assert!(made.success());
        let text = scan("check-queries", &dir);
        assert!(text.contains("2 embedded queries scanned, 1 broken"), "{text}");
        let text = scan("impact", &dir);
        assert!(text.contains("1 source files scanned"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compat_single_command_with_evidence() {
        let dir = dropped_column(
            "compat1",
            &[("billing.py", "q = 'SELECT total_price FROM invoices'\n")],
        );
        let [old, new, src] = ["old.sql", "new.sql", "src"].map(|f| dir.join(f));
        let text = ok(&["compat", s(&old), s(&new), "--src", s(&src)]);
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
        let [old, new, src] = ["old.sql", "new.sql", "src"].map(|f| dir.join(f));
        let text = ok(&["compat", s(&old), s(&new), "--src", s(&src)]);
        assert!(text.contains("type-narrowed"), "{text}");
        assert!(text.contains("possible false alarm"), "{text}");

        // Without --src there is no evidence and no verdict line.
        let text = ok(&["compat", s(&old), s(&new)]);
        assert!(text.contains("compatibility: BREAKING"), "{text}");
        assert!(!text.contains("evidence:"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compat_corpus_sharded_matches_in_memory_byte_for_byte() {
        let dir = tmp("compatcorpus");
        let corpus = dir.join("shards");
        corpus_gen_12(&corpus);

        let streamed = ok(&["compat", "--shards", s(&corpus)]);
        let in_memory = ok(&["compat", "--seed", "7", "--projects", "12"]);
        assert_eq!(
            streamed, in_memory,
            "sharded and in-memory corpus modes must print identical bytes"
        );

        assert!(streamed.contains("compatibility profiles over 12 projects"), "{streamed}");
        assert!(streamed.contains("BREAKING"), "{streamed}");
        assert!(streamed.contains("TOTAL"), "{streamed}");
        assert!(streamed.contains("FROZEN-side breaking-rate"), "{streamed}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compat_corpus_skips_a_corrupt_shard_record() {
        let dir = tmp("compatcorrupt");
        let corpus = dir.join("shards");
        corpus_gen_12(&corpus);
        // The first byte of record 0's stored checksum (after magic 8 +
        // count 4 + record length 4), as `study --shards` is checked
        // against above.
        let path = corpus.join("shards/shard-00000.csh");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16] = b'!';
        std::fs::write(&path, &bytes).unwrap();

        let text = ok(&["compat", "--shards", s(&corpus)]);
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
        assert!(ok(&["case-study"]).contains("osm-comments-parser"));
    }

    #[test]
    fn missing_file_errors() {
        for argv in [&["parse", "/nonexistent.sql"][..], &["measure", "/nonexistent_dir"]] {
            let (code, text, err) = coevo(argv);
            assert_eq!(code, 1, "{text}{err}");
            assert!(err.starts_with("error: "), "{err}");
            assert!(text.is_empty(), "{text}");
        }
    }
}
