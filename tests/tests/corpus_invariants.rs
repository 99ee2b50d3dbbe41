//! Corpus-wide invariants: every generated project, pushed through the
//! study's pipeline, satisfies the structural properties the study relies on.

use coevo_corpus::ProjectArtifacts;
use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_engine::pipeline::project_from_artifacts;
use coevo_taxa::{Taxon, TaxonomyConfig};

fn corpus_data() -> Vec<(coevo_core::ProjectData, Taxon)> {
    let corpus = generate_corpus(&CorpusSpec::paper());
    corpus
        .into_iter()
        .map(|p| {
            let taxon = p.raw.taxon;
            (project_from_artifacts(p.into()).expect("pipeline"), taxon)
        })
        .collect()
}

#[test]
fn corpus_has_195_measurable_projects() {
    let data = corpus_data();
    assert_eq!(data.len(), 195);
    let names: std::collections::HashSet<&str> =
        data.iter().map(|(d, _)| d.name.as_str()).collect();
    assert_eq!(names.len(), 195, "project names must be unique");
}

#[test]
fn every_project_has_coherent_axes() {
    for (d, taxon) in corpus_data() {
        // The project exists from its first commit; schema never precedes it.
        assert!(d.project.start() <= d.schema.start(), "{}", d.name);
        // Non-degenerate activity on both sides.
        assert!(d.project.total() > 0, "{}", d.name);
        assert!(d.schema.total() > 0, "{}", d.name);
        // Birth activity is part of the schema's total.
        assert!(d.birth_activity <= d.schema.total(), "{}", d.name);
        // Frozen projects have exactly birth activity and nothing else.
        if taxon == Taxon::Frozen {
            assert_eq!(d.schema.total(), d.birth_activity, "{}", d.name);
        }
    }
}

#[test]
fn measures_are_well_formed_for_all_projects() {
    let cfg = TaxonomyConfig::default();
    for (d, _) in corpus_data() {
        let m = d.measures(&cfg);
        assert!((0.0..=1.0).contains(&m.sync_05), "{}", d.name);
        assert!((0.0..=1.0).contains(&m.sync_10), "{}", d.name);
        assert!(m.sync_05 <= m.sync_10 + 1e-12, "{}", d.name);
        for v in [m.advance.over_source, m.advance.over_time].into_iter().flatten() {
            assert!((0.0..=1.0).contains(&v), "{}", d.name);
        }
        // Attainment fractions are ordered and in [0, 1].
        let atts =
            [m.attainment.at_50, m.attainment.at_75, m.attainment.at_80, m.attainment.at_100];
        let mut prev = 0.0;
        for a in atts.into_iter().flatten() {
            assert!((0.0..=1.0).contains(&a), "{}", d.name);
            assert!(a >= prev - 1e-12, "{}: attainment must be monotone", d.name);
            prev = a;
        }
        // Every project attains 100% (all have activity).
        assert!(m.attainment.at_100.is_some(), "{}", d.name);
        // Always flags imply the fraction is exactly 1.
        if m.advance.always_over_source {
            assert_eq!(m.advance.over_source, Some(1.0), "{}", d.name);
        }
        if m.advance.always_over_time {
            assert_eq!(m.advance.over_time, Some(1.0), "{}", d.name);
        }
        assert_eq!(
            m.advance.always_over_both,
            m.advance.always_over_source && m.advance.always_over_time,
            "{}",
            d.name
        );
    }
}

#[test]
fn taxa_distribution_matches_spec() {
    let data = corpus_data();
    let count = |t: Taxon| data.iter().filter(|(_, x)| *x == t).count();
    assert_eq!(count(Taxon::Frozen), 27);
    assert_eq!(count(Taxon::AlmostFrozen), 58);
    assert_eq!(count(Taxon::FocusedShotAndFrozen), 31);
    assert_eq!(count(Taxon::Moderate), 45);
    assert_eq!(count(Taxon::FocusedShotAndLow), 18);
    assert_eq!(count(Taxon::Active), 16);
}

#[test]
fn ddl_activity_agrees_between_declared_and_diffed() {
    // The schema heartbeat total must equal the sum of per-version diff
    // activities recomputed directly with the diff engine.
    let corpus = generate_corpus(&CorpusSpec::paper());
    for p in corpus.iter().take(40) {
        let history = coevo_diff::SchemaHistory::from_ddl_texts(
            p.raw.ddl_versions.iter().map(|(d, s)| (*d, s.as_str())),
            p.raw.dialect,
        )
        .unwrap()
        .unwrap();
        let data = project_from_artifacts(ProjectArtifacts::from_generated(p)).unwrap();
        assert_eq!(history.total_activity(), data.schema.total(), "{}", p.raw.name);
        assert_eq!(history.heartbeat(), data.schema, "{}", p.raw.name);
    }
}

#[test]
fn classifier_recovers_generated_taxa_mostly() {
    // The rule-based classifier should agree with the generator's labels
    // for a clear majority — they encode the same archetypes.
    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = 8;
    }
    let cfg = TaxonomyConfig::default();
    let mut agree = 0;
    let mut total = 0;
    for p in generate_corpus(&spec) {
        let mut project = ProjectArtifacts::from(p);
        let label = project.taxon.take().expect("generated projects are labelled");
        let unlabeled = project_from_artifacts(project).unwrap();
        if unlabeled.effective_taxon(&cfg) == label {
            agree += 1;
        }
        total += 1;
    }
    assert!(agree * 3 >= total * 2, "classifier agreement too low: {agree}/{total}");
}
