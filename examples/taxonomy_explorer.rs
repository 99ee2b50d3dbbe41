//! Taxonomy explorer: generate one exemplar project per taxon (the shape of
//! the paper's Figure 3), print its joint progress diagram, and check the
//! rule-based classifier against the generator's label.
//!
//! ```sh
//! cargo run --example taxonomy_explorer
//! ```

use coevo_corpus::{generate_corpus, CorpusSpec, ProjectArtifacts};
use coevo_engine::pipeline::project_from_artifacts;
use coevo_report::linechart::joint_progress_chart;
use coevo_taxa::{Taxon, TaxonomyConfig};

fn main() {
    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = 1;
        // Exemplars should show the taxon's character cleanly: no delayed
        // births, no single-month degenerates.
        t.schema_birth_delay_prob = 0.0;
        t.single_month_count = 0;
    }
    let corpus = generate_corpus(&spec);
    let cfg = TaxonomyConfig::default();

    for p in &corpus {
        let data =
            project_from_artifacts(ProjectArtifacts::from_generated(p)).expect("pipeline");
        let mut unlabeled = data.clone();
        unlabeled.taxon = None;
        let classified = unlabeled.effective_taxon(&cfg);
        let m = data.measures(&cfg);

        println!("=== {} ===", p.raw.taxon.name());
        println!("generated label: {} | classifier says: {}", p.raw.taxon, classified);
        println!(
            "schema activity: total={} (birth {}), active months={} of {}",
            data.schema.total(),
            data.birth_activity,
            data.schema.active_months(),
            data.schema.months()
        );
        println!(
            "10%-sync={:.2}  adv/time={:?}  att75={:?}",
            m.sync_10, m.advance.over_time, m.attainment.at_75
        );
        println!("{}", joint_progress_chart(&data, 12, 70));
    }

    // Sanity: the six taxa are all represented.
    assert_eq!(corpus.len(), Taxon::ALL.len());
}
