//! The real-data path: persist a project history to disk in the loader
//! layout (manifest + versions/ + git.log), load it back, and measure it.
//!
//! With a real clone you would produce the same layout via:
//!
//! ```sh
//! git log --name-status --no-merges --date=iso > git.log
//! # for each commit touching the schema file:
//! git show <sha>:db/schema.sql > versions/0001.sql
//! ```
//!
//! ```sh
//! cargo run --example real_data
//! ```

use coevo_corpus::loader::{load_project, save_project};
use coevo_corpus::{generate_corpus, CorpusSpec};
use coevo_engine::pipeline::project_from_artifacts;
use coevo_taxa::TaxonomyConfig;

fn main() {
    // Stand in for a real clone with one generated project.
    let mut spec = CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = if t.taxon == coevo_taxa::Taxon::Moderate { 1 } else { 0 };
    }
    let corpus = generate_corpus(&spec);
    let project = &corpus[0];

    let dir = std::env::temp_dir().join("coevo_real_data_example");
    let _ = std::fs::remove_dir_all(&dir);
    save_project(&dir, project).expect("save");
    println!("wrote project history to {}", dir.display());
    for entry in std::fs::read_dir(&dir).unwrap() {
        println!("  {}", entry.unwrap().path().display());
    }

    let data = project_from_artifacts(load_project(&dir).expect("load")).expect("pipeline");
    let m = data.measures(&TaxonomyConfig::default());
    println!("\nloaded & measured {}:", data.name);
    println!("  lifetime: {} months", m.months);
    println!("  schema total activity: {}", m.schema_total_activity);
    println!("  10%-synchronicity: {:.2}", m.sync_10);
    println!("  taxon: {}", m.taxon);

    let _ = std::fs::remove_dir_all(&dir);
}
