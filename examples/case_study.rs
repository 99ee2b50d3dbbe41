//! The paper's §3.3 case study: `mapbox/osm-comments-parser`, reproduced as
//! a scripted history and measured through the full pipeline.
//!
//! ```sh
//! cargo run --example case_study
//! ```

use coevo_core::synchronicity::theta_synchronicity;
use coevo_corpus::case_study_project;
use coevo_engine::pipeline::project_from_artifacts;
use coevo_report::linechart::joint_progress_chart;
use coevo_taxa::TaxonomyConfig;
use coevo_vcs::monthly::repo_stats;

fn main() {
    let cs = case_study_project();
    let repo = coevo_vcs::parse_log(&cs.git_log).expect("parse git log");
    let stats = repo_stats(&repo, "db/schema.sql");

    println!("case study: {}", cs.name);
    println!("  commits:            {} (paper: 119)", stats.commits);
    println!("  file updates:       {} (paper: 259)", stats.file_updates);
    println!("  schema commits:     {} (paper: 13)", stats.path_commits);

    let data = project_from_artifacts(cs.into()).expect("pipeline");
    let jp = data.joint_progress();
    println!("  project period:     {} months (paper: 22)", jp.months());
    println!("  schema period:      {} months (paper: 20)", data.schema.months());
    println!("  schema change at start-up: {:.0}% (paper: 48%)", jp.schema[0] * 100.0);

    let m = data.measures(&TaxonomyConfig::default());
    println!(
        "  50% of schema change at {:.0}% of life (paper: 55%)",
        m.attainment.at_50.unwrap() * 100.0
    );
    println!(
        "  80% of schema change at {:.0}% of life (paper: 68%)",
        m.attainment.at_80.unwrap() * 100.0
    );
    println!(
        "  10%-synchronicity: {:.0}% of months (paper: 43%)",
        theta_synchronicity(&jp.project, &jp.schema, 0.10) * 100.0
    );

    println!("\njoint progress diagram (cf. paper Figure 1):\n");
    println!("{}", joint_progress_chart(&data, 16, 66));
}
