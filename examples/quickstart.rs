//! Quickstart: measure the co-evolution of one project from raw artifacts.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The inputs are exactly what the paper's pipeline consumes for a real
//! repository: a `git log --name-status --no-merges --date=iso` dump and the
//! dated versions of the schema DDL file.

use coevo_core::synchronicity::theta_synchronicity;
use coevo_corpus::ProjectArtifacts;
use coevo_ddl::Dialect;
use coevo_engine::pipeline::project_from_artifacts;
use coevo_heartbeat::DateTime;
use coevo_taxa::TaxonomyConfig;

const GIT_LOG: &str = "\
commit 3333333333333333333333333333333333333333
Author: Dev <dev@example.org>
Date:   2019-09-14 09:30:00 +0000

    add reporting module

M\tsrc/report.py
M\tsrc/api.py

commit 2222222222222222222222222222222222222222
Author: Dev <dev@example.org>
Date:   2019-05-02 17:12:00 +0000

    track invoice totals in the schema

M\tdb/schema.sql
M\tsrc/api.py

commit 1111111111111111111111111111111111111111
Author: Dev <dev@example.org>
Date:   2019-01-10 11:00:00 +0000

    initial import

A\tdb/schema.sql
A\tsrc/api.py
A\tREADME.md
";

const SCHEMA_V1: &str = "
CREATE TABLE customers (
  id INT NOT NULL AUTO_INCREMENT,
  name VARCHAR(120) NOT NULL,
  email VARCHAR(255),
  PRIMARY KEY (id)
);
CREATE TABLE invoices (
  id INT NOT NULL AUTO_INCREMENT,
  customer_id INT NOT NULL,
  issued_at DATE,
  PRIMARY KEY (id),
  CONSTRAINT fk_cust FOREIGN KEY (customer_id) REFERENCES customers (id)
);
";

const SCHEMA_V2: &str = "
CREATE TABLE customers (
  id INT NOT NULL AUTO_INCREMENT,
  name VARCHAR(120) NOT NULL,
  email VARCHAR(255),
  PRIMARY KEY (id)
);
CREATE TABLE invoices (
  id INT NOT NULL AUTO_INCREMENT,
  customer_id INT NOT NULL,
  issued_at DATE,
  total DECIMAL(10,2) NOT NULL DEFAULT 0,
  currency CHAR(3) NOT NULL DEFAULT 'EUR',
  PRIMARY KEY (id),
  CONSTRAINT fk_cust FOREIGN KEY (customer_id) REFERENCES customers (id)
);
";

fn main() {
    let project = ProjectArtifacts {
        name: "acme/billing".to_string(),
        taxon: None,
        dialect: Dialect::MySql,
        ddl_versions: vec![
            (DateTime::parse("2019-01-10 11:00:00 +0000").unwrap(), SCHEMA_V1.to_string()),
            (DateTime::parse("2019-05-02 17:12:00 +0000").unwrap(), SCHEMA_V2.to_string()),
        ],
        git_log: GIT_LOG.to_string(),
    };

    let data = project_from_artifacts(project).expect("pipeline");

    println!("project: {}", data.name);
    println!("project heartbeat (files/month): {:?}", data.project.activity());
    println!("schema heartbeat (activity/month): {:?}", data.schema.activity());
    println!("birth activity (initial attributes): {}", data.birth_activity);

    let jp = data.joint_progress();
    println!("\ncumulative fractional progress:");
    println!("  month  time   project  schema");
    for i in 0..jp.months() {
        println!(
            "  {}  {:>5.2}  {:>7.2}  {:>6.2}",
            jp.month_at(i),
            jp.time[i],
            jp.project[i],
            jp.schema[i]
        );
    }

    let m = data.measures(&TaxonomyConfig::default());
    println!("\n10%-synchronicity: {:.2}", m.sync_10);
    println!("sanity: recomputed = {:.2}", theta_synchronicity(&jp.project, &jp.schema, 0.10));
    println!("advance over time: {:?}", m.advance.over_time);
    println!("advance over source: {:?}", m.advance.over_source);
    println!("75%-attainment fractional timepoint: {:?}", m.attainment.at_75);
    println!("taxon (classified): {}", m.taxon);
}
