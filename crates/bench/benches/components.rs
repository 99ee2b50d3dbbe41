//! Component micro-benchmarks: the substrates the study is built on.

use coevo_ddl::{parse_schema, print_schema, Dialect};
use coevo_diff::diff_schemas;
use coevo_heartbeat::{cumulative_fraction, Date, Heartbeat};
use coevo_stats::{
    fisher_certificate_log10, fisher_exact_rx2, fisher_rx2_monte_carlo,
    fisher_rx2_monte_carlo_shared, kendall_tau_b, kruskal_wallis, shapiro_wilk,
    shapiro_wilk_with, ShapiroWeights,
};
use coevo_vcs::{parse_log, write_log, Commit, FileChange, Repository};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A realistic mid-sized MySQL schema (40 tables × 12 columns).
fn big_schema_sql() -> String {
    let mut out = String::new();
    for t in 0..40 {
        out.push_str(&format!("CREATE TABLE `table_{t}` (\n"));
        out.push_str("  `id` int(11) NOT NULL AUTO_INCREMENT,\n");
        for ci in 0..10 {
            out.push_str(&format!(
                "  `col_{ci}` varchar(255) DEFAULT NULL COMMENT 'field {ci}',\n"
            ));
        }
        out.push_str("  `created_at` timestamp NOT NULL DEFAULT CURRENT_TIMESTAMP,\n");
        out.push_str("  PRIMARY KEY (`id`),\n");
        out.push_str(&format!("  KEY `idx_{t}` (`col_0`, `col_1`)\n"));
        out.push_str(") ENGINE=InnoDB DEFAULT CHARSET=utf8;\n\n");
    }
    out
}

fn ddl_parse(c: &mut Criterion) {
    let sql = big_schema_sql();
    println!("[components] DDL input: {} bytes, 40 tables", sql.len());
    c.bench_function("ddl_parse_40_tables", |b| {
        b.iter(|| black_box(parse_schema(black_box(&sql), Dialect::MySql).unwrap()))
    });
}

fn ddl_print(c: &mut Criterion) {
    let schema = parse_schema(&big_schema_sql(), Dialect::MySql).unwrap();
    c.bench_function("ddl_print_40_tables", |b| {
        b.iter(|| black_box(print_schema(black_box(&schema), Dialect::MySql)))
    });
}

fn schema_diff(c: &mut Criterion) {
    let old = parse_schema(&big_schema_sql(), Dialect::MySql).unwrap();
    // Mutate: one table dropped, one column per table retyped, each table
    // a copy of the shared one.
    let mut new = old.clone();
    new.tables.remove(0);
    for t in new.tables.iter_mut().map(std::sync::Arc::make_mut) {
        t.columns[1].sql_type = coevo_ddl::SqlType::simple("TEXT");
    }
    c.bench_function("schema_diff_40_tables", |b| {
        b.iter(|| black_box(diff_schemas(black_box(&old), black_box(&new))))
    });
}

fn gitlog_roundtrip(c: &mut Criterion) {
    let mut repo = Repository::new("bench/repo");
    for i in 0..500u32 {
        let date = coevo_heartbeat::DateTime::new(
            Date::from_days_from_epoch(15_000 + i as i64),
            12,
            0,
            0,
        )
        .unwrap();
        repo.push_commit(
            Commit::builder("Dev <dev@x.io>", date)
                .message(format!("commit {i}"))
                .change(FileChange::modified(format!("src/file_{}.js", i % 37)))
                .change(FileChange::modified("db/schema.sql"))
                .build(),
        );
    }
    let log = write_log(&repo);
    println!("[components] git log: {} commits, {} bytes", repo.commits.len(), log.len());
    c.bench_function("gitlog_parse_500_commits", |b| {
        b.iter(|| black_box(parse_log(black_box(&log)).unwrap()))
    });
    c.bench_function("gitlog_write_500_commits", |b| {
        b.iter(|| black_box(write_log(black_box(&repo))))
    });
}

fn heartbeat_build(c: &mut Criterion) {
    let events: Vec<(Date, u64)> = (0..2_000)
        .map(|i| (Date::from_days_from_epoch(14_000 + (i * 3) as i64), (i % 7) as u64))
        .collect();
    c.bench_function("heartbeat_from_2000_events", |b| {
        b.iter(|| black_box(Heartbeat::from_events(black_box(events.iter().copied()))))
    });
    let activity: Vec<u64> = (0..240).map(|i| (i * 13 % 17) as u64).collect();
    c.bench_function("cumulative_fraction_240_months", |b| {
        b.iter(|| black_box(cumulative_fraction(black_box(&activity))))
    });
}

fn stats_suite(c: &mut Criterion) {
    let x: Vec<f64> = (0..195).map(|i| ((i * 7919) % 1000) as f64 / 1000.0).collect();
    let y: Vec<f64> = (0..195).map(|i| ((i * 6007) % 1000) as f64 / 1000.0).collect();
    c.bench_function("kendall_tau_n195", |b| {
        b.iter(|| black_box(kendall_tau_b(black_box(&x), black_box(&y))))
    });
    c.bench_function("shapiro_wilk_n195", |b| {
        b.iter(|| black_box(shapiro_wilk(black_box(&x))))
    });
    let weights = ShapiroWeights::new(x.len()).unwrap();
    c.bench_function("shapiro_n195_cached", |b| {
        b.iter(|| black_box(shapiro_wilk_with(black_box(&weights), black_box(&x))))
    });
    let groups: Vec<&[f64]> = x.chunks(33).collect();
    c.bench_function("kruskal_wallis_6_groups", |b| {
        b.iter(|| black_box(kruskal_wallis(black_box(&groups))))
    });

    // Corpus scale, tie-heavy as the study's measures are (40 and 25 levels).
    let x: Vec<f64> = (0..5_000).map(|i| ((i * 7919) % 40) as f64 / 40.0).collect();
    let y: Vec<f64> = (0..5_000).map(|i| ((i * 6007) % 25) as f64 / 25.0).collect();
    c.bench_function("kendall_tau_n5000", |b| {
        b.iter(|| black_box(kendall_tau_b(black_box(&x), black_box(&y))))
    });

    // Section 7's three lag tables on the paper corpus (n = 195): the taxon
    // sizes are the rows of all three, only the "always" counts differ.
    // Three Monte Carlo calls against one call sharing the shuffle stream,
    // and the exact network walk that settles them.
    let lag_tables: [[(u64, u64); 6]; 3] = [
        [(15, 12), (37, 21), (14, 17), (15, 30), (2, 16), (1, 15)],
        [(15, 12), (31, 27), (9, 22), (10, 35), (3, 15), (1, 15)],
        [(15, 12), (31, 27), (9, 22), (10, 35), (2, 16), (1, 15)],
    ];
    let lag_refs: Vec<&[(u64, u64)]> = lag_tables.iter().map(|t| t.as_slice()).collect();
    c.bench_function("fisher_mc_lag_tables_n195_single", |b| {
        b.iter(|| {
            lag_refs
                .iter()
                .map(|rows| fisher_rx2_monte_carlo(black_box(rows), 100_000, 0xF15E))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("fisher_mc_lag_tables_n195_shared", |b| {
        b.iter(|| fisher_rx2_monte_carlo_shared(black_box(&lag_refs), 100_000, 0xF15E))
    });
    c.bench_function("fisher_exact_lag_tables_n195", |b| {
        b.iter(|| {
            lag_refs
                .iter()
                .map(|rows| fisher_exact_rx2(black_box(rows), 2_000_000))
                .collect::<Vec<_>>()
        })
    });
    // The same tables on a 5 000-project corpus (`corpus gen --seed 1`),
    // settled by the certificate.
    let lag_tables_n5000: [[(u64, u64); 6]; 3] = [
        [(415, 277), (705, 782), (418, 377), (358, 796), (120, 342), (32, 378)],
        [(415, 277), (573, 914), (363, 432), (226, 928), (76, 386), (9, 401)],
        [(415, 277), (572, 915), (344, 451), (215, 939), (66, 396), (8, 402)],
    ];
    c.bench_function("fisher_certificate_lag_tables_n5000", |b| {
        b.iter(|| {
            lag_tables_n5000
                .iter()
                .map(|rows| fisher_certificate_log10(black_box(rows)))
                .collect::<Vec<_>>()
        })
    });
}

fn query_and_impact(c: &mut Criterion) {
    let schema = parse_schema(&big_schema_sql(), Dialect::MySql).unwrap();
    let sql = "SELECT t.col_0, col_1, COUNT(*) FROM table_3 t \
               JOIN table_7 u ON u.col_2 = t.col_3 \
               WHERE t.col_4 LIKE ? AND col_5 IN (SELECT col_6 FROM table_9) \
               GROUP BY t.col_0 ORDER BY col_1 DESC LIMIT 50";
    c.bench_function("query_parse_join_subquery", |b| {
        b.iter(|| black_box(coevo_query::parse_query(black_box(sql)).unwrap()))
    });
    let q = coevo_query::parse_query(sql).unwrap();
    c.bench_function("query_validate_against_40_tables", |b| {
        b.iter(|| black_box(coevo_query::validate(black_box(&q), black_box(&schema))))
    });

    // Impact: scan a synthetic 200-line source file against the schema index.
    let source: String =
        (0..200).map(|i| format!("let v{i} = db.table_{}.col_{};\n", i % 40, i % 11)).collect();
    let index =
        coevo_impact::IdentifierIndex::build(&schema, &coevo_impact::ScanConfig::default());
    println!("[components] impact index: {} identifiers", index.len());
    c.bench_function("impact_scan_200_line_source", |b| {
        b.iter(|| black_box(coevo_impact::scan_source(black_box(&source), black_box(&index))))
    });
    c.bench_function("sql_extraction_200_lines", |b| {
        let src: String = (0..200)
            .map(|i| format!("q{i} = 'SELECT col_{} FROM table_{}';\n", i % 11, i % 40))
            .collect();
        b.iter(|| black_box(coevo_query::extract_sql_strings(black_box(&src))))
    });
}

fn corpus_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus");
    group.sample_size(10);
    group.bench_function("generate_195_projects", |b| {
        b.iter(|| black_box(coevo_corpus::generate_corpus(&coevo_corpus::CorpusSpec::paper())))
    });
    group.finish();
}

criterion_group!(
    components,
    ddl_parse,
    ddl_print,
    schema_diff,
    gitlog_roundtrip,
    heartbeat_build,
    stats_suite,
    query_and_impact,
    corpus_generation,
);
criterion_main!(components);
