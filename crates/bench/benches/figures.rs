//! One benchmark per paper figure/table. Each bench first *prints* the
//! regenerated figure once (the reproduction artifact), then measures the
//! cost of recomputing it from the per-project measures.

use coevo_bench::{run_study, study_projects};
use coevo_core::study::{fig4, fig6, fig7, fig8, section7, StudyResults};
use coevo_core::synchronicity::theta_synchronicity;
use coevo_corpus::{case_study_project, ProjectArtifacts};
use coevo_engine::pipeline::project_from_artifacts;
use coevo_report::figures::{
    render_fig4, render_fig5, render_fig6, render_fig7, render_fig8, render_section7,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

fn results() -> &'static StudyResults {
    static RESULTS: OnceLock<StudyResults> = OnceLock::new();
    RESULTS.get_or_init(|| run_study(study_projects()))
}

/// Figures 1–2: the scripted case study measured end to end.
fn fig1_case_study(c: &mut Criterion) {
    let cs = ProjectArtifacts::from(case_study_project());
    {
        let data = project_from_artifacts(cs.clone()).unwrap();
        let jp = data.joint_progress();
        println!(
            "\n[fig1] {}: {} months, start-up schema change {:.0}%, sync10 {:.0}%",
            cs.name,
            jp.months(),
            jp.schema[0] * 100.0,
            theta_synchronicity(&jp.project, &jp.schema, 0.10) * 100.0
        );
    }
    c.bench_function("fig1_case_study", |b| {
        b.iter(|| {
            let data = project_from_artifacts(black_box(cs.clone())).unwrap();
            black_box(data.measures(&coevo_taxa::TaxonomyConfig::default()))
        })
    });
}

/// Figure 3: one exemplar joint-progress chart per taxon.
fn fig3_taxa_gallery(c: &mut Criterion) {
    let mut spec = coevo_corpus::CorpusSpec::paper();
    for t in &mut spec.taxa {
        t.count = 1;
        t.schema_birth_delay_prob = 0.0;
        t.single_month_count = 0;
    }
    let corpus: Vec<ProjectArtifacts> =
        coevo_corpus::generate_corpus(&spec).into_iter().map(ProjectArtifacts::from).collect();
    println!("\n[fig3] exemplars: {} taxa", corpus.len());
    c.bench_function("fig3_taxa_gallery", |b| {
        b.iter(|| {
            for p in &corpus {
                let data = project_from_artifacts(black_box(p.clone())).unwrap();
                black_box(coevo_report::linechart::joint_progress_chart(&data, 12, 70));
            }
        })
    });
}

fn fig4_synchronicity_histogram(c: &mut Criterion) {
    let r = results();
    println!("\n{}", render_fig4(r));
    let measures = r.measures.clone();
    c.bench_function("fig4_synchronicity_histogram", |b| {
        b.iter(|| black_box(fig4(black_box(&measures))))
    });
}

fn fig5_duration_scatter(c: &mut Criterion) {
    let r = results();
    println!("\n{}", render_fig5(r));
    c.bench_function("fig5_duration_scatter", |b| {
        b.iter(|| black_box(coevo_report::scatter::duration_sync_scatter(&r.fig5, 78, 20)))
    });
}

fn fig6_advance_table(c: &mut Criterion) {
    let r = results();
    println!("\n{}", render_fig6(r));
    let measures = r.measures.clone();
    c.bench_function("fig6_advance_table", |b| {
        b.iter(|| black_box(fig6(black_box(&measures))))
    });
}

fn fig7_always_advance(c: &mut Criterion) {
    let r = results();
    println!("\n{}", render_fig7(r));
    let measures = r.measures.clone();
    c.bench_function("fig7_always_advance", |b| {
        b.iter(|| black_box(fig7(black_box(&measures))))
    });
}

fn fig8_attainment(c: &mut Criterion) {
    let r = results();
    println!("\n{}", render_fig8(r));
    let measures = r.measures.clone();
    c.bench_function("fig8_attainment", |b| b.iter(|| black_box(fig8(black_box(&measures)))));
}

fn sec7_statistics(c: &mut Criterion) {
    let r = results();
    println!("\n{}", render_section7(r));
    let measures = r.measures.clone();
    c.bench_function("sec7_statistics", |b| {
        b.iter(|| black_box(section7(black_box(&measures))))
    });
}

/// The whole study, pipeline included — the end-to-end reproduction cost.
fn full_study_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_study");
    group.sample_size(10);
    group.bench_function("generate_and_measure_195_projects", |b| {
        b.iter(|| black_box(run_study(study_projects())))
    });
    group.finish();
}

criterion_group!(
    figures,
    fig1_case_study,
    fig3_taxa_gallery,
    fig4_synchronicity_histogram,
    fig5_duration_scatter,
    fig6_advance_table,
    fig7_always_advance,
    fig8_attainment,
    sec7_statistics,
    full_study_end_to_end,
);
criterion_main!(figures);
