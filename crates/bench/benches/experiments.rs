//! Per-experiment regeneration benchmarks: one Criterion bench per table
//! and figure of the paper, measuring how long each artifact takes to
//! rebuild from a finished study.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cellspotting::Pipeline;
use report::experiments as e;
use worldgen::WorldConfig;

fn bench_experiments(c: &mut Criterion) {
    let run = Pipeline::new(WorldConfig::mini())
        .run()
        .expect("the default study config is valid");
    let study = &run.study;
    let db = &run.world.as_db;
    let dns = run.dns.as_ref().expect("the facade generates DNS");

    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);

    g.bench_function("table1_related_work", |b| {
        b.iter(|| black_box(e::table1_related_work()))
    });
    g.bench_function("table2_datasets", |b| {
        b.iter(|| black_box(e::table2_datasets(study)))
    });
    g.bench_function("fig1_netinfo_adoption", |b| {
        b.iter(|| black_box(e::fig1_netinfo_adoption()))
    });
    g.bench_function("fig2_ratio_cdfs", |b| {
        b.iter(|| black_box(e::fig2_ratio_cdfs(study)))
    });
    g.bench_function("fig3_threshold_sweeps", |b| {
        b.iter(|| black_box(e::fig3_threshold_sweeps(study)))
    });
    g.bench_function("table3_validation", |b| {
        b.iter(|| black_box(e::table3_validation(study)))
    });
    g.bench_function("table4_subnets", |b| {
        b.iter(|| black_box(e::table4_subnets(study)))
    });
    g.bench_function("fig4_as_distributions", |b| {
        b.iter(|| black_box(e::fig4_as_distributions(study)))
    });
    g.bench_function("table5_filters", |b| {
        b.iter(|| black_box(e::table5_filters(study)))
    });
    g.bench_function("table6_cellular_ases", |b| {
        b.iter(|| black_box(e::table6_cellular_ases(study, db)))
    });
    g.bench_function("fig5_mixed_cdfs", |b| {
        b.iter(|| black_box(e::fig5_mixed_cdfs(study)))
    });
    g.bench_function("fig6_showcases", |b| {
        b.iter(|| black_box(e::fig6_showcases(study, db)))
    });
    g.bench_function("fig7_ranked_demand", |b| {
        b.iter(|| black_box(e::fig7_ranked_demand(study)))
    });
    g.bench_function("table7_top10", |b| {
        b.iter(|| black_box(e::table7_top10(study)))
    });
    g.bench_function("fig8_subnet_demand", |b| {
        b.iter(|| black_box(e::fig8_subnet_demand(study, db)))
    });
    g.bench_function("fig9_resolver_sharing", |b| {
        b.iter(|| black_box(e::fig9_resolver_sharing(study, dns)))
    });
    g.bench_function("fig10_public_dns", |b| {
        b.iter(|| black_box(e::fig10_public_dns(study, dns, db)))
    });
    g.bench_function("table8_continent_demand", |b| {
        b.iter(|| black_box(e::table8_continent_demand(study)))
    });
    g.bench_function("fig11_top_countries", |b| {
        b.iter(|| black_box(e::fig11_top_countries(study)))
    });
    g.bench_function("fig12_country_scatter", |b| {
        b.iter(|| black_box(e::fig12_country_scatter(study)))
    });
    g.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
