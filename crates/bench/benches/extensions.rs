//! Benchmarks for the extension analyses: design-choice ablations,
//! confidence-aware classification, and temporal evolution.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cellspot::{
    asn_level_ablation, classify_with_confidence, granularity_sweep, rule_ablation, AsnStrategy,
    FilterConfig,
};
use cellspotting::Pipeline;
use worldgen::{evolve_blocks, ChurnConfig, WorldConfig};

fn bench_extensions(c: &mut Criterion) {
    let run = Pipeline::new(WorldConfig::mini())
        .run()
        .expect("the default study config is valid");
    let study = &run.study;

    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);

    g.bench_function("asn_level_ablation", |b| {
        b.iter(|| {
            black_box(asn_level_ablation(
                &study.index,
                &study.classification,
                &study.as_aggregates,
                AsnStrategy::MajorityDemand,
            ))
        })
    });

    g.bench_function("granularity_sweep", |b| {
        b.iter(|| black_box(granularity_sweep(&study.index, &study.classification)))
    });

    g.bench_function("rule_ablation", |b| {
        b.iter(|| {
            black_box(rule_ablation(
                &study.as_aggregates,
                &run.world.as_db,
                &FilterConfig {
                    min_cell_du: study.config.min_cell_du,
                    min_netinfo_hits: study.config.min_netinfo_hits,
                },
            ))
        })
    });

    g.bench_function("confidence_classification", |b| {
        b.iter(|| black_box(classify_with_confidence(&study.index, 0.5, 1.96)))
    });

    g.bench_function("evolve_one_month", |b| {
        let churn = ChurnConfig::default();
        b.iter(|| black_box(evolve_blocks(&run.world, &churn, 1)))
    });

    g.bench_function("evolve_six_months", |b| {
        let churn = ChurnConfig::default();
        b.iter(|| black_box(evolve_blocks(&run.world, &churn, 6)))
    });
    g.finish();
}

criterion_group!(benches, bench_extensions);
criterion_main!(benches);
