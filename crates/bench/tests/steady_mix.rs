//! Pins the bytes of the `steady` preset: it must reproduce the
//! historical ad-hoc generator (`bench::query_mix`, deleted with the
//! cellload migration) **byte for byte**. What rides on it today is the
//! `steady` trace `cellbench serve-tcp` replays — a change here moves
//! that workload's trace digest and orphans its committed baselines.

use cellload::{Preset, TraceSpec, Universe};
use cellserve::IpKey;
use cellspot::Classification;
use cellspotting::Pipeline;
use netaddr::BlockId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use worldgen::WorldConfig;

/// A verbatim copy of the pre-cellload `bench::query_mix`
/// implementation, kept here as the frozen reference stream.
fn legacy_query_mix(class: &Classification, lookups: usize, seed: u64) -> Vec<IpKey> {
    let mut v4_blocks = Vec::new();
    let mut v6_blocks = Vec::new();
    for (block, _) in class.iter() {
        match block {
            BlockId::V4(b) => v4_blocks.push(b),
            BlockId::V6(b) => v6_blocks.push(b),
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB37C_5E11);
    let mut queries = Vec::with_capacity(lookups);
    for _ in 0..lookups {
        let roll: f64 = rng.gen();
        if roll < 0.55 && !v4_blocks.is_empty() {
            let b = v4_blocks[rng.gen_range(0..v4_blocks.len())];
            queries.push(IpKey::V4(b.addr(rng.gen())));
        } else if roll < 0.70 && !v6_blocks.is_empty() {
            let b = v6_blocks[rng.gen_range(0..v6_blocks.len())];
            queries.push(IpKey::V6(b.addr(rng.gen(), rng.gen())));
        } else if roll < 0.85 {
            // TEST-NET-1: never generated, guaranteed miss.
            queries.push(IpKey::V4(0xC000_0200 | rng.gen_range(0u32..256)));
        } else {
            queries.push(IpKey::V4(rng.gen()));
        }
    }
    queries
}

#[test]
fn steady_preset_reproduces_the_legacy_query_mix_byte_for_byte() {
    let report = Pipeline::new(WorldConfig::mini())
        .run()
        .expect("the default study config is valid");
    let class = &report.study.classification;
    assert!(!class.is_empty(), "mini world classifies some blocks");
    for seed in [0, 7, 0xDEAD_BEEF] {
        let legacy = legacy_query_mix(class, 20_000, seed);
        let spec = TraceSpec {
            preset: Preset::Steady,
            seed,
            queries: 20_000,
            epochs: 1,
        };
        let universe = Universe::from_classification(class);
        let trace = spec.generate(std::slice::from_ref(&universe));
        assert_eq!(trace.segments.len(), 1);
        assert_eq!(trace.segments[0].queries, legacy, "seed {seed}");
    }
}
