//! The parallel pipeline's two contracts:
//!
//! 1. **Thread-count invariance** — every parallel stage (world
//!    generation, dataset sampling, event simulation, the streaming
//!    source's beacon schedule, the full study) is
//!    keyed by per-block/per-operator RNG streams and merged in a fixed
//!    order, so its output is *identical* — float for float, bit for
//!    bit — no matter how many rayon threads run it.
//! 2. **Switch-noise symmetry** — §3.1's interface-switch noise is a true
//!    toggle (cellular→wifi, anything-else→cellular), so event-mode
//!    cellular ratios converge to the latent `cell_rate` from above *and*
//!    below instead of being systematically inflated.

use std::collections::HashMap;

use cellspotting::cdnsim::{
    aggregate_events, generate_datasets, simulate_events, CdnConfig, EventSimConfig, EventSource,
    StreamEvent,
};
use cellspotting::cellspot::{Pipeline, Study, StudyConfig};
use cellspotting::cellstream::{IngestEngine, ResolverMap, StreamConfig};
use cellspotting::worldgen::{World, WorldConfig};

/// Generate a mini world and run the full study.
fn study() -> Study {
    let cfg = WorldConfig::mini().with_seed(0xD15EA5E);
    let min_hits = cfg.scaled_min_beacon_hits();
    let world = World::generate(cfg);
    let (beacons, demand) = generate_datasets(&world);
    let dns = cellspotting::dnssim::generate_dns(&world);
    Pipeline::new(&beacons, &demand)
        .as_db(&world.as_db)
        .carriers(&world.carriers)
        .dns(&dns)
        .study_config(StudyConfig::default().with_min_hits(min_hits))
        .run()
        .expect("default study config is valid")
        .into_study()
}

#[test]
fn single_and_multi_thread_studies_are_identical() {
    let run_with = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("local rayon pool")
            .install(study)
    };
    let one = run_with(1);
    let many = run_with(4);
    // `==` on every field, floats included: at least as strict as
    // comparing a serialized form.
    assert!(
        one == many,
        "the Study must not depend on the rayon thread count"
    );
}

#[test]
fn event_simulation_is_thread_count_invariant() {
    let run_with = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("local rayon pool")
            .install(|| {
                let world = World::generate(WorldConfig::mini());
                simulate_events(&world, &EventSimConfig::default())
            })
    };
    let one = run_with(1);
    let many = run_with(3);
    assert_eq!(one.len(), many.len());
    for (a, b) in one.iter().zip(&many) {
        assert_eq!(a, b, "event streams must match event-for-event");
    }
}

/// `EventSource` draws its beacon schedule under rayon on the first
/// `epoch()` call: the events must not depend on how many threads drew it.
#[test]
fn event_source_schedule_is_thread_count_invariant() {
    let world = World::generate(WorldConfig::mini());
    let run_with = |threads: usize| -> Vec<StreamEvent> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("local rayon pool")
            .install(|| {
                let source = EventSource::new(&world, CdnConfig::default(), 4);
                // The first call builds the schedule inside this pool.
                let _ = source.epoch(0).count();
                source.events().collect()
            })
    };
    let one = run_with(1);
    let many = run_with(4);
    assert!(one.iter().any(|ev| matches!(ev, StreamEvent::Beacon(_))));
    assert!(one == many, "event streams must match event-for-event");
}

/// A second engine over the *same* `EventSource` value reuses the
/// schedule the first run drew, and nothing else: it ends in the same
/// state, byte for byte.
#[test]
fn a_second_ingest_over_the_same_source_ends_in_the_same_state() {
    let world = World::generate(WorldConfig::mini());
    let dns = cellspotting::dnssim::generate_dns(&world);
    let source = EventSource::new(&world, CdnConfig::default(), 4);
    let run = || {
        let resolvers = ResolverMap::from_dns(&dns);
        let mut engine = IngestEngine::for_source(StreamConfig::default(), &source, resolvers);
        engine.run_to_end(&source);
        (
            (engine.events_seen(), engine.state_bytes()),
            engine.snapshot().to_bytes(),
        )
    };
    let (first, second) = (run(), run());
    assert!(first.0 .0 > 0);
    assert_eq!(first.0, second.0, "(events_seen, state_bytes)");
    assert!(first.1 == second.1, "sealed snapshots differ");
}

/// With the switch rate cranked up, a cellular block whose latent rate is
/// `r` sees an expected event-mode ratio of `r(1−s) + (1−r)s`: the noise
/// *removes* cellular labels from high-rate blocks (convergence from
/// below) and *adds* them to low-rate blocks (convergence from above).
/// The pre-fix one-sided flip could only ever add cellular labels, making
/// every deviation non-negative.
#[test]
fn switch_noise_is_a_symmetric_toggle() {
    let s = 0.3;
    let world = World::generate(WorldConfig::mini());
    // Enough loads that the near-zero-rate pool (infra blocks, which only
    // attract the per-block beacon floor) accumulates a usable NetInfo
    // sample: each floor block sees ~3 hits per 600k-hit budget, and event
    // mode generates page_loads × ~0.132 NetInfo hits against that budget.
    let cfg = EventSimConfig {
        page_loads: 1_500_000,
        clients_per_block: 40,
        interface_switch_rate: s,
        ..Default::default()
    };
    let events = simulate_events(&world, &cfg);
    let ds = aggregate_events("t", &events);
    let truth: HashMap<_, _> = world.blocks.records.iter().map(|r| (r.block, r)).collect();

    // Convergence from below: well-sampled cellular blocks with high
    // latent rates must land *under* the latent rate on average, near the
    // symmetric-toggle expectation.
    let mut dev_latent = Vec::new();
    let mut dev_model = Vec::new();
    // Convergence from above: pooled ratio over near-zero-rate cellular
    // space (infrastructure) must land near `s`, strictly above latent.
    let mut low_cell = 0u64;
    let mut low_netinfo = 0u64;
    for r in ds.iter() {
        let t = truth[&r.block];
        if !t.access.is_cellular() {
            continue;
        }
        let latent = t.cell_rate as f64;
        if latent <= 0.2 {
            low_cell += r.cellular_hits;
            low_netinfo += r.netinfo_hits;
        }
        if r.netinfo_hits >= 150 && latent >= 0.55 {
            let ratio = r.cellular_ratio().expect("netinfo hits present");
            dev_latent.push(ratio - latent);
            dev_model.push(ratio - (latent * (1.0 - s) + (1.0 - latent) * s));
        }
    }

    assert!(
        dev_latent.len() >= 4,
        "need several well-sampled high-rate cellular blocks, got {}",
        dev_latent.len()
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mean_latent_dev = mean(&dev_latent);
    assert!(
        mean_latent_dev < -0.02,
        "high-rate blocks must converge from below (toggle removes \
         cellular labels); mean deviation {mean_latent_dev:.4}"
    );
    let mean_model_dev = mean(&dev_model);
    assert!(
        mean_model_dev.abs() < 0.1,
        "deviations must match the symmetric-toggle expectation; \
         mean residual {mean_model_dev:.4}"
    );

    assert!(
        low_netinfo >= 60,
        "need pooled low-rate samples, got {low_netinfo}"
    );
    let pooled = low_cell as f64 / low_netinfo as f64;
    assert!(
        (s - 0.15..=s + 0.15).contains(&pooled),
        "near-zero-rate cellular space must converge from above, toward \
         the switch rate {s}; pooled ratio {pooled:.4}"
    );
}
