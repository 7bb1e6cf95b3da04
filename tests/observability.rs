//! Observability contract tests: the instrumented pipeline's exported
//! counters, histograms, and span structure are deterministic functions
//! of the configuration and input stream — byte-identical across rayon
//! thread counts and (for counters) shard counts — and both exporters
//! stay parseable and stable.

use std::collections::BTreeMap;

use cellspotting::cdnsim::{self, CdnConfig, EventSource};
use cellspotting::cellobs::json::Json;
use cellspotting::cellobs::{ExportFormat, ObsSnapshot, Observer};
use cellspotting::cellserve::{Artifact, ArtifactFormat};
use cellspotting::cellspot::{Pipeline, StudyConfig, DEFAULT_THRESHOLD};
use cellspotting::cellstream::{IngestEngine, ResolverMap, StreamConfig};
use cellspotting::worldgen::{World, WorldConfig};

use celldelta::{build_delta, classify_epoch, ChurnWorld, Delta};
use cellserved::GenerationStore;

/// The eleven study stages `cellspot::Pipeline::run` reports, in order.
const STUDY_STAGES: [&str; 11] = [
    "join",
    "classify",
    "ratio_distributions",
    "validate",
    "sweep",
    "aggregate_by_as",
    "as_filter",
    "mixed",
    "ranking",
    "dns",
    "world_view",
];

/// Run the fully instrumented batch pipeline (world → datasets → DNS →
/// study) inside a private rayon pool of `threads` workers and return
/// the redacted canonical JSON export.
fn observed_study_export(threads: usize) -> String {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("local rayon pool")
        .install(|| {
            let obs = Observer::enabled();
            let cfg = WorldConfig::mini().with_seed(0xC0FFEE);
            let min_hits = cfg.scaled_min_beacon_hits();
            let world = World::generate_with(cfg, &obs);
            let (beacons, demand) = cdnsim::generate_datasets_observed(&world, &obs);
            let dns = cellspotting::dnssim::generate_dns(&world);
            Pipeline::new(&beacons, &demand)
                .as_db(&world.as_db)
                .carriers(&world.carriers)
                .dns(&dns)
                .study_config(StudyConfig::default().with_min_hits(min_hits))
                .observer(obs.clone())
                .run()
                .expect("default study config is valid");
            obs.snapshot().to_canonical_json_redacted()
        })
}

/// Stream the mini world's event stream through `shards` shards and
/// return the observer's snapshot.
fn observed_stream_snapshot(shards: u32) -> ObsSnapshot {
    let obs = Observer::enabled();
    let world = World::generate(WorldConfig::mini().with_seed(0xBEEF));
    let dns = cellspotting::dnssim::generate_dns(&world);
    let source = EventSource::new(&world, CdnConfig::default(), 4);
    let mut engine = IngestEngine::for_source(
        StreamConfig {
            shards,
            ..Default::default()
        },
        &source,
        ResolverMap::from_dns(&dns),
    )
    .with_observer(obs.clone());
    engine.run_to_end(&source);
    obs.snapshot()
}

/// The acceptance contract: counters and gauges (the whole redacted
/// export, in fact) are byte-identical whether the pipeline runs on 1
/// thread or 8.
#[test]
fn redacted_export_is_byte_identical_across_thread_counts() {
    let one = observed_study_export(1);
    let eight = observed_study_export(8);
    assert_eq!(
        one, eight,
        "redacted observability export must not depend on the rayon thread count"
    );
}

/// Hot-patch a live `GenerationStore` through three churn epochs inside
/// a private rayon pool of `threads` workers; returns the daemon-side
/// snapshot and the number of ops the three deltas carried.
fn observed_patch_snapshot(threads: usize) -> (ObsSnapshot, u64) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("local rayon pool")
        .install(|| {
            let obs = Observer::enabled();
            let churn = ChurnWorld::demo(0xD17A);
            let seal = |epoch: u64| {
                let index = classify_epoch(&churn.epoch_counters(epoch), DEFAULT_THRESHOLD);
                Artifact::encode(&index, ArtifactFormat::V2)
            };
            let mut live = seal(0);
            let handle = Artifact::from_bytes(&live).expect("sealed base validates");
            let store = GenerationStore::from_handle(handle, obs.clone());
            let mut ops = 0;
            for epoch in 1..=3 {
                let target = seal(epoch);
                let delta = build_delta(&live, &target, epoch - 1, epoch).expect("build delta");
                ops += Delta::from_bytes(&delta).expect("decode").op_count() as u64;
                store.try_apply_delta_bytes(&delta).expect("hot patch");
                live = target;
            }
            (obs.snapshot(), ops)
        })
}

/// Every histogram's name and sample count: how a wall-clock (`*.ns`)
/// histogram joins a determinism check — its sum and buckets are not
/// stripped by the redacted export.
fn histogram_counts(s: &ObsSnapshot) -> Vec<(String, u64)> {
    (s.histograms.iter().map(|(name, h)| (name.clone(), h.count))).collect()
}

/// The daemon's own patch metrics join the determinism contract:
/// `served.delta.ops`, every other counter and gauge, and the *count*
/// of `served.delta.patch.ns` are functions of the deltas alone. (The
/// histogram's sum and buckets are wall clock, which the redacted
/// export does not strip from histograms, so it is compared by count.)
#[test]
fn delta_patch_metrics_are_identical_across_thread_counts() {
    let (one, ops) = observed_patch_snapshot(1);
    let (eight, _) = observed_patch_snapshot(8);
    assert_eq!(one.counters, eight.counters);
    assert_eq!(one.gauges, eight.gauges);
    assert_eq!(histogram_counts(&one), histogram_counts(&eight));
    assert!(ops > 0, "the churn world changes labels every epoch");
    assert_eq!(one.counters["served.delta.ops"], ops);
    assert_eq!(one.counters["served.delta.ok"], 3);
    assert_eq!(one.histograms["served.delta.patch.ns"].count, 3);
    assert_eq!(one.gauges["served.epoch"], 3);
}

/// Two identical runs produce byte-identical redacted exports (the
/// golden-stability half of the exporter contract).
#[test]
fn redacted_export_is_stable_across_runs() {
    assert_eq!(observed_study_export(2), observed_study_export(2));
}

/// The JSON export parses with the workspace's strict parser and covers every
/// pipeline stage: a `pipeline.<stage>.items` counter and a
/// `study/<stage>` span per stage, plus the worldgen and cdnsim
/// sampling metrics.
#[test]
fn json_export_parses_and_covers_every_stage() {
    let json = observed_study_export(2);
    let v = Json::parse(&json).expect("export is valid JSON");
    let counters = &v["counters"];
    assert!(matches!(counters, Json::Obj(_)), "counters object");
    for stage in STUDY_STAGES {
        assert!(
            matches!(counters[&format!("pipeline.{stage}.items")], Json::Int(_)),
            "missing counter for stage {stage}"
        );
    }
    for key in [
        "worldgen.blocks",
        "worldgen.operators",
        "worldgen.carriers",
        "cdnsim.beacon.records",
        "cdnsim.beacon.hits_total",
        "cdnsim.beacon.netinfo_hits",
        "cdnsim.demand.records",
    ] {
        assert!(
            matches!(counters[key], Json::Int(count) if count > 0),
            "counter {key} missing or zero: {}",
            counters[key]
        );
    }
    let Json::Arr(spans) = &v["spans"] else {
        panic!("spans array");
    };
    let spans: Vec<&str> = spans
        .iter()
        .map(|s| match &s["path"] {
            Json::Str(path) => path.as_str(),
            other => panic!("span path: {other}"),
        })
        .collect();
    assert!(spans.contains(&"worldgen"));
    assert!(spans.contains(&"study"));
    for stage in STUDY_STAGES {
        let path = format!("study/{stage}");
        assert!(spans.contains(&path.as_str()), "missing span {path}");
    }
    assert!(
        matches!(
            v["histograms"]["pipeline.join.netinfo_hits_per_block"],
            Json::Obj(_)
        ),
        "join stage histogram present"
    );
}

/// Streaming counters and histograms are functions of the stream alone:
/// identical at any shard count. (Gauges — peak state bytes — and
/// checkpoint byte counters legitimately vary with the shard layout and
/// are excluded from this contract; `stream.epoch.ns` is wall clock, so
/// only its count — one sample per epoch — is part of it.)
#[test]
fn stream_counters_are_shard_count_invariant() {
    let mut two = observed_stream_snapshot(2);
    let mut seven = observed_stream_snapshot(7);
    assert_eq!(
        two.counters, seven.counters,
        "stream counters must not depend on the shard count"
    );
    let epoch_ns = |s: &mut ObsSnapshot| s.histograms.remove("stream.epoch.ns").map(|h| h.count);
    assert_eq!(epoch_ns(&mut two), Some(4));
    assert_eq!(epoch_ns(&mut seven), Some(4));
    assert_eq!(
        two.histograms, seven.histograms,
        "per-epoch event histogram must not depend on the shard count"
    );
    assert!(two.counters["stream.events"] > 0);
    assert_eq!(two.counters["stream.epochs"], 4);
    // The gauge exists in both runs even though its value may differ.
    assert!(two.gauges.contains_key("stream.state_bytes.peak"));
    assert!(seven.gauges.contains_key("stream.state_bytes.peak"));
}

/// The ingest engine's metrics join the thread-count contract now that
/// the source draws its beacon schedule under rayon: counters, gauges and
/// the epoch-size histogram are identical on 1 thread and 8, and
/// `stream.epoch.ns` (wall clock) by count.
#[test]
fn stream_metrics_are_identical_across_thread_counts() {
    let run_with = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("local rayon pool")
            .install(|| observed_stream_snapshot(2))
    };
    let (one, eight) = (run_with(1), run_with(8));
    assert_eq!(one.counters, eight.counters);
    assert_eq!(one.gauges, eight.gauges);
    assert_eq!(histogram_counts(&one), histogram_counts(&eight));
    assert_eq!(
        one.histograms["stream.epoch.events"],
        eight.histograms["stream.epoch.events"]
    );
    assert_eq!(one.histograms["stream.epoch.ns"].count, 4);
}

/// The Prometheus export is line-parseable, covers the same families,
/// and is stable across identical runs once wall-clock (`span_millis`)
/// lines are dropped.
#[test]
fn prometheus_export_is_parseable_and_stable() {
    let render = || {
        let snap = observed_stream_snapshot(3);
        ExportFormat::Prometheus.render(&snap)
    };
    let text = render();
    let mut families = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
            families.insert(name.to_string(), kind.to_string());
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line is `name value`");
        assert!(!name.is_empty(), "empty metric name in {line:?}");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
    }
    assert_eq!(
        families.get("stream_events").map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        families.get("stream_state_bytes_peak").map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        families.get("stream_epoch_events").map(String::as_str),
        Some("histogram")
    );
    let strip_wall_clock = |t: &str| {
        t.lines()
            .filter(|l| !l.starts_with("span_millis") && !l.starts_with("stream_epoch_ns"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_wall_clock(&text),
        strip_wall_clock(&render()),
        "Prometheus export (minus wall clock) must be stable across runs"
    );
}

/// Histogram buckets are powers of two with the documented boundaries:
/// a value lands in the bucket whose upper bound is the smallest power
/// of two ≥ the value.
#[test]
fn histogram_bucket_boundaries_are_powers_of_two() {
    let obs = Observer::enabled();
    let h = obs.histogram("h");
    for v in [1u64, 2, 3, 4, 5, 8, 9, 1 << 40] {
        h.record(v);
    }
    let snap = obs.snapshot();
    let hist = &snap.histograms["h"];
    assert_eq!(hist.count, 8);
    assert_eq!(hist.sum, 1 + 2 + 3 + 4 + 5 + 8 + 9 + (1u64 << 40));
    // Sparse ascending (bucket_index, count) pairs: 1 → le="1"; 2 →
    // le="2"; 3,4 → le="4"; 5,8 → le="8"; 9 → le="16"; 2^40 → its own.
    assert_eq!(
        hist.buckets,
        vec![(0, 1), (1, 1), (2, 2), (3, 2), (4, 1), (40, 1)]
    );
    // And the Prometheus rendering accumulates them cumulatively.
    let text = ExportFormat::Prometheus.render(&snap);
    for (bound, cumulative) in [("1", 1), ("2", 2), ("4", 4), ("8", 6), ("16", 7)] {
        assert!(
            text.contains(&format!("h_bucket{{le=\"{bound}\"}} {cumulative}\n")),
            "missing cumulative bucket le={bound}"
        );
    }
    assert!(text.contains("h_bucket{le=\"+Inf\"} 8\n"));
}

/// A disabled observer records nothing — the near-zero-cost default.
#[test]
fn disabled_observer_records_nothing() {
    let obs = Observer::disabled();
    let world = World::generate_with(WorldConfig::mini(), &obs);
    let (beacons, demand) = cdnsim::generate_datasets_observed(&world, &obs);
    Pipeline::new(&beacons, &demand)
        .observer(obs.clone())
        .run()
        .expect("default study config is valid");
    let snap = obs.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.spans.is_empty());
}

/// The builder entry points are bit-deterministic run to run — the
/// property the removed `run_study`/`classify_datasets` shims used to
/// cross-check against.
#[test]
fn builder_runs_are_bit_deterministic() {
    let world = World::generate(WorldConfig::mini());
    let (beacons, demand) = cdnsim::generate_datasets(&world);
    let min_hits = world.config.scaled_min_beacon_hits();
    let cfg = StudyConfig::default().with_min_hits(min_hits);

    let study = |cfg: StudyConfig| {
        Pipeline::new(&beacons, &demand)
            .as_db(&world.as_db)
            .carriers(&world.carriers)
            .study_config(cfg)
            .run()
            .expect("default study config is valid")
            .into_study()
    };
    let a = study(cfg.clone());
    let b = study(cfg);
    assert_eq!(a.classification.len(), b.classification.len());
    assert_eq!(a.filter.table5_counts(), b.filter.table5_counts());
    assert_eq!(
        a.view.global_cellular_pct().to_bits(),
        b.view.global_cellular_pct().to_bits()
    );

    let classify = || {
        Pipeline::new(&beacons, &demand)
            .threshold(0.5)
            .classify()
            .expect("valid threshold")
    };
    let (index1, class1) = classify();
    let (index2, class2) = classify();
    assert_eq!(index1.len(), index2.len());
    assert_eq!(class1.len(), class2.len());
}
