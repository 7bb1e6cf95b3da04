//! `refresh`: the write side — what a researcher pays per study and an
//! operator pays per label refresh.
//!
//! Three phases, none of which touches the lookup path:
//!
//! * **study** (the set-up, built several times, median): demo world →
//!   `generate_datasets` → `generate_dns` → `Pipeline::run` → freeze →
//!   encode → write → `Artifact::open`, then the churn world's base
//!   generation installed in a live `GenerationStore`.
//! * **ingest**: the same world's `EventSource` folded epoch by epoch
//!   by `IngestEngine` at 2 shards.
//! * **epochs**: a `ChurnWorld` stepped epoch by epoch; per epoch
//!   `IncrementalClassifier::classify` → encode → `build_delta` →
//!   `apply_delta` → `GenerationStore::try_apply_delta_bytes`.
//!
//! worldgen, cdnsim, cellspot, cellstream, celldelta and the artifact
//! encoder do all the work here, so a format or codec refactor that
//! speeds reads but slows build, apply or open is caught.

use cdnsim::{BeaconDataset, CdnConfig, DemandDataset, EventSource};
use celldelta::{
    apply_delta, build_delta, changed_blocks, classify_epoch, ChurnWorld, Delta, EpochCounters,
    IncrementalClassifier,
};
use cellobs::Observer;
use cellserve::{content_hash, Artifact, FrozenIndex};
use cellserved::GenerationStore;
use cellspot::{Pipeline, StudyConfig, DEFAULT_THRESHOLD};
use cellstream::{IngestEngine, ResolverMap, StreamConfig};
use dnssim::DnsSim;
use netaddr::BlockId;
use worldgen::World;

use super::{put_common, put_spans, Measured, RunArgs, SETUP_LAYERS};
use crate::fixture::{derive_seeds, discard, publish, seal, Served, WorkDir};
use crate::plan::{RefreshPlan, SETUP_REPS};
use crate::record::{built_against, machine, Metrics, Record};
use crate::stats::{median, summarize};
use crate::trace::Tracer;

/// What one set-up leaves behind for the measured phases.
struct Built {
    world: World,
    dns: DnsSim,
    beacons: BeaconDataset,
    demand: DemandDataset,
    study: Served,
    classifier: IncrementalClassifier,
    base_counters: EpochCounters,
    live: Vec<u8>,
    store: GenerationStore,
}

fn build(
    plan: &RefreshPlan,
    churn: &ChurnWorld,
    world_seed: u64,
    smoke: bool,
    dir: &WorkDir,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<Built, String> {
    let cfg = plan.study_world(world_seed, smoke);
    let min_hits = cfg.scaled_min_beacon_hits();
    let (world, _) = tracer.time("worldgen.generate", rep, || World::generate(cfg));

    let study_span = tracer.begin("refresh.study", rep);
    let ((beacons, demand), _) =
        tracer.time("cdnsim.datasets", rep, || cdnsim::generate_datasets(&world));
    let (dns, _) = tracer.time("dnssim.generate", rep, || dnssim::generate_dns(&world));
    let (report, _) = tracer.time("cellspot.study", rep, || {
        Pipeline::new(&beacons, &demand)
            .as_db(&world.as_db)
            .carriers(&world.carriers)
            .dns(&dns)
            .study_config(StudyConfig::default().with_min_hits(min_hits))
            .run()
    });
    let report = report.map_err(|e| format!("study: {e}"))?;
    let (frozen, _) = tracer.time("cellserve.frozen.build", rep, || {
        FrozenIndex::from_classification(&report.classification, None)
    });
    let study = publish(&frozen, dir, tracer, rep)?;
    tracer.end(study_span);

    // The base generation of the churn chain: epoch 1, classified by
    // both paths, which must agree before any delta is built on it.
    let base_counters = churn.epoch_counters(1);
    let mut classifier = IncrementalClassifier::new(DEFAULT_THRESHOLD, Observer::disabled());
    let live = seal(&classifier.classify(&base_counters));
    if live != seal(&classify_epoch(&base_counters, DEFAULT_THRESHOLD)) {
        return Err(
            "incremental and one-shot classification disagree on the base epoch".to_owned(),
        );
    }
    let handle = Artifact::from_bytes(&live).map_err(|e| format!("base artifact: {e}"))?;
    let store = GenerationStore::from_handle(handle, Observer::disabled());
    Ok(Built {
        world,
        dns,
        beacons,
        demand,
        study,
        classifier,
        base_counters,
        live,
        store,
    })
}

fn block_word(block: BlockId) -> u64 {
    match block {
        BlockId::V4(b) => u64::from(b.index()),
        BlockId::V6(b) => b.index() | 1 << 63,
    }
}

/// Digest of one epoch's generated counters.
fn counters_digest(counters: &EpochCounters) -> u64 {
    let mut bytes = Vec::with_capacity(counters.len() * 36);
    for c in counters.blocks() {
        bytes.extend_from_slice(&block_word(c.block).to_le_bytes());
        bytes.extend_from_slice(&c.asn.value().to_le_bytes());
        bytes.extend_from_slice(&c.netinfo_hits.to_le_bytes());
        bytes.extend_from_slice(&c.cellular_hits.to_le_bytes());
        bytes.extend_from_slice(&c.du.to_bits().to_le_bytes());
    }
    content_hash(&bytes)
}

fn digest_of(words: &[u64]) -> u64 {
    content_hash(
        &words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// Folding the whole event stream must reproduce the batch datasets
/// exactly — the streaming subsystem's acceptance contract.
fn check_ingest(
    engine: &IngestEngine,
    beacons: &BeaconDataset,
    demand: &DemandDataset,
) -> Result<(), String> {
    let out = engine.finalize();
    let beacons_equal = out.beacons.len() == beacons.len()
        && out.beacons.iter().zip(beacons.iter()).all(|(a, b)| a == b);
    let demand_equal =
        out.demand.len() == demand.len()
            && out.demand.iter().zip(demand.iter()).all(|(a, b)| {
                a.block == b.block && a.asn == b.asn && a.du.to_bits() == b.du.to_bits()
            });
    if beacons_equal && demand_equal {
        Ok(())
    } else {
        Err("streamed datasets differ from the batch datasets".to_owned())
    }
}

/// Run the workload.
pub fn run(args: RunArgs, tracer: &mut Tracer) -> Result<Record, String> {
    let plan = RefreshPlan::new(args.seconds, args.smoke);
    let (world_seed, churn_seed) = derive_seeds(args.seed);
    let dir = WorkDir::create()?;
    let churn = ChurnWorld {
        seed: churn_seed,
        v4_blocks: plan.churn_v4,
        v6_blocks: plan.churn_v6,
        ases: plan.churn_ases,
        churn_per_mille: plan.churn_per_mille,
    };

    let mut built: Option<Built> = None;
    for rep in 0..SETUP_REPS as u64 {
        if let Some(previous) = built.take() {
            discard(&previous.study.path);
        }
        let setup = tracer.begin("harness.setup", rep);
        let b = build(&plan, &churn, world_seed, args.smoke, &dir, tracer, rep)?;
        tracer.end(setup);
        built = Some(b);
    }
    let Built {
        world,
        dns,
        beacons,
        demand,
        study,
        mut classifier,
        base_counters,
        mut live,
        store,
    } = built.expect("SETUP_REPS is at least 1");
    let mut inputs = vec![
        world_seed,
        world.blocks.records.len() as u64,
        beacons.len() as u64,
        demand.len() as u64,
        world.total_demand_weight().to_bits(),
    ];
    let mut outputs = vec![study.handle.content_hash()];
    let mut metrics = Metrics::default();
    let measured = Measured::begin()?;

    // Ingest: the month of telemetry, epoch by epoch. Ingest epochs are
    // not alike (the first allocates the state, the last folds the
    // demand days), so the repeat is the whole ingest: it runs
    // `ingest_reps` times and the rate is events over the median run.
    let source = EventSource::new(&world, CdnConfig::default(), plan.ingest_epochs);
    let config = StreamConfig {
        shards: plan.ingest_shards,
        ..StreamConfig::default()
    };
    let mut ingested = None;
    for rep in 0..plan.ingest_reps as u64 {
        let mut engine = IngestEngine::for_source(config, &source, ResolverMap::from_dns(&dns));
        while !engine.finished() {
            let epoch = engine.epochs_done();
            let before = engine.events_seen();
            tracer.time(
                "cellstream.ingest_epoch",
                rep << 32 | u64::from(epoch),
                || engine.ingest_epoch(&source),
            );
            if engine.events_seen() == before {
                return Err(format!("ingest epoch {epoch} folded no events"));
            }
        }
        check_ingest(&engine, &beacons, &demand)?;
        let outcome = (engine.events_seen(), engine.state_bytes() as u64);
        if ingested.is_some_and(|first| first != outcome) {
            return Err(format!(
                "ingest repeat {rep} ended in another state: {outcome:?} vs {ingested:?}"
            ));
        }
        ingested = Some(outcome);
    }
    let (events, state_bytes) = ingested.expect("ingest_reps is at least 1");
    let rep_s: Vec<f64> = tracer
        .seconds("cellstream.ingest_epoch")
        .chunks_exact(plan.ingest_epochs as usize)
        .map(|rep| rep.iter().sum())
        .collect();
    let rep_rates: Vec<f64> = rep_s.iter().map(|s| events as f64 / s).collect();
    outputs.extend([events, state_bytes]);
    metrics.put_summarized(
        "ingest_events_per_s",
        events as f64 / median(&rep_s),
        "1/s",
        summarize(&rep_rates),
    );
    metrics.put("cellstream.ingest_s", median(&rep_s), "s");
    metrics.put_exact("cellstream.events", events as f64, "count");
    metrics.put_exact("cellstream.state_bytes", state_bytes as f64, "B");

    // Epochs: counters → patched live generation.
    let swap_store = args.traced.then(|| {
        Artifact::from_bytes(&live).map(|h| GenerationStore::from_handle(h, Observer::disabled()))
    });
    let swap_store = swap_store
        .transpose()
        .map_err(|e| format!("swap store: {e}"))?;
    let (mut delta_bytes, mut full_bytes, mut ops, mut changed) =
        (0u64, 0u64, Vec::new(), Vec::new());
    let mut apply_us_per_op = Vec::new();
    let mut previous = base_counters;
    for epoch in 2..=plan.epochs + 1 {
        let counters = churn.epoch_counters(epoch);
        inputs.push(counters_digest(&counters));
        let generation = store.generation();

        let refresh = tracer.begin("refresh.epoch", epoch);
        let (index, _) = tracer.time("celldelta.classify", epoch, || {
            classifier.classify(&counters)
        });
        let (target, _) = tracer.time("celldelta.encode", epoch, || seal(&index));
        let (delta, _) = tracer.time("celldelta.build", epoch, || {
            build_delta(&live, &target, epoch - 1, epoch)
        });
        let delta = delta.map_err(|e| format!("epoch {epoch}: build_delta: {e}"))?;
        let (patched, apply_took) =
            tracer.time("celldelta.apply", epoch, || apply_delta(&live, &delta));
        let patched = patched.map_err(|e| format!("epoch {epoch}: apply_delta: {e}"))?;
        let (installed, _) = tracer.time("cellserved.generation.patch", epoch, || {
            store.try_apply_delta_bytes(&delta)
        });
        let installed = installed.map_err(|e| format!("epoch {epoch}: hot patch: {e}"))?;
        tracer.end(refresh);

        // Correctness, untimed: the patched artifact is byte-identical
        // to a full rebuild, and the live store moved on to it.
        let (full, _) = tracer.time("celldelta.classify_full", epoch, || {
            classify_epoch(&counters, DEFAULT_THRESHOLD)
        });
        let full = seal(&full);
        if patched != full {
            return Err(format!(
                "epoch {epoch}: apply(base, delta) is not byte-identical to the full rebuild"
            ));
        }
        let now = store.current();
        if installed != generation + 1
            || now.number != installed
            || now.artifact_hash != content_hash(&patched)
            || now.epoch != epoch
        {
            return Err(format!(
                "epoch {epoch}: live store is at generation {} (epoch {}), expected {}",
                now.number,
                now.epoch,
                generation + 1
            ));
        }
        let op_count = Delta::from_bytes(&delta)
            .map_err(|e| format!("epoch {epoch}: sealed delta does not re-parse: {e}"))?
            .op_count();
        ops.push(op_count as f64);
        apply_us_per_op.push(apply_took.as_secs_f64() * 1e6 / op_count.max(1) as f64);
        delta_bytes += delta.len() as u64;
        full_bytes += full.len() as u64;
        outputs.push(content_hash(&patched));
        if let Some(swap_store) = &swap_store {
            changed.push(changed_blocks(&previous, &counters) as f64);
            let (swapped, _) = tracer.time("cellserved.generation.swap", epoch, || {
                swap_store.try_swap_bytes(&full)
            });
            swapped.map_err(|e| format!("epoch {epoch}: full swap: {e}"))?;
        }
        live = patched;
        previous = counters;
    }
    let measure_wall_s = measured.end(&mut metrics)?;

    put_spans(
        &mut metrics,
        tracer,
        &[
            ("refresh.epoch", "epoch_refresh_ms", "ms", 1e3),
            ("celldelta.classify", "celldelta.classify_ms", "ms", 1e3),
            ("celldelta.encode", "celldelta.encode_ms", "ms", 1e3),
            (
                "celldelta.classify_full",
                "celldelta.classify_full_ms",
                "ms",
                1e3,
            ),
            ("celldelta.build", "celldelta.build_ms", "ms", 1e3),
            ("celldelta.apply", "celldelta.apply_ms", "ms", 1e3),
            (
                "cellserved.generation.patch",
                "cellserved.generation.patch_ms",
                "ms",
                1e3,
            ),
            (
                "cellserved.generation.swap",
                "cellserved.generation.swap_ms",
                "ms",
                1e3,
            ),
        ],
    );
    metrics.put_exact(
        "celldelta.delta_bytes",
        delta_bytes as f64 / plan.epochs as f64,
        "B",
    );
    metrics.put_exact(
        "delta_bytes_ratio",
        delta_bytes as f64 / full_bytes as f64,
        "ratio",
    );
    metrics.put_exact("celldelta.ops_per_epoch", median(&ops), "count");
    // Apply should scale with the labels that changed; today it
    // re-freezes everything, and this ratio is where that shows.
    metrics.put("celldelta.apply_us_per_op", median(&apply_us_per_op), "us");
    if !changed.is_empty() {
        metrics.put_exact("celldelta.changed_blocks", median(&changed), "count");
    }
    put_spans(
        &mut metrics,
        tracer,
        &[
            ("refresh.study", "study_s", "s", 1.0),
            ("dnssim.generate", "dnssim.generate_s", "s", 1.0),
            ("cellspot.study", "cellspot.study_s", "s", 1.0),
        ],
    );
    put_spans(&mut metrics, tracer, &SETUP_LAYERS);
    metrics.put_exact(
        "cellserve.artifact.bytes",
        study.handle.source_len() as f64,
        "B",
    );
    metrics.put_exact(
        "cellserve.artifact.bytes_copied",
        study.handle.copied_bytes() as f64,
        "B",
    );
    let attempted =
        plan.ingest_reps as u64 * u64::from(plan.ingest_epochs) + plan.epochs + SETUP_REPS as u64;
    put_common(&mut metrics, tracer, measure_wall_s, attempted, 0)?;

    Ok(Record {
        workload: "refresh".to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced: args.traced,
        deps: built_against().to_owned(),
        trace_digest: digest_of(&inputs),
        answer_digest: digest_of(&outputs),
        attempted,
        failed: 0,
        plan: plan.to_json(),
        machine: machine(),
        metrics,
    })
}
