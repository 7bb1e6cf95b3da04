//! Chaos suite: runs killed and corrupted at deterministic points must
//! recover from the last good checkpoint and end **byte-identical** to a
//! fault-free run — same canonical snapshot bytes, same bit-exact
//! datasets, same sketches. Each scenario is a seeded [`FaultPlan`], so
//! a failure here reproduces exactly.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cdnsim::{CdnConfig, EpochGate, EventSource, SourceErrorKind};
use cellstream::{
    run_chaos, ChaosError, ChaosReport, CheckpointStore, Fault, FaultInjector, FaultPlan,
    IngestEngine, IngestError, ResolverMap, StreamConfig, StreamOutputs,
};
use dnssim::{generate_dns, DnsSim};
use worldgen::{World, WorldConfig};

const EPOCHS: u32 = 6;

fn cfg() -> StreamConfig {
    StreamConfig {
        shards: 3,
        ..Default::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn mini_setup() -> (World, DnsSim) {
    let world = World::generate(WorldConfig::mini());
    let dns = generate_dns(&world);
    (world, dns)
}

/// The fault-free truth: final canonical snapshot plus folded outputs.
fn reference(world: &World, dns: &DnsSim) -> (Vec<u8>, StreamOutputs) {
    let source = EventSource::new(world, CdnConfig::default(), EPOCHS);
    let mut engine = IngestEngine::for_source(cfg(), &source, ResolverMap::from_dns(dns));
    engine.run_to_end(&source);
    (engine.snapshot().to_bytes(), engine.finalize())
}

/// Run the full stream under `plan`, recovering through a fresh store.
fn run_plan(
    world: &World,
    dns: &DnsSim,
    dir: &Path,
    plan: FaultPlan,
) -> (IngestEngine, ChaosReport) {
    let injector = Arc::new(FaultInjector::new(plan));
    let gate: Arc<dyn EpochGate> = injector.clone();
    let source = EventSource::new(world, CdnConfig::default(), EPOCHS).with_gate(gate);
    let store = CheckpointStore::new(dir, 3);
    run_chaos(
        &source,
        cfg(),
        &ResolverMap::from_dns(dns),
        &store,
        &injector,
        8,
    )
    .expect("chaos run recovers")
}

fn assert_outputs_eq(a: &StreamOutputs, b: &StreamOutputs) {
    assert_eq!(a.beacons.len(), b.beacons.len());
    for (x, y) in a.beacons.iter().zip(b.beacons.iter()) {
        assert_eq!(x, y);
    }
    assert_eq!(a.demand.len(), b.demand.len());
    for (x, y) in a.demand.iter().zip(b.demand.iter()) {
        assert_eq!(x.block, y.block);
        assert_eq!(x.asn, y.asn);
        assert_eq!(x.du.to_bits(), y.du.to_bits(), "bit-exact demand");
    }
    assert_eq!(a.sketches, b.sketches);
}

/// Plan A: the process dies mid-epoch while the newest checkpoint on
/// disk is bit-flipped. Recovery must reject the corrupt file, fall back
/// one checkpoint, and replay forward.
#[test]
fn crash_with_flipped_newest_checkpoint_recovers_exactly() {
    let (world, dns) = mini_setup();
    let (ref_bytes, ref_outputs) = reference(&world, &dns);
    let dir = tmp_dir("chaos_plan_a");
    let plan = FaultPlan {
        seed: 1,
        faults: vec![
            Fault::Crash {
                epoch: 3,
                after_events: 100,
            },
            Fault::FlipCheckpointBytes { epoch: 3, flips: 2 },
        ],
    };
    let (engine, report) = run_plan(&world, &dns, &dir, plan);
    assert_eq!(
        engine.snapshot().to_bytes(),
        ref_bytes,
        "byte-identical state"
    );
    assert_outputs_eq(&engine.finalize(), &ref_outputs);
    assert_eq!(report.crashes, 1, "{:?}", report.log);
    assert!(report.checkpoints_rejected >= 1, "{:?}", report.log);
    let _ = fs::remove_dir_all(&dir);
}

/// Plan B: two shards die in the same epoch and the only retained
/// checkpoint is truncated, so both shards rebuild from scratch by
/// replaying their slice of every done epoch.
#[test]
fn multi_shard_kill_with_truncated_checkpoint_recovers_exactly() {
    let (world, dns) = mini_setup();
    let (ref_bytes, ref_outputs) = reference(&world, &dns);
    let dir = tmp_dir("chaos_plan_b");
    let plan = FaultPlan {
        seed: 2,
        faults: vec![
            Fault::ShardKill {
                epoch: 1,
                shard: 0,
                after_events: 30,
            },
            Fault::ShardKill {
                epoch: 1,
                shard: 2,
                after_events: 30,
            },
            Fault::TruncateCheckpoint {
                epoch: 1,
                keep_bytes: 64,
            },
        ],
    };
    let (engine, report) = run_plan(&world, &dns, &dir, plan);
    assert_eq!(
        engine.snapshot().to_bytes(),
        ref_bytes,
        "byte-identical state"
    );
    assert_outputs_eq(&engine.finalize(), &ref_outputs);
    assert_eq!(report.shard_recoveries, 2, "{:?}", report.log);
    // Both shards found no usable base (the sole checkpoint was truncated)
    // and replayed epochs 0..2 from the source.
    assert_eq!(report.replayed_epochs, 4, "{:?}", report.log);
    assert!(report.checkpoints_rejected >= 2, "{:?}", report.log);
    assert_eq!(report.crashes, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Plan C: a stalling source, then a boundary crash with the two newest
/// checkpoints corrupted in different ways — recovery must walk back two
/// files to the last good one.
#[test]
fn boundary_crash_with_two_bad_checkpoints_recovers_exactly() {
    let (world, dns) = mini_setup();
    let (ref_bytes, ref_outputs) = reference(&world, &dns);
    let dir = tmp_dir("chaos_plan_c");
    let plan = FaultPlan {
        seed: 3,
        faults: vec![
            Fault::SourceStall { epoch: 0, times: 3 },
            Fault::Crash {
                epoch: 4,
                after_events: 0,
            },
            Fault::FlipCheckpointBytes { epoch: 4, flips: 1 },
            Fault::TruncateCheckpoint {
                epoch: 3,
                keep_bytes: 10,
            },
        ],
    };
    let (engine, report) = run_plan(&world, &dns, &dir, plan);
    assert_eq!(
        engine.snapshot().to_bytes(),
        ref_bytes,
        "byte-identical state"
    );
    assert_outputs_eq(&engine.finalize(), &ref_outputs);
    assert_eq!(report.stalls, 3, "{:?}", report.log);
    assert_eq!(report.crashes, 1, "{:?}", report.log);
    assert!(
        report.checkpoints_rejected >= 2,
        "must skip both corrupt files: {:?}",
        report.log
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A permanent source failure is not recoverable: the supervisor
/// surfaces a clean typed error instead of panicking or spinning.
#[test]
fn permanent_source_failure_is_a_clean_error() {
    let (world, dns) = mini_setup();
    let dir = tmp_dir("chaos_source_fail");
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        seed: 4,
        faults: vec![Fault::SourceFail { epoch: 2 }],
    }));
    let gate: Arc<dyn EpochGate> = injector.clone();
    let source = EventSource::new(&world, CdnConfig::default(), EPOCHS).with_gate(gate);
    let store = CheckpointStore::new(&dir, 3);
    let err = run_chaos(
        &source,
        cfg(),
        &ResolverMap::from_dns(&dns),
        &store,
        &injector,
        8,
    )
    .err()
    .expect("permanent failure cannot be recovered");
    match err {
        ChaosError::Ingest(IngestError::Source(e)) => {
            assert_eq!(e.epoch, 2);
            assert_eq!(e.kind, SourceErrorKind::Failed);
        }
        other => panic!("unexpected error: {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// An unrecoverable crash loop (crashing at a boundary with no
/// checkpoint possible before it, over and over) exhausts the restart
/// budget instead of spinning forever.
#[test]
fn restart_budget_is_enforced() {
    let (world, dns) = mini_setup();
    let dir = tmp_dir("chaos_budget");
    // Ten distinct crash faults all at epoch 0: each restart re-crashes
    // before the first checkpoint can be written.
    let faults = (0..10)
        .map(|_| Fault::Crash {
            epoch: 0,
            after_events: 0,
        })
        .collect();
    let injector = Arc::new(FaultInjector::new(FaultPlan { seed: 5, faults }));
    let gate: Arc<dyn EpochGate> = injector.clone();
    let source = EventSource::new(&world, CdnConfig::default(), EPOCHS).with_gate(gate);
    let store = CheckpointStore::new(&dir, 3);
    let err = run_chaos(
        &source,
        cfg(),
        &ResolverMap::from_dns(&dns),
        &store,
        &injector,
        3,
    )
    .err()
    .expect("restart budget must trip");
    match err {
        ChaosError::RestartsExhausted { limit } => assert_eq!(limit, 3),
        other => panic!("unexpected error: {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The mid-epoch fault offsets used by the plans above actually fire:
/// every epoch of the mini stream carries comfortably more events than
/// the largest `after_events` any plan uses.
#[test]
fn fault_offsets_are_reachable() {
    let (world, _) = mini_setup();
    let source = EventSource::new(&world, CdnConfig::default(), EPOCHS);
    let router = cellstream::ShardRouter::new(cfg().shards);
    for epoch in 0..EPOCHS {
        let mut per_shard = vec![0u64; cfg().shards as usize];
        for ev in source.epoch(epoch) {
            per_shard[router.shard_of(ev.block()) as usize] += 1;
        }
        let total: u64 = per_shard.iter().sum();
        assert!(total > 300, "epoch {epoch} has only {total} events");
        for (shard, &n) in per_shard.iter().enumerate() {
            assert!(n > 30, "epoch {epoch} shard {shard} has only {n} events");
        }
    }
}
