//! Checkpoint/restore integration: killing the ingest mid-stream and
//! resuming from disk must be indistinguishable from never stopping.

use std::path::PathBuf;

use cdnsim::{CdnConfig, EventSource};
use cellstream::{IngestEngine, ResolverMap, Snapshot, StreamConfig, StreamError};
use dnssim::generate_dns;
use worldgen::{World, WorldConfig};

fn tmp_path(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(name);
    p
}

fn mini_setup() -> (World, dnssim::DnsSim) {
    let world = World::generate(WorldConfig::mini());
    let dns = generate_dns(&world);
    (world, dns)
}

#[test]
fn restore_and_continue_matches_uninterrupted_run() {
    let (world, dns) = mini_setup();
    let source = EventSource::new(&world, CdnConfig::default(), 6);
    let cfg = StreamConfig {
        shards: 3,
        ..Default::default()
    };

    // Reference: never interrupted.
    let mut uninterrupted = IngestEngine::for_source(cfg, &source, ResolverMap::from_dns(&dns));
    for _ in 0..3 {
        uninterrupted.ingest_epoch(&source);
    }
    let mid_reference = uninterrupted.snapshot().to_bytes();
    uninterrupted.run_to_end(&source);
    let final_reference = uninterrupted.snapshot().to_bytes();

    // Killed after 3 epochs, checkpointed to disk, restored, resumed.
    let path = tmp_path("cellstream_mid.ckpt");
    {
        let mut engine = IngestEngine::for_source(cfg, &source, ResolverMap::from_dns(&dns));
        for _ in 0..3 {
            engine.ingest_epoch(&source);
        }
        let snap = engine.snapshot();
        assert_eq!(
            snap.to_bytes(),
            mid_reference,
            "same state must seal to identical bytes"
        );
        snap.write_to(&path).expect("write checkpoint");
        // Engine dropped here: the "kill".
    }
    let snap = Snapshot::read_from(&path).expect("read checkpoint");
    let mut resumed = IngestEngine::restore(&snap, ResolverMap::from_dns(&dns));
    assert_eq!(resumed.epochs_done(), 3);
    assert!(!resumed.finished());
    resumed.run_to_end(&source);
    assert_eq!(
        resumed.snapshot().to_bytes(),
        final_reference,
        "resumed run must end in byte-identical state"
    );

    // And the folded outputs agree exactly, not just the serialized state.
    let a = uninterrupted.finalize();
    let b = resumed.finalize();
    assert_eq!(a.beacons.len(), b.beacons.len());
    for (x, y) in a.beacons.iter().zip(b.beacons.iter()) {
        assert_eq!(x, y);
    }
    assert_eq!(a.demand.len(), b.demand.len());
    for (x, y) in a.demand.iter().zip(b.demand.iter()) {
        assert_eq!(x.block, y.block);
        assert_eq!(x.du.to_bits(), y.du.to_bits());
    }
    assert_eq!(a.sketches, b.sketches);
}

#[test]
fn snapshot_roundtrips_through_disk_losslessly() {
    let (world, dns) = mini_setup();
    let source = EventSource::new(&world, CdnConfig::default(), 4);
    let mut engine = IngestEngine::for_source(
        StreamConfig::default(),
        &source,
        ResolverMap::from_dns(&dns),
    );
    engine.ingest_epoch(&source);
    engine.ingest_epoch(&source);
    let snap = engine.snapshot();

    let path = tmp_path("cellstream_roundtrip.ckpt");
    snap.write_to(&path).expect("write");
    let back = Snapshot::read_from(&path).expect("read");
    assert_eq!(snap, back, "disk roundtrip must be lossless");
    assert_eq!(snap.to_bytes(), back.to_bytes());
    assert_eq!(back.epochs_done, 2);
    assert_eq!(back.epochs_total, 4);
}

#[test]
fn unknown_snapshot_version_is_rejected() {
    let (world, dns) = mini_setup();
    let source = EventSource::new(&world, CdnConfig::default(), 2);
    let mut engine = IngestEngine::for_source(
        StreamConfig::default(),
        &source,
        ResolverMap::from_dns(&dns),
    );
    engine.ingest_epoch(&source);
    let mut snap = engine.snapshot();
    snap.version = 999;
    let err = Snapshot::from_bytes(&snap.to_bytes()).unwrap_err();
    assert!(
        matches!(err, StreamError::UnsupportedVersion(999)),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn finished_engine_refuses_further_epochs() {
    let (world, dns) = mini_setup();
    let source = EventSource::new(&world, CdnConfig::default(), 2);
    let mut engine = IngestEngine::for_source(
        StreamConfig::default(),
        &source,
        ResolverMap::from_dns(&dns),
    );
    engine.run_to_end(&source);
    assert!(engine.finished());
    assert_eq!(engine.epochs_done(), 2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.ingest_epoch(&source);
    }));
    assert!(result.is_err(), "ingesting past the end must panic");
}
