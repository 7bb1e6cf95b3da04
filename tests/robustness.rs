//! Failure-injection and degenerate-input robustness: the pipeline must
//! handle empty, tiny, and pathological datasets without panicking and
//! with sensible (empty) results.

use std::fs;
use std::path::PathBuf;

use cellspotting::asdb::AsDatabase;
use cellspotting::cdnsim::{
    BeaconDataset, BeaconRecord, CdnConfig, DemandDataset, DemandRecord, EventSource,
};
use cellspotting::cellspot::{
    v6_deployment, BlockIndex, Classification, Pipeline, RatioDistributions, StudyConfig, WorldView,
};
use cellspotting::cellstream::{
    IngestEngine, IngestError, ResolverMap, Snapshot, StreamConfig, StreamError,
};
use cellspotting::netaddr::{Asn, Block24, BlockId};
use cellspotting::worldgen::{World, WorldConfig};

#[test]
fn empty_datasets_produce_empty_study() {
    let beacons = BeaconDataset::from_records("t", vec![]);
    let demand = DemandDataset::from_raw("t", vec![]);
    let study = Pipeline::new(&beacons, &demand)
        .run()
        .expect("default study config is valid")
        .into_study();
    assert_eq!(study.index.len(), 0);
    assert!(study.classification.is_empty());
    assert!(study.filter.candidates.is_empty());
    assert!(study.filter.cellular_ases.is_empty());
    assert_eq!(study.mixed.counts(), (0, 0));
    assert_eq!(study.ranking.rows.len(), 0);
    assert_eq!(study.view.global_cellular_pct(), 0.0);
    assert!(study.validations.is_empty());
    // Rendering the artifacts over an empty study must not panic either.
    let artifacts = cellspotting::report::all_artifacts(
        &study,
        &AsDatabase::new(),
        &cellspotting::dnssim::DnsSim::default(),
    );
    for a in &artifacts {
        let _ = a.render();
        let _ = a.to_csv();
    }
}

#[test]
fn beacon_only_world_classifies_without_demand() {
    // All blocks have beacons, nothing has demand: classification works,
    // demand-weighted quantities are all zero.
    let mk = |i: u32, cell: u64| BeaconRecord {
        block: BlockId::V4(Block24::from_index(i)),
        asn: Asn(1),
        hits_total: 100,
        netinfo_hits: 100,
        cellular_hits: cell,
        wifi_hits: 100 - cell,
        other_hits: 0,
    };
    let beacons = BeaconDataset::from_records("t", vec![mk(1, 95), mk(2, 5)]);
    let demand = DemandDataset::from_raw("t", vec![]);
    let index = BlockIndex::build(&beacons, &demand);
    let class = Classification::with_default_threshold(&index);
    assert_eq!(class.len(), 1);
    let dist = RatioDistributions::build(&index);
    assert_eq!(dist.v4_subnets.len(), 2);
    assert!(dist.v4_demand.is_empty(), "no demand → empty weighted CDF");
}

#[test]
fn demand_only_world_detects_nothing() {
    // Demand with zero beacon coverage: nothing is classifiable, the
    // world view still rolls up total demand.
    let demand = DemandDataset::from_raw(
        "t",
        vec![DemandRecord {
            block: BlockId::V4(Block24::from_index(7)),
            asn: Asn(1),
            du: 5.0,
        }],
    );
    let beacons = BeaconDataset::from_records("t", vec![]);
    let index = BlockIndex::build(&beacons, &demand);
    let class = Classification::with_default_threshold(&index);
    assert!(class.is_empty());
    let db = AsDatabase::from_records(vec![cellspotting::asdb::AsRecord::new(
        Asn(1),
        "op",
        cellspotting::netaddr::CountryCode::literal("US"),
        cellspotting::netaddr::Continent::NorthAmerica,
        cellspotting::asdb::AsKind::FixedOnly,
    )]);
    let view = WorldView::build(&index, &class, &db);
    assert_eq!(view.global_cellular_pct(), 0.0);
    assert!((view.global_total_du - 100_000.0).abs() < 1e-6);
}

#[test]
fn single_block_world() {
    let beacons = BeaconDataset::from_records(
        "t",
        vec![BeaconRecord {
            block: BlockId::V4(Block24::from_index(1)),
            asn: Asn(9),
            hits_total: 1,
            netinfo_hits: 1,
            cellular_hits: 1,
            wifi_hits: 0,
            other_hits: 0,
        }],
    );
    let demand = DemandDataset::from_raw(
        "t",
        vec![DemandRecord {
            block: BlockId::V4(Block24::from_index(1)),
            asn: Asn(9),
            du: 1.0,
        }],
    );
    let study = Pipeline::new(&beacons, &demand)
        .study_config(StudyConfig::default().with_min_hits(1.0))
        .run()
        .expect("valid study config")
        .into_study();
    // One cellular block, whole world's demand: the single AS is a
    // candidate, passes rules 1-2, and dies at rule 3 (no known class).
    assert_eq!(study.classification.len(), 1);
    assert_eq!(study.filter.candidates, vec![Asn(9)]);
    assert!(study.filter.cellular_ases.is_empty());
    assert_eq!(study.filter.removed_class, vec![Asn(9)]);
}

#[test]
fn v6_deployment_handles_empty_inputs() {
    let beacons = BeaconDataset::from_records("t", vec![]);
    let demand = DemandDataset::from_raw("t", vec![]);
    let index = BlockIndex::build(&beacons, &demand);
    let class = Classification::with_default_threshold(&index);
    let v6 = v6_deployment(&[], &index, &class, &AsDatabase::new());
    assert_eq!(v6.v6_ases, 0);
    assert_eq!(v6.fraction(), 0.0);
    assert!(v6.top_countries.is_empty());
}

#[test]
fn nan_free_everywhere_on_degenerate_inputs() {
    // One block with hits but no NetInfo data at all.
    let beacons = BeaconDataset::from_records(
        "t",
        vec![BeaconRecord {
            block: BlockId::V4(Block24::from_index(3)),
            asn: Asn(2),
            hits_total: 50,
            netinfo_hits: 0,
            cellular_hits: 0,
            wifi_hits: 0,
            other_hits: 0,
        }],
    );
    let demand = DemandDataset::from_raw("t", vec![]);
    let study = Pipeline::new(&beacons, &demand)
        .run()
        .expect("default study config is valid")
        .into_study();
    assert!(study.view.global_cellular_pct().is_finite());
    assert!(study.mixed.mixed_fraction().is_finite());
    assert!(study.ranking.top_share(10).is_finite());
    assert!(
        study.classification.is_empty(),
        "no NetInfo → unclassifiable"
    );
}

#[test]
fn degenerate_stream_configs_are_errors_not_panics() {
    let zero_shards = StreamConfig {
        shards: 0,
        ..Default::default()
    };
    let err = IngestEngine::try_with_layout(zero_shards, 4, 28, ResolverMap::empty())
        .err()
        .expect("zero shards must be rejected");
    match err {
        IngestError::BadConfig(msg) => assert!(msg.contains("shard"), "{msg}"),
        other => panic!("unexpected error: {other:?}"),
    }

    let bad_precision = StreamConfig {
        hll_precision: 0,
        ..Default::default()
    };
    assert!(IngestEngine::try_with_layout(bad_precision, 4, 28, ResolverMap::empty()).is_err());

    let no_counters = StreamConfig {
        heavy_capacity: 0,
        ..Default::default()
    };
    assert!(IngestEngine::try_with_layout(no_counters, 4, 28, ResolverMap::empty()).is_err());
}

#[test]
fn checkpoint_at_epoch_zero_restores_to_a_full_run() {
    // `--stop-after-epoch 0` leaves a checkpoint with nothing ingested;
    // resuming it must replay the whole stream bit-for-bit.
    let world = World::generate(WorldConfig::mini());
    let source = EventSource::new(&world, CdnConfig::default(), 3);
    let cfg = StreamConfig {
        shards: 2,
        ..Default::default()
    };
    let mut direct = IngestEngine::for_source(cfg, &source, ResolverMap::empty());
    direct.run_to_end(&source);

    let snap = IngestEngine::for_source(cfg, &source, ResolverMap::empty()).snapshot();
    assert_eq!(snap.epochs_done, 0);
    let mut resumed =
        IngestEngine::try_restore(&snap, ResolverMap::empty()).expect("epoch-0 snapshot restores");
    resumed.run_to_end(&source);
    assert_eq!(resumed.snapshot(), direct.snapshot());
}

#[test]
fn resume_from_the_final_epoch_is_finished_not_a_panic() {
    let world = World::generate(WorldConfig::mini());
    let source = EventSource::new(&world, CdnConfig::default(), 2);
    let cfg = StreamConfig {
        shards: 2,
        ..Default::default()
    };
    let mut engine = IngestEngine::for_source(cfg, &source, ResolverMap::empty());
    engine.run_to_end(&source);

    let mut resumed = IngestEngine::try_restore(&engine.snapshot(), ResolverMap::empty())
        .expect("final snapshot restores");
    assert!(resumed.finished());
    let err = resumed
        .try_ingest_epoch(&source, None)
        .expect_err("nothing left to ingest");
    assert_eq!(err, IngestError::Finished { epochs: 2 });
    // Finalizing a fully-resumed engine still works.
    let outputs = resumed.finalize();
    let direct = engine.finalize();
    assert_eq!(outputs.beacons.len(), direct.beacons.len());
    assert_eq!(outputs.demand.len(), direct.demand.len());
}

#[test]
fn doctored_snapshots_are_rejected_on_restore() {
    let world = World::generate(WorldConfig::mini());
    let source = EventSource::new(&world, CdnConfig::default(), 2);
    let cfg = StreamConfig {
        shards: 2,
        ..Default::default()
    };
    let mut engine = IngestEngine::for_source(cfg, &source, ResolverMap::empty());
    engine.ingest_epoch(&source);
    let snap = engine.snapshot();

    let mut fewer_shards = snap.clone();
    fewer_shards.shards.pop();
    assert!(IngestEngine::try_restore(&fewer_shards, ResolverMap::empty()).is_err());

    let mut wrong_config = snap.clone();
    wrong_config.config.shards += 1;
    assert!(IngestEngine::try_restore(&wrong_config, ResolverMap::empty()).is_err());

    let mut ahead = snap.clone();
    ahead.epochs_done = ahead.epochs_total + 1;
    assert!(IngestEngine::try_restore(&ahead, ResolverMap::empty()).is_err());

    let mut future_version = snap;
    future_version.version += 1;
    assert!(IngestEngine::try_restore(&future_version, ResolverMap::empty()).is_err());
}

#[test]
fn unreadable_checkpoint_files_fail_cleanly() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("robustness_ckpt");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tmp dir");

    // Missing file: a clean I/O error, not a panic.
    assert!(matches!(
        Snapshot::read_from(&dir.join("absent.ckpt")),
        Err(StreamError::Io(_))
    ));

    let world = World::generate(WorldConfig::mini());
    let source = EventSource::new(&world, CdnConfig::default(), 1);
    let engine = IngestEngine::for_source(StreamConfig::default(), &source, ResolverMap::empty());
    let sealed = engine.snapshot().to_bytes();

    // Torn write: the front half of a checkpoint.
    let torn = dir.join("torn.ckpt");
    fs::write(&torn, &sealed[..sealed.len() / 2]).expect("write torn file");
    assert!(matches!(
        Snapshot::read_from(&torn),
        Err(StreamError::Integrity(_))
    ));

    // A well-formed snapshot body without the seal trailer is also
    // rejected: only sealed files count as checkpoints.
    let unsealed = dir.join("unsealed.ckpt");
    fs::write(&unsealed, &sealed[..sealed.len() - cellseal::TRAILER_LEN])
        .expect("write unsealed file");
    assert!(matches!(
        Snapshot::read_from(&unsealed),
        Err(StreamError::Integrity(_))
    ));

    // A checkpoint from before the binary format (JSON under a text
    // footer) is one more corrupt file.
    let old = dir.join("old.json");
    fs::write(
        &old,
        "{\n  \"version\": 1\n}\n#cellstream-checkpoint v1 len=17 crc32=00000000\n",
    )
    .expect("write old-format file");
    assert!(matches!(
        Snapshot::read_from(&old),
        Err(StreamError::Integrity(cellseal::SealError::TrailerMagic))
    ));

    let _ = fs::remove_dir_all(&dir);
}
