//! The acceptance scenario: on a seeded churn world where well under
//! 10% of blocks change between epochs, chained deltas stay
//! byte-identical to full rebuilds, each delta is a small fraction of
//! the full artifact, and the memo makes unchanged ASes free.

use celldelta::{
    apply_delta, build_delta, changed_blocks, classify_epoch, ChurnWorld, Delta, EpochCounters,
    IncrementalClassifier,
};
use cellobs::Observer;
use cellspot::DEFAULT_THRESHOLD;

const EPOCHS: u64 = 6;

fn full_build(counters: &EpochCounters) -> Vec<u8> {
    cellserve::Artifact::encode(
        &classify_epoch(counters, DEFAULT_THRESHOLD),
        cellserve::ArtifactFormat::V2,
    )
}

#[test]
fn chained_deltas_track_full_rebuilds_byte_for_byte() {
    let world = ChurnWorld::demo(42);
    let obs = Observer::enabled();
    let mut inc = IncrementalClassifier::new(DEFAULT_THRESHOLD, obs.clone());

    let mut live = cellserve::Artifact::encode(
        &inc.classify(&world.epoch_counters(0)),
        cellserve::ArtifactFormat::V2,
    );
    assert_eq!(live, full_build(&world.epoch_counters(0)));

    let mut prev_counters = world.epoch_counters(0);
    let mut ops_total = 0;
    for epoch in 1..=EPOCHS {
        let counters = world.epoch_counters(epoch);

        // The scenario premise: <10% of blocks change between epochs.
        let changed = changed_blocks(&prev_counters, &counters);
        assert!(
            (changed as f64) < 0.10 * world.total_blocks() as f64,
            "epoch {epoch}: {changed} of {} blocks churned",
            world.total_blocks()
        );

        // Incremental classification + delta against the live bytes.
        let target =
            cellserve::Artifact::encode(&inc.classify(&counters), cellserve::ArtifactFormat::V2);
        let delta_bytes = build_delta(&live, &target, epoch - 1, epoch).expect("build delta");

        // The delta is a small fraction of the full artifact.
        assert!(
            (delta_bytes.len() as f64) < 0.25 * (target.len() as f64),
            "epoch {epoch}: delta {} bytes vs full {} bytes",
            delta_bytes.len(),
            target.len()
        );

        // Applying it reproduces the full rebuild exactly.
        let patched = apply_delta(&live, &delta_bytes).expect("apply delta");
        assert_eq!(
            patched,
            full_build(&counters),
            "epoch {epoch}: apply == full rebuild"
        );
        assert_eq!(patched, target, "incremental classify matches too");

        // The delta's metadata chains correctly.
        let delta = Delta::from_bytes(&delta_bytes).expect("decode");
        assert_eq!(delta.base_hash, cellserve::content_hash(&live));
        assert_eq!(delta.target_hash, cellserve::content_hash(&patched));
        assert_eq!((delta.base_epoch, delta.epoch), (epoch - 1, epoch));
        ops_total += delta.op_count();

        live = patched;
        prev_counters = counters;
    }

    // After six epochs of chained applies, the live bytes still equal a
    // from-scratch rebuild at the final epoch.
    assert_eq!(live, full_build(&world.epoch_counters(EPOCHS)));
    assert!(ops_total > 0, "block churn must move some labels");

    // Memoization did real work: most ASes hold still each epoch.
    let snap = obs.snapshot();
    let hits = snap.counters["delta.memo.hits"];
    let misses = snap.counters["delta.memo.misses"];
    assert!(
        hits > misses && misses > 0,
        "unchanged ASes must dominate: {hits} hits vs {misses} misses"
    );
}

#[test]
fn stale_and_corrupt_deltas_never_apply() {
    let world = ChurnWorld::demo(7);
    let e0 = full_build(&world.epoch_counters(0));
    let e1 = full_build(&world.epoch_counters(1));
    let delta = build_delta(&e0, &e1, 0, 1).expect("build");

    // Bit flips anywhere in the delta are rejected.
    for i in (0..delta.len()).step_by(7) {
        let mut bad = delta.clone();
        bad[i] ^= 0x10;
        assert!(apply_delta(&e0, &bad).is_err(), "flip at {i}");
    }
    // Truncations are rejected.
    for keep in (0..delta.len()).step_by(11) {
        assert!(
            apply_delta(&e0, &delta[..keep]).is_err(),
            "truncated to {keep}"
        );
    }
    // A delta never applies onto its own output (hash chain broken).
    let patched = apply_delta(&e0, &delta).expect("apply");
    if patched != e0 {
        assert!(apply_delta(&patched, &delta).is_err(), "re-apply must fail");
    }
}
