//! Property suite for the delta machinery: across random epoch-churn
//! worlds (all-/24 + all-/48, the shape classification produces) and
//! across arbitrary mixed-length prefix sets (every shape the merge
//! can meet), `apply(base, delta)` is byte-identical to a full
//! rebuild, the incremental classifier matches the one-shot
//! classifier, and decoded deltas re-encode canonically.

use celldelta::{
    apply_delta, build_delta, classify_epoch, ChurnWorld, Delta, DeltaError, EpochCounters,
    IncrementalClassifier,
};
use cellobs::Observer;
use cellserve::{Artifact, ArtifactFormat, AsClass, FrozenIndexBuilder, ServeLabel};
use cellspot::DEFAULT_THRESHOLD;
use netaddr::{Asn, Ipv4Net, Ipv6Net};
use proptest::prelude::*;

fn world_strategy() -> impl Strategy<Value = ChurnWorld> {
    (any::<u64>(), 40u32..120, 0u32..30, 5u32..20, 10u32..80).prop_map(
        |(seed, v4_blocks, v6_blocks, ases, churn_per_mille)| ChurnWorld {
            seed,
            v4_blocks,
            v6_blocks,
            ases,
            churn_per_mille,
        },
    )
}

fn full_build(counters: &EpochCounters) -> Vec<u8> {
    Artifact::encode(
        &classify_epoch(counters, DEFAULT_THRESHOLD),
        ArtifactFormat::V2,
    )
}

fn arb_label() -> impl Strategy<Value = ServeLabel> {
    (0u32..20, 0u8..3).prop_map(|(asn, class)| ServeLabel {
        asn: Asn(asn),
        class: AsClass::from_byte(class).expect("0..3 are the class bytes"),
    })
}

/// What becomes of one generated prefix between base and target.
#[derive(Clone, Copy, Debug)]
enum Fate {
    Unchanged,
    Relabeled(ServeLabel),
    Removed,
    Added,
}

fn arb_fate() -> impl Strategy<Value = Fate> {
    (0u8..4, arb_label()).prop_map(|(kind, l)| match kind {
        0 => Fate::Unchanged,
        1 => Fate::Relabeled(l),
        2 => Fate::Removed,
        _ => Fate::Added,
    })
}

/// Seal the base and target artifacts one generated prefix list
/// describes. Prefix lengths are arbitrary, so the delta's ops land in
/// many levels, before the first base entry, and after the last.
fn seal_pair(
    v4: &[(u32, u8, ServeLabel, Fate)],
    v6: &[(u128, u8, ServeLabel, Fate)],
) -> (Vec<u8>, Vec<u8>) {
    let mut base = FrozenIndexBuilder::new();
    let mut target = FrozenIndexBuilder::new();
    let sides = |l: ServeLabel, fate: Fate| match fate {
        Fate::Unchanged => (Some(l), Some(l)),
        Fate::Relabeled(new) => (Some(l), Some(new)),
        Fate::Removed => (Some(l), None),
        Fate::Added => (None, Some(l)),
    };
    for &(addr, len, l, fate) in v4 {
        let net = Ipv4Net::new(addr, len).expect("len ≤ 32");
        let (b, t) = sides(l, fate);
        if let Some(l) = b {
            base.insert_v4(net, l);
        }
        if let Some(l) = t {
            target.insert_v4(net, l);
        }
    }
    for &(addr, len, l, fate) in v6 {
        let net = Ipv6Net::new(addr, len).expect("len ≤ 128");
        let (b, t) = sides(l, fate);
        if let Some(l) = b {
            base.insert_v6(net, l);
        }
        if let Some(l) = t {
            target.insert_v6(net, l);
        }
    }
    (
        Artifact::encode(&base.build(), ArtifactFormat::V2),
        Artifact::encode(&target.build(), ArtifactFormat::V2),
    )
}

proptest! {
    #[test]
    fn apply_reproduces_the_target_across_mixed_length_prefix_sets(
        v4 in prop::collection::vec((any::<u32>(), 0u8..=32, arb_label(), arb_fate()), 0..48),
        v6 in prop::collection::vec((any::<u128>(), 0u8..=128, arb_label(), arb_fate()), 0..48),
    ) {
        let (base, target) = seal_pair(&v4, &v6);
        let delta = build_delta(&base, &target, 3, 4).expect("build delta");
        let patched = apply_delta(&base, &delta).expect("apply delta");
        prop_assert_eq!(&patched, &target, "apply(base, build(base, target)) == target");
        let decoded = Delta::from_bytes(&delta).expect("decode delta");
        prop_assert_eq!(decoded.to_bytes(), delta, "to_bytes(from_bytes(b)) == b");
        // And back again: the reverse delta restores the base bytes.
        let undo = build_delta(&target, &base, 4, 5).expect("build reverse delta");
        prop_assert_eq!(apply_delta(&target, &undo).expect("apply reverse"), base);
    }

    #[test]
    fn apply_equals_full_rebuild_across_churn_worlds(
        world in world_strategy(),
        epochs in 1u64..4,
    ) {
        for epoch in 0..epochs {
            let base = full_build(&world.epoch_counters(epoch));
            let target = full_build(&world.epoch_counters(epoch + 1));
            let delta = build_delta(&base, &target, epoch, epoch + 1).expect("build delta");
            let patched = apply_delta(&base, &delta).expect("apply delta");
            prop_assert_eq!(
                &patched,
                &target,
                "apply(base, delta) must be byte-identical to the full rebuild"
            );
        }
    }

    #[test]
    fn incremental_classifier_matches_one_shot(
        world in world_strategy(),
        epochs in 1u64..4,
    ) {
        let mut inc = IncrementalClassifier::new(DEFAULT_THRESHOLD, Observer::disabled());
        for epoch in 0..=epochs {
            let counters = world.epoch_counters(epoch);
            let incremental = inc.classify(&counters);
            let one_shot = classify_epoch(&counters, DEFAULT_THRESHOLD);
            prop_assert_eq!(incremental, one_shot, "epoch {}", epoch);
        }
    }

    #[test]
    fn deltas_reencode_canonically(world in world_strategy()) {
        let base = full_build(&world.epoch_counters(0));
        let target = full_build(&world.epoch_counters(1));
        let bytes = build_delta(&base, &target, 0, 1).expect("build delta");
        let decoded = Delta::from_bytes(&bytes).expect("decode delta");
        prop_assert_eq!(decoded.to_bytes(), bytes, "to_bytes(from_bytes(b)) == b");
    }

    #[test]
    fn wrong_base_is_always_rejected(world in world_strategy()) {
        let base = full_build(&world.epoch_counters(0));
        let target = full_build(&world.epoch_counters(1));
        let other = full_build(&world.epoch_counters(2));
        let delta = build_delta(&base, &target, 0, 1).expect("build delta");
        // Counter churn without label churn can leave consecutive
        // artifacts identical; rejection is only required when the
        // bytes actually differ.
        if other != base {
            let err = apply_delta(&other, &delta).expect_err("wrong base must be rejected");
            prop_assert!(matches!(err, DeltaError::BaseMismatch { .. }), "{}", err);
        }
    }
}
