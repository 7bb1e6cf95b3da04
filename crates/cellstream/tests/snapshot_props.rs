//! Property tests for checkpoint durability: every snapshot the engine
//! can express round-trips losslessly through its sealed bytes (and
//! through a file on disk), and **any** single-byte corruption or
//! truncation of the sealed bytes is rejected by the seal — CRC-32
//! catches every burst error up to 32 bits, so a one-byte change can
//! never restore as a silently-wrong engine.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use cellstream::{
    BeaconRow, DemandRow, HyperLogLog, ResolverRow, ShardSnapshot, Snapshot, SpaceSaving,
    StreamConfig, SNAPSHOT_VERSION,
};
use netaddr::{Asn, Block24, Block48, BlockId};

fn arb_block() -> impl Strategy<Value = BlockId> {
    prop_oneof![
        any::<u32>().prop_map(|i| BlockId::V4(Block24::from_index(i))),
        any::<u64>().prop_map(|i| BlockId::V6(Block48::from_index(i))),
    ]
}

fn arb_beacon() -> impl Strategy<Value = BeaconRow> {
    (
        arb_block(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(block, asn, hits_total, netinfo_hits, cellular_hits, wifi_hits, other_hits)| {
                BeaconRow {
                    block,
                    asn: Asn(asn),
                    hits_total,
                    netinfo_hits,
                    cellular_hits,
                    wifi_hits,
                    other_hits,
                }
            },
        )
}

/// Floats travel as their bit patterns, so every one of them must come
/// back exactly: ordinary sums, both zeros, subnormals, infinities and
/// NaNs with arbitrary payloads.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e12f64..1.0e12,
        any::<u64>().prop_map(f64::from_bits),
        any::<u64>().prop_map(|payload| f64::from_bits(f64::NAN.to_bits() | payload)),
        (0usize..6).prop_map(|i| [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            f64::MAX
        ][i]),
    ]
}

fn arb_demand() -> impl Strategy<Value = DemandRow> {
    (arb_block(), any::<u32>(), arb_f64(), any::<u32>()).prop_map(|(block, asn, acc, days_seen)| {
        DemandRow {
            block,
            asn: Asn(asn),
            acc,
            days_seen,
        }
    })
}

fn arb_resolver(precision: u8) -> impl Strategy<Value = ResolverRow> {
    (any::<u32>(), prop::collection::vec(any::<u64>(), 0..60)).prop_map(move |(resolver, items)| {
        let mut sketch = HyperLogLog::new(precision);
        for i in items {
            sketch.insert_u64(i);
        }
        ResolverRow { resolver, sketch }
    })
}

fn arb_heavy(capacity: usize) -> impl Strategy<Value = SpaceSaving> {
    prop::collection::vec((arb_block(), arb_f64()), 0..40).prop_map(move |offers| {
        let mut s = SpaceSaving::new(capacity);
        for (block, w) in offers {
            s.offer(block, w);
        }
        s
    })
}

fn arb_shard(precision: u8, capacity: usize) -> impl Strategy<Value = ShardSnapshot> {
    (
        any::<u64>(),
        prop::collection::vec(arb_beacon(), 0..6),
        prop::collection::vec(arb_demand(), 0..6),
        prop::collection::vec(arb_resolver(precision), 0..4),
        arb_heavy(capacity),
    )
        .prop_map(
            |(events_seen, mut beacons, mut demand, mut resolvers, heavy)| {
                // The engine flattens maps, so rows are unique and in
                // key order; the decoder insists on it.
                beacons.sort_by_key(|b| b.block);
                beacons.dedup_by_key(|b| b.block);
                demand.sort_by_key(|d| d.block);
                demand.dedup_by_key(|d| d.block);
                resolvers.sort_by_key(|r| r.resolver);
                resolvers.dedup_by_key(|r| r.resolver);
                ShardSnapshot {
                    events_seen,
                    beacons,
                    demand,
                    resolvers,
                    heavy,
                }
            },
        )
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (1u32..=3, 4u8..=8, 1usize..=8).prop_flat_map(|(shards, precision, capacity)| {
        (
            prop::collection::vec(arb_shard(precision, capacity), shards as usize),
            0u32..=12,
            0u32..=12,
            1u32..=30,
        )
            .prop_map(move |(shard_vec, a, b, smoothing_days)| Snapshot {
                version: SNAPSHOT_VERSION,
                config: StreamConfig {
                    shards,
                    hll_precision: precision,
                    heavy_capacity: capacity,
                },
                epochs_total: a.max(b),
                epochs_done: a.min(b),
                smoothing_days,
                shards: shard_vec,
            })
    })
}

proptest! {
    /// The sealed bytes are lossless for every expressible snapshot,
    /// and canonical: decoding and re-encoding reproduces them.
    #[test]
    fn snapshot_bytes_roundtrip(snap in arb_snapshot()) {
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes);
        prop_assert!(back.is_ok(), "roundtrip failed: {:?}", back.err());
        let back = back.unwrap();
        // `NaN != NaN` under `==`, so compare what both print (every
        // field) and what both seal to (every float, bit for bit).
        prop_assert_eq!(format!("{back:?}"), format!("{snap:?}"));
        prop_assert_eq!(back.to_bytes(), bytes, "to_bytes(from_bytes(b)) == b");
    }

    /// The on-disk form (atomic write of the same bytes) is just as
    /// lossless.
    #[test]
    fn snapshot_file_roundtrips(snap in arb_snapshot()) {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("snapshot_props");
        fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("roundtrip.ckpt");
        snap.write_to(&path).expect("write sealed snapshot");
        let back = Snapshot::read_from(&path).expect("read sealed snapshot");
        prop_assert_eq!(back.to_bytes(), snap.to_bytes());
    }

    /// Flipping any nonzero bit pattern into any single byte of a sealed
    /// checkpoint is detected, wherever it lands — body, or the
    /// trailer's own length/CRC/magic fields.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        snap in arb_snapshot(),
        at in any::<prop::sample::Index>(),
        delta in 1u8..=255,
    ) {
        let mut bytes = snap.to_bytes();
        let i = at.index(bytes.len());
        bytes[i] ^= delta;
        prop_assert!(Snapshot::from_bytes(&bytes).is_err(), "byte {} xor {:#04x} went unnoticed", i, delta);
    }

    /// Every strict prefix of a sealed checkpoint — any torn write the
    /// atomic rename could conceivably have let through — is rejected.
    #[test]
    fn any_truncation_is_rejected(snap in arb_snapshot(), at in any::<prop::sample::Index>()) {
        let sealed = snap.to_bytes();
        let keep = at.index(sealed.len());
        prop_assert!(Snapshot::from_bytes(&sealed[..keep]).is_err(), "prefix of {} bytes passed", keep);
    }
}
