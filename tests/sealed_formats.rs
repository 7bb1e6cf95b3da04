//! Every file this workspace seals — CELLSERV v1 and v2 artifacts,
//! CELLDELT deltas, CELLLOAD traces, ingest checkpoints — as one table:
//! a tiny fixed fixture per format, the FNV-1a 64 content hash of its
//! sealed bytes, and the format's real decoder.
//!
//! The golden hashes pin the bytes: a change to any encoder, or to the
//! envelope they share, that moves a single byte fails here first. The
//! damage suite then runs every single-bit flip and every truncation of
//! every fixture through its decoder, and checks what lies past the
//! seal — a newer version, a structurally broken body, another format's
//! file — is refused with the error class callers branch on. (The
//! envelope itself is tested exhaustively in `cellseal`.)

use cellspotting::cellserve::{
    content_hash, Artifact, ArtifactFormat, AsClass, FrozenIndex, IpKey, MappedIndex, ServeError,
    ServeLabel,
};
use cellspotting::cellstream::{
    BeaconRow, DemandRow, HyperLogLog, ResolverRow, ShardSnapshot, Snapshot, SpaceSaving,
    StreamConfig, StreamError, SNAPSHOT_VERSION,
};
use cellspotting::netaddr::{Asn, Block24, Block48, BlockId};

use celldelta::{Delta, DeltaError, PatchChange, PatchOp};
use cellload::{LoadError, Trace, TraceSegment};

fn index() -> FrozenIndex {
    let label = |asn: u32, class: AsClass| ServeLabel {
        asn: Asn(asn),
        class,
    };
    let mut b = FrozenIndex::builder();
    b.insert_v4(
        "10.0.0.0/8".parse().expect("cidr"),
        label(1, AsClass::Mixed),
    );
    b.insert_v4(
        "10.1.0.0/16".parse().expect("cidr"),
        label(2, AsClass::Dedicated),
    );
    b.insert_v4(
        "203.0.113.0/24".parse().expect("cidr"),
        label(2, AsClass::Dedicated),
    );
    b.insert_v6(
        "2001:db8::/48".parse().expect("cidr"),
        label(3, AsClass::Unknown),
    );
    b.insert_v6(
        "2001:db8:1::/64".parse().expect("cidr"),
        label(1, AsClass::Mixed),
    );
    b.build()
}

fn delta() -> Delta {
    Delta {
        base_hash: 0x1111_2222_3333_4444,
        target_hash: 0x5555_6666_7777_8888,
        base_epoch: 3,
        epoch: 4,
        v4: vec![
            PatchOp {
                len: 8,
                key: 0x0A00_0000,
                change: PatchChange::Add {
                    asn: 64500,
                    class: 1,
                },
            },
            PatchOp {
                len: 24,
                key: 0xC000_0200,
                change: PatchChange::Update {
                    asn: 64501,
                    class: 2,
                },
            },
            PatchOp {
                len: 24,
                key: 0xC633_6400,
                change: PatchChange::Remove,
            },
        ],
        v6: vec![PatchOp {
            len: 48,
            key: 0x2001_0db8_0000_0000_0000_0000_0000_0000,
            change: PatchChange::Add {
                asn: 64502,
                class: 2,
            },
        }],
    }
}

fn trace() -> Trace {
    Trace {
        preset: "steady".to_string(),
        seed: 42,
        segments: vec![
            TraceSegment {
                epoch: 0,
                queries: vec![IpKey::V4(0x0A00_0001), IpKey::V6(1 << 80)],
            },
            TraceSegment {
                epoch: 1,
                queries: vec![IpKey::V4(0xC000_0201)],
            },
        ],
    }
}

fn snapshot() -> Snapshot {
    let v4 = BlockId::V4(Block24::from_index(0x0A_0000));
    let v6 = BlockId::V6(Block48::from_index(0x2001_0db8_0001));
    let mut sketch = HyperLogLog::new(4);
    sketch.insert_u64(7);
    let mut heavy = SpaceSaving::new(2);
    heavy.offer(v4, 2.5);
    heavy.offer(v6, 0.125);
    heavy.offer(v4, 1.0);
    Snapshot {
        version: SNAPSHOT_VERSION,
        config: StreamConfig {
            shards: 2,
            hll_precision: 4,
            heavy_capacity: 2,
        },
        epochs_total: 4,
        epochs_done: 1,
        smoothing_days: 7,
        shards: vec![
            ShardSnapshot {
                events_seen: 9,
                beacons: vec![
                    BeaconRow {
                        block: v4,
                        asn: Asn(64500),
                        hits_total: 5,
                        netinfo_hits: 4,
                        cellular_hits: 3,
                        wifi_hits: 1,
                        other_hits: 0,
                    },
                    BeaconRow {
                        block: v6,
                        asn: Asn(64501),
                        hits_total: 2,
                        netinfo_hits: 1,
                        cellular_hits: 0,
                        wifi_hits: 1,
                        other_hits: 0,
                    },
                ],
                demand: vec![DemandRow {
                    block: v4,
                    asn: Asn(64500),
                    acc: 3.5,
                    days_seen: 2,
                }],
                resolvers: vec![ResolverRow {
                    resolver: 3,
                    sketch,
                }],
                heavy,
            },
            ShardSnapshot {
                events_seen: 0,
                beacons: vec![],
                demand: vec![],
                resolvers: vec![],
                heavy: SpaceSaving::new(2),
            },
        ],
    }
}

/// How a decoder refused its input, reduced to the classes callers
/// branch on (exit codes, reload-rejection counters).
#[derive(Debug, PartialEq, Eq)]
enum Refusal {
    Corrupt,
    UnsupportedVersion(u32),
}

fn serve(e: ServeError) -> Refusal {
    match e {
        ServeError::Corrupt(_) => Refusal::Corrupt,
        ServeError::UnsupportedVersion(v) => Refusal::UnsupportedVersion(v),
        other => panic!("decoding bytes cannot fail with {other:?}"),
    }
}

struct Format {
    name: &'static str,
    /// Sealed bytes of the fixture.
    sealed: Vec<u8>,
    /// Content hash those bytes had when the fixture was first pinned.
    golden: u64,
    /// The format's real decoder.
    decode: fn(&[u8]) -> Result<(), Refusal>,
    /// An in-place edit of the sealed bytes that breaks an invariant
    /// the decoder checks past the seal.
    damage: fn(&mut [u8]),
}

/// Offset of the `u32` format version in every binary format: right
/// after the 8-byte leading magic.
const VERSION_AT: usize = 8;

fn formats() -> Vec<Format> {
    vec![
        Format {
            name: "CELLSERV v1",
            sealed: Artifact::encode(&index(), ArtifactFormat::V1),
            golden: 0x41ca_3b62_0e37_7043,
            // CELLSERV's decoder sniffs the version, so this entry
            // point also takes v2 bytes (see the cross-format test).
            decode: |b| Artifact::decode(b).map(drop).map_err(serve),
            // First label's class byte: magic, version, count, asn.
            damage: |b| b[8 + 4 + 4 + 4] = 9,
        },
        Format {
            name: "CELLSERV v2",
            sealed: Artifact::encode(&index(), ArtifactFormat::V2),
            golden: 0xfae2_a39e_77c4_328e,
            decode: |b| MappedIndex::new(b).map(drop).map_err(serve),
            // First label's class word (labels start after the 64-byte
            // header), with the header's quick-hash of the sections
            // refreshed as the writer would, so only the class check is
            // left to object.
            damage: |b| {
                b[64 + 4] = 9;
                let quick = content_hash(&b[64..b.len() - cellseal::TRAILER_LEN]);
                b[16..24].copy_from_slice(&quick.to_le_bytes());
            },
        },
        Format {
            name: "CELLDELT",
            sealed: delta().to_bytes(),
            golden: 0x45c2_4163_d716_379e,
            decode: |b| {
                Delta::from_bytes(b).map(drop).map_err(|e| match e {
                    DeltaError::Corrupt(_) => Refusal::Corrupt,
                    DeltaError::UnsupportedVersion(v) => Refusal::UnsupportedVersion(v),
                    other => panic!("decoding bytes cannot fail with {other:?}"),
                })
            },
            // First v4 op's op byte: magic, version, two hashes, two
            // epochs, op count.
            damage: |b| b[8 + 4 + 32 + 4] = 7,
        },
        Format {
            name: "CELLLOAD",
            sealed: trace().to_bytes(),
            golden: 0x208e_1d64_b89a_fc2c,
            decode: |b| {
                Trace::from_bytes(b).map(drop).map_err(|e| match e {
                    LoadError::Corrupt(_) => Refusal::Corrupt,
                    LoadError::UnsupportedVersion(v) => Refusal::UnsupportedVersion(v),
                })
            },
            // First query's family byte: magic, version, seed, preset
            // ("steady", length-prefixed), segment count, epoch, query
            // count.
            damage: |b| b[8 + 4 + 8 + 1 + 6 + 4 + 8 + 4] = 5,
        },
        Format {
            name: "checkpoint",
            sealed: snapshot().to_bytes(),
            golden: 0x72f6_4d4a_05fa_3c6f,
            decode: |b| {
                Snapshot::from_bytes(b).map(drop).map_err(|e| match e {
                    StreamError::Integrity(_) | StreamError::Corrupt(_) => Refusal::Corrupt,
                    StreamError::UnsupportedVersion(v) => Refusal::UnsupportedVersion(v),
                    other => panic!("decoding bytes cannot fail with {other:?}"),
                })
            },
            // First beacon row's block family byte: magic, version,
            // config (shards, precision, capacity), three epoch fields,
            // shard count, events seen, beacon count.
            damage: |b| b[8 + 4 + (4 + 1 + 8) + 12 + 4 + 8 + 4] = 5,
        },
    ]
}

#[test]
fn sealed_bytes_match_their_golden_hashes() {
    let moved: Vec<String> = formats()
        .into_iter()
        .filter(|f| content_hash(&f.sealed) != f.golden)
        .map(|f| {
            format!(
                "{}: {} sealed bytes hash to {:#018x}, pinned {:#018x}",
                f.name,
                f.sealed.len(),
                content_hash(&f.sealed),
                f.golden
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "sealed bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn every_single_bit_flip_is_refused_as_corrupt() {
    for f in formats() {
        assert_eq!((f.decode)(&f.sealed), Ok(()), "{}: intact fixture", f.name);
        for i in 0..f.sealed.len() {
            for bit in 0..8 {
                let mut bad = f.sealed.clone();
                bad[i] ^= 1 << bit;
                assert_eq!(
                    (f.decode)(&bad),
                    Err(Refusal::Corrupt),
                    "{}: flip of bit {bit} at byte {i}/{}",
                    f.name,
                    f.sealed.len()
                );
            }
        }
    }
}

#[test]
fn every_truncation_is_refused_as_corrupt() {
    for f in formats() {
        for keep in 0..f.sealed.len() {
            assert_eq!(
                (f.decode)(&f.sealed[..keep]),
                Err(Refusal::Corrupt),
                "{}: truncation to {keep}/{} bytes",
                f.name,
                f.sealed.len()
            );
        }
    }
}

#[test]
fn a_newer_version_behind_a_valid_seal_is_unsupported_not_corrupt() {
    // A version no build writes (v1 + 1 would be CELLSERV v2).
    const NEWER: u32 = 9;
    for f in formats() {
        let mut bytes = f.sealed;
        bytes[VERSION_AT..VERSION_AT + 4].copy_from_slice(&NEWER.to_le_bytes());
        assert_eq!(
            (f.decode)(&bytes),
            Err(Refusal::Corrupt),
            "{}: the seal covers the version field",
            f.name
        );
        cellseal::reseal(&mut bytes);
        assert_eq!(
            (f.decode)(&bytes),
            Err(Refusal::UnsupportedVersion(NEWER)),
            "{}",
            f.name
        );
    }
}

#[test]
fn resealed_structural_damage_is_still_refused() {
    // A writer bug (or corruption plus a recomputed seal) passes the
    // CRC check; the structural validators must still refuse the body.
    for f in formats() {
        let mut bytes = f.sealed;
        (f.damage)(&mut bytes);
        cellseal::reseal(&mut bytes);
        assert_eq!((f.decode)(&bytes), Err(Refusal::Corrupt), "{}", f.name);
    }
}

#[test]
fn no_decoder_accepts_another_formats_bytes() {
    let formats = formats();
    for from in &formats {
        for to in formats.iter().filter(|to| to.name != from.name) {
            let got = (to.decode)(&from.sealed);
            let expected = match (from.name, to.name) {
                // The two CELLSERV versions share a trailer magic and a
                // leading magic; only the version tells them apart.
                ("CELLSERV v2", "CELLSERV v1") => Ok(()),
                ("CELLSERV v1", "CELLSERV v2") => Err(Refusal::UnsupportedVersion(1)),
                _ => Err(Refusal::Corrupt),
            };
            assert_eq!(
                got, expected,
                "{} bytes through the {} decoder",
                from.name, to.name
            );
        }
    }
}
