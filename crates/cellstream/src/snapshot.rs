//! Epoch-boundary checkpoints: serialize the engine, restore it later.
//!
//! The snapshot is a plain-data mirror of the engine's state, and its
//! sealed bytes are the fifth `cellseal` format:
//!
//! ```text
//! body (integers little-endian, floats as their IEEE-754 bit pattern):
//!   magic            8 bytes  "CELLCKPT"
//!   version          u32      SNAPSHOT_VERSION (2)
//!   shards           u32      ┐
//!   hll_precision    u8       │ StreamConfig
//!   heavy_capacity   u64      ┘
//!   epochs_total     u32
//!   epochs_done      u32
//!   smoothing_days   u32
//!   shard_count      u32      must equal `shards`
//!   shard_count × {
//!     events_seen    u64
//!     beacon_count   u32, then rows strictly ascending by block:
//!       block, asn u32, hits_total u64, netinfo_hits u64,
//!       cellular_hits u64, wifi_hits u64, other_hits u64
//!     demand_count   u32, then rows strictly ascending by block:
//!       block, asn u32, acc f64, days_seen u32
//!     resolver_count u32, then rows strictly ascending by resolver:
//!       resolver u32, precision u8, 2^precision register bytes
//!     heavy          capacity u64, total_weight f64, counter_count u32,
//!                    then counters in internal order: block, weight f64,
//!                    error f64
//!   }
//!   block = family u8 (4|6), index u64 (below 2^24 | 2^48)
//! trailer:           the cellseal envelope, trailer magic "CKPT"
//! ```
//!
//! Two properties the checkpoint tests pin down:
//!
//! * **Canonical bytes** — maps are flattened to vectors in key order and
//!   sketch counters keep their internal order, so the same engine state
//!   always seals to identical bytes, and [`Snapshot::from_bytes`]
//!   accepts no second spelling of it (`to_bytes(from_bytes(b)?) == b`).
//! * **Lossless restore** — floats travel as bits, so an engine restored
//!   from disk continues producing bit-identical results.

use std::fs;
use std::path::Path;

use cellseal::Reader;
use netaddr::{Asn, Block24, Block48, BlockId};

use crate::engine::StreamConfig;
use crate::error::StreamError;
use crate::hll::HyperLogLog;
use crate::shard::{BeaconAccum, DemandAccum, ShardState};
use crate::spacesaving::SpaceSaving;

/// Snapshot schema version, bumped on layout changes.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Leading magic identifying a checkpoint body.
const SNAPSHOT_MAGIC: [u8; 8] = *b"CELLCKPT";

/// Trailing magic closing the seal.
const TRAILER_MAGIC: [u8; 4] = *b"CKPT";

fn corrupt(why: impl Into<String>) -> StreamError {
    StreamError::Corrupt(why.into())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("row count fits u32"));
}

/// A block as `family u8 (4|6), index u64`.
pub(crate) fn encode_block(out: &mut Vec<u8>, block: BlockId) {
    match block {
        BlockId::V4(b) => {
            out.push(4);
            put_u64(out, b.index().into());
        }
        BlockId::V6(b) => {
            out.push(6);
            put_u64(out, b.index());
        }
    }
}

/// Decode a block, refusing unknown families and indices the block
/// types would silently mask into range.
pub(crate) fn decode_block(r: &mut Reader<'_>) -> Result<BlockId, StreamError> {
    let family = r.u8()?;
    let index = r.u64()?;
    match family {
        4 if index < 1 << 24 => Ok(BlockId::V4(Block24::from_index(index as u32))),
        6 if index < 1 << 48 => Ok(BlockId::V6(Block48::from_index(index))),
        4 | 6 => Err(corrupt(format!(
            "block index {index:#x} out of range for family {family}"
        ))),
        _ => Err(corrupt(format!("invalid block family byte {family}"))),
    }
}

/// Decode `count`-prefixed rows whose keys must be strictly ascending.
fn decode_rows<T, K: Ord + Copy>(
    r: &mut Reader<'_>,
    what: &str,
    key: impl Fn(&T) -> K,
    mut row: impl FnMut(&mut Reader<'_>) -> Result<T, StreamError>,
) -> Result<Vec<T>, StreamError> {
    let count = r.u32()? as usize;
    let mut rows: Vec<T> = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let next = row(r)?;
        if rows.last().is_some_and(|last| key(last) >= key(&next)) {
            return Err(corrupt(format!("{what} rows not strictly ascending")));
        }
        rows.push(next);
    }
    Ok(rows)
}

/// One block's beacon counters, flattened for the checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeaconRow {
    /// The block.
    pub block: BlockId,
    /// Origin AS.
    pub asn: Asn,
    /// RUM hits folded so far.
    pub hits_total: u64,
    /// NetInfo-enabled hits.
    pub netinfo_hits: u64,
    /// Hits labeled cellular.
    pub cellular_hits: u64,
    /// Hits labeled wifi.
    pub wifi_hits: u64,
    /// Hits with any other label.
    pub other_hits: u64,
}

/// One block's demand accumulator, flattened for the checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DemandRow {
    /// The block.
    pub block: BlockId,
    /// Origin AS.
    pub asn: Asn,
    /// Sum of daily values folded so far.
    pub acc: f64,
    /// Days folded so far.
    pub days_seen: u32,
}

/// One resolver's distinct-client sketch.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolverRow {
    /// Resolver id.
    pub resolver: u32,
    /// The sketch.
    pub sketch: HyperLogLog,
}

/// One shard's serialized state.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSnapshot {
    /// Events folded into this shard.
    pub events_seen: u64,
    /// Beacon accumulators, sorted by block.
    pub beacons: Vec<BeaconRow>,
    /// Demand accumulators, sorted by block.
    pub demand: Vec<DemandRow>,
    /// Resolver sketches, sorted by resolver id.
    pub resolvers: Vec<ResolverRow>,
    /// Heavy-hitter sketch, counters in internal order so a restored
    /// sketch evicts exactly as the original would have.
    pub heavy: SpaceSaving,
}

/// A complete engine checkpoint at an epoch boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The engine configuration the state was built under.
    pub config: StreamConfig,
    /// Total epochs in the stream layout.
    pub epochs_total: u32,
    /// Epochs ingested before this checkpoint.
    pub epochs_done: u32,
    /// Demand smoothing window (days).
    pub smoothing_days: u32,
    /// Per-shard state, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
}

impl Snapshot {
    /// Capture an engine's state (called by
    /// [`crate::IngestEngine::snapshot`]).
    pub(crate) fn capture(
        config: StreamConfig,
        epochs_total: u32,
        epochs_done: u32,
        smoothing_days: u32,
        shards: &[ShardState],
    ) -> Self {
        let shards = shards
            .iter()
            .map(|s| ShardSnapshot {
                events_seen: s.events_seen(),
                beacons: s
                    .beacons
                    .iter()
                    .map(|(&block, a)| BeaconRow {
                        block,
                        asn: a.asn,
                        hits_total: a.hits_total,
                        netinfo_hits: a.netinfo_hits,
                        cellular_hits: a.cellular_hits,
                        wifi_hits: a.wifi_hits,
                        other_hits: a.other_hits,
                    })
                    .collect(),
                demand: s
                    .demand
                    .iter()
                    .map(|(&block, a)| DemandRow {
                        block,
                        asn: a.asn,
                        acc: a.acc,
                        days_seen: a.days_seen,
                    })
                    .collect(),
                resolvers: s
                    .resolvers
                    .iter()
                    .map(|(&resolver, sketch)| ResolverRow {
                        resolver,
                        sketch: sketch.clone(),
                    })
                    .collect(),
                heavy: s.heavy.clone(),
            })
            .collect();
        Snapshot {
            version: SNAPSHOT_VERSION,
            config,
            epochs_total,
            epochs_done,
            smoothing_days,
            shards,
        }
    }

    /// Rebuild the engine's in-memory shard states.
    pub(crate) fn shard_states(&self) -> Vec<ShardState> {
        (0..self.shards.len())
            .map(|i| self.shard_state(i))
            .collect()
    }

    /// Rebuild a single shard's in-memory state (used by per-shard
    /// recovery to reset one shard without touching the others).
    pub(crate) fn shard_state(&self, idx: usize) -> ShardState {
        let s = &self.shards[idx];
        let mut state = ShardState::new(self.config.hll_precision, self.config.heavy_capacity);
        for r in &s.beacons {
            state.beacons.insert(
                r.block,
                BeaconAccum {
                    asn: r.asn,
                    hits_total: r.hits_total,
                    netinfo_hits: r.netinfo_hits,
                    cellular_hits: r.cellular_hits,
                    wifi_hits: r.wifi_hits,
                    other_hits: r.other_hits,
                },
            );
        }
        for r in &s.demand {
            state.demand.insert(
                r.block,
                DemandAccum {
                    asn: r.asn,
                    acc: r.acc,
                    days_seen: r.days_seen,
                },
            );
        }
        for r in &s.resolvers {
            state.resolvers.insert(r.resolver, r.sketch.clone());
        }
        state.heavy = s.heavy.clone();
        state.events_seen = s.events_seen;
        state
    }

    /// Structural sanity checks: version, config validity, shard-count
    /// consistency, epoch ordering, and sketches sized the way the
    /// config says (the engine merges them and panics on a mismatch). A
    /// snapshot that fails here must not be restored.
    pub fn validate(&self) -> Result<(), String> {
        if self.version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot version {} unsupported (expected {SNAPSHOT_VERSION})",
                self.version
            ));
        }
        self.config.validate()?;
        if self.shards.len() != self.config.shards as usize {
            return Err(format!(
                "snapshot holds {} shard states but its config says {}",
                self.shards.len(),
                self.config.shards
            ));
        }
        if self.epochs_done > self.epochs_total {
            return Err(format!(
                "snapshot claims {} epochs done of {} total",
                self.epochs_done, self.epochs_total
            ));
        }
        for shard in &self.shards {
            if let Some(r) = shard
                .resolvers
                .iter()
                .find(|r| r.sketch.precision() != self.config.hll_precision)
            {
                return Err(format!(
                    "resolver {} sketch has precision {} but the config says {}",
                    r.resolver,
                    r.sketch.precision(),
                    self.config.hll_precision
                ));
            }
            if shard.heavy.capacity() != self.config.heavy_capacity {
                return Err(format!(
                    "heavy-hitter sketch has capacity {} but the config says {}",
                    shard.heavy.capacity(),
                    self.config.heavy_capacity
                ));
            }
        }
        Ok(())
    }

    /// The sealed checkpoint bytes: canonical, byte-identical for
    /// identical state.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut out, self.version);
        put_u32(&mut out, self.config.shards);
        out.push(self.config.hll_precision);
        put_u64(&mut out, self.config.heavy_capacity as u64);
        put_u32(&mut out, self.epochs_total);
        put_u32(&mut out, self.epochs_done);
        put_u32(&mut out, self.smoothing_days);
        put_count(&mut out, self.shards.len());
        for shard in &self.shards {
            put_u64(&mut out, shard.events_seen);
            put_count(&mut out, shard.beacons.len());
            for b in &shard.beacons {
                encode_block(&mut out, b.block);
                put_u32(&mut out, b.asn.0);
                for hits in [
                    b.hits_total,
                    b.netinfo_hits,
                    b.cellular_hits,
                    b.wifi_hits,
                    b.other_hits,
                ] {
                    put_u64(&mut out, hits);
                }
            }
            put_count(&mut out, shard.demand.len());
            for d in &shard.demand {
                encode_block(&mut out, d.block);
                put_u32(&mut out, d.asn.0);
                put_u64(&mut out, d.acc.to_bits());
                put_u32(&mut out, d.days_seen);
            }
            put_count(&mut out, shard.resolvers.len());
            for res in &shard.resolvers {
                put_u32(&mut out, res.resolver);
                res.sketch.encode(&mut out);
            }
            shard.heavy.encode(&mut out);
        }
        cellseal::seal(out, TRAILER_MAGIC)
    }

    /// Verify the seal and decode, checking every invariant a restore
    /// relies on before any engine state is built from the result.
    ///
    /// # Errors
    /// [`StreamError::Integrity`] when the seal fails or the body ends
    /// early or late; [`StreamError::UnsupportedVersion`] for a newer
    /// format behind a valid seal; [`StreamError::Corrupt`] for
    /// everything else: bad magic, block family or index, sketch
    /// geometry, unsorted rows, a shard count that is not the config's,
    /// or anything [`validate`](Self::validate) refuses.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StreamError> {
        let mut r = Reader::new(cellseal::open(bytes, TRAILER_MAGIC)?);
        if r.take(8)? != SNAPSHOT_MAGIC {
            return Err(corrupt("bad leading magic"));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(StreamError::UnsupportedVersion(version));
        }
        let config = StreamConfig {
            shards: r.u32()?,
            hll_precision: r.u8()?,
            heavy_capacity: usize::try_from(r.u64()?)
                .map_err(|_| corrupt("heavy-hitter capacity out of range"))?,
        };
        config.validate().map_err(corrupt)?;
        let epochs_total = r.u32()?;
        let epochs_done = r.u32()?;
        let smoothing_days = r.u32()?;
        let shard_count = r.u32()?;
        if shard_count != config.shards {
            return Err(corrupt(format!(
                "{shard_count} shard states but the config says {}",
                config.shards
            )));
        }
        let mut shards = Vec::with_capacity(shard_count.min(1024) as usize);
        for _ in 0..shard_count {
            let r = &mut r;
            shards.push(ShardSnapshot {
                events_seen: r.u64()?,
                beacons: decode_rows(
                    r,
                    "beacon",
                    |b: &BeaconRow| b.block,
                    |r| {
                        Ok(BeaconRow {
                            block: decode_block(r)?,
                            asn: Asn(r.u32()?),
                            hits_total: r.u64()?,
                            netinfo_hits: r.u64()?,
                            cellular_hits: r.u64()?,
                            wifi_hits: r.u64()?,
                            other_hits: r.u64()?,
                        })
                    },
                )?,
                demand: decode_rows(
                    r,
                    "demand",
                    |d: &DemandRow| d.block,
                    |r| {
                        Ok(DemandRow {
                            block: decode_block(r)?,
                            asn: Asn(r.u32()?),
                            acc: f64::from_bits(r.u64()?),
                            days_seen: r.u32()?,
                        })
                    },
                )?,
                resolvers: decode_rows(
                    r,
                    "resolver",
                    |res: &ResolverRow| res.resolver,
                    |r| {
                        Ok(ResolverRow {
                            resolver: r.u32()?,
                            sketch: HyperLogLog::decode(r)?,
                        })
                    },
                )?,
                heavy: SpaceSaving::decode(r)?,
            });
        }
        r.finish()?;
        let snapshot = Snapshot {
            version,
            config,
            epochs_total,
            epochs_done,
            smoothing_days,
            shards,
        };
        snapshot.validate().map_err(corrupt)?;
        Ok(snapshot)
    }

    /// Write the sealed bytes to a file atomically, so a crash mid-write
    /// can never leave a checkpoint that later restores as a
    /// silently-wrong engine.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        cellseal::write_atomic_bytes(path, &self.to_bytes())
    }

    /// Load a snapshot from a file written by [`write_to`](Self::write_to),
    /// rejecting truncated, bit-flipped or structurally broken files.
    pub fn read_from(path: &Path) -> Result<Self, StreamError> {
        Self::from_bytes(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(i: u32) -> BlockId {
        BlockId::V4(Block24::from_index(i))
    }

    fn beacon(block: BlockId) -> BeaconRow {
        BeaconRow {
            block,
            asn: Asn(64500),
            hits_total: 5,
            netinfo_hits: 4,
            cellular_hits: 3,
            wifi_hits: 1,
            other_hits: 0,
        }
    }

    fn demand(block: BlockId) -> DemandRow {
        DemandRow {
            block,
            asn: Asn(64500),
            acc: 3.5,
            days_seen: 2,
        }
    }

    fn resolver(resolver: u32, precision: u8) -> ResolverRow {
        ResolverRow {
            resolver,
            sketch: HyperLogLog::new(precision),
        }
    }

    fn sample() -> Snapshot {
        let mut heavy = SpaceSaving::new(2);
        heavy.offer(v4(1), 2.5);
        Snapshot {
            version: SNAPSHOT_VERSION,
            config: StreamConfig {
                shards: 1,
                hll_precision: 4,
                heavy_capacity: 2,
            },
            epochs_total: 4,
            epochs_done: 1,
            smoothing_days: 7,
            shards: vec![ShardSnapshot {
                events_seen: 9,
                beacons: vec![beacon(v4(1)), beacon(v4(2))],
                demand: vec![demand(v4(1)), demand(v4(2))],
                resolvers: vec![resolver(3, 4), resolver(5, 4)],
                heavy,
            }],
        }
    }

    /// Offset of the first beacon row's block: magic, version, config,
    /// three epoch fields, shard count, events seen, beacon count.
    const FIRST_BLOCK_AT: usize = 8 + 4 + (4 + 1 + 8) + 12 + 4 + 8 + 4;

    #[test]
    fn bytes_round_trip_and_are_canonical() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(bytes[FIRST_BLOCK_AT], 4, "layout as documented");
        let back = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn snapshots_no_restore_could_use_are_corrupt() {
        type Doctor = fn(&mut Snapshot);
        let cases: [(Doctor, &str); 11] = [
            (
                |s| s.shards[0].beacons.swap(0, 1),
                "beacon rows not strictly ascending",
            ),
            (
                |s| s.shards[0].demand[1] = demand(v4(1)),
                "demand rows not strictly ascending",
            ),
            (
                |s| s.shards[0].resolvers.swap(0, 1),
                "resolver rows not strictly ascending",
            ),
            (|s| s.shards.clear(), "0 shard states but the config says 1"),
            (
                |s| s.shards.push(s.shards[0].clone()),
                "2 shard states but the config says 1",
            ),
            (|s| s.config.shards = 0, "at least one shard"),
            (
                |s| s.config.hll_precision = 3,
                "hll precision 3 outside 4..=16",
            ),
            (|s| s.config.heavy_capacity = 0, "at least one counter"),
            (
                |s| s.config.hll_precision = 5,
                "sketch has precision 4 but the config says 5",
            ),
            (
                |s| s.config.heavy_capacity = 3,
                "sketch has capacity 2 but the config says 3",
            ),
            (|s| s.epochs_done = 5, "5 epochs done of 4 total"),
        ];
        for (doctor, why) in cases {
            let mut snap = sample();
            doctor(&mut snap);
            match Snapshot::from_bytes(&snap.to_bytes()) {
                Err(StreamError::Corrupt(got)) => assert!(got.contains(why), "{why}: {got}"),
                other => panic!("{why}: {other:?}"),
            }
        }
    }

    #[test]
    fn resealed_byte_damage_is_refused_with_the_right_class() {
        let doctored = |edit: fn(&mut Vec<u8>)| {
            let mut bytes = sample().to_bytes();
            edit(&mut bytes);
            cellseal::reseal(&mut bytes);
            Snapshot::from_bytes(&bytes).expect_err("damaged")
        };
        let corrupt = |edit, why: &str| match doctored(edit) {
            StreamError::Corrupt(got) => assert!(got.contains(why), "{why}: {got}"),
            other => panic!("{why}: {other:?}"),
        };
        corrupt(|b| b[0] = b'X', "bad leading magic");
        corrupt(|b| b[FIRST_BLOCK_AT] = 5, "invalid block family byte 5");
        // Index bit 24 of a v4 block: `Block24` would mask it away.
        corrupt(
            |b| b[FIRST_BLOCK_AT + 1 + 3] = 1,
            "out of range for family 4",
        );
        // A newer version behind a valid seal is unsupported, not corrupt.
        assert!(matches!(
            doctored(|b| b[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes())),
            StreamError::UnsupportedVersion(v) if v == SNAPSHOT_VERSION + 1
        ));
        // Bytes after the last field, or a body that stops short of it.
        assert!(matches!(
            doctored(|b| b.insert(b.len() - cellseal::TRAILER_LEN, 0)),
            StreamError::Integrity(cellseal::SealError::Trailing { extra: 1 })
        ));
        assert!(matches!(
            doctored(|b| {
                b.remove(b.len() - cellseal::TRAILER_LEN - 1);
            }),
            StreamError::Integrity(cellseal::SealError::Truncated)
        ));
        // Without the reseal the seal itself objects first.
        let mut flipped = sample().to_bytes();
        flipped[FIRST_BLOCK_AT] = 5;
        assert!(matches!(
            Snapshot::from_bytes(&flipped),
            Err(StreamError::Integrity(cellseal::SealError::Crc { .. }))
        ));
    }
}
