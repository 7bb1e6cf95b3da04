//! Shard routing and per-shard bounded accumulators.
//!
//! The ingest engine partitions the event stream by *block*, so every
//! event of one block lands on the same shard and is folded in arrival
//! order. That single invariant buys both determinism properties the
//! subsystem advertises:
//!
//! * integer beacon counters commute, so their shard-merged sums are
//!   exact at any shard count;
//! * a block's demand days are summed by one shard in day order, so the
//!   floating-point fold replays the batch accumulation bit for bit.

use std::collections::BTreeMap;

use netaddr::{Asn, BlockId};

use cdnsim::stream::block_stream;
use cdnsim::{BeaconDelta, DemandDay, StreamEvent};

use crate::hll::{mix64, HyperLogLog};
use crate::spacesaving::SpaceSaving;

/// Stateless block → shard router.
///
/// Routing hashes the block's stable stream id, never its position in any
/// record vector, so the assignment is a pure function of block identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardRouter { shards }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard a block's events belong to.
    pub fn shard_of(&self, block: BlockId) -> u32 {
        (mix64(block_stream(block)) % self.shards as u64) as u32
    }
}

/// Running beacon counters for one block (the streaming counterpart of a
/// [`cdnsim::BeaconRecord`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BeaconAccum {
    /// Origin AS.
    pub asn: Asn,
    /// RUM hits folded so far.
    pub hits_total: u64,
    /// NetInfo-enabled hits folded so far.
    pub netinfo_hits: u64,
    /// Hits labeled cellular.
    pub cellular_hits: u64,
    /// Hits labeled wifi.
    pub wifi_hits: u64,
    /// Hits with any other label.
    pub other_hits: u64,
}

/// Running demand accumulator for one block: the sum of raw daily draws
/// seen so far, divided by the smoothing window at finalize time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DemandAccum {
    /// Origin AS.
    pub asn: Asn,
    /// Sum of daily values, folded in day order.
    pub acc: f64,
    /// Days folded so far.
    pub days_seen: u32,
}

/// One shard's complete ingest state: per-block accumulators plus this
/// shard's slice of the sketches. Memory is bounded by the number of
/// *distinct active blocks* routed here (not by stream length) plus the
/// fixed sketch budgets.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardState {
    /// Per-block beacon counters.
    pub(crate) beacons: BTreeMap<BlockId, BeaconAccum>,
    /// Per-block demand accumulators.
    pub(crate) demand: BTreeMap<BlockId, DemandAccum>,
    /// Distinct-client sketch per resolver id (only resolvers serving
    /// blocks routed to this shard appear).
    pub(crate) resolvers: BTreeMap<u32, HyperLogLog>,
    /// Demand heavy-hitter sketch over this shard's blocks.
    pub(crate) heavy: SpaceSaving,
    /// Events folded into this shard.
    pub(crate) events_seen: u64,
    hll_precision: u8,
}

impl ShardState {
    /// An empty shard with the given sketch budgets.
    pub fn new(hll_precision: u8, heavy_capacity: usize) -> Self {
        ShardState {
            beacons: BTreeMap::new(),
            demand: BTreeMap::new(),
            resolvers: BTreeMap::new(),
            heavy: SpaceSaving::new(heavy_capacity),
            events_seen: 0,
            hll_precision,
        }
    }

    /// Fold one event. `resolver` is the resolver serving the event's
    /// block, when known — demand events feed that resolver's
    /// distinct-client sketch.
    pub fn apply(&mut self, event: &StreamEvent, resolver: Option<u32>) {
        self.events_seen += 1;
        match event {
            StreamEvent::Beacon(d) => self.apply_beacon(d),
            StreamEvent::Demand(d) => self.apply_demand(d, resolver),
        }
    }

    fn apply_beacon(&mut self, d: &BeaconDelta) {
        let a = self.beacons.entry(d.block).or_insert(BeaconAccum {
            asn: d.asn,
            hits_total: 0,
            netinfo_hits: 0,
            cellular_hits: 0,
            wifi_hits: 0,
            other_hits: 0,
        });
        a.hits_total += d.hits_total;
        a.netinfo_hits += d.netinfo_hits;
        a.cellular_hits += d.cellular_hits;
        a.wifi_hits += d.wifi_hits;
        a.other_hits += d.other_hits;
    }

    fn apply_demand(&mut self, d: &DemandDay, resolver: Option<u32>) {
        let a = self.demand.entry(d.block).or_insert(DemandAccum {
            asn: d.asn,
            acc: 0.0,
            days_seen: 0,
        });
        a.acc += d.value;
        a.days_seen += 1;
        self.heavy.offer(d.block, d.value);
        if let Some(r) = resolver {
            let precision = self.hll_precision;
            self.resolvers
                .entry(r)
                .or_insert_with(|| HyperLogLog::new(precision))
                .insert_u64(block_stream(d.block));
        }
    }

    /// Distinct blocks with beacon state.
    pub fn beacon_blocks(&self) -> usize {
        self.beacons.len()
    }

    /// Distinct blocks with demand state.
    pub fn demand_blocks(&self) -> usize {
        self.demand.len()
    }

    /// Events folded into this shard so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// HLL precision this shard builds resolver sketches with.
    pub fn hll_precision(&self) -> u8 {
        self.hll_precision
    }

    /// Approximate bytes of live state (accumulators + sketches) — the
    /// quantity the streaming-vs-batch bench reports as peak state.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.beacons.len() * (size_of::<BlockId>() + size_of::<BeaconAccum>())
            + self.demand.len() * (size_of::<BlockId>() + size_of::<DemandAccum>())
            + self
                .resolvers
                .values()
                .map(|h| size_of::<u32>() + h.state_bytes())
                .sum::<usize>()
            + self.heavy.state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaddr::Block24;

    fn blk(i: u32) -> BlockId {
        BlockId::V4(Block24::from_index(i))
    }

    #[test]
    fn router_is_total_and_stable() {
        for shards in [1u32, 2, 7, 16] {
            let r = ShardRouter::new(shards);
            for i in 0..1000u32 {
                let s = r.shard_of(blk(i));
                assert!(s < shards);
                assert_eq!(s, r.shard_of(blk(i)), "routing must be pure");
            }
        }
    }

    #[test]
    fn router_spreads_blocks() {
        let r = ShardRouter::new(8);
        let mut counts = [0u32; 8];
        for i in 0..8000u32 {
            counts[r.shard_of(blk(i)) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1500).contains(&c),
                "shard {s} got {c} of 8000 blocks"
            );
        }
    }

    #[test]
    fn beacon_fold_accumulates() {
        let mut s = ShardState::new(8, 4);
        let d = BeaconDelta {
            epoch: 0,
            block: blk(1),
            asn: Asn(65000),
            hits_total: 10,
            netinfo_hits: 4,
            cellular_hits: 2,
            wifi_hits: 1,
            other_hits: 1,
        };
        s.apply(&StreamEvent::Beacon(d), None);
        s.apply(&StreamEvent::Beacon(BeaconDelta { epoch: 1, ..d }), None);
        let a = s.beacons[&blk(1)];
        assert_eq!(a.hits_total, 20);
        assert_eq!(a.netinfo_hits, 8);
        assert_eq!(s.events_seen(), 2);
    }

    #[test]
    fn demand_fold_tracks_days_and_sketches() {
        let mut s = ShardState::new(8, 4);
        for day in 0..3u32 {
            s.apply(
                &StreamEvent::Demand(DemandDay {
                    epoch: 0,
                    day,
                    block: blk(7),
                    asn: Asn(65001),
                    value: 2.5,
                }),
                Some(11),
            );
        }
        let a = s.demand[&blk(7)];
        assert_eq!(a.days_seen, 3);
        assert!((a.acc - 7.5).abs() < 1e-12);
        // One distinct client block behind resolver 11.
        let est = s.resolvers[&11].estimate();
        assert!((0.5..=1.5).contains(&est), "estimate {est}");
        assert_eq!(s.heavy.top(1)[0].block, blk(7));
    }
}
