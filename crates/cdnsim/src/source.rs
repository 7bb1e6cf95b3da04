//! Streaming event source: the generative model as an unbounded feed.
//!
//! Batch mode materializes both datasets in one pass ([`crate::aggregate`]).
//! A real CDN never sees data that way — beacons and demand snapshots
//! arrive continuously and the ingest tier folds them into bounded state.
//! This module exposes the *same* generative model as a lazy, epoch-sliced
//! event stream so a streaming consumer (the `cellstream` crate) can be
//! tested for exact equivalence against the batch pipeline:
//!
//! * Every block draws its month of beacon hits and its daily demand from
//!   the per-block RNG streams of [`crate::stream`] — the identical draws
//!   batch mode makes — so folding the full stream reproduces
//!   [`crate::generate_beacons`]/[`crate::generate_demand`] bit for bit,
//!   for any shard count downstream.
//! * The month is sliced into `epochs` segments. Beacon hit counters are
//!   split across epochs with a multinomial drawn from a *separate* RNG
//!   stream (so the slicing never perturbs the monthly totals), and the
//!   demand week emits one event per smoothing day, assigned to epochs in
//!   day order. Epoch boundaries are the natural checkpoint points.
//!
//! Events for one block always appear in the same relative order no matter
//! how the stream is sharded by block — the determinism guarantee the
//! ingest engine builds on.

use std::fmt;
use std::sync::Arc;

use netaddr::{Asn, BlockId};
use worldgen::sampling::{binomial, lognormal_jitter, poisson, rng_for, GenRng};
use worldgen::{SubnetRecord, World};

use crate::aggregate::CdnConfig;
use crate::netinfo::netinfo_share;
use crate::stream::{block_stream, BEACON_SEED_TAG, DEMAND_SEED_TAG};

/// Seed tag for the epoch-split RNG stream. Distinct from the dataset
/// tags so slicing draws never interleave with the monthly-total draws.
const SPLIT_SEED_TAG: u64 = 0x5711_7000_0000_0000;

/// How an event source failed to serve an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceErrorKind {
    /// Transient: the collector stalled; retrying the epoch may succeed.
    Stall,
    /// Permanent: the epoch cannot be served.
    Failed,
}

/// Error surfaced by a faulty event source (a stalled or dead collector).
///
/// Only [`EventSource::try_epoch`] can return it, and only when a gate was
/// installed with [`EventSource::with_gate`] — the default source is
/// infallible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceError {
    /// Epoch the failure was injected at.
    pub epoch: u32,
    /// Transient stall or permanent failure.
    pub kind: SourceErrorKind,
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SourceErrorKind::Stall => write!(f, "event source stalled at epoch {}", self.epoch),
            SourceErrorKind::Failed => write!(f, "event source failed at epoch {}", self.epoch),
        }
    }
}

impl std::error::Error for SourceError {}

/// Per-epoch admission hook: the fault-injection seam a chaos harness uses
/// to simulate collector stalls and failures. Consulted by
/// [`EventSource::try_epoch`] once per call, before any event of the epoch
/// is emitted.
pub trait EpochGate: Send + Sync {
    /// Allow (`Ok`) or fail (`Err`) serving `epoch` right now.
    fn check(&self, epoch: u32) -> Result<(), SourceError>;
}

/// One element of the ingest feed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamEvent {
    /// A slice of one block's monthly RUM beacon hits.
    Beacon(BeaconDelta),
    /// One smoothing day's demand observation for a block.
    Demand(DemandDay),
}

impl StreamEvent {
    /// The block this event belongs to — the sharding key.
    pub fn block(&self) -> BlockId {
        match self {
            StreamEvent::Beacon(d) => d.block,
            StreamEvent::Demand(d) => d.block,
        }
    }

    /// The epoch this event was emitted in.
    pub fn epoch(&self) -> u32 {
        match self {
            StreamEvent::Beacon(d) => d.epoch,
            StreamEvent::Demand(d) => d.epoch,
        }
    }
}

/// An additive slice of one block's monthly beacon counters. Summing a
/// block's deltas over all epochs yields exactly the batch
/// [`crate::BeaconRecord`] for that block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeaconDelta {
    /// Epoch index, `0..epochs`.
    pub epoch: u32,
    /// The block.
    pub block: BlockId,
    /// Origin AS.
    pub asn: Asn,
    /// Beacon hits in this slice.
    pub hits_total: u64,
    /// NetInfo-enabled hits in this slice.
    pub netinfo_hits: u64,
    /// NetInfo hits labeled cellular.
    pub cellular_hits: u64,
    /// NetInfo hits labeled wifi.
    pub wifi_hits: u64,
    /// NetInfo hits with any other label.
    pub other_hits: u64,
}

/// One smoothing day's raw (unnormalized) demand draw for a block.
/// Accumulating a block's days in order and dividing by the smoothing
/// window reproduces the batch per-block demand bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DemandDay {
    /// Epoch index, `0..epochs`.
    pub epoch: u32,
    /// Smoothing-day index, `0..smoothing_days`.
    pub day: u32,
    /// The block.
    pub block: BlockId,
    /// Origin AS.
    pub asn: Asn,
    /// Raw demand value for this day (latent weight × daily jitter).
    pub value: f64,
}

/// Lazy, epoch-sliced event stream over a world.
///
/// Holds only O(1) derived state (weight sums, budgets); every event is
/// computed on demand from the per-block RNG streams.
pub struct EventSource<'w> {
    world: &'w World,
    cfg: CdnConfig,
    epochs: u32,
    weight_sum: f64,
    hits_budget: f64,
    netinfo_frac: f64,
    gate: Option<Arc<dyn EpochGate>>,
}

impl<'w> EventSource<'w> {
    /// Build a source emitting the world's month of telemetry in `epochs`
    /// slices.
    ///
    /// # Panics
    /// Panics when `epochs == 0`.
    pub fn new(world: &'w World, cfg: CdnConfig, epochs: u32) -> Self {
        assert!(epochs > 0, "an event stream needs at least one epoch");
        // Identical derivations to `generate_beacons`, in the same order,
        // so the per-block draws match bit for bit.
        let netinfo_frac = netinfo_share(cfg.month_index).total() / 100.0;
        let weight_sum: f64 = world
            .blocks
            .records
            .iter()
            .map(|r| r.beacon_weight as f64)
            .sum();
        let hits_budget = world.config.netinfo_hits_total / netinfo_frac;
        EventSource {
            world,
            cfg,
            epochs,
            weight_sum,
            hits_budget,
            netinfo_frac,
            gate: None,
        }
    }

    /// Install an epoch gate. Gated sources can fail per epoch through
    /// [`try_epoch`](Self::try_epoch); the plain [`epoch`](Self::epoch)
    /// accessor ignores the gate (recovery replays read through it).
    pub fn with_gate(mut self, gate: Arc<dyn EpochGate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Number of epoch slices.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Demand smoothing window (days), as the fold must divide by it.
    pub fn smoothing_days(&self) -> u32 {
        self.cfg.smoothing_days.max(1)
    }

    /// The CDN knobs this source samples under.
    pub fn cdn_config(&self) -> &CdnConfig {
        &self.cfg
    }

    /// All events of one epoch, lazily, in block-record order.
    ///
    /// # Panics
    /// Panics when `epoch >= self.epochs()`.
    pub fn epoch(&self, epoch: u32) -> impl Iterator<Item = StreamEvent> + '_ {
        assert!(
            epoch < self.epochs,
            "epoch {epoch} out of range (epochs = {})",
            self.epochs
        );
        let days = self.smoothing_days();
        self.world.blocks.records.iter().flat_map(move |b| {
            let mut out = Vec::new();
            if let Some(delta) = self.beacon_delta(b, epoch) {
                out.push(StreamEvent::Beacon(delta));
            }
            if b.demand_weight > 0.0 {
                for day in 0..days {
                    if epoch_of_day(day, days, self.epochs) == epoch {
                        out.push(StreamEvent::Demand(DemandDay {
                            epoch,
                            day,
                            block: b.block,
                            asn: b.asn,
                            value: self.demand_value(b, day),
                        }));
                    }
                }
            }
            out
        })
    }

    /// Fallible variant of [`epoch`](Self::epoch): consults the installed
    /// [`EpochGate`] (if any) before emitting events, so an injected
    /// collector stall or failure surfaces as a clean error instead of a
    /// silently empty epoch.
    ///
    /// # Panics
    /// Panics when `epoch >= self.epochs()` (programmer error, same as
    /// [`epoch`](Self::epoch)).
    pub fn try_epoch(
        &self,
        epoch: u32,
    ) -> Result<impl Iterator<Item = StreamEvent> + '_, SourceError> {
        if let Some(gate) = &self.gate {
            gate.check(epoch)?;
        }
        Ok(self.epoch(epoch))
    }

    /// The full stream: every epoch in order, lazily.
    pub fn events(&self) -> impl Iterator<Item = StreamEvent> + '_ {
        (0..self.epochs).flat_map(move |e| self.epoch(e))
    }

    /// Epoch `epoch`'s slice of one block's monthly beacon counters, or
    /// `None` when the block contributes nothing to this epoch.
    fn beacon_delta(&self, b: &SubnetRecord, epoch: u32) -> Option<BeaconDelta> {
        if b.beacon_weight <= 0.0 {
            return None;
        }
        // The monthly totals: the exact draw sequence of
        // `generate_beacons`, from the same per-block stream.
        let mut rng = rng_for(
            self.world.config.seed ^ BEACON_SEED_TAG,
            block_stream(b.block),
        );
        let mean = self.hits_budget * b.beacon_weight as f64 / self.weight_sum;
        let hits_total = poisson(&mut rng, mean);
        if hits_total == 0 {
            return None;
        }
        let netinfo_hits = binomial(&mut rng, hits_total, self.netinfo_frac);
        let cellular_hits = binomial(&mut rng, netinfo_hits, b.cell_rate as f64);
        let noncell = netinfo_hits - cellular_hits;
        let wifi_hits = binomial(&mut rng, noncell, self.cfg.wifi_share_noncell);
        let other_hits = noncell - wifi_hits;
        let non_netinfo = hits_total - netinfo_hits;

        // Slice the four disjoint hit categories across epochs with a
        // dedicated stream. The full schedule is drawn in a fixed order
        // every time, so any epoch's slice is independent of which epochs
        // were queried before — and the slices sum to the totals exactly.
        let mut srng = rng_for(
            self.world.config.seed ^ SPLIT_SEED_TAG,
            block_stream(b.block),
        );
        let e = epoch as usize;
        let non_netinfo_e = split_counter(&mut srng, non_netinfo, self.epochs)[e];
        let cellular_e = split_counter(&mut srng, cellular_hits, self.epochs)[e];
        let wifi_e = split_counter(&mut srng, wifi_hits, self.epochs)[e];
        let other_e = split_counter(&mut srng, other_hits, self.epochs)[e];
        let netinfo_e = cellular_e + wifi_e + other_e;
        let hits_e = non_netinfo_e + netinfo_e;
        if hits_e == 0 {
            return None;
        }
        Some(BeaconDelta {
            epoch,
            block: b.block,
            asn: b.asn,
            hits_total: hits_e,
            netinfo_hits: netinfo_e,
            cellular_hits: cellular_e,
            wifi_hits: wifi_e,
            other_hits: other_e,
        })
    }

    /// Day `day`'s raw demand draw for a block: the `(day + 1)`-th jitter
    /// from the block's demand stream, exactly as `generate_demand`
    /// accumulates them.
    fn demand_value(&self, b: &SubnetRecord, day: u32) -> f64 {
        let mut rng = rng_for(
            self.world.config.seed ^ DEMAND_SEED_TAG,
            block_stream(b.block),
        );
        let mut v = 0.0;
        for _ in 0..=day {
            v = b.demand_weight as f64 * lognormal_jitter(&mut rng, self.cfg.daily_jitter);
        }
        v
    }
}

/// The epoch a smoothing day lands in: days partition across epochs in
/// order, with every day assigned to exactly one epoch for any
/// `(days, epochs)` pair.
fn epoch_of_day(day: u32, days: u32, epochs: u32) -> u32 {
    debug_assert!(day < days);
    ((day as u64 * epochs as u64) / days as u64) as u32
}

/// Split `total` into `epochs` non-negative parts that sum to `total`
/// exactly, each part marginally Binomial(total, 1/epochs): epoch `e`
/// takes Binomial(remaining, 1/(epochs − e)).
fn split_counter(rng: &mut GenRng, total: u64, epochs: u32) -> Vec<u64> {
    let mut parts = Vec::with_capacity(epochs as usize);
    let mut remaining = total;
    for e in 0..epochs {
        let left = epochs - e;
        let take = if left == 1 {
            remaining
        } else {
            binomial(rng, remaining, 1.0 / left as f64)
        };
        parts.push(take);
        remaining -= take;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::datasets::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
    use crate::{generate_beacons, generate_demand, BEACON_PERIOD, DEMAND_PERIOD};
    use worldgen::WorldConfig;

    /// Fold a full stream the way an ingest consumer would, without any
    /// sharding — the minimal reference fold.
    fn fold(source: &EventSource<'_>) -> (BeaconDataset, DemandDataset) {
        let mut beacons: HashMap<BlockId, BeaconRecord> = HashMap::new();
        let mut demand: HashMap<BlockId, (Asn, f64)> = HashMap::new();
        for ev in source.events() {
            match ev {
                StreamEvent::Beacon(d) => {
                    let r = beacons.entry(d.block).or_insert(BeaconRecord {
                        block: d.block,
                        asn: d.asn,
                        hits_total: 0,
                        netinfo_hits: 0,
                        cellular_hits: 0,
                        wifi_hits: 0,
                        other_hits: 0,
                    });
                    r.hits_total += d.hits_total;
                    r.netinfo_hits += d.netinfo_hits;
                    r.cellular_hits += d.cellular_hits;
                    r.wifi_hits += d.wifi_hits;
                    r.other_hits += d.other_hits;
                }
                StreamEvent::Demand(d) => {
                    let e = demand.entry(d.block).or_insert((d.asn, 0.0));
                    e.1 += d.value;
                }
            }
        }
        let days = source.smoothing_days() as f64;
        let beacons = BeaconDataset::from_records(BEACON_PERIOD, beacons.into_values().collect());
        let demand = DemandDataset::from_raw(
            DEMAND_PERIOD,
            demand
                .into_iter()
                .map(|(block, (asn, acc))| DemandRecord {
                    block,
                    asn,
                    du: acc / days,
                })
                .collect(),
        );
        (beacons, demand)
    }

    #[test]
    fn full_stream_fold_matches_batch_exactly() {
        let world = World::generate(WorldConfig::mini());
        let cfg = CdnConfig::default();
        let batch_b = generate_beacons(&world, &cfg);
        let batch_d = generate_demand(&world, &cfg);
        for epochs in [1u32, 5] {
            let source = EventSource::new(&world, cfg.clone(), epochs);
            let (sb, sd) = fold(&source);
            assert_eq!(sb.len(), batch_b.len(), "epochs={epochs}");
            for (x, y) in sb.iter().zip(batch_b.iter()) {
                assert_eq!(x, y, "epochs={epochs}");
            }
            assert_eq!(sd.len(), batch_d.len(), "epochs={epochs}");
            for (x, y) in sd.iter().zip(batch_d.iter()) {
                assert_eq!(x.block, y.block);
                assert_eq!(
                    x.du.to_bits(),
                    y.du.to_bits(),
                    "epochs={epochs}: {} vs {}",
                    x.du,
                    y.du
                );
            }
        }
    }

    #[test]
    fn epoch_slices_are_stable_under_query_order() {
        let world = World::generate(WorldConfig::mini());
        let source = EventSource::new(&world, CdnConfig::default(), 4);
        // Reading epoch 2 twice — once cold, once after reading 0 and 1 —
        // yields identical events.
        let cold: Vec<StreamEvent> = source.epoch(2).collect();
        let _ = source.epoch(0).count();
        let _ = source.epoch(1).count();
        let warm: Vec<StreamEvent> = source.epoch(2).collect();
        assert_eq!(cold, warm);
    }

    #[test]
    fn demand_days_partition_across_epochs() {
        for days in [1u32, 3, 7, 10] {
            for epochs in [1u32, 2, 7, 9] {
                let mut seen = vec![0u32; epochs as usize];
                let mut last = 0;
                for d in 0..days {
                    let e = epoch_of_day(d, days, epochs);
                    assert!(e < epochs, "day {d}: epoch {e} of {epochs}");
                    assert!(e >= last, "epoch assignment must be monotone");
                    last = e;
                    seen[e as usize] += 1;
                }
                let total: u32 = seen.iter().sum();
                assert_eq!(total, days);
            }
        }
    }

    #[test]
    fn gate_faults_surface_through_try_epoch_only() {
        use std::sync::atomic::{AtomicU32, Ordering};

        /// Stalls twice on epoch 1, then recovers; fails epoch 2 forever.
        struct TestGate {
            stalls_left: AtomicU32,
        }
        impl EpochGate for TestGate {
            fn check(&self, epoch: u32) -> Result<(), SourceError> {
                match epoch {
                    1 if self
                        .stalls_left
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok() =>
                    {
                        Err(SourceError {
                            epoch,
                            kind: SourceErrorKind::Stall,
                        })
                    }
                    2 => Err(SourceError {
                        epoch,
                        kind: SourceErrorKind::Failed,
                    }),
                    _ => Ok(()),
                }
            }
        }

        let world = World::generate(WorldConfig::mini());
        let gated =
            EventSource::new(&world, CdnConfig::default(), 3).with_gate(Arc::new(TestGate {
                stalls_left: AtomicU32::new(2),
            }));
        let plain = EventSource::new(&world, CdnConfig::default(), 3);

        // Epoch 0 passes and emits the exact same events as an ungated source.
        let gated0: Vec<StreamEvent> = gated.try_epoch(0).expect("epoch 0 open").collect();
        let plain0: Vec<StreamEvent> = plain.epoch(0).collect();
        assert_eq!(gated0, plain0);

        // Epoch 1 stalls twice, then recovers.
        for attempt in 0..2 {
            let err = gated.try_epoch(1).err().expect("stall");
            assert_eq!(err.kind, SourceErrorKind::Stall, "attempt {attempt}");
            assert_eq!(err.epoch, 1);
        }
        assert!(gated.try_epoch(1).is_ok(), "stalls are transient");

        // Epoch 2 fails permanently; the infallible accessor still works
        // (that is the recovery-replay path).
        let err = gated.try_epoch(2).err().expect("failure");
        assert_eq!(err.kind, SourceErrorKind::Failed);
        assert_eq!(gated.epoch(2).count(), plain.epoch(2).count());
    }

    #[test]
    fn split_counter_is_exact_and_deterministic() {
        let mut a = rng_for(9, 9);
        let mut b = rng_for(9, 9);
        for total in [0u64, 1, 7, 1_000, 123_456] {
            let pa = split_counter(&mut a, total, 6);
            let pb = split_counter(&mut b, total, 6);
            assert_eq!(pa, pb);
            assert_eq!(pa.iter().sum::<u64>(), total);
            assert_eq!(pa.len(), 6);
        }
        let mut r = rng_for(1, 1);
        assert_eq!(split_counter(&mut r, 42, 1), vec![42]);
    }
}
