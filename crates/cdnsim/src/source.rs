//! Streaming event source: the generative model as an unbounded feed.
//!
//! Batch mode materializes both datasets in one pass ([`crate::aggregate`]).
//! A real CDN never sees data that way — beacons and demand snapshots
//! arrive continuously and the ingest tier folds them into bounded state.
//! This module exposes the *same* generative model as an epoch-sliced
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
//! * **Drawn once:** the beacon month. The first `epoch()` call samples
//!   every block's monthly totals and their whole epoch split into one
//!   schedule — `4 × epochs` `u64`s (`32 × epochs` bytes) per block record,
//!   ≈23 MB for the demo world at 4 epochs, ≈1.1 GB for the paper world —
//!   and every `epoch()` after that reads rows. **Lazy:** demand. A block
//!   seeds its demand stream once per epoch, skips the jitters of earlier
//!   days and emits the epoch's contiguous day range; nothing is stored.
//!
//! Events for one block always appear in the same relative order no matter
//! how the stream is sharded by block — the determinism guarantee the
//! ingest engine builds on.

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use netaddr::{Asn, BlockId};
use worldgen::sampling::{binomial, lognormal_jitter, rng_for, GenRng};
use worldgen::World;

use crate::aggregate::{BeaconSampler, CdnConfig};
use crate::stream::{block_stream, DEMAND_SEED_TAG};

/// Seed tag for the epoch-split RNG stream. Distinct from the dataset
/// tags so slicing draws never interleave with the monthly-total draws.
const SPLIT_SEED_TAG: u64 = 0x5711_7000_0000_0000;

/// Block records per schedule chunk (the unit the parallel draw hands out).
const SCHEDULE_CHUNK: usize = 1024;

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

/// Epoch-sliced event stream over a world.
///
/// Holds the beacon schedule once the first [`epoch`](Self::epoch) call
/// has drawn it (`32 × epochs` bytes per block record, see the module
/// docs); demand events are computed on demand from the per-block RNG
/// streams and never stored.
pub struct EventSource<'w> {
    world: &'w World,
    cfg: CdnConfig,
    epochs: u32,
    gate: Option<Arc<dyn EpochGate>>,
    /// Per [`SCHEDULE_CHUNK`] block records, one row per record: the
    /// `epochs` parts of its non-NetInfo, cellular, wifi and other hits.
    schedule: OnceLock<Vec<Vec<u64>>>,
}

impl<'w> EventSource<'w> {
    /// Build a source emitting the world's month of telemetry in `epochs`
    /// slices.
    ///
    /// # Panics
    /// Panics when `epochs == 0`.
    pub fn new(world: &'w World, cfg: CdnConfig, epochs: u32) -> Self {
        assert!(epochs > 0, "an event stream needs at least one epoch");
        EventSource {
            world,
            cfg,
            epochs,
            gate: None,
            schedule: OnceLock::new(),
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

    /// All events of one epoch, lazily, in block-record order. The first
    /// call on a source draws the beacon schedule (in parallel, under the
    /// caller's rayon pool); any epoch's slice is independent of which
    /// epochs were queried before.
    ///
    /// # Panics
    /// Panics when `epoch >= self.epochs()`.
    pub fn epoch(&self, epoch: u32) -> impl Iterator<Item = StreamEvent> + '_ {
        assert!(
            epoch < self.epochs,
            "epoch {epoch} out of range (epochs = {})",
            self.epochs
        );
        let (n, e) = (self.epochs as usize, epoch as usize);
        let days = epoch_days(epoch, self.smoothing_days(), self.epochs);
        let seed = self.world.config.seed ^ DEMAND_SEED_TAG;
        let jitter = self.cfg.daily_jitter;
        let records = &self.world.blocks.records;
        let schedule = self.schedule.get_or_init(|| self.draw_schedule());
        (records.chunks(SCHEDULE_CHUNK).zip(schedule))
            .flat_map(move |(blocks, rows)| blocks.iter().zip(rows.chunks_exact(4 * n)))
            .flat_map(move |(b, row)| {
                let [non_netinfo, cellular_hits, wifi_hits, other_hits] =
                    [0, 1, 2, 3].map(|category| row[category * n + e]);
                let netinfo_hits = cellular_hits + wifi_hits + other_hits;
                let hits_total = non_netinfo + netinfo_hits;
                let beacon = (hits_total > 0).then_some(StreamEvent::Beacon(BeaconDelta {
                    epoch,
                    block: b.block,
                    asn: b.asn,
                    hits_total,
                    netinfo_hits,
                    cellular_hits,
                    wifi_hits,
                    other_hits,
                }));
                // Day `d`'s draw is the `(d + 1)`-th jitter of the block's
                // demand stream, exactly as `generate_demand` accumulates
                // them: skip the earlier epochs' days, emit this epoch's.
                let demand = (b.demand_weight > 0.0 && !days.is_empty()).then(|| {
                    let mut rng = rng_for(seed, block_stream(b.block));
                    for _ in 0..days.start {
                        lognormal_jitter(&mut rng, jitter);
                    }
                    days.clone().map(move |day| {
                        StreamEvent::Demand(DemandDay {
                            epoch,
                            day,
                            block: b.block,
                            asn: b.asn,
                            value: b.demand_weight as f64 * lognormal_jitter(&mut rng, jitter),
                        })
                    })
                });
                beacon.into_iter().chain(demand.into_iter().flatten())
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

    /// Draw every block's month ([`BeaconSampler::sample`], the draw
    /// `generate_beacons` makes) and slice its four disjoint hit categories
    /// across epochs with a dedicated stream, in a fixed order, so the
    /// slices sum to the monthly totals exactly. A block with no hits
    /// keeps an all-zero row.
    fn draw_schedule(&self) -> Vec<Vec<u64>> {
        use rayon::prelude::*;
        let sampler = BeaconSampler::new(self.world, &self.cfg);
        let n = self.epochs as usize;
        let seed = self.world.config.seed ^ SPLIT_SEED_TAG;
        (self.world.blocks.records.par_chunks(SCHEDULE_CHUNK))
            .map(|blocks| {
                let mut rows = vec![0u64; blocks.len() * 4 * n];
                for (b, row) in blocks.iter().zip(rows.chunks_exact_mut(4 * n)) {
                    let Some(month) = sampler.sample(b) else {
                        continue;
                    };
                    let mut rng = rng_for(seed, block_stream(b.block));
                    let totals = [
                        month.hits_total - month.netinfo_hits,
                        month.cellular_hits,
                        month.wifi_hits,
                        month.other_hits,
                    ];
                    for (total, parts) in totals.into_iter().zip(row.chunks_exact_mut(n)) {
                        split_counter(&mut rng, total, parts);
                    }
                }
                rows
            })
            .collect()
    }
}

/// The smoothing days that land in `epoch`. Days partition across epochs
/// in order — day `d` belongs to epoch `⌊d · epochs / days⌋` — so each
/// epoch holds one contiguous, possibly empty, range.
fn epoch_days(epoch: u32, days: u32, epochs: u32) -> Range<u32> {
    let first_day = |e: u32| (e as u64 * days as u64).div_ceil(epochs as u64) as u32;
    first_day(epoch)..first_day(epoch + 1)
}

/// Split `total` into `parts.len()` non-negative parts that sum to `total`
/// exactly, each part marginally Binomial(total, 1/epochs): epoch `e`
/// takes Binomial(remaining, 1/(epochs − e)).
fn split_counter(rng: &mut GenRng, total: u64, parts: &mut [u64]) {
    let epochs = parts.len();
    let mut remaining = total;
    for (e, part) in parts.iter_mut().enumerate() {
        let left = epochs - e;
        *part = if left == 1 {
            remaining
        } else {
            binomial(rng, remaining, 1.0 / left as f64)
        };
        remaining -= *part;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::datasets::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
    use crate::netinfo::netinfo_share;
    use crate::stream::BEACON_SEED_TAG;
    use crate::{generate_beacons, generate_demand, BEACON_PERIOD, DEMAND_PERIOD};
    use worldgen::sampling::poisson;
    use worldgen::{SubnetRecord, WorldConfig};

    /// [`super::split_counter`] in the `Vec`-returning shape it had before
    /// the schedule: the reference generator and the split test use it.
    fn split_counter(rng: &mut GenRng, total: u64, epochs: u32) -> Vec<u64> {
        let mut parts = vec![0; epochs as usize];
        super::split_counter(rng, total, &mut parts);
        parts
    }

    /// The reference generator: the per-epoch re-draw `EventSource` did
    /// before it kept a schedule (`beacon_delta` / `demand_value` /
    /// `epoch_of_day` are the deleted bodies, moved here unchanged). Every
    /// `epoch()` call re-draws each block's whole month to emit one slice,
    /// sharing nothing with `BeaconSampler` or `epoch_days`.
    struct Reference<'w> {
        world: &'w World,
        cfg: CdnConfig,
        epochs: u32,
        weight_sum: f64,
        hits_budget: f64,
        netinfo_frac: f64,
    }

    impl<'w> Reference<'w> {
        fn new(world: &'w World, cfg: CdnConfig, epochs: u32) -> Self {
            let netinfo_frac = netinfo_share(cfg.month_index).total() / 100.0;
            let weight_sum: f64 = world
                .blocks
                .records
                .iter()
                .map(|r| r.beacon_weight as f64)
                .sum();
            let hits_budget = world.config.netinfo_hits_total / netinfo_frac;
            Reference {
                world,
                cfg,
                epochs,
                weight_sum,
                hits_budget,
                netinfo_frac,
            }
        }

        fn epoch(&self, epoch: u32) -> Vec<StreamEvent> {
            let days = self.cfg.smoothing_days.max(1);
            let mut out = Vec::new();
            for b in &self.world.blocks.records {
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
            }
            out
        }

        /// Epoch `epoch`'s slice of one block's monthly beacon counters, or
        /// `None` when the block contributes nothing to this epoch.
        fn beacon_delta(&self, b: &SubnetRecord, epoch: u32) -> Option<BeaconDelta> {
            if b.beacon_weight <= 0.0 {
                return None;
            }
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

        /// Day `day`'s raw demand draw for a block: the `(day + 1)`-th
        /// jitter from the block's demand stream.
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

    /// FNV-1a over every field of every event, in stream order.
    fn stream_digest(source: &EventSource<'_>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for ev in source.events() {
            match ev {
                StreamEvent::Beacon(d) => {
                    for v in [
                        0,
                        d.epoch as u64,
                        block_stream(d.block),
                        d.asn.0 as u64,
                        d.hits_total,
                        d.netinfo_hits,
                        d.cellular_hits,
                        d.wifi_hits,
                        d.other_hits,
                    ] {
                        put(v);
                    }
                }
                StreamEvent::Demand(d) => {
                    for v in [
                        1,
                        d.epoch as u64,
                        d.day as u64,
                        block_stream(d.block),
                        d.asn.0 as u64,
                        d.value.to_bits(),
                    ] {
                        put(v);
                    }
                }
            }
        }
        h
    }

    /// The stream is the parent's stream: this digest was computed at the
    /// commit before the schedule existed (per-epoch re-draw), debug and
    /// release, and pinned before `source.rs` was touched.
    #[test]
    fn mini_world_stream_digest_is_pinned() {
        let world = World::generate(WorldConfig::mini());
        let source = EventSource::new(&world, CdnConfig::default(), 4);
        assert_eq!(source.events().count(), 192_785);
        assert_eq!(stream_digest(&source), 0xc97e_b010_3d60_7b9c);
    }

    #[test]
    fn stream_equals_the_reference_generator_event_for_event() {
        // Every 12th block record (both families, two schedule
        // chunks): the reference re-draws a block's month per epoch, and
        // 78 epochs of the whole mini world take minutes unoptimised. The
        // whole world is covered by the pinned digest above.
        let mut world = World::generate(WorldConfig::mini());
        world.blocks.records = (world.blocks.records.into_iter().step_by(12)).collect();
        assert!(world.blocks.records.len() > SCHEDULE_CHUNK);
        for smoothing_days in [1u32, 3, 7] {
            let cfg = CdnConfig {
                smoothing_days,
                ..Default::default()
            };
            // Includes `epochs > days`, where some epochs carry no demand.
            for epochs in [1u32, 2, 3, 4, 7, 9] {
                let source = EventSource::new(&world, cfg.clone(), epochs);
                let reference = Reference::new(&world, cfg.clone(), epochs);
                let mut demand_free_epochs = 0;
                for epoch in 0..epochs {
                    let got: Vec<StreamEvent> = source.epoch(epoch).collect();
                    let want = reference.epoch(epoch);
                    assert_eq!(got.len(), want.len(), "epochs={epochs} epoch={epoch}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g, w, "epochs={epochs} days={smoothing_days} epoch={epoch}");
                    }
                    if !want.iter().any(|ev| matches!(ev, StreamEvent::Demand(_))) {
                        demand_free_epochs += 1;
                    }
                }
                assert_eq!(
                    demand_free_epochs,
                    epochs.saturating_sub(smoothing_days),
                    "epochs={epochs} days={smoothing_days}"
                );
            }
        }
    }

    #[test]
    fn epoch_day_ranges_agree_with_the_per_day_assignment() {
        for days in [1u32, 3, 7, 10] {
            for epochs in [1u32, 2, 4, 7, 9] {
                for epoch in 0..epochs {
                    let want: Vec<u32> = (0..days)
                        .filter(|&d| epoch_of_day(d, days, epochs) == epoch)
                        .collect();
                    let got: Vec<u32> = epoch_days(epoch, days, epochs).collect();
                    assert_eq!(got, want, "days={days} epochs={epochs} epoch={epoch}");
                }
            }
        }
    }

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
