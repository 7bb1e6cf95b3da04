//! The sharded ingest engine: epoch-driven folding, snapshots, finalize.
//!
//! Lifecycle: build an engine sized for an [`EventSource`], call
//! [`IngestEngine::ingest_epoch`] once per epoch (or
//! [`IngestEngine::run_to_end`]), [`IngestEngine::snapshot`] at any epoch
//! boundary, and [`IngestEngine::finalize`] to materialize the datasets
//! and sketch report. [`IngestEngine::restore`] resumes from a snapshot:
//! restore-and-continue is indistinguishable — snapshot-for-snapshot,
//! byte for byte — from a run that was never interrupted.

use std::collections::BTreeSet;
use std::fmt;

use netaddr::{Asn, BlockId};

use cdnsim::{
    BeaconDataset, BeaconRecord, DemandDataset, DemandRecord, EventSource, SourceError,
    StreamEvent, BEACON_PERIOD, DEMAND_PERIOD,
};
use dnssim::DnsSim;

use crate::hll::{HyperLogLog, MAX_PRECISION, MIN_PRECISION};
use crate::shard::{ShardRouter, ShardState};
use crate::snapshot::Snapshot;
use crate::spacesaving::{HeavyHitter, SpaceSaving};

/// Ingest knobs. Written into every snapshot so a restore can verify
/// it resumes with the state layout it was checkpointed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of shards the stream is partitioned over.
    pub shards: u32,
    /// HyperLogLog precision for per-resolver distinct-client sketches
    /// (standard error `1.04 / 2^(p/2)`).
    pub hll_precision: u8,
    /// Counter budget of each shard's demand heavy-hitter sketch.
    pub heavy_capacity: usize,
}

impl StreamConfig {
    /// Check the knobs are usable before any shard state is allocated,
    /// so degenerate configurations surface as errors instead of
    /// assertion panics deep in the sketch constructors.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("stream config needs at least one shard".into());
        }
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&self.hll_precision) {
            return Err(format!(
                "hll precision {} outside {MIN_PRECISION}..={MAX_PRECISION}",
                self.hll_precision
            ));
        }
        if self.heavy_capacity == 0 {
            return Err("heavy-hitter sketch needs at least one counter".into());
        }
        Ok(())
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 4,
            hll_precision: 12,
            heavy_capacity: 64,
        }
    }
}

/// Why an ingest step could not run (the fallible mirror of the panics
/// documented on [`IngestEngine::ingest_epoch`], plus the injected-fault
/// outcomes a chaos harness drives recovery from).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// Every epoch was already ingested.
    Finished {
        /// The stream's total epoch count.
        epochs: u32,
    },
    /// The source's epoch layout or smoothing window does not match the
    /// engine's.
    LayoutMismatch(String),
    /// The configuration failed [`StreamConfig::validate`].
    BadConfig(String),
    /// A snapshot failed validation or does not fit the running engine.
    SnapshotMismatch(String),
    /// The event source stalled or failed (injected via an
    /// [`cdnsim::EpochGate`] or a real collector outage).
    Source(SourceError),
    /// A shard's fold panicked (simulated): its state is poisoned and
    /// must be rebuilt via [`IngestEngine::recover_shard`] before the
    /// engine can checkpoint or make further progress.
    ShardPanic {
        /// Epoch being folded when the shard died.
        epoch: u32,
        /// The poisoned shard.
        shard: u32,
    },
    /// The whole process crashed mid-epoch (simulated): the in-memory
    /// engine is unusable and a restart must restore from the last good
    /// checkpoint.
    Crashed {
        /// Epoch being folded when the crash hit.
        epoch: u32,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Finished { epochs } => {
                write!(f, "all {epochs} epochs already ingested")
            }
            IngestError::LayoutMismatch(why) => write!(f, "{why}"),
            IngestError::BadConfig(why) => write!(f, "{why}"),
            IngestError::SnapshotMismatch(why) => write!(f, "{why}"),
            IngestError::Source(e) => write!(f, "{e}"),
            IngestError::ShardPanic { epoch, shard } => {
                write!(f, "shard {shard} panicked while folding epoch {epoch}")
            }
            IngestError::Crashed { epoch } => {
                write!(f, "process crashed while folding epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// What the fold loop should do after consulting an [`IngestObserver`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldAction {
    /// Fold the event normally.
    Continue,
    /// Simulate this shard's worker panicking: the shard is poisoned and
    /// stops folding; the epoch still completes for the other shards.
    KillShard,
    /// Simulate the whole process dying mid-epoch: ingest aborts
    /// immediately and the epoch does not count as done.
    CrashProcess,
}

/// Fold-loop hook consulted before every event: the fault-injection seam
/// `faultsim` uses to kill shards and crash the process at deterministic
/// points. Takes `&self` so one injector can serve as both this and an
/// [`cdnsim::EpochGate`] behind an `Arc`.
pub trait IngestObserver {
    /// Decide the fate of the next event. `epoch_events` counts events
    /// already processed this epoch across all shards; `shard_events`
    /// counts events this shard already folded this epoch — both exclude
    /// the current event, so `0` means "before the first event".
    fn before_apply(
        &self,
        epoch: u32,
        shard: u32,
        epoch_events: u64,
        shard_events: u64,
    ) -> FoldAction;
}

/// Block → resolver assignment used to attribute demand to resolvers.
///
/// The paper's platform sees which resolver asked for the DNS name that
/// routed a client; here each block is attributed to its strongest
/// affinity (deterministic: highest weight, lowest resolver id on ties).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResolverMap {
    /// Sorted by block for binary-search lookup.
    map: Vec<(BlockId, u32)>,
}

impl ResolverMap {
    /// A map that attributes nothing (resolver sketches stay empty).
    pub fn empty() -> Self {
        ResolverMap::default()
    }

    /// Build from DNS affinities: each block keeps its strongest resolver.
    pub fn from_dns(dns: &DnsSim) -> Self {
        let mut best: std::collections::BTreeMap<BlockId, (f32, u32)> =
            std::collections::BTreeMap::new();
        for a in &dns.affinities {
            match best.get(&a.block) {
                Some(&(w, r)) if w > a.weight || (w == a.weight && r <= a.resolver) => {}
                _ => {
                    best.insert(a.block, (a.weight, a.resolver));
                }
            }
        }
        ResolverMap {
            map: best.into_iter().map(|(b, (_, r))| (b, r)).collect(),
        }
    }

    /// The resolver serving a block, when one is assigned.
    pub fn resolver_of(&self, block: BlockId) -> Option<u32> {
        self.map
            .binary_search_by_key(&block, |&(b, _)| b)
            .ok()
            .map(|i| self.map[i].1)
    }

    /// Number of blocks with an assignment.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no block is assigned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Distinct-client estimate for one resolver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResolverClients {
    /// Resolver id.
    pub resolver: u32,
    /// Estimated distinct client blocks seen in demand events.
    pub estimated_clients: f64,
    /// Standard error of the estimate (relative).
    pub std_error: f64,
}

/// Sketch-derived outputs of a finished (or partial) stream.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchReport {
    /// Per-resolver distinct-client estimates, sorted by resolver id.
    pub resolver_clients: Vec<ResolverClients>,
    /// Demand heavy hitters, heaviest first.
    pub heavy_hitters: Vec<HeavyHitter>,
    /// Worst-case over-count of any heavy-hitter estimate.
    pub heavy_error_bound: f64,
    /// Exact total demand weight offered to the heavy-hitter sketch.
    pub total_demand_weight: f64,
}

/// Everything a finished stream folds down to.
#[derive(Clone, Debug)]
pub struct StreamOutputs {
    /// The BEACON dataset (exact: equals batch generation bit for bit
    /// once every epoch was ingested).
    pub beacons: BeaconDataset,
    /// The DEMAND dataset (exact, same caveat).
    pub demand: DemandDataset,
    /// Sketch estimates with their error bounds.
    pub sketches: SketchReport,
}

/// Raw per-block counters at an epoch boundary, as accumulated by the
/// shards — no dataset-level normalization applied. Produced by
/// [`IngestEngine::raw_counters`] for the incremental classifier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawBlockCounters {
    /// The /24 or /48 block.
    pub block: BlockId,
    /// Origin AS (demand-side ASN wins when the datasets disagree,
    /// matching `cellspot::BlockIndex::build`).
    pub asn: Asn,
    /// NETINFO beacon samples seen so far.
    pub netinfo_hits: u64,
    /// Cellular NETINFO samples seen so far.
    pub cellular_hits: u64,
    /// Smoothed raw demand (`acc / smoothing_days`), *not* globally
    /// normalized.
    pub du: f64,
}

/// The sharded streaming ingest engine.
pub struct IngestEngine {
    cfg: StreamConfig,
    router: ShardRouter,
    resolver_map: ResolverMap,
    shards: Vec<ShardState>,
    epochs_total: u32,
    epochs_done: u32,
    smoothing_days: u32,
    /// Shards whose fold "panicked" (fault injection): their state is
    /// stale and must be rebuilt before the engine can checkpoint.
    poisoned: BTreeSet<u32>,
    /// Set when a simulated process crash hit: the engine is unusable.
    crashed: bool,
    /// Observability sink: epoch/event counters, state-bytes high-water,
    /// recovery counters. Disabled by default (near-zero cost).
    obs: cellobs::Observer,
}

impl IngestEngine {
    /// An empty engine sized for `source`'s epoch layout.
    pub fn for_source(cfg: StreamConfig, source: &EventSource<'_>, resolvers: ResolverMap) -> Self {
        Self::with_layout(cfg, source.epochs(), source.smoothing_days(), resolvers)
    }

    /// Fallible [`for_source`](Self::for_source): a degenerate config is
    /// an error, not a panic.
    pub fn try_for_source(
        cfg: StreamConfig,
        source: &EventSource<'_>,
        resolvers: ResolverMap,
    ) -> Result<Self, IngestError> {
        Self::try_with_layout(cfg, source.epochs(), source.smoothing_days(), resolvers)
    }

    /// An empty engine with an explicit epoch layout.
    pub fn with_layout(
        cfg: StreamConfig,
        epochs_total: u32,
        smoothing_days: u32,
        resolvers: ResolverMap,
    ) -> Self {
        let router = ShardRouter::new(cfg.shards);
        let shards = (0..cfg.shards)
            .map(|_| ShardState::new(cfg.hll_precision, cfg.heavy_capacity))
            .collect();
        IngestEngine {
            cfg,
            router,
            resolver_map: resolvers,
            shards,
            epochs_total,
            epochs_done: 0,
            smoothing_days,
            poisoned: BTreeSet::new(),
            crashed: false,
            obs: cellobs::Observer::disabled(),
        }
    }

    /// Fallible [`with_layout`](Self::with_layout).
    pub fn try_with_layout(
        cfg: StreamConfig,
        epochs_total: u32,
        smoothing_days: u32,
        resolvers: ResolverMap,
    ) -> Result<Self, IngestError> {
        cfg.validate().map_err(IngestError::BadConfig)?;
        Ok(Self::with_layout(
            cfg,
            epochs_total,
            smoothing_days,
            resolvers,
        ))
    }

    /// Resume from a snapshot. The resolver map is not part of the
    /// snapshot (it is derived state, rebuilt deterministically from the
    /// world); everything else — counters, sketches, progress — is.
    pub fn restore(snapshot: &Snapshot, resolvers: ResolverMap) -> Self {
        IngestEngine {
            cfg: snapshot.config,
            router: ShardRouter::new(snapshot.config.shards),
            resolver_map: resolvers,
            shards: snapshot.shard_states(),
            epochs_total: snapshot.epochs_total,
            epochs_done: snapshot.epochs_done,
            smoothing_days: snapshot.smoothing_days,
            poisoned: BTreeSet::new(),
            crashed: false,
            obs: cellobs::Observer::disabled(),
        }
    }

    /// Fallible [`restore`](Self::restore): the snapshot is validated
    /// first, so an internally-inconsistent one (wrong shard count, bad
    /// config, impossible progress) is rejected instead of restoring an
    /// engine that would panic later.
    pub fn try_restore(snapshot: &Snapshot, resolvers: ResolverMap) -> Result<Self, IngestError> {
        snapshot.validate().map_err(IngestError::SnapshotMismatch)?;
        Ok(Self::restore(snapshot, resolvers))
    }

    /// Attach an observer (builder form). Per-epoch event counters, an
    /// epoch-size histogram, an epoch wall-clock histogram
    /// (`stream.epoch.ns`: source pull + fold), a state-bytes high-water
    /// gauge, and recovery counters report into it. Counters and the size
    /// histogram are functions of the stream alone — byte-identical at
    /// any shard or thread count — while the state-bytes gauge
    /// legitimately varies with the shard count (each shard carries fixed
    /// sketch budgets) and `stream.epoch.ns` is stable only by count.
    pub fn with_observer(mut self, obs: cellobs::Observer) -> Self {
        self.obs = obs;
        self
    }

    /// Attach an observer in place (for engines built by a supervisor).
    pub fn set_observer(&mut self, obs: cellobs::Observer) {
        self.obs = obs;
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Epochs ingested so far.
    pub fn epochs_done(&self) -> u32 {
        self.epochs_done
    }

    /// Total epochs in the stream's layout.
    pub fn epochs_total(&self) -> u32 {
        self.epochs_total
    }

    /// True once every epoch was ingested.
    pub fn finished(&self) -> bool {
        self.epochs_done >= self.epochs_total
    }

    /// Total events folded across all shards.
    pub fn events_seen(&self) -> u64 {
        self.shards.iter().map(|s| s.events_seen()).sum()
    }

    /// Approximate bytes of live ingest state across all shards.
    pub fn state_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.state_bytes()).sum()
    }

    /// Ingest the next epoch from `source`. Returns the epoch index just
    /// folded.
    ///
    /// # Panics
    /// Panics when the stream is already finished or `source`'s layout
    /// does not match the engine's.
    pub fn ingest_epoch(&mut self, source: &EventSource<'_>) -> u32 {
        match self.try_ingest_epoch(source, None) {
            Ok(epoch) => epoch,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`ingest_epoch`](Self::ingest_epoch), with an optional
    /// fault-injection observer consulted before every event.
    ///
    /// On [`IngestError::ShardPanic`] the epoch still *completes* for the
    /// healthy shards (and counts as done) — only the named shard's state
    /// is poisoned, mirroring a real worker death in a sharded pipeline —
    /// so recovery only has to rebuild that shard. On
    /// [`IngestError::Crashed`] the epoch does **not** count as done and
    /// the whole engine is dead.
    pub fn try_ingest_epoch(
        &mut self,
        source: &EventSource<'_>,
        observer: Option<&dyn IngestObserver>,
    ) -> Result<u32, IngestError> {
        if self.crashed {
            return Err(IngestError::Crashed {
                epoch: self.epochs_done,
            });
        }
        if let Some(&shard) = self.poisoned.iter().next() {
            return Err(IngestError::ShardPanic {
                epoch: self.epochs_done,
                shard,
            });
        }
        if self.finished() {
            return Err(IngestError::Finished {
                epochs: self.epochs_total,
            });
        }
        if source.epochs() != self.epochs_total {
            return Err(IngestError::LayoutMismatch(
                "source epoch layout changed mid-stream".into(),
            ));
        }
        if source.smoothing_days() != self.smoothing_days {
            return Err(IngestError::LayoutMismatch(
                "source smoothing window changed mid-stream".into(),
            ));
        }
        let epoch = self.epochs_done;
        let started = self.obs.is_enabled().then(std::time::Instant::now);
        let events = source.try_epoch(epoch).map_err(IngestError::Source)?;
        // Event counters advance for *every* event — including ones a
        // poisoned shard drops — so fault trigger points stay at the same
        // stream offsets regardless of earlier faults.
        let mut epoch_events = 0u64;
        let mut shard_counts = vec![0u64; self.shards.len()];
        let mut killed: Option<u32> = None;
        for ev in events {
            let shard = self.router.shard_of(ev.block());
            let idx = shard as usize;
            // Empty on entry (checked above): only a kill this epoch fills it.
            let dead = !self.poisoned.is_empty() && self.poisoned.contains(&shard);
            if !dead {
                match observer
                    .map(|o| o.before_apply(epoch, shard, epoch_events, shard_counts[idx]))
                    .unwrap_or(FoldAction::Continue)
                {
                    FoldAction::Continue => self.fold(idx, &ev),
                    FoldAction::KillShard => {
                        self.poisoned.insert(shard);
                        killed.get_or_insert(shard);
                    }
                    FoldAction::CrashProcess => {
                        self.crashed = true;
                        return Err(IngestError::Crashed { epoch });
                    }
                }
            }
            epoch_events += 1;
            shard_counts[idx] += 1;
        }
        self.epochs_done += 1;
        // The epoch counts as done even when a shard died (healthy shards
        // finished it), so report it either way. `epoch_events` counts
        // every event — including ones a poisoned shard dropped — so the
        // counters are a function of the stream alone.
        if let Some(started) = started {
            // Source pull + fold: what the bench ledger calls
            // `cellstream.ingest_s`, per epoch.
            self.obs
                .histogram("stream.epoch.ns")
                .record(started.elapsed().as_nanos() as u64);
            self.obs.counter("stream.events").add(epoch_events);
            self.obs.counter("stream.epochs").inc();
            self.obs
                .histogram("stream.epoch.events")
                .record(epoch_events);
            self.obs
                .gauge("stream.state_bytes.peak")
                .set_max(self.state_bytes() as u64);
        }
        match killed {
            Some(shard) => Err(IngestError::ShardPanic { epoch, shard }),
            None => Ok(epoch),
        }
    }

    /// Fold one event into shard `idx`. Only demand events feed a resolver
    /// sketch, so only they pay the resolver look-up.
    fn fold(&mut self, idx: usize, ev: &StreamEvent) {
        let resolver = match ev {
            StreamEvent::Demand(d) => self.resolver_map.resolver_of(d.block),
            StreamEvent::Beacon(_) => None,
        };
        self.shards[idx].apply(ev, resolver);
    }

    /// Rebuild one shard after a [`IngestError::ShardPanic`]: reset it
    /// from `base` (or to empty when `base` is `None`, e.g. every
    /// retained checkpoint was corrupt) and replay only that shard's
    /// slice of the missing epochs from `source`. Returns the number of
    /// epochs replayed.
    ///
    /// Bit-exact by construction: the router assigns each block to
    /// exactly one shard and per-shard fold order equals stream order, so
    /// replaying the shard's events in stream order rebuilds the same
    /// state the uninterrupted run would hold. The replay reads through
    /// [`EventSource::epoch`], not the gated
    /// [`try_epoch`](EventSource::try_epoch) — recovery must not be
    /// re-failed by the same injected source fault.
    pub fn recover_shard(
        &mut self,
        shard: u32,
        base: Option<&Snapshot>,
        source: &EventSource<'_>,
    ) -> Result<u32, IngestError> {
        if self.crashed {
            return Err(IngestError::Crashed {
                epoch: self.epochs_done,
            });
        }
        if shard >= self.cfg.shards {
            return Err(IngestError::BadConfig(format!(
                "shard {shard} out of range (engine has {})",
                self.cfg.shards
            )));
        }
        let idx = shard as usize;
        let start = match base {
            Some(snap) => {
                snap.validate().map_err(IngestError::SnapshotMismatch)?;
                if snap.config != self.cfg
                    || snap.epochs_total != self.epochs_total
                    || snap.smoothing_days != self.smoothing_days
                {
                    return Err(IngestError::SnapshotMismatch(
                        "checkpoint layout differs from the running engine".into(),
                    ));
                }
                if snap.epochs_done > self.epochs_done {
                    return Err(IngestError::SnapshotMismatch(
                        "checkpoint is ahead of the engine".into(),
                    ));
                }
                self.shards[idx] = snap.shard_state(idx);
                snap.epochs_done
            }
            None => {
                self.shards[idx] = ShardState::new(self.cfg.hll_precision, self.cfg.heavy_capacity);
                0
            }
        };
        for epoch in start..self.epochs_done {
            for ev in source.epoch(epoch) {
                if self.router.shard_of(ev.block()) == shard {
                    self.fold(idx, &ev);
                }
            }
        }
        self.poisoned.remove(&shard);
        if self.obs.is_enabled() {
            self.obs.counter("stream.recovery.shard_rebuilds").inc();
            self.obs
                .counter("stream.recovery.replayed_epochs")
                .add((self.epochs_done - start) as u64);
        }
        Ok(self.epochs_done - start)
    }

    /// Shards currently poisoned by an injected panic, ascending.
    pub fn poisoned_shards(&self) -> Vec<u32> {
        self.poisoned.iter().copied().collect()
    }

    /// True after a simulated process crash: the engine must be dropped
    /// and restored from a checkpoint.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Ingest every remaining epoch.
    pub fn run_to_end(&mut self, source: &EventSource<'_>) {
        while !self.finished() {
            self.ingest_epoch(source);
        }
    }

    /// Checkpoint the engine's complete state at the current epoch
    /// boundary. The encoding is canonical: the same engine state always
    /// seals to identical bytes ([`Snapshot::to_bytes`]).
    ///
    /// # Panics
    /// Panics when the engine is poisoned or crashed — checkpointing
    /// stale shard state would corrupt the recovery chain. Recover (or
    /// restore) first.
    pub fn snapshot(&self) -> Snapshot {
        assert!(
            self.poisoned.is_empty() && !self.crashed,
            "cannot checkpoint a poisoned engine (recover first)"
        );
        Snapshot::capture(
            self.cfg,
            self.epochs_total,
            self.epochs_done,
            self.smoothing_days,
            &self.shards,
        )
    }

    /// Merge all shards down to the raw per-block counters accumulated
    /// so far, sorted by block, without any dataset-level normalization.
    ///
    /// This is the feed for the incremental classifier (`celldelta`):
    /// unlike [`IngestEngine::finalize`], which routes demand through
    /// [`cdnsim::DemandDataset::from_raw`] (a *global* renormalization
    /// that changes every block's `du` whenever any block changes), the
    /// raw counters of an untouched block are bit-identical across
    /// epochs — exactly the stability the per-AS memoization keys on.
    /// Demand smoothing (`acc / smoothing_days`) is still applied; it is
    /// a per-block operation. When a block appears in both the beacon
    /// and demand accumulators the demand-side ASN wins, matching
    /// `cellspot::BlockIndex::build`'s lenient join.
    pub fn raw_counters(&self) -> Vec<RawBlockCounters> {
        let days = self.smoothing_days.max(1) as f64;
        // Blocks are partitioned across shards, so concatenating the
        // per-shard (sorted) maps yields no duplicates; one sort puts
        // the merged view in global block order.
        let mut blocks: std::collections::BTreeMap<BlockId, RawBlockCounters> =
            std::collections::BTreeMap::new();
        for shard in &self.shards {
            for (&block, a) in &shard.beacons {
                blocks.insert(
                    block,
                    RawBlockCounters {
                        block,
                        asn: a.asn,
                        netinfo_hits: a.netinfo_hits,
                        cellular_hits: a.cellular_hits,
                        du: 0.0,
                    },
                );
            }
        }
        for shard in &self.shards {
            for (&block, a) in &shard.demand {
                let entry = blocks.entry(block).or_insert(RawBlockCounters {
                    block,
                    asn: a.asn,
                    netinfo_hits: 0,
                    cellular_hits: 0,
                    du: 0.0,
                });
                entry.asn = a.asn;
                entry.du = a.acc / days;
            }
        }
        blocks.into_values().collect()
    }

    /// Merge all shards down to the datasets and sketch report.
    ///
    /// Counter outputs are exact: after the final epoch they equal
    /// [`cdnsim::generate_beacons`]/[`cdnsim::generate_demand`] bit for
    /// bit, at any shard count. Sketch outputs carry their documented
    /// error bounds instead.
    pub fn finalize(&self) -> StreamOutputs {
        // Blocks are partitioned across shards, so concatenation has no
        // duplicate blocks; the dataset constructors sort.
        let beacon_records: Vec<BeaconRecord> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.beacons.iter().map(|(&block, a)| BeaconRecord {
                    block,
                    asn: a.asn,
                    hits_total: a.hits_total,
                    netinfo_hits: a.netinfo_hits,
                    cellular_hits: a.cellular_hits,
                    wifi_hits: a.wifi_hits,
                    other_hits: a.other_hits,
                })
            })
            .collect();
        let days = self.smoothing_days.max(1) as f64;
        let demand_records: Vec<DemandRecord> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.demand.iter().map(move |(&block, a)| DemandRecord {
                    block,
                    asn: a.asn,
                    du: a.acc / days,
                })
            })
            .collect();

        // Register-max merging makes the per-resolver sketches identical
        // to a single-shard run's.
        let mut resolvers: std::collections::BTreeMap<u32, HyperLogLog> =
            std::collections::BTreeMap::new();
        let mut heavy = SpaceSaving::new(self.cfg.heavy_capacity);
        for shard in &self.shards {
            for (&id, hll) in &shard.resolvers {
                resolvers
                    .entry(id)
                    .and_modify(|m| m.merge(hll))
                    .or_insert_with(|| hll.clone());
            }
            heavy.merge(&shard.heavy);
        }
        let resolver_clients = resolvers
            .iter()
            .map(|(&resolver, hll)| ResolverClients {
                resolver,
                estimated_clients: hll.estimate(),
                std_error: hll.relative_error(),
            })
            .collect();
        let sketches = SketchReport {
            resolver_clients,
            heavy_error_bound: heavy.error_bound(),
            total_demand_weight: heavy.total_weight(),
            heavy_hitters: heavy.top(self.cfg.heavy_capacity),
        };

        StreamOutputs {
            beacons: BeaconDataset::from_records(BEACON_PERIOD, beacon_records),
            demand: DemandDataset::from_raw(DEMAND_PERIOD, demand_records),
            sketches,
        }
    }
}
