//! # cellstream — streaming ingest engine
//!
//! The measurement platform of the paper never sees its datasets as
//! files: RUM beacons and demand snapshots arrive as an unbounded event
//! stream and an ingest tier folds them into per-block state. This crate
//! is that tier for the synthetic platform — it consumes the lazy,
//! epoch-sliced stream of [`cdnsim::EventSource`] and maintains:
//!
//! * **Sharded accumulators** — events are routed by block hash to one of
//!   `N` shards ([`ShardRouter`]); each shard folds its blocks' beacon
//!   counters and demand sums incrementally ([`ShardState`]).
//!   Memory is bounded by distinct active blocks plus fixed sketch
//!   budgets, not by stream length.
//! * **Mergeable sketches** — a [`HyperLogLog`] per resolver estimates
//!   distinct client blocks (standard error `1.04/sqrt(2^p)`, under 1.7%
//!   at the default precision 12; register-max merging is *exact*, so
//!   estimates are identical at any shard count), and a weighted
//!   [`SpaceSaving`] tracker surfaces the blocks concentrating demand
//!   (per-key bound `estimate − error ≤ true ≤ estimate`, worst-case
//!   over-count `total/capacity`).
//! * **Checkpoint/restore** — at any epoch boundary the engine captures
//!   a [`Snapshot`] with one canonical sealed encoding;
//!   [`IngestEngine::restore`] resumes it, and a resumed run is
//!   byte-identical to an uninterrupted one.
//! * **Fault tolerance** — checkpoints are written atomically under the
//!   `cellseal` trailer every sealed file carries; a [`CheckpointStore`]
//!   retains the newest N so recovery can fall back past a truncated or
//!   bit-flipped file. The `faultsim` layer injects deterministic faults
//!   (shard panics, process crashes, checkpoint corruption, source
//!   stalls) from a JSON [`FaultPlan`], and [`run_chaos`] supervises a run
//!   through all of them — the chaos suite asserts the survivor's state
//!   is byte-identical to a fault-free run's.
//!
//! ## Determinism contract
//!
//! Folding the *complete* stream reproduces the batch datasets of
//! [`cdnsim::generate_beacons`]/[`cdnsim::generate_demand`] **bit for
//! bit** — integer counters because addition commutes across epoch
//! slices that sum exactly, demand floats because each block's days are
//! folded by a single shard in day order, replaying the batch
//! accumulation sequence. The equivalence holds for every shard count;
//! `tests/streaming_equivalence.rs` at the workspace root pins it down,
//! including classification parity of the downstream `cellspot` study.

mod engine;
mod error;
mod faultsim;
mod hll;
mod integrity;
mod shard;
mod snapshot;
mod spacesaving;

pub use engine::{
    FoldAction, IngestEngine, IngestError, IngestObserver, RawBlockCounters, ResolverClients,
    ResolverMap, SketchReport, StreamConfig, StreamOutputs,
};
pub use error::StreamError;
pub use faultsim::{
    run_chaos, run_chaos_observed, ChaosError, ChaosReport, Fault, FaultInjector, FaultPlan,
};
pub use hll::{HyperLogLog, MAX_PRECISION, MIN_PRECISION};
// The checksum and the atomic write live in the `cellseal` leaf; the
// names stay here for the CLI and the checkpoint code.
pub use cellseal::{crc32, write_atomic_bytes};
pub use integrity::{CheckpointStore, RecoveryOutcome, DEFAULT_RETAIN};
pub use shard::{BeaconAccum, DemandAccum, ShardRouter, ShardState};
pub use snapshot::{BeaconRow, DemandRow, ResolverRow, ShardSnapshot, Snapshot, SNAPSHOT_VERSION};
pub use spacesaving::{HeavyHitter, SpaceSaving};

pub mod prelude {
    //! One-line import for consumers of the streaming subsystem.
    pub use crate::{
        CheckpointStore, FaultPlan, IngestEngine, ResolverMap, Snapshot, StreamConfig, StreamError,
        StreamOutputs,
    };
}
