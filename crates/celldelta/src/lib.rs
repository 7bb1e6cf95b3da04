//! # celldelta — incremental classification and sealed delta artifacts
//!
//! The batch pipeline answers "what are the labels this month?"; this
//! crate answers "what changed since the last epoch?" — and makes the
//! epoch the unit of label refresh:
//!
//! * **[`EpochCounters`]** — raw per-block counters at an epoch
//!   boundary, sourced from a batch [`cellspot::BlockIndex`], a live
//!   [`cellstream::IngestEngine`] (via `raw_counters`), or a seeded
//!   [`ChurnWorld`].
//! * **[`IncrementalClassifier`]** — the canonical epoch classifier
//!   ([`classify_epoch`]) plus a per-AS memo keyed by a content hash
//!   of that AS's input counters: an AS whose counters did not move is
//!   never reclassified (`delta.memo.hits` / `delta.memo.misses` via
//!   [`cellobs::Observer`]).
//! * **CELLDELT deltas** — changed labels seal into a delta artifact
//!   ([`Delta`], [`build_delta`], [`apply_delta`]): a base generation
//!   referenced by content hash plus a sorted add/update/remove patch
//!   set, with the same canonical encoding and [`cellseal`] envelope
//!   as CELLSERV. `apply(base, delta)` verifies the base hash, merges
//!   the base's v2 bytes against the sorted ops in one strict pass
//!   into the canonical builder, and re-seals v2 — producing bytes
//!   *identical* to a full `index build` at the delta's epoch (the
//!   crate's property suite pins this down). Deltas chain on v2
//!   artifacts only; a v1 file is converted first with
//!   `cellspot index migrate`.
//!
//! The serving side (`cellserved`) picks deltas up from disk and
//! hot-swaps the patched generation under traffic; wrong-base, stale,
//! or corrupt deltas are rejected with the old generation untouched.
//!
//! ## Chaining rule
//!
//! A delta names its base by FNV-1a 64 content hash and may only be
//! applied to an artifact hashing exactly that; the patched artifact's
//! hash must equal the delta's embedded target hash. Because the
//! CELLSERV encoding is canonical, hashes compose: applying deltas
//! `e1→e2→e3` in order yields byte-for-byte the artifact a full build
//! at `e3` produces, and any break in the chain (missed delta, wrong
//! base, reordered apply) is caught by a hash mismatch, never served.

mod artifact;
mod churn;
mod classify;
mod counters;
mod wire;

pub use artifact::{apply_delta, apply_to_view, build_delta};
pub use churn::ChurnWorld;
pub use classify::{classify_epoch, IncrementalClassifier};
pub use counters::{changed_blocks, BlockCounters, EpochCounters};
pub use wire::{Delta, DeltaError, PatchChange, PatchOp, DELTA_MAGIC, DELTA_VERSION};
