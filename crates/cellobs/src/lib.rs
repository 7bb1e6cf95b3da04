//! # cellobs — unified observability for the cell-spotting system
//!
//! Every layer of the system — world generation, dataset sampling, the
//! batch study pipeline, the sharded streaming ingest engine — reports
//! into one [`Observer`]:
//!
//! * **Hierarchical spans** ([`Observer::span`]) — entered/exited scopes
//!   with wall-clock duration and an item count, nested by open order
//!   (`study/classify`, `ingest/epoch`). Spans are for *where time
//!   goes*; their durations are explicitly outside the determinism
//!   contract.
//! * **Metrics registry** — monotonic [`Counter`]s, last/max-value
//!   [`Gauge`]s, and [`Histogram`]s with fixed power-of-two buckets so
//!   the exported distribution shape is deterministic.
//! * **Exporters** ([`ObsSnapshot`]) — canonical JSON (stable key order,
//!   stable formatting; byte-identical for identical metric state) and
//!   the Prometheus text exposition format.
//!
//! ## Determinism contract
//!
//! Counters, gauges, and histograms must be driven only by quantities
//! that are themselves deterministic functions of the configuration
//! (seed, scale, shard count) — never by wall-clock, thread scheduling,
//! or iteration order of unordered containers. Under that discipline the
//! redacted export ([`ObsSnapshot::to_canonical_json_redacted`]) is
//! byte-identical across runs and across rayon thread counts; only span
//! durations (and the full, unredacted export that includes them) vary.
//! The workspace test `tests/observability.rs` pins this down.
//!
//! ## Cost model
//!
//! A disabled observer ([`Observer::disabled`]) is a `None` behind a
//! cheap clone: every `span`/`counter`/`gauge`/`histogram` call returns
//! an inert handle without locking, allocating, or reading the clock.
//! Enabled-path counter increments are a single relaxed atomic add on a
//! pre-registered handle; registration itself takes a short mutex.

mod export;
mod hist;
pub mod json;
mod registry;
mod snapshot;

pub use export::ExportFormat;
pub use hist::{bucket_bound_label, bucket_index, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{Counter, Gauge, Histogram, Observer, Span};
pub use snapshot::{ObsSnapshot, SpanRecord};
