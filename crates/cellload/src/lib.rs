//! Seeded adversarial workload generation and closed-loop replay for
//! the serving stack.
//!
//! The paper's classification is only as credible as the workloads it
//! survives. This crate turns the live prefix universe (a
//! [`cellspot::Classification`] or a loaded [`cellserve::ArtifactHandle`])
//! into **named, seeded query traces** — Zipf-skewed popularity,
//! diurnal intensity cycles, flash crowds, cache-busting scans, and
//! mid-trace churn that tracks CELLDELT epochs — and replays them
//! **closed-loop** against three targets:
//!
//! - the in-process [`cellserve::QueryEngine`] over the loaded artifact,
//! - a live `cellspot serve` daemon over its framed TCP protocol
//!   (via [`cellserved::FramedClient`]),
//! - the same daemon over bulk HTTP `POST /lookup`.
//!
//! Three contracts hold everywhere:
//!
//! 1. **Determinism** — for a given `(preset, seed, queries, epochs)`
//!    and universe, the generated trace is bit-identical at any rayon
//!    thread count ([`TraceSpec::generate`] seeds one RNG stream per
//!    fixed-size chunk, never per worker).
//! 2. **Replayability** — traces serialize to a sealed CLOAD file
//!    ([`Trace::to_bytes`]) with the same length + CRC-32 trailer
//!    discipline as CELLSERV/CELLDELT; encoding is canonical
//!    (`to_bytes(from_bytes(b)?) == b`) and any single-byte corruption
//!    is rejected.
//! 3. **Answer identity** — every replay target normalizes answers to
//!    the same `(matched, prefix_len, asn, class_byte)` tuple and folds
//!    them, in query order, into an FNV-1a digest
//!    ([`replay::AnswerDigest`]), so "the daemon answered exactly like
//!    a cold engine run" is one `u64` comparison — including across a
//!    `--delta-watch` hot-patch mid-replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod preset;
pub mod replay;
pub mod report;
pub mod trace;
pub mod universe;
pub mod zipf;

mod error;

pub use cellserved::ClientPolicy;
pub use error::LoadError;
pub use preset::{steady_queries, Preset, TraceSpec};
pub use replay::{
    replay_engine, replay_framed, replay_http, AnswerDigest, ReplayConfig, ReplayError,
    ReplayOutcome, SegmentOutcome,
};
pub use report::{bench_replay_record, replay_json, workload_json};
pub use trace::{Trace, TraceSegment};
pub use universe::Universe;
pub use zipf::ZipfTable;
