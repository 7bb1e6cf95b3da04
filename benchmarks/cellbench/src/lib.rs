//! `cellbench` — the repository's one ledger benchmark.
//!
//! One binary, one workload per invocation, every layer measured from
//! outside by harness spans around calls into the layers' public
//! functions. See `benchmarks/cellbench/README.md` for the workloads,
//! the metric tables and the predictions, and `BENCHMARK.json` at the
//! repository root for the contract this crate prints and obeys.

pub mod compare;
pub mod fixture;
pub mod json;
pub mod ledger;
pub mod plan;
pub mod record;
pub mod sched;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
