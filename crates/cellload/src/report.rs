//! Replay record assembly (what `cellspot replay --out` writes).
//!
//! The record splits into a **workload** section — a pure function of
//! `(preset, seed, queries, epochs, universe)`, byte-identical at any
//! thread count, CI-diffable across runs — and a **replay** section
//! carrying the measured numbers (throughput, tail latency, cache
//! behaviour) that vary run to run.

use cellobs::json::Json;
use cellobs::{obj, Observer};

use crate::replay::ReplayOutcome;
use crate::trace::Trace;
use crate::universe::Universe;

/// The deterministic workload section: everything here must be
/// identical for the same `(preset, seed)` regardless of `--threads`,
/// client count, or replay mode.
pub fn workload_json(trace: &Trace, universe: &Universe) -> Json {
    obj! {
        "preset" => trace.preset.as_str(),
        "seed" => trace.seed,
        "queries" => trace.total_queries(),
        "trace_digest" => cellserve::hash_hex(trace.digest()),
        "universe" => obj! {
            "v4_blocks" => universe.v4.len(),
            "v6_blocks" => universe.v6.len(),
        },
        "segments" => trace
            .segments
            .iter()
            .map(|s| obj! {"epoch" => s.epoch, "queries" => s.queries.len()})
            .collect::<Vec<_>>(),
    }
}

/// The measured replay section. Latency quantiles come from the
/// observer: per-lookup `serve.lookup.ns` when the engine (or an
/// in-process daemon) shares the observer, per-frame `replay.frame.ns`
/// for network replays.
pub fn replay_json(outcome: &ReplayOutcome, obs: &Observer) -> Json {
    let snap = obs.snapshot();
    let latency = ["serve.lookup.ns", "replay.frame.ns"]
        .into_iter()
        .find_map(|name| {
            let h = snap.histograms.get(name)?;
            let quantile = |q| h.quantile(q).map_or(Json::Null, Json::from);
            Some(obj! {
                "source" => name,
                "unit" => "ns",
                "count" => h.count,
                "p50" => quantile(0.50),
                "p99" => quantile(0.99),
                "p999" => quantile(0.999),
            })
        })
        .unwrap_or(Json::Null);
    let cache_total = outcome.cache_hits + outcome.cache_misses;
    obj! {
        "mode" => outcome.mode,
        "wall_secs" => outcome.wall_secs,
        "lookups" => outcome.lookups,
        "lookups_per_sec" => outcome.lookups_per_sec(),
        "matched" => outcome.matched,
        "dropped" => outcome.dropped,
        "answer_digest" => cellserve::hash_hex(outcome.answer_digest),
        "cache" => obj! {
            "hits" => outcome.cache_hits,
            "misses" => outcome.cache_misses,
            "uncached" => outcome.uncached,
            "hit_rate" => if cache_total > 0 {
                outcome.cache_hits as f64 / cache_total as f64
            } else {
                0.0
            },
        },
        "latency" => latency,
        "segments" => outcome
            .segments
            .iter()
            .map(|s| obj! {
                "epoch" => s.epoch,
                "lookups" => s.lookups,
                "matched" => s.matched,
                "dropped" => s.dropped,
                "answer_digest" => cellserve::hash_hex(s.answer_digest),
            })
            .collect::<Vec<_>>(),
    }
}

/// The full replay record.
pub fn bench_replay_record(threads: usize, workload: Json, replay: Json) -> Json {
    obj! {
        "bench" => "replay",
        "threads" => threads,
        "workload" => workload,
        "replay" => replay,
    }
}
