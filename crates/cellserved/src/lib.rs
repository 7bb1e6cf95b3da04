//! `cellserved` — long-running lookup daemon over the `cellserve`
//! frozen index.
//!
//! The serving pipeline, end to end:
//!
//! 1. **Listeners.** A dependency-light HTTP/1.1 endpoint ([`http`
//!    module](crate) routes: `/lookup`, `/metrics`, `/healthz`,
//!    `/generation`) and a compact length-prefixed TCP protocol
//!    ([`proto`](crate) wire format, [`FramedClient`] speaks it).
//! 2. **Answering.** The connection thread that read a request — a
//!    frame, a `POST /lookup` body, one `GET /lookup` — pins one
//!    generation and runs one [`cellserve::QueryEngine`] call over it:
//!    a single chunk with a fresh hot-block cache up to
//!    [`cellserve::QUERY_CHUNK`] queries, the engine's own rayon
//!    fan-out beyond. No queue, no hand-off to another thread; the
//!    daemon inherits the engine's per-lookup latency histogram and
//!    cache accounting unchanged, and its counters are a function of
//!    the requests alone.
//! 3. **Generations.** The index lives behind an atomic `Arc` swap
//!    ([`GenerationStore`]): a reload validates the candidate artifact
//!    completely (seal, structure, version) before the swap, and a bad
//!    candidate leaves the old generation serving — zero downtime
//!    either way. A polling watcher ([`ServeConfig::reload_watch`])
//!    picks up atomically-published artifact files, and a second
//!    watcher ([`ServeConfig::delta_watch`]) hot-patches the live
//!    generation with sealed [`celldelta`] deltas that chain on it
//!    (base content hash matches, epoch advances); wrong-base, stale,
//!    or corrupt deltas are rejected with the old generation untouched.
//! 4. **Hardening.** Both listeners share one admission budget
//!    ([`ServeConfig::max_conns`]) and per-socket deadlines
//!    ([`ServeConfig::io_timeout`]), so scanners and slow-loris peers
//!    are shed (`served.conns.rejected`, HTTP 503) instead of pinning
//!    handler threads. HTTP speaks keep-alive; the framed protocol
//!    pipelines; both cap requests per connection
//!    ([`ServeConfig::max_requests_per_conn`]) and close idle peers.
//!    On the client side, [`FramedClient`] carries a [`ClientPolicy`]
//!    — timeouts, reconnect-with-backoff, idempotent whole-batch
//!    retry — so a daemon restart heals transparently mid-replay.
//! 5. **Shutdown.** [`Daemon::shutdown`] stops accepting, half-closes
//!    and drains live connections (bounded by
//!    [`ServeConfig::drain_timeout`]) — each finishes the request it
//!    is answering — joins all threads, refreshes the latency-quantile
//!    gauges, and returns the final metrics snapshot.
//!
//! Everything is std-only: one thread per connection and blocking
//! sockets — no async runtime, in keeping with the workspace's
//! dependency-light rule.

mod conns;
mod daemon;
mod error;
mod generation;
mod http;
mod proto;
mod reload;
mod tcp;

pub use daemon::{Daemon, ServeConfig};
pub use error::ServedError;
pub use generation::{Generation, GenerationStore};
pub use proto::{ClientPolicy, FramedClient, WireAnswer, MAX_FRAME, MAX_QUERIES_PER_FRAME};

/// For every histogram the observer holds, set `<name>.p50`,
/// `<name>.p99`, and `<name>.p999` gauges from its current
/// [`quantile`](cellobs::HistogramSnapshot::quantile) estimates, so
/// exports carry ready-to-read latency percentiles next to the raw
/// bucket counts. No-op on a disabled observer.
pub fn refresh_latency_gauges(obs: &cellobs::Observer) {
    if !obs.is_enabled() {
        return;
    }
    let snap = obs.snapshot();
    for (name, hist) in &snap.histograms {
        for (q, suffix) in [(0.50, "p50"), (0.99, "p99"), (0.999, "p999")] {
            if let Some(v) = hist.quantile(q) {
                obs.gauge(&format!("{name}.{suffix}")).set(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_gauges_follow_histograms() {
        let obs = cellobs::Observer::enabled();
        let h = obs.histogram("served.test.ns");
        for _ in 0..99 {
            h.record(100); // bucket ≤128
        }
        h.record(4000); // bucket ≤4096
        refresh_latency_gauges(&obs);
        let snap = obs.snapshot();
        assert_eq!(snap.gauges["served.test.ns.p50"], 128);
        assert_eq!(snap.gauges["served.test.ns.p99"], 128);
        assert_eq!(snap.gauges["served.test.ns.p999"], 4096);
    }

    #[test]
    fn disabled_observer_is_untouched() {
        let obs = cellobs::Observer::disabled();
        refresh_latency_gauges(&obs);
        assert!(obs.snapshot().gauges.is_empty());
    }
}
