//! `bench_serve` — daemon serving throughput over the framed TCP
//! protocol, summarized as `BENCH_serve.json`.
//!
//! ```text
//! bench_serve [--scale mini|demo|paper|<float>] [--seed N] [--lookups N]
//!             [--preset steady|diurnal|flashcrowd|scan]
//!             [--clients N] [--batch N] [--workers N] [--out FILE]
//! ```
//!
//! Builds a world, classifies it, freezes the classification, and boots
//! an in-process [`cellserved::Daemon`] on an ephemeral TCP port. A
//! seeded `cellload` preset trace (default `steady` — the same stream
//! `bench_lookup` replays in-process) is driven through
//! [`cellload::replay_framed`]: N closed-loop clients, each sending
//! `--batch` queries per framed request, so the measurement covers the
//! full serving path: framing, the coalescing batch queue, and the
//! chunked query engine. The record carries:
//!
//! * `wall_millis`, `requests_per_sec`, `lookups_per_sec` — closed-loop
//!   client throughput;
//! * `latency_ns` — engine-side p50/p99/p999 from the `serve.lookup.ns`
//!   histogram (per-lookup samples, bucket upper bounds);
//! * `batch_fill_p50` — how full coalesced batches ran;
//! * `keepalive` — TCP connections opened, frames served on a reused
//!   connection, and the resulting requests-per-connection ratio, so
//!   connection churn regressions show up in the record;
//! * `stats` — matched count plus the daemon-side lookup total, which
//!   must equal the client-side query count (asserted every run).
//!
//! CI's bench-smoke step runs this at mini scale and validates the keys.

use std::fs;
use std::path::PathBuf;

use bench::config_for_scale;
use cellload::{replay_framed, Preset, ReplayConfig, TraceSpec, Universe};
use cellobs::Observer;
use cellserve::FrozenIndex;
use cellserved::{Daemon, ServeConfig};
use cellspot::Pipeline;

fn main() {
    let mut scale = "mini".to_string();
    let mut seed: Option<u64> = None;
    let mut lookups: usize = 200_000;
    let mut clients: usize = 4;
    let mut batch: usize = 64;
    let mut workers: usize = 2;
    let mut preset = Preset::Steady;
    let mut out = PathBuf::from("BENCH_serve.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage("missing --scale value"))
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("missing --seed value"));
                seed = Some(v.parse().unwrap_or_else(|_| usage("bad --seed value")));
            }
            "--lookups" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --lookups value"));
                lookups = v.parse().unwrap_or_else(|_| usage("bad --lookups value"));
            }
            "--clients" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --clients value"));
                clients = v.parse().unwrap_or_else(|_| usage("bad --clients value"));
            }
            "--batch" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --batch value"));
                batch = v.parse().unwrap_or_else(|_| usage("bad --batch value"));
            }
            "--workers" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --workers value"));
                workers = v.parse().unwrap_or_else(|_| usage("bad --workers value"));
            }
            "--preset" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --preset value"));
                preset =
                    Preset::parse(&v).unwrap_or_else(|| usage(&format!("unknown preset {v:?}")));
                if preset == Preset::Churn {
                    usage("the churn preset needs delta hot-patching; use `cellspot replay --preset churn`");
                }
            }
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| usage("missing --out value")))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if lookups == 0 || clients == 0 || batch == 0 || workers == 0 {
        usage("--lookups, --clients, --batch, and --workers must all be at least 1");
    }

    let mut config = config_for_scale(&scale).unwrap_or_else(|e| usage(&e));
    if let Some(s) = seed {
        config.seed = s;
    }
    let seed = config.seed;

    // Build → classify → freeze, mirroring `cellspot index build`.
    eprintln!("building {scale} world (seed {seed:#x}) and freezing its classification …");
    let world = worldgen::World::generate(config);
    let (beacons, demand) = cdnsim::generate_datasets(&world);
    let (_index, class) = Pipeline::new(&beacons, &demand)
        .classify()
        .expect("generated datasets classify at the default threshold");
    let frozen = FrozenIndex::from_classification(&class, None);
    let sealed = cellserve::Artifact::encode(&frozen, cellserve::ArtifactFormat::V2);
    let artifact_bytes = sealed.len();
    let (v4_prefixes, v6_prefixes) = frozen.prefix_counts();

    let universe = Universe::from_classification(&class);
    let trace = TraceSpec {
        preset,
        seed,
        queries: lookups,
        epochs: 1,
    }
    .generate(std::slice::from_ref(&universe));
    let trace_digest = cellserve::hash_hex(trace.digest());
    eprintln!(
        "artifact: {v4_prefixes} v4 + {v6_prefixes} v6 prefixes, {artifact_bytes} bytes; \
         {clients} client(s) × {batch}-query frames over {} `{}` queries …",
        trace.total_queries(),
        preset.name()
    );

    let obs = Observer::enabled();
    let daemon = Daemon::start_with_handle(
        ServeConfig {
            tcp_listen: Some("127.0.0.1:0".to_string()),
            workers,
            ..ServeConfig::default()
        },
        cellserve::Artifact::from_bytes(&sealed).expect("just-encoded artifact validates"),
        obs.clone(),
    )
    .expect("boot the daemon on an ephemeral port");
    let addr = daemon.tcp_addr().expect("tcp endpoint is configured");

    // Closed loop via the shared replay driver: each client owns a
    // contiguous slice of the trace and sends it one frame at a time,
    // waiting for each answer.
    let outcome = replay_framed(
        addr,
        &trace,
        &ReplayConfig {
            clients,
            frame: batch,
            ..ReplayConfig::default()
        },
        &obs,
        |_| Ok(()),
    )
    .expect("replay the trace against the daemon");
    assert_eq!(outcome.dropped, 0, "the daemon must answer every query");
    let wall_secs = outcome.wall_secs;
    let matched = outcome.matched;

    let snapshot = daemon.shutdown();
    let requests = snapshot
        .histograms
        .get("replay.frame.ns")
        .map(|h| h.count)
        .unwrap_or(0);
    let served = snapshot.counters.get("serve.lookups").copied().unwrap_or(0);
    assert_eq!(
        served,
        trace.total_queries() as u64,
        "daemon-side lookup count must equal the client-side query count"
    );
    let lookup_ns = snapshot.histograms.get("serve.lookup.ns");
    assert_eq!(
        lookup_ns.map(|h| h.count).unwrap_or(0),
        served,
        "every lookup must contribute one latency sample"
    );
    let quantile = |q: f64| lookup_ns.and_then(|h| h.quantile(q)).unwrap_or(0);
    let fill_p50 = snapshot
        .histograms
        .get("served.batch.fill")
        .and_then(|h| h.quantile(0.50))
        .unwrap_or(0);
    let connections = snapshot
        .counters
        .get("served.tcp.connections")
        .copied()
        .unwrap_or(0);
    let reuses = snapshot
        .counters
        .get("served.tcp.keepalive.reuses")
        .copied()
        .unwrap_or(0);

    let n = trace.total_queries() as f64;
    let lookup_rate = n / wall_secs.max(1e-9);
    let request_rate = requests as f64 / wall_secs.max(1e-9);
    let record = serde_json::json!({
        "scale": scale,
        "seed": seed,
        "preset": preset.name(),
        "trace_digest": trace_digest,
        "answer_digest": cellserve::hash_hex(outcome.answer_digest),
        "lookups": trace.total_queries(),
        "clients": clients,
        "batch": batch,
        "workers": workers,
        "artifact_bytes": artifact_bytes,
        "prefixes": { "v4": v4_prefixes, "v6": v6_prefixes },
        "wall_millis": wall_secs * 1e3,
        "requests": requests,
        "requests_per_sec": request_rate,
        "lookups_per_sec": lookup_rate,
        "latency_ns": {
            "p50": quantile(0.50),
            "p99": quantile(0.99),
            "p999": quantile(0.999),
        },
        "batch_fill_p50": fill_p50,
        "keepalive": {
            "connections": connections,
            "reuses": reuses,
            "requests_per_conn": if connections > 0 {
                requests as f64 / connections as f64
            } else {
                0.0
            },
        },
        "stats": {
            "matched": matched,
            "served_lookups": served,
        },
    });
    fs::write(
        &out,
        serde_json::to_string_pretty(&record).expect("serialize benchmark record"),
    )
    .expect("write benchmark record");
    eprintln!(
        "{clients} client(s): {request_rate:.0} req/s, {lookup_rate:.0} lookups/s, \
         engine p99 ≤ {} ns → {}",
        quantile(0.99),
        out.display()
    );
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: bench_serve [--scale mini|demo|paper|<float>] [--seed N] [--lookups N]\n\
         \x20                  [--preset steady|diurnal|flashcrowd|scan]\n\
         \x20                  [--clients N] [--batch N] [--workers N] [--out FILE]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
