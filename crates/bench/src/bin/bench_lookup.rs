//! `bench_lookup` — serving-index lookup throughput, summarized as
//! `BENCH_lookup.json`.
//!
//! ```text
//! bench_lookup [--scale mini|demo|paper|<float>] [--seed N] [--lookups N]
//!              [--preset steady|diurnal|flashcrowd|scan] [--threads N] [--out FILE]
//! ```
//!
//! Builds a world, classifies it, freezes the classification into the
//! sealed serving artifact, boots a handle on it from disk the way a
//! serving process does, then replays a seeded `cellload` preset
//! (default `steady`, the historical query mix) through the
//! [`cellserve::QueryEngine`] at one thread and at N threads — each in
//! its own private rayon pool, so the two measurements run in one
//! process without fighting over the global pool. The record carries:
//!
//! * `artifact_bytes` — size of the sealed artifact;
//! * `cold_start` — the open from disk through
//!   [`cellserve::Artifact::open`]: wall time, whether it booted off an
//!   mmap, and `bytes_copied`, the handle's own accounting of every
//!   byte it copied to become servable (header + level directory when
//!   mapped — the number the in-place format exists to keep small);
//! * `single` / `multi` — wall clock and lookups/sec at each width;
//! * `speedup` — multi ÷ single throughput;
//! * `stats` — match/cache counters, asserted identical across widths
//!   (the engine's determinism contract, checked on every bench run).
//!
//! CI's bench-smoke step runs this at mini scale and validates the
//! keys, that the cold start mapped, and that it copied less than the
//! file.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use bench::config_for_scale;
use cellload::{Preset, TraceSpec, Universe};
use cellserve::{
    Artifact, ArtifactFormat, ArtifactHandle, BatchStats, FrozenIndex, IndexView, IpKey,
    QueryEngine,
};
use cellspot::{aggregate_by_as, MixedAnalysis, Pipeline, DEDICATED_CFD};
use netaddr::Asn;

fn main() {
    let mut scale = "mini".to_string();
    let mut seed: Option<u64> = None;
    let mut lookups: usize = 200_000;
    let mut threads: Option<usize> = None;
    let mut preset = Preset::Steady;
    let mut out = PathBuf::from("BENCH_lookup.json");

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
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --threads value"));
                threads = Some(v.parse().unwrap_or_else(|_| usage("bad --threads value")));
            }
            "--preset" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --preset value"));
                preset =
                    Preset::parse(&v).unwrap_or_else(|| usage(&format!("unknown preset {v:?}")));
                if preset == Preset::Churn {
                    usage("the churn preset needs the replay driver; use `cellspot replay --preset churn`");
                }
            }
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| usage("missing --out value")))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if lookups == 0 {
        usage("--lookups must be at least 1");
    }
    let multi_threads = threads
        .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
        .unwrap_or(2)
        .max(1);

    let mut config = config_for_scale(&scale).unwrap_or_else(|e| usage(&e));
    if let Some(s) = seed {
        config.seed = s;
    }
    let seed = config.seed;

    // Build → classify → freeze, mirroring `cellspot index build`.
    eprintln!("building {scale} world (seed {seed:#x}) and freezing its classification …");
    let world = worldgen::World::generate(config);
    let (beacons, demand) = cdnsim::generate_datasets(&world);
    let (index, class) = Pipeline::new(&beacons, &demand)
        .classify()
        .expect("generated datasets classify at the default threshold");
    let aggs = aggregate_by_as(&index, &class);
    let mut candidates: Vec<Asn> = aggs
        .iter()
        .filter(|(_, a)| a.cell_blocks() > 0)
        .map(|(&asn, _)| asn)
        .collect();
    candidates.sort_unstable();
    let mixed = MixedAnalysis::build(&candidates, &aggs, DEDICATED_CFD);
    let frozen = FrozenIndex::from_classification(&class, Some(&mixed));
    let sealed = Artifact::encode(&frozen, ArtifactFormat::V2);
    let artifact_bytes = sealed.len();
    let (v4_prefixes, v6_prefixes) = frozen.prefix_counts();
    let (handle, open_secs) = cold_start(&sealed);

    let universe = Universe::from_classification(&class);
    let trace = TraceSpec {
        preset,
        seed,
        queries: lookups,
        epochs: 1,
    }
    .generate(std::slice::from_ref(&universe));
    let trace_digest = cellserve::hash_hex(trace.digest());
    let queries = trace
        .segments
        .into_iter()
        .next()
        .expect("single-segment preset")
        .queries;
    eprintln!(
        "artifact: {v4_prefixes} v4 + {v6_prefixes} v6 prefixes, {artifact_bytes} bytes; \
         replaying {} `{}` queries …",
        queries.len(),
        preset.name()
    );

    let engine = QueryEngine::new(&handle);
    let (single_secs, single_stats) = measure(&engine, &queries, 1);
    let (multi_secs, multi_stats) = measure(&engine, &queries, multi_threads);
    assert_eq!(
        single_stats, multi_stats,
        "lookup stats must not depend on thread count"
    );

    let n = queries.len() as f64;
    let single_rate = n / single_secs.max(1e-9);
    let multi_rate = n / multi_secs.max(1e-9);
    let record = serde_json::json!({
        "scale": scale,
        "seed": seed,
        "preset": preset.name(),
        "trace_digest": trace_digest,
        "lookups": queries.len(),
        "artifact_bytes": artifact_bytes,
        "prefixes": { "v4": v4_prefixes, "v6": v6_prefixes },
        "single": {
            "threads": 1,
            "wall_millis": single_secs * 1e3,
            "lookups_per_sec": single_rate,
        },
        "multi": {
            "threads": multi_threads,
            "wall_millis": multi_secs * 1e3,
            "lookups_per_sec": multi_rate,
        },
        "speedup": multi_rate / single_rate.max(1e-9),
        "stats": {
            "matched": single_stats.matched,
            "cache_hits": single_stats.cache_hits,
            "cache_misses": single_stats.cache_misses,
            "uncached": single_stats.uncached,
        },
        "cold_start": {
            "bytes_copied": handle.copied_bytes(),
            "open_millis": open_secs * 1e3,
            "mapped": handle.is_mapped(),
        },
    });
    fs::write(
        &out,
        serde_json::to_string_pretty(&record).expect("serialize benchmark record"),
    )
    .expect("write benchmark record");
    eprintln!(
        "single {:.0}/s, {multi_threads}-thread {:.0}/s ({:.2}x); \
         cold start copied {} of {artifact_bytes} bytes (mapped={}) → {}",
        single_rate,
        multi_rate,
        multi_rate / single_rate.max(1e-9),
        handle.copied_bytes(),
        handle.is_mapped(),
        out.display()
    );
}

/// Write `bytes` to a scratch file and boot a handle from it the way a
/// serving process does, returning the handle and the open wall time.
fn cold_start(bytes: &[u8]) -> (ArtifactHandle, f64) {
    let path = std::env::temp_dir().join(format!("bench-lookup-{}.cellserv", std::process::id()));
    fs::write(&path, bytes).expect("write sealed artifact to scratch file");
    let t = Instant::now();
    let handle = Artifact::open(&path).expect("open sealed artifact");
    let secs = t.elapsed().as_secs_f64();
    // Unlinking while mapped is fine on unix; the mapping keeps the
    // pages alive for the handle's lifetime.
    fs::remove_file(&path).ok();
    (handle, secs)
}

/// Run the batch once to warm up, then time it in a private pool pinned
/// to `threads`, returning wall seconds and the (deterministic) stats.
fn measure<V: IndexView + ?Sized>(
    engine: &QueryEngine<'_, V>,
    queries: &[IpKey],
    threads: usize,
) -> (f64, BatchStats) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    pool.install(|| engine.run(queries));
    let t = Instant::now();
    let (_, stats) = pool.install(|| engine.run(queries));
    (t.elapsed().as_secs_f64(), stats)
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: bench_lookup [--scale mini|demo|paper|<float>] [--seed N] [--lookups N]\n\
         \x20                   [--preset steady|diurnal|flashcrowd|scan] [--threads N] [--out FILE]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
