//! `lookup-skew` and `lookup-scan`: the in-process batch lookup path,
//! used the two opposite ways.
//!
//! Both replay a 2M-query trace through `QueryEngine::run` over the
//! mmapped v2 artifact, in a rayon pool pinned to one thread, one timed
//! span per pass. `lookup-skew` uses the `diurnal` preset (Zipf 1.1
//! popularity — the CGN heavy-hitter regime the per-chunk hot-block
//! cache bets on); `lookup-scan` uses `scan` (every query another block,
//! about 30 % unserved space — the cache never hits and the bare LPM
//! walk does the work). A cache or chunking change must show on the
//! first and must not cost the second; an LPM-core change shows on the
//! second.

use std::hint::black_box;
use std::time::Instant;

use cellload::{Preset, Trace};
use cellserve::{BatchStats, IndexView, IpKey, QueryEngine};

use super::{put_common, put_spans, Measured, RunArgs, SETUP_LAYERS};
use crate::fixture::{
    build_served, check_against_reference, derive_seeds, digest_engine, discard, generate_trace,
    queries_of, Served, WorkDir,
};
use crate::plan::{serving_world, LookupPlan, FRAME, SETUP_REPS};
use crate::record::{built_against, machine, Metrics, Record};
use crate::stats::{highest_reportable, median, percentile, summarize};
use crate::trace::Tracer;

/// Which trace the engine is fed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Zipf-skewed `diurnal` trace.
    Skew,
    /// Cache-busting `scan` trace.
    Scan,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Skew => "lookup-skew",
            Kind::Scan => "lookup-scan",
        }
    }

    fn preset(self) -> Preset {
        match self {
            Kind::Skew => Preset::Diurnal,
            Kind::Scan => Preset::Scan,
        }
    }
}

fn pool(threads: usize) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("rayon pool: {e}"))
}

/// Run one of the two lookup workloads.
pub fn run(kind: Kind, args: RunArgs, tracer: &mut Tracer) -> Result<Record, String> {
    let plan = LookupPlan::new(args.seconds, args.smoke);
    let (world_seed, trace_seed) = derive_seeds(args.seed);
    let dir = WorkDir::create()?;
    let one_thread = pool(1)?;

    // Set-up, several times over; the last build is the one measured.
    let mut built: Option<(Served, Trace)> = None;
    for rep in 0..SETUP_REPS as u64 {
        if let Some((previous, _)) = built.take() {
            discard(&previous.path);
        }
        let setup = tracer.begin("harness.setup", rep);
        let served = build_served(serving_world(world_seed, args.smoke), &dir, tracer, rep)?;
        let trace = generate_trace(
            &served.handle,
            kind.preset(),
            trace_seed,
            plan.queries,
            tracer,
            rep,
        );
        tracer.end(setup);
        built = Some((served, trace));
    }
    let (served, trace) = built.expect("SETUP_REPS is at least 1");
    let handle = &served.handle;
    let queries = queries_of(&trace);
    let engine = QueryEngine::new(handle);

    // Correctness, untimed: every answer equals the reference trie's.
    let (answers, stats) = one_thread.install(|| engine.run(queries));
    check_against_reference(handle, queries, &answers)?;
    let answer_digest = digest_engine(&answers);
    drop(answers);
    if stats.cache_hits + stats.cache_misses + stats.uncached != stats.lookups
        || stats.lookups != queries.len() as u64
    {
        return Err(format!(
            "engine counters do not add up: {stats:?} for {} queries",
            queries.len()
        ));
    }

    let mut metrics = Metrics::default();
    let measured = Measured::begin()?;
    for _ in 0..plan.warmup_passes {
        black_box(one_thread.install(|| engine.run(queries)));
    }
    // One 64-address request at a time, interleaved with the passes so
    // that both figures sample the same stretch of machine time.
    let frames_per_pass = plan.frames.div_ceil(plan.passes);
    let mut frame_times = Vec::with_capacity(frames_per_pass * plan.passes);
    for pass in 0..plan.passes {
        let open = tracer.begin("cellserve.engine.run", pass as u64);
        let (answers, pass_stats) = one_thread.install(|| engine.run(queries));
        tracer.end(open);
        if pass_stats != stats {
            return Err(format!(
                "pass {pass}: counters {pass_stats:?} differ from the verified pass {stats:?}"
            ));
        }
        // Freeing ~100 MB of answers is the harness's cost, not the engine's.
        drop(black_box(answers));
        one_thread.install(|| {
            for i in pass * frames_per_pass..(pass + 1) * frames_per_pass {
                let start = (i * FRAME) % (queries.len() - FRAME);
                let t0 = Instant::now();
                let result = engine.run(&queries[start..start + FRAME]);
                let t1 = Instant::now();
                black_box(result);
                frame_times.push((t0, t1));
            }
        });
    }
    let measure_wall_s = measured.end(&mut metrics)?;
    let frame_us: Vec<f64> = frame_times
        .iter()
        .map(|(t0, t1)| (*t1 - *t0).as_secs_f64() * 1e6)
        .collect();
    for (i, (t0, t1)) in frame_times.iter().enumerate() {
        tracer.record("cellserve.engine.run_frame", i as u64, *t0, *t1);
    }

    let n = queries.len() as f64;
    let pass_s = tracer.seconds("cellserve.engine.run");
    let per_pass_rate: Vec<f64> = pass_s.iter().map(|s| n / s).collect();
    metrics.put_summarized(
        "lookups_per_s",
        n / median(&pass_s),
        "1/s",
        summarize(&per_pass_rate),
    );
    metrics.put_summarized(
        "cellserve.engine.frame_us_p50",
        median(&frame_us),
        "us",
        summarize(&frame_us),
    );
    metrics.put(
        "cellserve.engine.frame_us_p99",
        percentile(&frame_us, 99.0),
        "us",
    );
    put_spans(
        &mut metrics,
        tracer,
        &[(
            "cellserve.engine.run",
            "cellserve.engine.pass_ms_p50",
            "ms",
            1e3,
        )],
    );
    if let Some(level) = highest_reportable(pass_s.len()) {
        // With a few dozen passes the highest level with ten samples
        // beyond it is the median or p90; the record says which.
        metrics.put(
            "cellserve.engine.pass_ms_tail",
            percentile(&pass_s, level) * 1e3,
            "ms",
        );
        metrics.put("cellserve.engine.pass_tail_level", level, "percentile");
    }
    let run_ns = median(&pass_s) * 1e9 / n;
    metrics.put("cellserve.engine.run_ns", run_ns, "ns");
    metrics.put_exact(
        "cellserve.engine.cache_hit_ratio",
        stats.cache_hits as f64 / stats.lookups as f64,
        "ratio",
    );
    metrics.put_exact(
        "cellserve.engine.matched_share",
        stats.matched as f64 / stats.lookups as f64,
        "ratio",
    );
    metrics.put_exact("cellserve.artifact.bytes", handle.source_len() as f64, "B");
    metrics.put_exact(
        "cellserve.artifact.bytes_copied",
        handle.copied_bytes() as f64,
        "B",
    );
    put_spans(&mut metrics, tracer, &SETUP_LAYERS);

    if args.traced {
        layer_legs(
            &plan,
            handle,
            &engine,
            queries,
            stats,
            run_ns,
            tracer,
            &mut metrics,
        )?;
    }
    let attempted =
        (plan.passes as u64 + 1) * queries.len() as u64 + (frame_us.len() * FRAME) as u64;
    put_common(&mut metrics, tracer, measure_wall_s, attempted, 0)?;

    Ok(Record {
        workload: kind.name().to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        traced: args.traced,
        deps: built_against().to_owned(),
        trace_digest: trace.digest(),
        answer_digest,
        attempted,
        failed: 0,
        plan: plan.to_json(),
        machine: machine(),
        metrics,
    })
}

/// The legs only a traced run pays for: the bare LPM walk, the
/// uncached single lookup, and the two-thread pass set.
#[allow(clippy::too_many_arguments)]
fn layer_legs<V: IndexView + ?Sized>(
    plan: &LookupPlan,
    view: &V,
    engine: &QueryEngine<'_, V>,
    queries: &[IpKey],
    stats: BatchStats,
    run_ns: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let v4: Vec<u32> = queries
        .iter()
        .filter_map(|q| if let IpKey::V4(a) = q { Some(*a) } else { None })
        .collect();
    let v6: Vec<u128> = queries
        .iter()
        .filter_map(|q| if let IpKey::V6(a) = q { Some(*a) } else { None })
        .collect();
    let (matched_v4, v4_time) = tracer.time("cellserve.view.lpm_v4", 0, || {
        v4.iter()
            .filter(|a| black_box(view.lpm_v4(**a)).is_some())
            .count()
    });
    let (matched_v6, v6_time) = tracer.time("cellserve.view.lpm_v6", 0, || {
        v6.iter()
            .filter(|a| black_box(view.lpm_v6(**a)).is_some())
            .count()
    });
    if (matched_v4 + matched_v6) as u64 != stats.matched {
        return Err(format!(
            "bare LPM matched {} queries, the engine {}",
            matched_v4 + matched_v6,
            stats.matched
        ));
    }
    let per = |time: std::time::Duration, count: usize| {
        if count == 0 {
            0.0
        } else {
            time.as_secs_f64() * 1e9 / count as f64
        }
    };
    metrics.put("cellserve.view.lpm_v4_ns", per(v4_time, v4.len()), "ns");
    metrics.put("cellserve.view.lpm_v6_ns", per(v6_time, v6.len()), "ns");
    let lpm_ns = per(v4_time + v6_time, queries.len());
    // Only cache misses walk the index, so the engine's own cost per
    // lookup — cache probe, chunk bookkeeping, result vector — is what
    // is left after the miss-weighted LPM time.
    let miss_share = stats.cache_misses as f64 / stats.lookups as f64;
    metrics.put(
        "cellserve.engine.overhead_ns",
        run_ns - miss_share * lpm_ns,
        "ns",
    );

    let (matched, lookup_time) = tracer.time("cellserve.engine.lookup", 0, || {
        queries
            .iter()
            .filter(|q| black_box(engine.lookup(**q)).is_some())
            .count()
    });
    if matched as u64 != stats.matched {
        return Err(format!(
            "QueryEngine::lookup matched {matched} queries, QueryEngine::run {}",
            stats.matched
        ));
    }
    metrics.put(
        "cellserve.engine.lookup_ns",
        per(lookup_time, queries.len()),
        "ns",
    );

    let two_threads = pool(2)?;
    for pass in 0..plan.threads2_passes as u64 {
        let open = tracer.begin("cellserve.engine.run_2t", pass);
        let (answers, pass_stats) = two_threads.install(|| engine.run(queries));
        tracer.end(open);
        if pass_stats != stats {
            return Err(format!(
                "2-thread pass {pass}: counters {pass_stats:?} differ from {stats:?}"
            ));
        }
        drop(black_box(answers));
    }
    let speedup = median(&tracer.seconds("cellserve.engine.run"))
        / median(&tracer.seconds("cellserve.engine.run_2t"));
    metrics.put("cellserve.engine.threads2_speedup", speedup, "ratio");
    Ok(())
}
