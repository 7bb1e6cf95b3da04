//! `serve-tcp`: the daemon's framed-TCP serving path on loopback.
//!
//! An in-process `Daemon::start` on the sealed file (observer disabled,
//! `ServeConfig::default()` workers), two `FramedClient` connections,
//! the `steady` trace cut into 64-query frames.
//!
//! * **Phase A, closed loop**: each connection keeps one frame in
//!   flight for a fixed frame count. This is saturation — what `cellload`
//!   replays measure today — and hides queueing delay by construction.
//! * **Phase B, open loop**: callers are independent services, so
//!   frames are *due* on a fixed schedule at four fixed rates
//!   (≈30/50/70/90 % of the seed's saturation), each frame timed from
//!   its due time, generator lateness reported beside it.
//!
//! Framing, the per-query batch-queue push and the linger dominate; the
//! engine is a small share (`serve.engine_frame_us` bounds it).
//! Loopback only: no wire numbers are claimed.
//!
//! The daemon runs with `max_requests_per_conn = 0`. At the default cap
//! of 4096 the server closes a connection every 4096 frames and the
//! resilient client pays its 50 ms reconnect backoff; that policy cost
//! is real but would replace every tail percentile here with one
//! constant, so it is kept out of this workload (see the README).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cellload::{AnswerDigest, Preset, ReplayConfig, Trace, TraceSegment};
use cellobs::Observer;
use cellserve::{Artifact, IpKey, QueryEngine};
use cellserved::{Daemon, FramedClient, ServeConfig};

use super::{put_common, put_spans, Measured, RunArgs, SETUP_LAYERS};
use crate::fixture::{
    build_served, check_against_reference, derive_seeds, digest_engine, discard, generate_trace,
    queries_of, Served, WorkDir,
};
use crate::plan::{serving_world, Rung, ServePlan, CONNECTIONS, FRAME, SETUP_REPS};
use crate::record::{built_against, machine, Metrics, Record};
use crate::sched::{lane_dues, run_schedule, Timing, WallClock};
use crate::stats::{median, percentile, percentile_if_reportable, summarize};
use crate::trace::Tracer;

fn daemon_config() -> ServeConfig {
    ServeConfig {
        tcp_listen: Some("127.0.0.1:0".to_owned()),
        http_listen: Some("127.0.0.1:0".to_owned()),
        max_requests_per_conn: 0,
        ..ServeConfig::default()
    }
}

/// The `frame`-query slice that is frame `k` of the trace (wrapping).
fn frame_of(queries: &[IpKey], k: usize, frame: usize) -> &[IpKey] {
    let start = (k * frame) % (queries.len() - frame + 1);
    &queries[start..start + frame]
}

/// Send one frame and fold its answers; a frame that does not come
/// back with exactly one answer per query is a protocol failure.
fn send(client: &mut FramedClient, ips: &[IpKey], digest: &mut AnswerDigest) -> Result<(), String> {
    let answers = client
        .lookup(ips)
        .map_err(|e| format!("framed lookup: {e}"))?;
    if answers.len() != ips.len() {
        return Err(format!(
            "frame of {} queries came back with {} answers",
            ips.len(),
            answers.len()
        ));
    }
    for a in &answers {
        digest.push(cellload::replay::normalize_wire(a));
    }
    Ok(())
}

/// The answers a connection got for frames `ks` must hash to what the
/// engine answers for the same frames, in order.
fn expect_engine_digest(
    engine: &QueryEngine<'_, cellserve::ArtifactHandle>,
    queries: &[IpKey],
    ks: impl Iterator<Item = usize>,
    frame: usize,
    got: u64,
    what: &str,
) -> Result<(), String> {
    let sequence: Vec<IpKey> = ks
        .flat_map(|k| frame_of(queries, k, frame).iter().copied())
        .collect();
    let want = digest_engine(&engine.run(&sequence).0);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: framed-TCP answer digest {got:016x} differs from the engine's {want:016x}"
        ))
    }
}

/// Run `job(lane, client, digest)` on every connection at once, one
/// thread each; returns each lane's result and answer digest.
fn on_each_connection<T: Send>(
    clients: &mut [FramedClient],
    job: impl Fn(usize, &mut FramedClient, &mut AnswerDigest) -> Result<T, String> + Sync,
) -> Result<Vec<(T, u64)>, String> {
    let job = &job;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    let mut digest = AnswerDigest::new();
                    job(lane, client, &mut digest).map(|result| (result, digest.value()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    })
}

/// A closed-loop leg: each client sends its `frames_per_conn` frames of
/// `frame` queries back to back. Returns, per client, the instants at
/// which each frame completed, preceded by the start instant.
fn closed_loop(
    clients: &mut [FramedClient],
    engine: &QueryEngine<'_, cellserve::ArtifactHandle>,
    queries: &[IpKey],
    frames_per_conn: usize,
    frame: usize,
) -> Result<Vec<Vec<Instant>>, String> {
    let lanes = clients.len();
    let frames_of = |lane: usize| (0..frames_per_conn).map(move |i| lane + i * lanes);
    let results = on_each_connection(clients, |lane, client, digest| {
        let mut marks = Vec::with_capacity(frames_per_conn + 1);
        marks.push(Instant::now());
        for k in frames_of(lane) {
            send(client, frame_of(queries, k, frame), digest)?;
            marks.push(Instant::now());
        }
        Ok(marks)
    })?;
    let mut all_marks = Vec::with_capacity(lanes);
    for (lane, (marks, digest)) in results.into_iter().enumerate() {
        let what = format!("closed loop, connection {lane}");
        expect_engine_digest(engine, queries, frames_of(lane), frame, digest, &what)?;
        all_marks.push(marks);
    }
    Ok(all_marks)
}

/// One open-loop rung: every connection runs its lane of the global
/// fixed-rate schedule. Returns all timings, sorted by due time.
fn open_loop_rung(
    clients: &mut [FramedClient],
    engine: &QueryEngine<'_, cellserve::ArtifactHandle>,
    queries: &[IpKey],
    rung: Rung,
    tracer: &mut Tracer,
    rung_no: u64,
) -> Result<Vec<Timing>, String> {
    let lanes = clients.len();
    // A short lead so every connection thread is parked on the clock
    // before the first frame is due.
    let start = Instant::now() + Duration::from_millis(5);
    let results = on_each_connection(clients, |lane, client, digest| {
        let dues = lane_dues(rung.frames, rung.frames_per_s, lanes, lane);
        run_schedule(&WallClock(start), dues.iter().map(|(_, due)| *due), |i| {
            send(client, frame_of(queries, dues[i].0, FRAME), digest)
        })
    })?;
    let mut all = Vec::with_capacity(rung.frames);
    for (lane, (timings, digest)) in results.into_iter().enumerate() {
        let what = format!("rung {rung_no}, connection {lane}");
        let ks = (lane..rung.frames).step_by(lanes);
        expect_engine_digest(engine, queries, ks, FRAME, digest, &what)?;
        all.extend(timings);
    }
    all.sort_by_key(|t| t.due);
    for (k, t) in all.iter().enumerate() {
        tracer.record(
            "cellserved.tcp.frame",
            rung_no << 32 | k as u64,
            start + t.due,
            start + t.done,
        );
    }
    Ok(all)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A one-segment trace over `queries`, for `cellload`'s own drivers.
fn sub_trace(trace: &Trace, queries: &[IpKey]) -> Trace {
    Trace {
        preset: trace.preset.clone(),
        seed: trace.seed,
        segments: vec![TraceSegment {
            epoch: 0,
            queries: queries.to_vec(),
        }],
    }
}

/// Run the workload.
pub fn run(args: RunArgs, tracer: &mut Tracer) -> Result<Record, String> {
    let plan = ServePlan::new(args.seconds, args.smoke);
    let (world_seed, trace_seed) = derive_seeds(args.seed);
    let dir = WorkDir::create()?;

    // Set-up, several times over: world → sealed file → trace → daemon.
    let mut built: Option<(Served, Trace, Daemon)> = None;
    for rep in 0..SETUP_REPS as u64 {
        if let Some((previous, _, daemon)) = built.take() {
            tracer.time("cellserved.daemon.shutdown", rep - 1, || daemon.shutdown());
            discard(&previous.path);
        }
        let setup = tracer.begin("harness.setup", rep);
        let served = build_served(serving_world(world_seed, args.smoke), &dir, tracer, rep)?;
        let trace = generate_trace(
            &served.handle,
            Preset::Steady,
            trace_seed,
            plan.queries,
            tracer,
            rep,
        );
        let (started, _) = tracer.time("cellserved.daemon.start", rep, || {
            Daemon::start(daemon_config(), &served.path, Observer::disabled())
        });
        let daemon = started.map_err(|e| format!("daemon start: {e}"))?;
        tracer.end(setup);
        built = Some((served, trace, daemon));
    }
    let (served, trace, daemon) = built.expect("SETUP_REPS is at least 1");
    let outcome = measure(&plan, args, &served, &trace, &daemon, tracer);
    // Whatever happened, stop the daemon's threads before returning.
    tracer.time("cellserved.daemon.shutdown", SETUP_REPS as u64 - 1, || {
        daemon.shutdown()
    });
    let (mut metrics, answer_digest, attempted, measure_wall_s) = outcome?;

    put_spans(
        &mut metrics,
        tracer,
        &[
            (
                "cellserved.daemon.start",
                "cellserved.daemon.start_ms",
                "ms",
                1e3,
            ),
            (
                "cellserved.daemon.shutdown",
                "cellserved.daemon.shutdown_ms",
                "ms",
                1e3,
            ),
        ],
    );
    put_spans(&mut metrics, tracer, &SETUP_LAYERS);
    put_common(&mut metrics, tracer, measure_wall_s, attempted, 0)?;
    Ok(Record {
        workload: "serve-tcp".to_owned(),
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

/// Everything between daemon start and daemon shutdown. Returns the
/// metrics, the answer digest, the operations attempted and the wall
/// time of the measured phases.
fn measure(
    plan: &ServePlan,
    args: RunArgs,
    served: &Served,
    trace: &Trace,
    daemon: &Daemon,
    tracer: &mut Tracer,
) -> Result<(Metrics, u64, u64, f64), String> {
    let queries = queries_of(trace);
    let engine = QueryEngine::new(&served.handle);
    let tcp = daemon.tcp_addr().ok_or("daemon has no TCP endpoint")?;
    let http = daemon.http_addr().ok_or("daemon has no HTTP endpoint")?;
    let quiet = Observer::disabled();
    let replay_config = ReplayConfig {
        clients: CONNECTIONS,
        frame: FRAME,
        ..ReplayConfig::default()
    };
    let mut metrics = Metrics::default();
    let mut attempted = 0u64;

    // Correctness, untimed: engine == reference trie on the whole
    // trace, and engine == framed TCP == HTTP on its leading slice.
    let (answers, _) = engine.run(queries);
    check_against_reference(&served.handle, queries, &answers)?;
    let check = &queries[..plan.check_queries.min(queries.len())];
    let want = digest_engine(&answers[..check.len()]);
    drop(answers);
    let check_trace = sub_trace(trace, check);
    let over_tcp = cellload::replay_framed(tcp, &check_trace, &replay_config, &quiet, |_| Ok(()))
        .map_err(|e| format!("framed check replay: {e}"))?;
    let over_http = cellload::replay_http(http, &check_trace, &replay_config, &quiet, |_| Ok(()))
        .map_err(|e| format!("HTTP check replay: {e}"))?;
    for (name, outcome) in [("framed TCP", &over_tcp), ("HTTP", &over_http)] {
        if outcome.dropped != 0 || outcome.answer_digest != want {
            return Err(format!(
                "{name}: answer digest {:016x} ({} dropped) differs from the engine's {want:016x}",
                outcome.answer_digest, outcome.dropped
            ));
        }
    }
    metrics.put(
        "cellserved.http.lookups_per_s",
        over_http.lookups_per_sec(),
        "1/s",
    );
    attempted += 3 * check.len() as u64 + queries.len() as u64;

    let mut clients: Vec<FramedClient> = (0..CONNECTIONS)
        .map(|_| FramedClient::connect(tcp).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    let measured = Measured::begin()?;

    // Phase A: closed loop, saturation = the median of the equal
    // segments' summed per-connection rates.
    let marks = closed_loop(
        &mut clients,
        &engine,
        queries,
        plan.sat_frames_per_conn,
        FRAME,
    )?;
    attempted += (plan.sat_frames_per_conn * CONNECTIONS * FRAME) as u64;
    let segment = plan.sat_frames_per_conn / plan.sat_segments;
    let segment_rates: Vec<f64> = (0..plan.sat_segments)
        .map(|s| {
            marks
                .iter()
                .map(|m| segment as f64 / (m[(s + 1) * segment] - m[s * segment]).as_secs_f64())
                .sum()
        })
        .collect();
    let sat_frames_per_s = median(&segment_rates);
    let lookup_rates: Vec<f64> = segment_rates.iter().map(|r| r * FRAME as f64).collect();
    metrics.put_summarized(
        "sat_lookups_per_s",
        sat_frames_per_s * FRAME as f64,
        "1/s",
        summarize(&lookup_rates),
    );
    metrics.put("cellserved.tcp.sat_frames_per_s", sat_frames_per_s, "1/s");
    for (lane, m) in marks.iter().enumerate() {
        for (i, pair) in m.windows(2).enumerate() {
            tracer.record(
                "cellserved.tcp.frame_closed",
                (lane * plan.sat_frames_per_conn + i) as u64,
                pair[0],
                pair[1],
            );
        }
    }

    // Phase B: open loop at the four frozen rates.
    let mut max_ok_rate = 0.0;
    let mut r2_timings = Vec::new();
    for (i, rung) in plan.rungs.iter().enumerate() {
        std::thread::sleep(Duration::from_millis(20));
        let timings = open_loop_rung(&mut clients, &engine, queries, *rung, tracer, i as u64 + 1)?;
        attempted += (rung.frames * FRAME) as u64;
        let latency: Vec<f64> = timings.iter().map(|t| micros(t.latency())).collect();
        let lateness: Vec<f64> = timings.iter().map(|t| micros(t.lateness())).collect();
        let r = i + 1;
        metrics.put_summarized(
            &format!("cellserved.tcp.frame_us_p50.r{r}"),
            median(&latency),
            "us",
            summarize(&latency),
        );
        for (label, level) in [("p99", 99.0), ("p999", 99.9)] {
            if let Some(v) = percentile_if_reportable(&latency, level) {
                metrics.put(&format!("cellserved.tcp.frame_us_{label}.r{r}"), v, "us");
            }
        }
        metrics.put(
            &format!("gen.late_us_p99.r{r}"),
            percentile(&lateness, 99.0),
            "us",
        );
        let last = timings.last().ok_or("empty rung")?;
        let scheduled = rung.frames as f64 / rung.frames_per_s;
        let behind_share = last.lateness().as_secs_f64() / scheduled;
        let p99 = percentile(&latency, 99.0);
        let ok = p99 <= plan.latency_limit_us && behind_share <= plan.max_behind_share;
        metrics.put(
            &format!("serve.rung_ok.r{r}"),
            f64::from(u8::from(ok)),
            "bool",
        );
        metrics.put(&format!("serve.behind_share.r{r}"), behind_share, "ratio");
        if ok {
            max_ok_rate = rung.frames_per_s * FRAME as f64;
        }
        if r == 2 {
            r2_timings = timings;
        }
    }
    let measure_wall_s = measured.end(&mut metrics)?;
    metrics.put("max_ok_rate", max_ok_rate, "1/s");
    // The headline rung: the median over all its frames, and the
    // median of the p99s of equal windows cut by due time — a stall of
    // the sandbox lands in one or two windows and does not set it.
    let r2_latency: Vec<f64> = r2_timings.iter().map(|t| micros(t.latency())).collect();
    let p50_us = median(&r2_latency);
    metrics.put_summarized("p50_us", p50_us, "us", summarize(&r2_latency));
    let window_p99: Vec<f64> = r2_latency
        .chunks_exact((r2_latency.len() / plan.p99_windows).max(1))
        .filter_map(|w| percentile_if_reportable(w, 99.0))
        .collect();
    if !window_p99.is_empty() {
        metrics.put_summarized("p99_us", median(&window_p99), "us", summarize(&window_p99));
    }

    // The engine's share of a frame: the same frames, in process.
    let engine_frame_us: Vec<f64> = (0..plan.rungs[1].frames)
        .map(|k| {
            let t0 = Instant::now();
            std::hint::black_box(engine.run(frame_of(queries, k, FRAME)));
            micros(t0.elapsed())
        })
        .collect();
    metrics.put_summarized(
        "serve.engine_frame_us",
        median(&engine_frame_us),
        "us",
        summarize(&engine_frame_us),
    );
    metrics.put(
        "cellserved.overhead_us",
        p50_us - median(&engine_frame_us),
        "us",
    );

    if args.traced {
        attempted += layer_legs(
            plan,
            served,
            trace,
            tcp,
            &mut clients,
            &engine,
            sat_frames_per_s * FRAME as f64,
            &mut metrics,
        )?;
    }
    metrics.put(
        "client.retries",
        clients.iter().map(FramedClient::retries).sum::<u64>() as f64,
        "count",
    );
    metrics.put(
        "client.reconnects",
        clients.iter().map(FramedClient::reconnects).sum::<u64>() as f64,
        "count",
    );
    metrics.put_exact(
        "cellserve.artifact.bytes",
        served.handle.source_len() as f64,
        "B",
    );
    metrics.put_exact(
        "cellserve.artifact.bytes_copied",
        served.handle.copied_bytes() as f64,
        "B",
    );
    Ok((metrics, want, attempted, measure_wall_s))
}

/// The legs only a traced run pays for: 1-query and 512-query frames,
/// and `cellload`'s own closed-loop drivers over the same daemon.
#[allow(clippy::too_many_arguments)]
fn layer_legs(
    plan: &ServePlan,
    served: &Served,
    trace: &Trace,
    tcp: SocketAddr,
    clients: &mut [FramedClient],
    engine: &QueryEngine<'_, cellserve::ArtifactHandle>,
    sat_lookups_per_s: f64,
    metrics: &mut Metrics,
) -> Result<u64, String> {
    let queries = queries_of(trace);
    // 1-query frames on one connection: the syscall + linger floor.
    let marks = closed_loop(&mut clients[..1], engine, queries, plan.frame1_frames, 1)?;
    let frame1_us: Vec<f64> = marks[0].windows(2).map(|p| micros(p[1] - p[0])).collect();
    metrics.put_summarized(
        "cellserved.tcp.frame1_us_p50",
        median(&frame1_us),
        "us",
        summarize(&frame1_us),
    );
    // 512-query frames on both: the per-query queue and channel cost,
    // from each connection's own first and last mark (the digest check
    // that follows the leg is not in it).
    let marks = closed_loop(clients, engine, queries, plan.frame512_frames_per_conn, 512)?;
    let bulk_lookups = (plan.frame512_frames_per_conn * clients.len() * 512) as f64;
    let lookups_per_s: f64 = marks
        .iter()
        .map(|m| ((m.len() - 1) * 512) as f64 / (m[m.len() - 1] - m[0]).as_secs_f64())
        .sum();
    metrics.put(
        "cellserved.tcp.frame512_ns_per_lookup",
        1e9 / lookups_per_s,
        "ns",
    );

    // `cellload`'s replay drivers on a prefix of the same trace: the
    // figure the harness's own closed loop must add up to.
    let replay_queries = &queries[..plan.replay_queries.min(queries.len())];
    let replay_trace = sub_trace(trace, replay_queries);
    let quiet = Observer::disabled();
    let config = ReplayConfig {
        clients: CONNECTIONS,
        frame: FRAME,
        ..ReplayConfig::default()
    };
    let framed = cellload::replay_framed(tcp, &replay_trace, &config, &quiet, |_| Ok(()))
        .map_err(|e| format!("replay_framed: {e}"))?;
    let shared =
        Arc::new(Artifact::open(&served.path).map_err(|e| format!("reopen artifact: {e}"))?);
    let in_process = cellload::replay_engine(&replay_trace, &quiet, |_| Arc::clone(&shared));
    if framed.dropped != 0 || framed.answer_digest != in_process.answer_digest {
        return Err(format!(
            "replay_framed digest {:016x} differs from replay_engine's {:016x}",
            framed.answer_digest, in_process.answer_digest
        ));
    }
    metrics.put(
        "cellload.replay.framed_lookups_per_s",
        framed.lookups_per_sec(),
        "1/s",
    );
    metrics.put(
        "cellload.replay.engine_lookups_per_s",
        in_process.lookups_per_sec(),
        "1/s",
    );
    metrics.put(
        "ledger.sum_gap_share",
        (sat_lookups_per_s - framed.lookups_per_sec()).abs() / sat_lookups_per_s,
        "ratio",
    );
    Ok(plan.frame1_frames as u64 + bulk_lookups as u64 + 2 * replay_queries.len() as u64)
}
