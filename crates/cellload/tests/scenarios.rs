//! Closed-loop scenario tests against a live in-process daemon: every
//! single-artifact preset answers identically over the engine, framed
//! TCP, and bulk HTTP; daemon counters only ever grow; the churn preset
//! replays byte-identically across a `--delta-watch` hot-patch; and the
//! scan preset cannot break the engine's cache accounting.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use celldelta::ChurnWorld;
use cellload::{
    replay_engine, replay_framed, replay_http, Preset, ReplayConfig, ReplayError, TraceSpec,
    Universe,
};
use cellobs::Observer;
use cellseal::write_atomic_bytes;
use cellserve::{Artifact, ArtifactFormat, ArtifactHandle, BatchStats, QueryEngine};
use cellserved::{Daemon, ServeConfig};

/// The sealed artifact a full build at `epoch` produces.
fn artifact_for_epoch(world: &ChurnWorld, epoch: u64) -> Vec<u8> {
    let counters = world.epoch_counters(epoch);
    Artifact::encode(
        &celldelta::classify_epoch(&counters, cellspot::DEFAULT_THRESHOLD),
        ArtifactFormat::V2,
    )
}

fn load(bytes: &[u8]) -> ArtifactHandle {
    Artifact::from_bytes(bytes).expect("sealed artifact loads")
}

fn config() -> ServeConfig {
    ServeConfig {
        http_listen: Some("127.0.0.1:0".into()),
        tcp_listen: Some("127.0.0.1:0".into()),
        reload_poll: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cellload-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn single_artifact_presets_answer_identically_on_all_three_targets() {
    let world = ChurnWorld::demo(21);
    let bytes = artifact_for_epoch(&world, 0);
    // The cold engine leg and the daemon each load the same sealed
    // bytes — one representation, so any divergence is the transport's.
    let arc = Arc::new(load(&bytes));
    let universe = Universe::from_view(&*arc);
    for preset in Preset::ALL {
        if preset == Preset::Churn {
            continue; // crosses epochs; covered by the hot-patch test
        }
        let trace = TraceSpec {
            preset,
            seed: 7,
            queries: 6_000,
            epochs: 1,
        }
        .generate(std::slice::from_ref(&universe));

        let engine = replay_engine(&trace, &Observer::disabled(), |_| arc.clone());
        assert_eq!(engine.lookups, 6_000, "preset {}", preset.name());

        let obs = Observer::enabled();
        let daemon =
            Daemon::start_with_handle(config(), load(&bytes), obs.clone()).expect("daemon starts");
        let cfg = ReplayConfig {
            clients: 3,
            frame: 128,
            ..ReplayConfig::default()
        };
        let tcp = replay_framed(
            daemon.tcp_addr().expect("tcp endpoint"),
            &trace,
            &cfg,
            &obs,
            |_| Ok(()),
        )
        .expect("tcp replay");
        let http = replay_http(
            daemon.http_addr().expect("http endpoint"),
            &trace,
            &cfg,
            &obs,
            |_| Ok(()),
        )
        .expect("http replay");
        let snap = daemon.shutdown();

        let name = preset.name();
        assert_eq!(tcp.dropped, 0, "preset {name} dropped tcp queries");
        assert_eq!(http.dropped, 0, "preset {name} dropped http queries");
        assert_eq!(
            engine.answer_digest, tcp.answer_digest,
            "preset {name}: tcp answers diverge from a cold engine run"
        );
        assert_eq!(
            engine.answer_digest, http.answer_digest,
            "preset {name}: http answers diverge from a cold engine run"
        );
        assert_eq!(engine.matched, tcp.matched, "preset {name}");
        assert_eq!(engine.matched, http.matched, "preset {name}");
        // Both network replays flowed through the daemon's engine: one
        // counter tick per lookup, none lost.
        assert_eq!(
            snap.counters.get("serve.lookups").copied().unwrap_or(0),
            2 * trace.total_queries() as u64,
            "preset {name}"
        );
    }
}

/// Counters only grow, and — a frame being answered by one engine call
/// on the thread that read it, with a fresh cache — they are a function
/// of the frames alone: a second identical replay adds exactly what the
/// first did, and both equal the engine run over the same frames,
/// however many connections carried them.
#[test]
fn daemon_counters_are_monotone_across_replays() {
    const FRAME: usize = 128;
    let world = ChurnWorld::demo(33);
    let bytes = artifact_for_epoch(&world, 0);
    let reference = load(&bytes);
    let universe = Universe::from_view(&reference);
    let trace = TraceSpec {
        preset: Preset::Diurnal,
        seed: 5,
        queries: 4_000,
        epochs: 1,
    }
    .generate(std::slice::from_ref(&universe));

    for clients in [1usize, 4] {
        let obs = Observer::enabled();
        let daemon =
            Daemon::start_with_handle(config(), load(&bytes), obs.clone()).expect("daemon starts");
        let addr = daemon.tcp_addr().expect("tcp endpoint");
        let cfg = ReplayConfig {
            clients,
            frame: FRAME,
            ..ReplayConfig::default()
        };

        replay_framed(addr, &trace, &cfg, &obs, |_| Ok(())).expect("first replay");
        let first = obs.snapshot();
        replay_framed(addr, &trace, &cfg, &obs, |_| Ok(())).expect("second replay");
        let second = obs.snapshot();
        daemon.shutdown();

        for (name, value) in &first.counters {
            let later = second.counters.get(name).copied().unwrap_or(0);
            assert!(
                later >= *value,
                "counter {name} went backwards: {value} -> {later}"
            );
        }
        assert_eq!(
            second.counters.get("serve.lookups").copied().unwrap_or(0),
            2 * trace.total_queries() as u64,
            "every query of both replays is counted exactly once"
        );

        // The frames the replay driver cuts: one contiguous slice per
        // client, `FRAME` queries at a time.
        let engine = QueryEngine::new(&reference);
        let mut expected = BatchStats::default();
        for seg in &trace.segments {
            let per = seg.queries.len().div_ceil(clients).max(1);
            for frame in seg
                .queries
                .chunks(per)
                .flat_map(|slice| slice.chunks(FRAME))
            {
                expected += engine.run(frame).1;
            }
        }
        for (name, per_replay) in [
            ("serve.cache.hits", expected.cache_hits),
            ("serve.cache.misses", expected.cache_misses),
            ("serve.cache.uncached", expected.uncached),
            ("serve.matched", expected.matched),
        ] {
            let read = |snap: &cellobs::ObsSnapshot| snap.counters.get(name).copied().unwrap_or(0);
            assert_eq!(
                read(&first),
                per_replay,
                "{name} at {clients} client(s): the daemon counts what the engine counts"
            );
            assert_eq!(
                read(&second) - read(&first),
                per_replay,
                "{name} at {clients} client(s): an identical replay adds an identical amount"
            );
        }
    }
}

#[test]
fn churn_replay_across_delta_watch_hot_patch_matches_cold_engine_replay() {
    const EPOCHS: u64 = 3;
    let world = ChurnWorld::demo(11);
    let mut artifacts = Vec::new();
    let mut arcs = Vec::new();
    let mut universes = Vec::new();
    for e in 0..EPOCHS {
        let bytes = artifact_for_epoch(&world, e);
        let handle = load(&bytes);
        universes.push(Universe::from_view(&handle));
        artifacts.push(bytes);
        arcs.push(Arc::new(handle));
    }
    // The labels must actually churn, or the hot-patch proves nothing.
    assert!(
        artifacts.windows(2).all(|w| w[0] != w[1]),
        "the demo churn world relabels blocks every epoch"
    );
    let deltas: Vec<Vec<u8>> = artifacts
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            celldelta::build_delta(&w[0], &w[1], i as u64, i as u64 + 1).expect("seal delta")
        })
        .collect();

    let trace = TraceSpec {
        preset: Preset::Churn,
        seed: 0xC4A7,
        queries: 9_000,
        epochs: EPOCHS,
    }
    .generate(&universes);
    let cold = replay_engine(&trace, &Observer::disabled(), |e| arcs[e as usize].clone());

    let dir = tmpdir("churn-hotpatch");
    let delta_path = dir.join("latest.cdlt");
    let mut cfg = config();
    cfg.delta_watch = Some(delta_path.clone());
    let obs = Observer::enabled();
    let daemon =
        Daemon::start_with_handle(cfg, load(&artifacts[0]), obs.clone()).expect("daemon starts");
    let addr = daemon.tcp_addr().expect("tcp endpoint");

    let daemon_ref = &daemon;
    let live = replay_framed(
        addr,
        &trace,
        &ReplayConfig {
            clients: 3,
            frame: 96,
            ..ReplayConfig::default()
        },
        &obs,
        |epoch| {
            if epoch == 0 {
                return Ok(());
            }
            // Publish the delta the way an operator would — atomically
            // replacing the watched file — and gate the segment's
            // traffic on the daemon picking it up.
            write_atomic_bytes(&delta_path, &deltas[epoch as usize - 1])
                .map_err(|e| ReplayError::Hook(format!("publish delta: {e}")))?;
            if !wait_until(Duration::from_secs(10), || {
                daemon_ref.generation() == epoch + 1
            }) {
                return Err(ReplayError::Hook(format!(
                    "daemon never reached generation {}",
                    epoch + 1
                )));
            }
            Ok(())
        },
    )
    .expect("live churn replay");
    daemon.shutdown();

    assert_eq!(live.dropped, 0, "the hot-patched daemon dropped queries");
    assert_eq!(
        live.answer_digest, cold.answer_digest,
        "hot-patched daemon must answer byte-identically to cold per-epoch engine runs"
    );
    assert_eq!(live.matched, cold.matched);
    let live_segs: Vec<u64> = live.segments.iter().map(|s| s.answer_digest).collect();
    let cold_segs: Vec<u64> = cold.segments.iter().map(|s| s.answer_digest).collect();
    assert_eq!(live_segs, cold_segs, "per-segment digests diverge");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_preset_cache_accounting_stays_exact() {
    let world = ChurnWorld::demo(8);
    let arc = Arc::new(load(&artifact_for_epoch(&world, 0)));
    let universe = Universe::from_view(&*arc);
    let trace = TraceSpec {
        preset: Preset::Scan,
        seed: 13,
        queries: 20_000,
        epochs: 1,
    }
    .generate(std::slice::from_ref(&universe));
    let outcome = replay_engine(&trace, &Observer::disabled(), |_| arc.clone());
    assert_eq!(outcome.lookups, 20_000);
    assert_eq!(
        outcome.cache_hits + outcome.cache_misses + outcome.uncached,
        outcome.lookups,
        "every lookup lands in exactly one accounting bucket"
    );
    assert!(
        outcome.matched > 0,
        "the positional sweep still hits live prefixes"
    );
    // A cache-busting sweep must not look like a steady workload: the
    // direct-mapped chunk cache should mostly miss.
    let cached = (outcome.cache_hits + outcome.cache_misses).max(1);
    assert!(
        (outcome.cache_hits as f64) / (cached as f64) < 0.9,
        "scan hit rate suspiciously high: {} of {cached}",
        outcome.cache_hits
    );
}
