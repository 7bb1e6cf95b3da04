//! Resilience acceptance tests: the seeded replay answer digest is
//! invariant across transports, a daemon kill/restart mid-replay, and
//! slow-client shedding — the hardened serving path may change *how*
//! answers arrive, never *what* they are.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use celldelta::ChurnWorld;
use cellload::{
    replay_engine, replay_framed, replay_http, ClientPolicy, Preset, ReplayConfig, TraceSpec,
    Universe,
};
use cellobs::Observer;
use cellserve::{Artifact, ArtifactFormat, ArtifactHandle};
use cellserved::{Daemon, ServeConfig};

/// A freshly loaded handle on the demo world's epoch-0 artifact; every
/// call seals the same bytes.
fn loaded() -> ArtifactHandle {
    let world = ChurnWorld::demo(17);
    let index = celldelta::classify_epoch(&world.epoch_counters(0), cellspot::DEFAULT_THRESHOLD);
    Artifact::from_bytes(&Artifact::encode(&index, ArtifactFormat::V2))
        .expect("just-encoded artifact validates")
}

fn config() -> ServeConfig {
    ServeConfig {
        http_listen: Some("127.0.0.1:0".into()),
        tcp_listen: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    }
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

/// The headline acceptance check: one seeded trace, replayed over
/// keep-alive HTTP, over framed TCP **with the daemon killed and
/// restarted mid-replay**, and through the in-process engine — three
/// identical answer digests. The restart is healed entirely inside the
/// resilient clients (reconnect + whole-frame retry), so the only
/// visible difference is `replay.retries`/`replay.reconnects`.
#[test]
fn digests_survive_transports_and_a_midreplay_daemon_restart() {
    let universe = Universe::from_view(&loaded());
    let trace = TraceSpec {
        preset: Preset::Steady,
        seed: 0xD16E,
        queries: 8_000,
        epochs: 1,
    }
    .generate(std::slice::from_ref(&universe));

    let arc = Arc::new(loaded());
    let cold = replay_engine(&trace, &Observer::disabled(), |_| arc.clone());
    assert_eq!(cold.lookups, 8_000);

    // Leg 1: keep-alive HTTP against a healthy daemon.
    let obs = Observer::enabled();
    let daemon = Daemon::start_with_handle(config(), loaded(), obs.clone()).expect("daemon starts");
    let cfg = ReplayConfig {
        clients: 3,
        frame: 128,
        ..ReplayConfig::default()
    };
    let http = replay_http(
        daemon.http_addr().expect("http endpoint"),
        &trace,
        &cfg,
        &obs,
        |_| Ok(()),
    )
    .expect("http replay");
    let tcp_addr = daemon.tcp_addr().expect("tcp endpoint");
    let snap = obs.snapshot();
    assert!(
        snap.counters
            .get("served.http.keepalive.reuses")
            .copied()
            .unwrap_or(0)
            > 0,
        "bulk replay must reuse its connections, not reconnect per frame"
    );

    // Leg 2: framed TCP, with the daemon bounced under the replay. The
    // clients get a generous retry budget so the restart window (well
    // under a second) always fits inside it.
    let restarted = Arc::new(AtomicBool::new(false));
    let obs2 = obs.clone();
    let trace2 = &trace;
    let restarted2 = Arc::clone(&restarted);
    let (tcp, daemon) = std::thread::scope(|s| {
        let replayer = s.spawn(move || {
            replay_framed(
                tcp_addr,
                trace2,
                &ReplayConfig {
                    clients: 3,
                    frame: 128,
                    policy: ClientPolicy {
                        max_attempts: 10,
                        backoff_base: Duration::from_millis(25),
                        ..ClientPolicy::default()
                    },
                },
                &obs2,
                |_| Ok(()),
            )
        });
        // Let traffic flow, then kill the daemon and restart it on the
        // very same port (SO_REUSEADDR carries it past TIME_WAIT).
        assert!(
            wait_until(Duration::from_secs(10), || {
                obs.snapshot()
                    .counters
                    .get("served.tcp.requests")
                    .copied()
                    .unwrap_or(0)
                    > 2
            }),
            "replay traffic never reached the daemon"
        );
        daemon.shutdown();
        let mut cfg = config();
        cfg.http_listen = None;
        cfg.tcp_listen = Some(tcp_addr.to_string());
        let daemon =
            Daemon::start_with_handle(cfg, loaded(), obs.clone()).expect("daemon restarts");
        restarted2.store(true, Ordering::SeqCst);
        (replayer.join().expect("replay thread"), daemon)
    });
    let tcp = tcp.expect("tcp replay across the restart");
    assert!(restarted.load(Ordering::SeqCst));
    daemon.shutdown();

    assert_eq!(http.dropped, 0, "http replay dropped queries");
    assert_eq!(tcp.dropped, 0, "tcp replay dropped queries");
    assert_eq!(
        cold.answer_digest, http.answer_digest,
        "http answers diverge from the cold engine run"
    );
    assert_eq!(
        cold.answer_digest, tcp.answer_digest,
        "tcp answers across a daemon restart diverge from the cold engine run"
    );
    assert_eq!(cold.matched, http.matched);
    assert_eq!(cold.matched, tcp.matched);
    let snap = obs.snapshot();
    assert!(
        snap.counters.get("replay.retries").copied().unwrap_or(0) > 0,
        "the restart must have forced at least one frame retry"
    );
}

/// A slowloris peer stalled past `io_timeout` is shed — visible in
/// `served.conns.rejected` — while a concurrent replay's digest is
/// untouched.
#[test]
fn stalled_connections_are_shed_without_affecting_digests() {
    let universe = Universe::from_view(&loaded());
    let trace = TraceSpec {
        preset: Preset::Steady,
        seed: 0x51A1,
        queries: 4_000,
        epochs: 1,
    }
    .generate(std::slice::from_ref(&universe));
    let arc = Arc::new(loaded());
    let cold = replay_engine(&trace, &Observer::disabled(), |_| arc.clone());

    let mut cfg = config();
    cfg.io_timeout = Duration::from_millis(150);
    let obs = Observer::enabled();
    let daemon = Daemon::start_with_handle(cfg, loaded(), obs.clone()).expect("daemon starts");

    // Two stalled sockets, one per endpoint: a dribbled frame header
    // and a dribbled request line, then silence.
    let mut slow_tcp =
        std::net::TcpStream::connect(daemon.tcp_addr().expect("tcp")).expect("connect");
    slow_tcp.write_all(&[0x02, 0x00]).expect("partial frame");
    let mut slow_http =
        std::net::TcpStream::connect(daemon.http_addr().expect("http")).expect("connect");
    slow_http.write_all(b"POST /loo").expect("partial request");

    let replay_cfg = ReplayConfig {
        clients: 2,
        frame: 128,
        ..ReplayConfig::default()
    };
    let tcp = replay_framed(
        daemon.tcp_addr().expect("tcp"),
        &trace,
        &replay_cfg,
        &obs,
        |_| Ok(()),
    )
    .expect("tcp replay");
    let http = replay_http(
        daemon.http_addr().expect("http"),
        &trace,
        &replay_cfg,
        &obs,
        |_| Ok(()),
    )
    .expect("http replay");

    assert!(
        wait_until(Duration::from_secs(5), || {
            obs.snapshot()
                .counters
                .get("served.conns.rejected")
                .copied()
                .unwrap_or(0)
                >= 2
        }),
        "both stalled sockets must be shed"
    );
    let snap = daemon.shutdown();
    assert!(snap.counters["served.conns.rejected"] >= 2);
    assert_eq!(tcp.dropped, 0);
    assert_eq!(http.dropped, 0);
    assert_eq!(
        cold.answer_digest, tcp.answer_digest,
        "shedding slow peers must not perturb tcp answers"
    );
    assert_eq!(
        cold.answer_digest, http.answer_digest,
        "shedding slow peers must not perturb http answers"
    );
}
