//! Daemon hardening tests: keep-alive semantics, admission control,
//! socket timeouts, bounded parsing, shutdown draining, and the
//! resilient [`FramedClient`] surviving a daemon restart.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cellobs::Observer;
use cellserve::{
    Artifact, ArtifactFormat, ArtifactHandle, AsClass, FrozenIndex, IpKey, ServeLabel,
};
use cellserved::{ClientPolicy, Daemon, FramedClient, ServeConfig};
use netaddr::Asn;
use proptest::prelude::*;

/// An in-process artifact serving 10.0.0.0/8 — enough for every test here.
fn index() -> ArtifactHandle {
    let mut b = FrozenIndex::builder();
    b.insert_v4(
        "10.0.0.0/8".parse().expect("cidr"),
        ServeLabel {
            asn: Asn(64500),
            class: AsClass::Dedicated,
        },
    );
    Artifact::from_bytes(&Artifact::encode(&b.build(), ArtifactFormat::V2))
        .expect("just-encoded artifact validates")
}

/// Both listeners on ephemeral ports. The socket timeout is generous
/// enough that a loaded test runner cannot trip it by accident; the
/// stall tests override it downwards because stalling is their point.
fn config() -> ServeConfig {
    ServeConfig {
        http_listen: Some("127.0.0.1:0".into()),
        tcp_listen: Some("127.0.0.1:0".into()),
        io_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

/// A timeout short enough to make the stall tests fast.
fn stall_config() -> ServeConfig {
    ServeConfig {
        io_timeout: Duration::from_millis(200),
        ..config()
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

fn start(config: ServeConfig) -> (Daemon, Observer) {
    let obs = Observer::enabled();
    let daemon = Daemon::start_with_handle(config, index(), obs.clone()).expect("daemon starts");
    (daemon, obs)
}

/// Read exactly one HTTP response off a keep-alive connection: status
/// line + headers + `Content-Length` body. Returns (head, body).
fn read_response(s: &mut TcpStream) -> (String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match s.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => break,
        }
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match s.read(&mut body[got..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => got += n,
        }
    }
    (head, String::from_utf8_lossy(&body[..got]).to_string())
}

fn send_request(s: &mut TcpStream, target: &str) {
    write!(s, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");
}

/// One-shot request on its own connection (Connection: close), sent in
/// one write: `write!` on a bare socket is one syscall per fragment, and
/// a daemon that sheds the connection (503, close) resets it under the
/// later ones.
fn one_shot(addr: SocketAddr, method: &str, target: &str, body: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(request.as_bytes()).expect("send request");
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

#[test]
fn keepalive_pins_many_requests_on_one_connection() {
    let (daemon, _obs) = start(config());
    let http = daemon.http_addr().expect("http listener");
    const N: usize = 5;

    let mut s = TcpStream::connect(http).expect("connect");
    for i in 0..N {
        send_request(&mut s, "/generation");
        let (head, body) = read_response(&mut s);
        assert!(head.starts_with("HTTP/1.1 200"), "request {i}: {head}");
        assert!(
            head.contains("Connection: keep-alive"),
            "request {i}: {head}"
        );
        assert!(body.contains("\"generation\":1"), "request {i}: {body}");
    }
    drop(s);

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.http.connections"], 1);
    assert_eq!(snap.counters["served.http.requests"], N as u64);
    assert_eq!(snap.counters["served.http.generation"], N as u64);
    assert_eq!(
        snap.counters["served.http.keepalive.reuses"],
        (N - 1) as u64,
        "every request after the first reuses the connection"
    );
}

#[test]
fn connection_close_and_http10_opt_out_of_keepalive() {
    let (daemon, _obs) = start(config());
    let http = daemon.http_addr().expect("http listener");

    // Explicit opt-out on a 1.1 request.
    let out = one_shot(http, "GET", "/healthz", "");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");

    // HTTP/1.0 with no Connection header defaults to close.
    let mut s = TcpStream::connect(http).expect("connect");
    write!(s, "GET /healthz HTTP/1.0\r\nHost: test\r\n\r\n").expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("server closes after 1.0");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");

    daemon.shutdown();
}

#[test]
fn request_cap_closes_the_connection_at_the_limit() {
    let mut cfg = config();
    cfg.max_requests_per_conn = 2;
    let (daemon, _obs) = start(cfg);
    let http = daemon.http_addr().expect("http listener");

    let mut s = TcpStream::connect(http).expect("connect");
    send_request(&mut s, "/generation");
    let (head, _) = read_response(&mut s);
    assert!(head.contains("Connection: keep-alive"), "{head}");
    send_request(&mut s, "/generation");
    let (head, _) = read_response(&mut s);
    assert!(
        head.contains("Connection: close"),
        "the final request under the cap announces the close: {head}"
    );
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("read");
    assert!(rest.is_empty(), "server closed after the capped request");

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.http.requests"], 2);
    assert_eq!(snap.counters["served.http.keepalive.reuses"], 1);
}

#[test]
fn stalled_http_client_is_shed_without_hurting_others() {
    let (daemon, obs) = start(stall_config());
    let http = daemon.http_addr().expect("http listener");

    // Dribble half a request line and stall past the socket timeout.
    let mut slow = TcpStream::connect(http).expect("connect");
    slow.write_all(b"GET /hea").expect("partial request");
    let mut out = String::new();
    slow.read_to_string(&mut out)
        .expect("shed response then close");
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");

    // The shed is visible, and the daemon still answers everyone else.
    let snap = obs.snapshot();
    assert_eq!(snap.counters["served.conns.rejected"], 1);
    assert_eq!(snap.counters["served.http.timeouts"], 1);
    let ok = one_shot(http, "GET", "/lookup?ip=10.1.2.3", "");
    assert!(ok.contains("\"matched\":true"), "{ok}");

    // A stall mid-body (headers complete, body missing) sheds too.
    let mut slow = TcpStream::connect(http).expect("connect");
    write!(
        slow,
        "POST /lookup HTTP/1.1\r\nHost: test\r\nContent-Length: 64\r\n\r\n10.0."
    )
    .expect("partial body");
    let mut out = String::new();
    slow.read_to_string(&mut out).expect("shed response");
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.conns.rejected"], 2);
}

#[test]
fn idle_keepalive_connection_is_closed_quietly() {
    let (daemon, _obs) = start(stall_config());
    let http = daemon.http_addr().expect("http listener");

    // One served request, then silence: the idle cap closes the
    // connection without counting a rejection.
    let mut s = TcpStream::connect(http).expect("connect");
    send_request(&mut s, "/healthz");
    let (head, _) = read_response(&mut s);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("idle close");
    assert!(rest.is_empty());

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.http.idle_closed"], 1);
    assert_eq!(
        snap.counters
            .get("served.conns.rejected")
            .copied()
            .unwrap_or(0),
        0,
        "an idle close is not a rejection"
    );
}

#[test]
fn stalled_framed_client_is_shed_without_hurting_others() {
    let (daemon, obs) = start(stall_config());
    let tcp = daemon.tcp_addr().expect("tcp listener");

    // Two bytes of a frame header, then a stall.
    let mut slow = TcpStream::connect(tcp).expect("connect");
    slow.write_all(&[0x01, 0x00]).expect("partial frame");
    let mut rest = Vec::new();
    slow.read_to_end(&mut rest).expect("server closes");
    assert!(rest.is_empty(), "no answer for a stalled frame");

    let snap = obs.snapshot();
    assert_eq!(snap.counters["served.conns.rejected"], 1);
    assert_eq!(snap.counters["served.tcp.timeouts"], 1);

    // A well-behaved framed client is unaffected.
    let mut client = FramedClient::connect(tcp).expect("connect");
    let answers = client.lookup(&[IpKey::V4(0x0A00_0001)]).expect("lookup");
    assert!(answers[0].is_some());

    daemon.shutdown();
}

#[test]
fn admission_budget_sheds_the_overflow_and_healthz_reports_it() {
    let mut cfg = config();
    cfg.max_conns = 1;
    let (daemon, obs) = start(cfg);
    let http = daemon.http_addr().expect("http listener");

    // Fill the budget with one live keep-alive connection.
    let mut held = TcpStream::connect(http).expect("connect");
    send_request(&mut held, "/healthz");
    let (head, body) = read_response(&mut held);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"active\":1"), "{body}");
    assert!(body.contains("\"max\":1"), "{body}");

    // The next connection is over budget: shed on the accept thread.
    let mut over = TcpStream::connect(http).expect("connect");
    let mut out = String::new();
    over.read_to_string(&mut out).expect("shed response");
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("Connection: close"), "{out}");
    assert!(out.contains("connection capacity"), "{out}");
    assert_eq!(obs.snapshot().counters["served.conns.rejected"], 1);

    // Releasing the held connection frees the slot, and the rejection
    // stays visible in /healthz. Retries that land before the handler
    // thread notices the close get shed too, so the count is ≥ 1, not
    // exactly 1.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    let body = loop {
        let out = one_shot(http, "GET", "/healthz", "");
        if out.starts_with("HTTP/1.1 200") {
            break out;
        }
        assert!(Instant::now() < deadline, "slot never freed: {out}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let rejected: u64 = body
        .split("\"rejected\":")
        .nth(1)
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse().ok()
        })
        .expect("healthz reports the rejection count");
    assert!(rejected >= 1, "{body}");

    daemon.shutdown();
}

#[test]
fn malformed_content_length_is_rejected_not_parsed_as_zero() {
    let (daemon, _obs) = start(config());
    let http = daemon.http_addr().expect("http listener");

    let mut s = TcpStream::connect(http).expect("connect");
    write!(
        s,
        "POST /lookup HTTP/1.1\r\nHost: test\r\nContent-Length: banana\r\n\r\n"
    )
    .expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    assert!(out.contains("malformed Content-Length"), "{out}");
    assert!(
        out.contains("Connection: close"),
        "unframeable body forces a close: {out}"
    );

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.http.bad_request"], 1);
}

#[test]
fn oversized_lines_and_header_blocks_answer_431() {
    let (daemon, obs) = start(config());
    let http = daemon.http_addr().expect("http listener");

    // The server answers 431 and closes as soon as the cap is crossed,
    // possibly while the client is still writing — the tail of the send
    // can hit a reset, and a reset can swallow the buffered response.
    // So: best-effort writes/reads, with the authoritative assertion on
    // the daemon's own counters.
    let fire = |request: &[u8]| -> Option<String> {
        let mut s = TcpStream::connect(http).expect("connect");
        let _ = s.write_all(request);
        let mut out = String::new();
        s.read_to_string(&mut out).ok()?;
        Some(out)
    };
    let long = "a".repeat(9 * 1024);

    // A request line past the per-line cap (8 KiB); a single oversized
    // header line; many modest headers busting the block cap (32 KiB).
    let requests = [
        format!("GET /{long} HTTP/1.1\r\n\r\n"),
        format!("GET /healthz HTTP/1.1\r\nX-Big: {long}\r\n\r\n"),
        format!(
            "GET /healthz HTTP/1.1\r\n{}\r\n",
            format!("X-Pad: {}\r\n", "b".repeat(7 * 1024)).repeat(5)
        ),
    ];
    for request in &requests {
        if let Some(out) = fire(request.as_bytes()) {
            assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        }
    }
    assert!(
        wait_until(Duration::from_secs(5), || {
            obs.snapshot()
                .counters
                .get("served.http.bad_request")
                .copied()
                .unwrap_or(0)
                == requests.len() as u64
        }),
        "every oversized request is counted as a 431/bad_request"
    );
    daemon.shutdown();
}

#[test]
fn endpoint_counters_sum_to_the_request_total() {
    let (daemon, _obs) = start(config());
    let http = daemon.http_addr().expect("http listener");

    one_shot(http, "GET", "/lookup?ip=10.1.2.3", "");
    one_shot(http, "POST", "/lookup", "10.0.0.1\n");
    one_shot(http, "GET", "/metrics", "");
    one_shot(http, "GET", "/healthz", "");
    one_shot(http, "GET", "/generation", "");
    one_shot(http, "GET", "/nope", "");
    one_shot(http, "GET", "/lookup?ip=junk", "");

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.http.generation"], 1);
    let per_endpoint: u64 = [
        "served.http.lookup",
        "served.http.lookup_batch",
        "served.http.metrics",
        "served.http.healthz",
        "served.http.generation",
        "served.http.not_found",
        "served.http.bad_request",
        "served.http.timeouts",
    ]
    .iter()
    .map(|k| snap.counters.get(*k).copied().unwrap_or(0))
    .sum();
    assert_eq!(
        per_endpoint, snap.counters["served.http.requests"],
        "every response is counted under exactly one endpoint"
    );
}

#[test]
fn shutdown_drains_live_connections_promptly() {
    let (daemon, _obs) = start(config());
    let http = daemon.http_addr().expect("http listener");

    // A keep-alive connection sitting idle between requests would pin
    // the old detached-thread daemon; the tracker half-closes it.
    let mut idle = TcpStream::connect(http).expect("connect");
    send_request(&mut idle, "/healthz");
    let (head, _) = read_response(&mut idle);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    let t0 = Instant::now();
    let snap = daemon.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "drain must beat the 5 s window, took {:?}",
        t0.elapsed()
    );
    assert!(
        !snap.counters.contains_key("served.conns.aborted"),
        "no connection needed force-closing"
    );
}

#[test]
fn framed_client_survives_a_daemon_restart_on_the_same_port() {
    let (daemon, _obs) = start(config());
    let tcp = daemon.tcp_addr().expect("tcp listener");

    let policy = ClientPolicy {
        max_attempts: 8,
        backoff_base: Duration::from_millis(10),
        ..ClientPolicy::default()
    };
    let mut client = FramedClient::connect_with(tcp, policy).expect("connect");
    let before = client.lookup(&[IpKey::V4(0x0A00_0001)]).expect("lookup");

    // Bounce the daemon onto the very same port — SO_REUSEADDR lets the
    // restarted listener rebind through lingering TIME_WAIT sockets.
    daemon.shutdown();
    let mut cfg = config();
    cfg.http_listen = None;
    cfg.tcp_listen = Some(tcp.to_string());
    let (daemon, _obs) = start(cfg);

    // The client's cached connection is dead; lookup reconnects and
    // re-sends, and the answers are identical (idempotent reads).
    let after = client
        .lookup(&[IpKey::V4(0x0A00_0001)])
        .expect("lookup after restart");
    assert_eq!(after, before);
    assert!(client.reconnects() >= 1, "the restart forced a reconnect");

    daemon.shutdown();
}

/// A connection the daemon closed cleanly at its request cap is stale,
/// not broken: the client must reconnect and re-send at once, and keep
/// its back-off for connections that fail fresh.
#[test]
fn request_cap_rotation_reconnects_without_backing_off() {
    let mut cfg = config();
    cfg.max_requests_per_conn = 4;
    let (daemon, _obs) = start(cfg);
    let policy = ClientPolicy {
        backoff_base: Duration::from_millis(500),
        ..ClientPolicy::default()
    };
    let mut client = FramedClient::connect_with(daemon.tcp_addr().expect("tcp listener"), policy)
        .expect("connect");

    let started = Instant::now();
    for _ in 0..40 {
        let answers = client.lookup(&[IpKey::V4(0x0A00_0001)]).expect("lookup");
        assert!(answers[0].is_some());
    }
    let took = started.elapsed();

    // 40 lookups at 4 per connection: ten connections, nine rotations.
    assert_eq!(client.reconnects(), 9);
    assert_eq!(client.retries(), 0, "no rotation consumed a retry");
    assert!(
        took < policy.backoff_base / 2,
        "nine rotations took {took:?}: the client slept a back-off"
    );

    daemon.shutdown();
}

/// Shared daemon for the fuzz cases: real proptest runs many cases, and
/// one daemon per case would dominate the runtime.
fn garbage_target() -> SocketAddr {
    use std::sync::OnceLock;
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let (daemon, _obs) = start(config());
        let addr = daemon.http_addr().expect("http listener");
        // Leak the daemon: it serves until the test process exits.
        std::mem::forget(daemon);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Arbitrary bytes on the HTTP socket never take the daemon down:
    /// whatever the parser makes of the garbage, the next well-formed
    /// request on a fresh connection gets a 200.
    #[test]
    fn header_garbage_never_kills_the_daemon(
        garbage in prop::collection::vec(any::<u8>(), 0..2048),
        terminator in 0usize..3,
    ) {
        let addr = garbage_target();
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.write_all(&garbage);
        let _ = s.write_all([b"\r\n\r\n".as_slice(), b"\n", b""][terminator]);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        drop(s);

        let mut probe = TcpStream::connect(addr).expect("daemon still accepts");
        write!(probe, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").expect("send");
        let mut ok = String::new();
        probe.read_to_string(&mut ok).expect("daemon still answers");
        prop_assert!(ok.starts_with("HTTP/1.1 200"), "{}", ok);
    }
}
