//! End-to-end daemon tests: both listeners, per-request accounting, and —
//! the load-bearing ones — zero-downtime reload and delta hot-patching
//! under live traffic, with rejected candidates leaving the old
//! generation serving.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cellobs::Observer;
use cellseal::write_atomic_bytes;
use cellserve::{AsClass, FrozenIndex, IpKey, ServeLabel};
use cellserved::{Daemon, FramedClient, ServeConfig, WireAnswer};
use netaddr::Asn;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cellserved-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A sealed artifact serving 10.0.0.0/8 under `asn`/`class`, plus an
/// extra prefix when `extra` (so generations are distinguishable).
fn artifact(asn: u32, class: AsClass, extra: bool) -> Vec<u8> {
    let mut b = FrozenIndex::builder();
    b.insert_v4(
        "10.0.0.0/8".parse().expect("cidr"),
        ServeLabel {
            asn: Asn(asn),
            class,
        },
    );
    if extra {
        b.insert_v4(
            "192.168.0.0/16".parse().expect("cidr"),
            ServeLabel {
                asn: Asn(asn + 1),
                class: AsClass::Dedicated,
            },
        );
    }
    cellserve::Artifact::encode(&b.build(), cellserve::ArtifactFormat::V2)
}

fn config() -> ServeConfig {
    ServeConfig {
        http_listen: Some("127.0.0.1:0".into()),
        tcp_listen: Some("127.0.0.1:0".into()),
        reload_watch: false,
        delta_watch: None,
        reload_poll: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

fn http_request(addr: SocketAddr, method: &str, target: &str, body: Option<&str>) -> String {
    let mut s = TcpStream::connect(addr).expect("connect http");
    let body = body.unwrap_or("");
    write!(
        s,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

/// One `GET` on a keep-alive connection; returns the body and whether
/// the daemon announced it is closing the connection (its request cap).
fn keepalive_get(conn: &mut BufReader<TcpStream>, target: &str) -> (String, bool) {
    let request = format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n");
    conn.get_mut()
        .write_all(request.as_bytes())
        .expect("send request");
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        assert_ne!(conn.read_line(&mut head).expect("read head"), 0, "{head}");
    }
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length");
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body).expect("read body");
    (
        String::from_utf8(body).expect("utf8 body"),
        head.contains("Connection: close"),
    )
}

/// The unsigned value of `"key":N` in a flat JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let rest = body
        .split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {body}"))
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
fn both_endpoints_answer_and_every_lookup_is_sampled() {
    let path = tmpdir("endpoints").join("index.cellserv");
    write_atomic_bytes(&path, &artifact(64500, AsClass::Dedicated, false)).expect("write artifact");
    let obs = Observer::enabled();
    let daemon = Daemon::start(config(), &path, obs.clone()).expect("daemon starts");
    let http = daemon.http_addr().expect("http listener");

    let hit = http_request(http, "GET", "/lookup?ip=10.1.2.3", None);
    assert!(hit.starts_with("HTTP/1.1 200"), "{hit}");
    assert!(hit.contains("\"matched\":true"), "{hit}");
    assert!(hit.contains("\"prefix\":\"10.0.0.0/8\""), "{hit}");
    assert!(hit.contains("\"asn\":64500"), "{hit}");
    assert!(hit.contains("\"class\":\"dedicated\""), "{hit}");

    let miss = http_request(http, "GET", "/lookup?ip=11.1.2.3", None);
    assert!(miss.contains("\"matched\":false"), "{miss}");

    let batch = http_request(http, "POST", "/lookup", Some("10.0.0.1\n11.0.0.1\n"));
    assert!(batch.contains("ip,prefix,asn,class"), "{batch}");
    assert!(
        batch.contains("10.0.0.1,10.0.0.0/8,64500,dedicated"),
        "{batch}"
    );
    assert!(batch.contains("11.0.0.1,-,-,-"), "{batch}");

    let health = http_request(http, "GET", "/healthz", None);
    assert!(health.contains("\"generation\":1"), "{health}");
    assert!(health.contains("\"prefixes\":1"), "{health}");

    let bad = http_request(http, "GET", "/lookup?ip=not-an-ip", None);
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    let missing = http_request(http, "GET", "/nope", None);
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    // The framed TCP protocol answers the same index.
    let mut client =
        FramedClient::connect(daemon.tcp_addr().expect("tcp listener")).expect("connect");
    let answers = client
        .lookup(&[IpKey::V4(0x0A00_0001), IpKey::V4(0x0B00_0001)])
        .expect("framed lookup");
    assert_eq!(
        answers[0],
        Some(WireAnswer {
            prefix_len: 8,
            asn: 64500,
            class: AsClass::Dedicated,
        })
    );
    assert_eq!(answers[1], None);
    drop(client);

    // /metrics exports Prometheus text with quantile gauges.
    let metrics = http_request(http, "GET", "/metrics", None);
    assert!(metrics.contains("serve_lookups"), "{metrics}");
    assert!(metrics.contains("serve_lookup_ns_p50"), "{metrics}");
    assert!(metrics.contains("serve_lookup_ns_p999"), "{metrics}");

    let snap = daemon.shutdown();
    // 2 GET lookups + 2 POSTed + 2 framed queries went through the
    // engine; the per-lookup histogram must have exactly that many
    // samples (the bug this PR fixes recorded one per chunk).
    let lookups = snap.counters["serve.lookups"];
    assert_eq!(lookups, 6);
    assert_eq!(snap.histograms["serve.lookup.ns"].count, lookups);
    assert_eq!(snap.counters["served.tcp.requests"], 1);
    assert_eq!(snap.counters["served.tcp.queries"], 2);
    assert!(snap.counters["served.http.requests"] >= 7);
    assert_eq!(snap.counters["served.http.lookup"], 2);
    assert_eq!(snap.counters["served.http.lookup_batch"], 1);
    // Every lookup lands in exactly one cache-accounting bucket, and
    // nothing stands between a request and the engine to count.
    let cache = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    assert_eq!(
        cache("serve.cache.hits") + cache("serve.cache.misses") + cache("serve.cache.uncached"),
        lookups
    );
    assert!(!snap.counters.contains_key("served.batches"));
    assert_eq!(snap.gauges["served.generation"], 1);
    assert!(snap.gauges.contains_key("serve.lookup.ns.p99"));
}

/// Closed-loop framed clients hold their connection for the whole run:
/// every frame past the first per connection is a keep-alive reuse, and
/// the engine-side counter accounts for every query a client sent —
/// for a couple of bulk clients, for many single-query clients at once,
/// and for frames that span engine chunks on the connection thread.
#[test]
fn framed_keepalive_accounts_every_frame_and_query() {
    let path = tmpdir("framed-keepalive").join("index.cellserv");
    write_atomic_bytes(&path, &artifact(64500, AsClass::Dedicated, false)).expect("write artifact");
    for (clients, frames, queries) in [
        (2u64, 20u64, 8u64),
        (32, 20, 1),
        (2, 3, cellserve::QUERY_CHUNK as u64 + 17),
    ] {
        let daemon = Daemon::start(config(), &path, Observer::enabled()).expect("daemon starts");
        let tcp = daemon.tcp_addr().expect("tcp listener");

        let threads: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = FramedClient::connect(tcp).expect("connect");
                    for f in 0..frames {
                        let frame: Vec<IpKey> = (0..queries)
                            .map(|q| {
                                IpKey::V4(
                                    0x0A00_0000 + (c * frames * queries + f * queries + q) as u32,
                                )
                            })
                            .collect();
                        let answers = client.lookup(&frame).expect("framed lookup");
                        assert!(answers.iter().all(Option::is_some), "10/8 serves them all");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }

        let snap = daemon.shutdown();
        let shape = format!("{clients} clients x {frames} frames x {queries} queries");
        assert_eq!(snap.counters["served.tcp.connections"], clients, "{shape}");
        assert_eq!(
            snap.counters["served.tcp.requests"],
            clients * frames,
            "{shape}"
        );
        assert_eq!(
            snap.counters["served.tcp.keepalive.reuses"],
            clients * (frames - 1),
            "{shape}: every frame after a connection's first reuses it"
        );
        assert_eq!(
            snap.counters["served.tcp.queries"],
            clients * frames * queries,
            "{shape}"
        );
        assert_eq!(
            snap.counters["serve.lookups"],
            clients * frames * queries,
            "{shape}"
        );
    }
}

#[test]
fn reload_swaps_generations_without_dropping_traffic() {
    let path = tmpdir("reload").join("index.cellserv");
    write_atomic_bytes(&path, &artifact(1, AsClass::Dedicated, false)).expect("write artifact");
    let obs = Observer::enabled();
    let mut cfg = config();
    cfg.reload_watch = true;
    let daemon = Daemon::start(cfg, &path, obs.clone()).expect("daemon starts");
    let tcp = daemon.tcp_addr().expect("tcp listener");
    let http = daemon.http_addr().expect("http listener");

    // Hammer the daemon from a client thread for the whole test; every
    // single request must get a valid answer, across the swap.
    let stop = Arc::new(AtomicBool::new(false));
    let saw_new_gen = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let saw2 = Arc::clone(&saw_new_gen);
    let client_thread = std::thread::spawn(move || -> Vec<u32> {
        let mut client = FramedClient::connect(tcp).expect("connect");
        let mut seen = Vec::new();
        while !stop2.load(Ordering::SeqCst) {
            let answers = client
                .lookup(&[IpKey::V4(0x0A00_0001)])
                .expect("no request ever fails during a reload");
            let asn = answers[0].expect("prefix served by every generation").asn;
            if asn == 2 {
                saw2.store(true, Ordering::SeqCst);
            }
            seen.push(asn);
        }
        seen
    });
    // Beside it, a keep-alive `GET /lookup` loop: generation N's
    // artifact labels 10/8 with AS N, so a body whose `asn` and
    // `generation` differ paired one generation's answer with another's
    // number. It reports its first answer before generation 2 is
    // published, and its last request starts after the stop flag (set
    // once the swap is visible), so it covers before, across and after.
    let stop3 = Arc::clone(&stop);
    let (first_answer_tx, first_answer_rx) = std::sync::mpsc::channel();
    let http_thread = std::thread::spawn(move || -> Vec<u64> {
        let connect = || BufReader::new(TcpStream::connect(http).expect("connect http"));
        let mut conn = connect();
        let mut seen = Vec::new();
        loop {
            let stopping = stop3.load(Ordering::SeqCst);
            let (body, closing) = keepalive_get(&mut conn, "/lookup?ip=10.0.0.1");
            assert_eq!(
                json_u64(&body, "asn"),
                json_u64(&body, "generation"),
                "answered by one generation, numbered as another: {body}"
            );
            seen.push(json_u64(&body, "generation"));
            if seen.len() == 1 {
                first_answer_tx.send(()).expect("main thread waits");
            }
            if stopping {
                return seen;
            }
            if closing {
                conn = connect();
            }
        }
    });

    first_answer_rx.recv().expect("http client answered once");
    write_atomic_bytes(&path, &artifact(2, AsClass::Mixed, true)).expect("publish generation 2");
    assert!(
        wait_until(Duration::from_secs(5), || daemon.generation() == 2),
        "watcher picks up an atomically published artifact"
    );
    // Keep traffic flowing until an answer from the new generation has
    // actually been observed, so the tail of `seen` is post-swap.
    assert!(
        wait_until(Duration::from_secs(5), || saw_new_gen
            .load(Ordering::SeqCst)),
        "live traffic reaches the swapped-in generation"
    );
    stop.store(true, Ordering::SeqCst);
    let seen = client_thread.join().expect("client thread");
    let http_seen = http_thread.join().expect("http client thread");

    assert_eq!(http_seen.first(), Some(&1), "answered before the swap");
    assert_eq!(http_seen.last(), Some(&2), "answered after the swap");
    assert!(
        http_seen.windows(2).all(|w| w[0] <= w[1]),
        "a serialized client never goes back a generation"
    );

    assert!(!seen.is_empty());
    assert!(
        seen.iter().all(|&asn| asn == 1 || asn == 2),
        "answers only ever come from a fully validated generation"
    );
    assert_eq!(
        *seen.last().expect("nonempty"),
        2,
        "post-swap traffic sees the new index"
    );
    // For a serialized client the transition is monotonic: once a batch
    // runs on generation 2, no later batch can see generation 1.
    let first_new = seen
        .iter()
        .position(|&a| a == 2)
        .expect("swap observed under load");
    assert!(seen[first_new..].iter().all(|&a| a == 2));

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.reload.ok"], 1);
    assert!(!snap.counters.contains_key("served.reload.rejected"));
    assert_eq!(snap.gauges["served.generation"], 2);
    assert_eq!(
        snap.histograms["serve.lookup.ns"].count, snap.counters["serve.lookups"],
        "one latency sample per lookup holds under daemon load too"
    );
}

/// Republishing a byte-identical artifact (fresh mtime, same content)
/// must not reload: the watcher's stage-two fingerprint short-circuits,
/// the `served.reload.polls.skipped` counter records it, and a later
/// real change still swaps normally.
#[test]
fn byte_identical_republish_skips_the_reload() {
    let path = tmpdir("skip").join("index.cellserv");
    let bytes = artifact(1, AsClass::Dedicated, false);
    write_atomic_bytes(&path, &bytes).expect("write artifact");
    let obs = Observer::enabled();
    let mut cfg = config();
    cfg.reload_watch = true;
    let daemon = Daemon::start(cfg, &path, obs.clone()).expect("daemon starts");

    // Republish the exact same bytes: new file, new mtime, same
    // content fingerprint.
    std::thread::sleep(Duration::from_millis(30));
    write_atomic_bytes(&path, &bytes).expect("republish identical artifact");
    assert!(
        wait_until(Duration::from_secs(5), || {
            obs.snapshot()
                .counters
                .get("served.reload.polls.skipped")
                .copied()
                .unwrap_or(0)
                >= 1
        }),
        "the watcher notices the stat change and skips on the fingerprint"
    );
    assert_eq!(daemon.generation(), 1, "identical bytes must not reload");
    assert!(
        !obs.snapshot().counters.contains_key("served.reload.ok"),
        "no reload may be attempted for identical bytes"
    );

    // A real change still swaps — the skip didn't wedge the watcher.
    write_atomic_bytes(&path, &artifact(2, AsClass::Mixed, true)).expect("publish generation 2");
    assert!(
        wait_until(Duration::from_secs(5), || daemon.generation() == 2),
        "a genuinely new artifact still reloads after skipped polls"
    );
    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.reload.polls.skipped"], 1);
    assert_eq!(snap.counters["served.reload.ok"], 1);
}

#[test]
fn rejected_candidates_leave_the_old_generation_serving() {
    let path = tmpdir("reject").join("index.cellserv");
    write_atomic_bytes(&path, &artifact(7, AsClass::Dedicated, false)).expect("write artifact");
    let obs = Observer::enabled();
    let mut cfg = config();
    cfg.reload_watch = true;
    let daemon = Daemon::start(cfg, &path, obs.clone()).expect("daemon starts");

    let probes = [
        IpKey::V4(0x0A00_0001),
        IpKey::V4(0x0AFF_FFFE),
        IpKey::V4(0x7F00_0001),
        IpKey::V6(1),
    ];
    let mut client = FramedClient::connect(daemon.tcp_addr().expect("tcp")).expect("connect");
    let before = client.lookup(&probes).expect("baseline lookup");
    let rejected_count = || {
        obs.snapshot()
            .counters
            .get("served.reload.rejected")
            .copied()
            .unwrap_or(0)
    };

    // Candidate 1: flipped body byte — the seal check rejects it.
    let mut corrupt = artifact(8, AsClass::Mixed, true);
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    write_atomic_bytes(&path, &corrupt).expect("publish corrupt candidate");
    assert!(wait_until(Duration::from_secs(5), || rejected_count() >= 1));

    // Candidate 2: newer format version behind a valid seal —
    // `ServeError::UnsupportedVersion` through the reload path.
    let mut newer = artifact(8, AsClass::Mixed, true);
    newer[8..12].copy_from_slice(&(cellserve::ARTIFACT_V2_VERSION + 1).to_le_bytes());
    cellseal::reseal(&mut newer);
    write_atomic_bytes(&path, &newer).expect("publish newer-version candidate");
    assert!(wait_until(Duration::from_secs(5), || rejected_count() >= 2));

    // Candidate 3: structural corruption behind a forged (recomputed)
    // seal — an invalid class byte in the label table. Structural
    // re-validation must catch what the CRC no longer can.
    let mut forged = artifact(8, AsClass::Mixed, true);
    forged[64 + 4] = 9; // first label's class word (labels start at 64)
                        // Refresh the header's quick-hash of the sections too, as the writer
                        // would, so only the structural check is left to object.
    let sections_end = forged.len() - cellseal::TRAILER_LEN;
    let quick = cellserve::content_hash(&forged[64..sections_end]);
    forged[16..24].copy_from_slice(&quick.to_le_bytes());
    cellseal::reseal(&mut forged);
    write_atomic_bytes(&path, &forged).expect("publish forged candidate");
    assert!(wait_until(Duration::from_secs(5), || rejected_count() >= 3));

    // Three rejected swaps later the daemon still serves generation 1,
    // and the probe answers are identical (the wire encoding is
    // canonical, so equal answers mean byte-identical responses).
    assert_eq!(daemon.generation(), 1);
    let after = client.lookup(&probes).expect("probes after rejected swaps");
    assert_eq!(after, before);

    // A valid candidate still swaps — rejections don't wedge reloads.
    write_atomic_bytes(&path, &artifact(9, AsClass::Mixed, false))
        .expect("publish valid candidate");
    assert!(wait_until(Duration::from_secs(5), || daemon.generation() == 2));
    let swapped = client.lookup(&probes).expect("probes after swap");
    assert_eq!(swapped[0].expect("still served").asn, 9);
    assert_eq!(swapped[0].expect("still served").class, AsClass::Mixed);

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.reload.rejected"], 3);
    assert_eq!(snap.counters["served.reload.ok"], 1);
}

#[test]
fn deltas_hot_patch_the_live_generation_under_traffic() {
    let dir = tmpdir("delta");
    let path = dir.join("index.cellserv");
    let delta_path = dir.join("latest.cdlt");
    let base = artifact(1, AsClass::Dedicated, false);
    write_atomic_bytes(&path, &base).expect("write artifact");
    let obs = Observer::enabled();
    let mut cfg = config();
    cfg.delta_watch = Some(delta_path.clone());
    let daemon = Daemon::start(cfg, &path, obs.clone()).expect("daemon starts");
    let tcp = daemon.tcp_addr().expect("tcp listener");
    let http = daemon.http_addr().expect("http listener");

    // Continuous queries across the patch; no request may ever fail.
    let stop = Arc::new(AtomicBool::new(false));
    let saw_new_gen = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let saw2 = Arc::clone(&saw_new_gen);
    let client_thread = std::thread::spawn(move || -> Vec<u32> {
        let mut client = FramedClient::connect(tcp).expect("connect");
        let mut seen = Vec::new();
        while !stop2.load(Ordering::SeqCst) {
            let answers = client
                .lookup(&[IpKey::V4(0x0A00_0001)])
                .expect("no request ever fails during a delta patch");
            let asn = answers[0].expect("prefix served by every generation").asn;
            if asn == 2 {
                saw2.store(true, Ordering::SeqCst);
            }
            seen.push(asn);
        }
        seen
    });

    std::thread::sleep(Duration::from_millis(50));
    let target = artifact(2, AsClass::Mixed, true);
    let delta = celldelta::build_delta(&base, &target, 0, 1).expect("build delta");
    write_atomic_bytes(&delta_path, &delta).expect("publish delta");
    assert!(
        wait_until(Duration::from_secs(5), || daemon.generation() == 2),
        "watcher picks up a chained delta"
    );
    assert!(
        wait_until(Duration::from_secs(5), || saw_new_gen
            .load(Ordering::SeqCst)),
        "live traffic reaches the patched-in generation"
    );
    stop.store(true, Ordering::SeqCst);
    let seen = client_thread.join().expect("client thread");
    assert!(!seen.is_empty());
    assert!(
        seen.iter().all(|&asn| asn == 1 || asn == 2),
        "answers only ever come from a fully validated generation"
    );
    let first_new = seen
        .iter()
        .position(|&a| a == 2)
        .expect("patch observed under load");
    assert!(seen[first_new..].iter().all(|&a| a == 2));

    // A second delta chains on the patched-in generation.
    let target2 = artifact(3, AsClass::Dedicated, true);
    let delta2 = celldelta::build_delta(&target, &target2, 1, 2).expect("build delta 2");
    write_atomic_bytes(&delta_path, &delta2).expect("publish delta 2");
    assert!(wait_until(Duration::from_secs(5), || daemon.generation() == 3));

    // /generation correlates hash and epoch with what was published.
    let gen = http_request(http, "GET", "/generation", None);
    assert!(gen.contains("\"generation\":3"), "{gen}");
    assert!(
        gen.contains(&cellserve::hash_hex(cellserve::content_hash(&target2))),
        "{gen}"
    );
    assert!(gen.contains("\"epoch\":2"), "{gen}");

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.delta.ok"], 2);
    assert!(!snap.counters.contains_key("served.delta.rejected"));
    assert_eq!(snap.gauges["served.generation"], 3);
    assert_eq!(snap.gauges["served.epoch"], 2);
    assert_eq!(
        snap.gauges["served.artifact.hash"],
        cellserve::content_hash(&target2)
    );
}

#[test]
fn rejected_deltas_leave_the_old_generation_serving() {
    let dir = tmpdir("delta-reject");
    let path = dir.join("index.cellserv");
    let delta_path = dir.join("latest.cdlt");
    let base = artifact(7, AsClass::Dedicated, false);
    write_atomic_bytes(&path, &base).expect("write artifact");
    let obs = Observer::enabled();
    let mut cfg = config();
    cfg.delta_watch = Some(delta_path.clone());
    let daemon = Daemon::start(cfg, &path, obs.clone()).expect("daemon starts");

    let probes = [IpKey::V4(0x0A00_0001), IpKey::V4(0x7F00_0001), IpKey::V6(1)];
    let mut client = FramedClient::connect(daemon.tcp_addr().expect("tcp")).expect("connect");
    let before = client.lookup(&probes).expect("baseline lookup");
    let rejected_count = || {
        obs.snapshot()
            .counters
            .get("served.delta.rejected")
            .copied()
            .unwrap_or(0)
    };

    let target = artifact(8, AsClass::Mixed, true);

    // Candidate 1: chains on a base the daemon never served.
    let other = artifact(9, AsClass::Dedicated, false);
    let wrong_base = celldelta::build_delta(&other, &target, 0, 1).expect("build");
    write_atomic_bytes(&delta_path, &wrong_base).expect("publish wrong-base delta");
    assert!(wait_until(Duration::from_secs(5), || rejected_count() >= 1));

    // Candidate 2: right base, flipped byte — the seal rejects it.
    let good = celldelta::build_delta(&base, &target, 0, 1).expect("build");
    let mut corrupt = good.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    write_atomic_bytes(&delta_path, &corrupt).expect("publish corrupt delta");
    assert!(wait_until(Duration::from_secs(5), || rejected_count() >= 2));

    // Candidate 3: truncated mid-body.
    write_atomic_bytes(&delta_path, &good[..good.len() / 2]).expect("publish truncated delta");
    assert!(wait_until(Duration::from_secs(5), || rejected_count() >= 3));

    // Three rejections later: still generation 1, answers untouched.
    assert_eq!(daemon.generation(), 1);
    let after = client
        .lookup(&probes)
        .expect("probes after rejected deltas");
    assert_eq!(after, before);

    // The intact delta still applies — rejections don't wedge the chain.
    write_atomic_bytes(&delta_path, &good).expect("publish valid delta");
    assert!(wait_until(Duration::from_secs(5), || daemon.generation() == 2));
    let swapped = client.lookup(&probes).expect("probes after patch");
    assert_eq!(swapped[0].expect("still served").asn, 8);

    // Candidate 4: an out-of-order delta — its epoch does not advance
    // past the live epoch 1, so it is stale regardless of its base.
    let stale = celldelta::build_delta(&base, &artifact(9, AsClass::Mixed, false), 0, 1)
        .expect("build stale delta");
    write_atomic_bytes(&delta_path, &stale).expect("publish stale delta");
    assert!(wait_until(Duration::from_secs(5), || rejected_count() >= 4));
    assert_eq!(daemon.generation(), 2, "stale delta rejected");

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.delta.rejected"], 4);
    assert_eq!(snap.counters["served.delta.ok"], 1);
}

#[test]
fn a_full_reload_resets_the_delta_chain() {
    let dir = tmpdir("delta-interop");
    let path = dir.join("index.cellserv");
    let delta_path = dir.join("latest.cdlt");
    let base = artifact(1, AsClass::Dedicated, false);
    write_atomic_bytes(&path, &base).expect("write artifact");
    let obs = Observer::enabled();
    let mut cfg = config();
    cfg.reload_watch = true;
    cfg.delta_watch = Some(delta_path.clone());
    let daemon = Daemon::start(cfg, &path, obs.clone()).expect("daemon starts");

    // Delta to epoch 1.
    let target = artifact(2, AsClass::Mixed, false);
    let d1 = celldelta::build_delta(&base, &target, 0, 1).expect("build");
    write_atomic_bytes(&delta_path, &d1).expect("publish delta");
    assert!(wait_until(Duration::from_secs(5), || daemon.generation() == 2));

    // A full artifact published at the artifact path swaps in at
    // epoch 0...
    let full = artifact(3, AsClass::Dedicated, true);
    write_atomic_bytes(&path, &full).expect("publish full artifact");
    assert!(wait_until(Duration::from_secs(5), || daemon.generation() == 3));

    // ...so a low-epoch delta chaining on *it* is accepted again.
    let target2 = artifact(4, AsClass::Mixed, true);
    let d2 = celldelta::build_delta(&full, &target2, 0, 1).expect("build");
    write_atomic_bytes(&delta_path, &d2).expect("publish delta on the reloaded base");
    assert!(wait_until(Duration::from_secs(5), || daemon.generation() == 4));

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["served.delta.ok"], 2);
    assert_eq!(snap.counters["served.reload.ok"], 1);
    assert!(!snap.counters.contains_key("served.delta.rejected"));
    assert_eq!(snap.gauges["served.epoch"], 1);
}

#[test]
fn graceful_shutdown_refuses_new_work_but_answers_accepted_work() {
    let path = tmpdir("shutdown").join("index.cellserv");
    write_atomic_bytes(&path, &artifact(5, AsClass::Dedicated, false)).expect("write artifact");
    let daemon = Daemon::start(config(), &path, Observer::enabled()).expect("daemon starts");
    let tcp = daemon.tcp_addr().expect("tcp listener");

    let mut client = FramedClient::connect(tcp).expect("connect");
    let answers = client.lookup(&[IpKey::V4(0x0A00_0001)]).expect("lookup");
    assert!(answers[0].is_some());

    let snap = daemon.shutdown();
    assert_eq!(snap.counters["serve.lookups"], 1);
    // After shutdown the port no longer accepts lookups: either the
    // connection fails outright or the request gets no answer.
    if let Ok(mut late) = FramedClient::connect(tcp) {
        assert!(late.lookup(&[IpKey::V4(0x0A00_0001)]).is_err());
    }
}
