//! The closed-loop replay driver.
//!
//! A [`Trace`] replays against three targets — the in-process
//! [`QueryEngine`], a daemon's framed TCP port, a daemon's HTTP bulk
//! endpoint — and all three produce the same [`ReplayOutcome`] shape:
//! per-segment lookup/match/drop counts plus an **answer digest**.
//!
//! The digest is the replay driver's load-bearing idea: every target
//! normalizes each answer to the same `(prefix_len, asn, class_byte)`
//! tuple (or a miss) and folds them, **in query order**, into an
//! FNV-1a 64 hash. Client count, frame size, and transport then cannot
//! affect the digest — only the answers can — so "this daemon, across
//! a live hot-patch, answered exactly like a cold post-patch engine"
//! is a single `u64` comparison.
//!
//! Network replays are closed-loop: each of `clients` worker threads
//! owns one connection and keeps exactly one frame in flight.
//! Per-frame round-trip latencies are
//! recorded into the observer's `replay.frame.ns` histogram; the
//! engine path records per-lookup latency via the engine's own
//! `serve.lookup.ns`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use cellobs::Observer;
use cellseal::Fnv64;
use cellserve::{BatchStats, IpKey, LookupMatch, MatchedPrefix, QueryEngine};
use cellserved::{ClientPolicy, FramedClient, ServedError, WireAnswer};

use crate::trace::Trace;

/// A normalized answer: `(prefix_len, asn, class_byte)` for a hit,
/// `None` for a miss. Every replay target reduces to this.
pub type Answer = Option<(u8, u32, u8)>;

/// Incremental FNV-1a 64 over a canonical answer byte stream: `0` for
/// a miss; `1, prefix_len, asn (LE), class_byte` for a hit.
///
/// Hashing the concatenation of two streams equals continuing one
/// digest across both, so per-segment digests and the whole-trace
/// digest stay consistent.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnswerDigest(Fnv64);

impl AnswerDigest {
    /// A fresh digest.
    pub fn new() -> AnswerDigest {
        AnswerDigest::default()
    }

    /// Fold one normalized answer.
    pub fn push(&mut self, answer: Answer) {
        match answer {
            None => self.0.write(&[0]),
            Some((len, asn, class)) => {
                let [a0, a1, a2, a3] = asn.to_le_bytes();
                self.0.write(&[1, len, a0, a1, a2, a3, class]);
            }
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

/// Normalize an engine answer.
pub fn normalize_engine(m: &Option<LookupMatch>) -> Answer {
    m.as_ref().map(|m| {
        let len = match m.prefix {
            MatchedPrefix::V4(net) => net.len(),
            MatchedPrefix::V6(net) => net.len(),
        };
        (len, m.label.asn.value(), m.label.class.to_byte())
    })
}

/// Normalize a framed-protocol answer.
pub fn normalize_wire(a: &Option<WireAnswer>) -> Answer {
    a.as_ref().map(|w| (w.prefix_len, w.asn, w.class.to_byte()))
}

/// Why a replay failed outright (distinct from *dropped* queries,
/// which are counted, not fatal).
#[derive(Debug)]
pub enum ReplayError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The framed protocol client reported an error.
    Served(cellserved::ServedError),
    /// The peer sent something unparseable (bad HTTP status, malformed
    /// CSV row, short response).
    Protocol(String),
    /// The segment-boundary hook (e.g. "publish the delta and wait for
    /// the generation bump") failed.
    Hook(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "replay I/O error: {e}"),
            ReplayError::Served(e) => write!(f, "replay protocol client error: {e}"),
            ReplayError::Protocol(why) => write!(f, "replay protocol error: {why}"),
            ReplayError::Hook(why) => write!(f, "segment hook failed: {why}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e)
    }
}

impl From<cellserved::ServedError> for ReplayError {
    fn from(e: cellserved::ServedError) -> Self {
        ReplayError::Served(e)
    }
}

/// Closed-loop shape of a network replay.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Concurrent connections, each with one frame in flight.
    pub clients: usize,
    /// Queries per request frame.
    pub frame: usize,
    /// Client resilience: timeouts, reconnect backoff, and the retry
    /// budget both transports spend before a frame failure becomes
    /// fatal. Retried frames re-send the whole batch (lookups are
    /// idempotent), so the answer digest is transport-failure-proof:
    /// a daemon restart mid-replay changes `replay.retries` and
    /// `replay.reconnects`, never the digest.
    pub policy: ClientPolicy,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            clients: 4,
            frame: 512,
            policy: ClientPolicy::default(),
        }
    }
}

/// One segment's replay result.
#[derive(Clone, Debug)]
pub struct SegmentOutcome {
    /// The segment's CELLDELT epoch.
    pub epoch: u64,
    /// Queries issued.
    pub lookups: u64,
    /// Answers that matched a served prefix.
    pub matched: u64,
    /// Queries that never got an answer (must be 0 on a healthy stack).
    pub dropped: u64,
    /// FNV-1a digest of this segment's answers, in query order.
    pub answer_digest: u64,
}

/// A whole trace's replay result.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// `"engine"`, `"tcp"`, or `"http"`.
    pub mode: &'static str,
    /// Replay wall clock, summed over segments (hot-patch hooks at
    /// segment boundaries are excluded — waiting for a generation bump
    /// is not throughput).
    pub wall_secs: f64,
    /// Total queries issued.
    pub lookups: u64,
    /// Total matches.
    pub matched: u64,
    /// Total unanswered queries.
    pub dropped: u64,
    /// Digest over all segments' answers, in trace order.
    pub answer_digest: u64,
    /// Engine-mode cache accounting (all zero for network modes; the
    /// daemon's own `serve.cache.*` counters cover those).
    pub cache_hits: u64,
    /// Engine-mode cache misses.
    pub cache_misses: u64,
    /// Engine-mode uncached (no-prefix-family) lookups.
    pub uncached: u64,
    /// Per-segment outcomes, in trace order.
    pub segments: Vec<SegmentOutcome>,
}

impl ReplayOutcome {
    /// Lookups per second over the replay wall clock.
    pub fn lookups_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.lookups as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Replay directly against [`QueryEngine`], resolving the index for
/// each segment's epoch through `index_for` (a constant function for
/// single-segment presets; an epoch → artifact map for `churn`).
/// Generic over [`cellserve::IndexView`]; in practice the
/// [`cellserve::ArtifactHandle`] a daemon would serve, so the engine
/// leg replays the very representation the TCP/HTTP legs do.
///
/// The engine cannot drop queries, so `dropped` is always 0 here; the
/// field exists so all three modes share one outcome shape.
pub fn replay_engine<V, F>(trace: &Trace, obs: &Observer, mut index_for: F) -> ReplayOutcome
where
    V: cellserve::IndexView + Send + Sync,
    F: FnMut(u64) -> Arc<V>,
{
    let mut segments = Vec::with_capacity(trace.segments.len());
    let mut total = AnswerDigest::new();
    let mut totals = BatchStats::default();
    let mut wall_secs = 0.0;
    for seg in &trace.segments {
        let index = index_for(seg.epoch);
        let engine = QueryEngine::new(&index).with_observer(obs.clone());
        let t0 = Instant::now();
        let (answers, stats) = engine.run(&seg.queries);
        wall_secs += t0.elapsed().as_secs_f64();
        let mut digest = AnswerDigest::new();
        for a in &answers {
            let n = normalize_engine(a);
            digest.push(n);
            total.push(n);
        }
        totals += stats;
        segments.push(SegmentOutcome {
            epoch: seg.epoch,
            lookups: stats.lookups,
            matched: stats.matched,
            dropped: 0,
            answer_digest: digest.value(),
        });
    }
    ReplayOutcome {
        mode: "engine",
        wall_secs,
        lookups: totals.lookups,
        matched: totals.matched,
        dropped: 0,
        answer_digest: total.value(),
        cache_hits: totals.cache_hits,
        cache_misses: totals.cache_misses,
        uncached: totals.uncached,
        segments,
    }
}

/// One closed-loop worker's transport: issue one frame, get normalized
/// answers back.
trait LoopClient {
    fn frame(&mut self, ips: &[IpKey]) -> Result<Vec<Answer>, ReplayError>;

    /// `(retries, reconnects)` this client spent healing its transport;
    /// the driver folds them into the `replay.retries` /
    /// `replay.reconnects` counters.
    fn resilience(&self) -> (u64, u64) {
        (0, 0)
    }
}

struct TcpLoop(FramedClient);

impl LoopClient for TcpLoop {
    fn frame(&mut self, ips: &[IpKey]) -> Result<Vec<Answer>, ReplayError> {
        Ok(self.0.lookup(ips)?.iter().map(normalize_wire).collect())
    }

    fn resilience(&self) -> (u64, u64) {
        (self.0.retries(), self.0.reconnects())
    }
}

/// Replay against a daemon's framed TCP port. `on_segment` runs before
/// each segment's traffic (publish a delta, wait for the generation —
/// whatever the harness needs); its failure aborts the replay.
///
/// Each worker's [`FramedClient`] is lazy and policy-bearing
/// ([`ReplayConfig::policy`]): a daemon restart, a shed connection, or
/// a per-connection request cap mid-replay heals by reconnect + whole-
/// frame retry instead of failing the replay.
///
/// # Errors
/// [`ReplayError`] on connection, protocol, or hook failure.
pub fn replay_framed<H>(
    addr: SocketAddr,
    trace: &Trace,
    cfg: &ReplayConfig,
    obs: &Observer,
    on_segment: H,
) -> Result<ReplayOutcome, ReplayError>
where
    H: FnMut(u64) -> Result<(), ReplayError>,
{
    let policy = cfg.policy;
    run_closed_loop(trace, cfg, obs, "tcp", on_segment, &move || {
        Ok(TcpLoop(FramedClient::lazy(addr, policy)?))
    })
}

/// Replay against a daemon's HTTP endpoint via bulk `POST /lookup`
/// over one keep-alive connection per worker, with the same
/// reconnect/retry policy as the framed path ([`ReplayConfig::policy`]).
///
/// # Errors
/// [`ReplayError`] on connection, protocol, or hook failure.
pub fn replay_http<H>(
    addr: SocketAddr,
    trace: &Trace,
    cfg: &ReplayConfig,
    obs: &Observer,
    on_segment: H,
) -> Result<ReplayOutcome, ReplayError>
where
    H: FnMut(u64) -> Result<(), ReplayError>,
{
    let policy = cfg.policy;
    run_closed_loop(trace, cfg, obs, "http", on_segment, &move || {
        Ok(HttpLoop::new(addr, policy))
    })
}

/// The shared closed-loop driver: split each segment across `clients`
/// contiguous slices, one worker thread per slice, one frame in flight
/// per worker; reassemble answers in query order so the digest is
/// independent of client count and frame size.
fn run_closed_loop<C, H>(
    trace: &Trace,
    cfg: &ReplayConfig,
    obs: &Observer,
    mode: &'static str,
    mut on_segment: H,
    connect: &(dyn Fn() -> Result<C, ReplayError> + Sync),
) -> Result<ReplayOutcome, ReplayError>
where
    C: LoopClient,
    H: FnMut(u64) -> Result<(), ReplayError>,
{
    let clients = cfg.clients.max(1);
    let frame = cfg.frame.max(1);
    let mut outcome = ReplayOutcome {
        mode,
        wall_secs: 0.0,
        lookups: 0,
        matched: 0,
        dropped: 0,
        answer_digest: 0,
        cache_hits: 0,
        cache_misses: 0,
        uncached: 0,
        segments: Vec::new(),
    };
    let mut total = AnswerDigest::new();
    for seg in &trace.segments {
        on_segment(seg.epoch)?;
        let per = seg.queries.len().div_ceil(clients).max(1);
        let slices: Vec<&[IpKey]> = seg.queries.chunks(per).collect();
        let t0 = Instant::now();
        let results: Vec<Result<Vec<Answer>, ReplayError>> = std::thread::scope(|s| {
            let handles: Vec<_> = slices
                .iter()
                .map(|slice| {
                    s.spawn(move || {
                        let mut client = connect()?;
                        let run = (|| {
                            let mut answers = Vec::with_capacity(slice.len());
                            for ips in slice.chunks(frame) {
                                let sent = Instant::now();
                                answers.extend(client.frame(ips)?);
                                obs.histogram("replay.frame.ns")
                                    .record(sent.elapsed().as_nanos() as u64);
                            }
                            Ok(answers)
                        })();
                        // Resilience accounting survives even a failed
                        // slice: the counters say how hard the client
                        // worked before giving up.
                        let (retries, reconnects) = client.resilience();
                        if retries > 0 {
                            obs.counter("replay.retries").add(retries);
                        }
                        if reconnects > 0 {
                            obs.counter("replay.reconnects").add(reconnects);
                        }
                        run
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(ReplayError::Protocol("replay worker panicked".into()))
                    })
                })
                .collect()
        });
        outcome.wall_secs += t0.elapsed().as_secs_f64();
        let mut digest = AnswerDigest::new();
        let mut seg_out = SegmentOutcome {
            epoch: seg.epoch,
            lookups: seg.queries.len() as u64,
            matched: 0,
            dropped: 0,
            answer_digest: 0,
        };
        for (slice, result) in slices.iter().zip(results) {
            let answers = result?;
            seg_out.dropped += (slice.len().saturating_sub(answers.len())) as u64;
            for a in answers {
                if a.is_some() {
                    seg_out.matched += 1;
                }
                digest.push(a);
                total.push(a);
            }
        }
        seg_out.answer_digest = digest.value();
        outcome.lookups += seg_out.lookups;
        outcome.matched += seg_out.matched;
        outcome.dropped += seg_out.dropped;
        outcome.segments.push(seg_out);
    }
    outcome.answer_digest = total.value();
    Ok(outcome)
}

fn protocol(why: impl Into<String>) -> ReplayError {
    ReplayError::Protocol(why.into())
}

/// One parsed HTTP response: status code, whether the server asked to
/// close the connection, and the body.
struct HttpResponse {
    status: u16,
    close: bool,
    body: String,
}

/// Closed-loop HTTP worker: one keep-alive connection carrying bulk
/// `POST /lookup` requests back-to-back, with the same
/// reconnect-with-backoff + whole-frame retry semantics as
/// [`FramedClient`]. Transport failures and 503 sheds are retryable
/// (the daemon may be mid-restart or draining a connection at its
/// request cap); any other non-200 is a fatal protocol error.
struct HttpLoop {
    addr: SocketAddr,
    policy: ClientPolicy,
    conn: Option<BufReader<TcpStream>>,
    connected_once: bool,
    retries: u64,
    reconnects: u64,
}

impl HttpLoop {
    fn new(addr: SocketAddr, policy: ClientPolicy) -> HttpLoop {
        HttpLoop {
            addr,
            policy,
            conn: None,
            connected_once: false,
            retries: 0,
            reconnects: 0,
        }
    }

    fn ensure_connected(&mut self) -> std::io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = if self.policy.connect_timeout.is_zero() {
            TcpStream::connect(self.addr)?
        } else {
            TcpStream::connect_timeout(&self.addr, self.policy.connect_timeout)?
        };
        stream.set_nodelay(true)?;
        if !self.policy.io_timeout.is_zero() {
            stream.set_read_timeout(Some(self.policy.io_timeout))?;
            stream.set_write_timeout(Some(self.policy.io_timeout))?;
        }
        if self.connected_once {
            self.reconnects += 1;
        }
        self.connected_once = true;
        self.conn = Some(BufReader::new(stream));
        Ok(())
    }

    /// One request/response over the current (or a fresh) connection.
    fn try_frame(&mut self, body: &str, expected: usize) -> Result<Vec<Answer>, FrameTry> {
        self.ensure_connected().map_err(FrameTry::Transport)?;
        let conn = self.conn.as_mut().expect("connected above");
        write!(
            conn.get_mut(),
            "POST /lookup HTTP/1.1\r\nHost: replay\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .map_err(FrameTry::Transport)?;
        let response = read_http_response(conn).map_err(FrameTry::Transport)?;
        if response.close {
            // The server said this was the connection's last response
            // (request cap, drain): honor it before the next frame.
            self.conn = None;
        }
        match response.status {
            200 => {
                let answers = parse_csv_answers(&response.body).map_err(FrameTry::Fatal)?;
                if answers.len() != expected {
                    return Err(FrameTry::Fatal(protocol(format!(
                        "{} answers for {expected} queries",
                        answers.len()
                    ))));
                }
                Ok(answers)
            }
            // Shed or draining — the retryable server-side conditions.
            503 => Err(FrameTry::Unavailable),
            other => Err(FrameTry::Fatal(protocol(format!("HTTP status {other}")))),
        }
    }
}

/// One attempt's failure, split by what a retry could fix.
enum FrameTry {
    /// Socket-level failure: reconnect and retry.
    Transport(std::io::Error),
    /// The daemon answered 503: back off and retry.
    Unavailable,
    /// Malformed response: retrying will not help.
    Fatal(ReplayError),
}

impl LoopClient for HttpLoop {
    fn frame(&mut self, ips: &[IpKey]) -> Result<Vec<Answer>, ReplayError> {
        let mut body = String::with_capacity(ips.len() * 16);
        for ip in ips {
            body.push_str(&ip.to_string());
            body.push('\n');
        }
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let last = match self.try_frame(&body, ips.len()) {
                Ok(answers) => return Ok(answers),
                Err(FrameTry::Fatal(e)) => return Err(e),
                Err(FrameTry::Transport(e)) => ServedError::Io(e),
                Err(FrameTry::Unavailable) => ServedError::Overloaded,
            };
            self.conn = None;
            if attempts >= max_attempts {
                return Err(ReplayError::Served(ServedError::GaveUp {
                    attempts,
                    last: Box::new(last),
                }));
            }
            self.retries += 1;
            std::thread::sleep(self.policy.backoff(attempts));
        }
    }

    fn resilience(&self) -> (u64, u64) {
        (self.retries, self.reconnects)
    }
}

/// Read one HTTP/1.1 response (status line, headers, `Content-Length`
/// body) off a keep-alive connection, leaving the reader positioned at
/// the next response.
fn read_http_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<HttpResponse> {
    let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string());
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before the response status line",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable HTTP status line"))?;
    let mut content_length: Option<usize> = None;
    let mut close = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside response headers",
            ));
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        let lower = header.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = Some(
                v.trim()
                    .parse()
                    .map_err(|_| bad("unparseable Content-Length"))?,
            );
        } else if let Some(v) = lower.strip_prefix("connection:") {
            close = v.trim() == "close";
        }
    }
    let len = content_length.ok_or_else(|| bad("response without Content-Length"))?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(HttpResponse {
        status,
        close,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Parse a bulk-lookup CSV body back into normalized tuples.
fn parse_csv_answers(payload: &str) -> Result<Vec<Answer>, ReplayError> {
    let mut answers = Vec::new();
    for line in payload.lines().skip(1) {
        // Rows are `ip,prefix,asn,class`, misses `ip,-,-,-`.
        let mut fields = line.splitn(4, ',');
        let _ip = fields.next();
        let prefix = fields.next().ok_or_else(|| protocol("short CSV row"))?;
        let asn = fields.next().ok_or_else(|| protocol("short CSV row"))?;
        let class = fields.next().ok_or_else(|| protocol("short CSV row"))?;
        if prefix == "-" {
            answers.push(None);
            continue;
        }
        let len: u8 = prefix
            .rsplit('/')
            .next()
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| protocol(format!("bad prefix field {prefix:?}")))?;
        let asn: u32 = asn
            .parse()
            .map_err(|_| protocol(format!("bad asn field {asn:?}")))?;
        let class = match class {
            "unknown" => 0,
            "dedicated" => 1,
            "mixed" => 2,
            other => return Err(protocol(format!("bad class field {other:?}"))),
        };
        answers.push(Some((len, asn, class)));
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_content_hash_of_concatenated_stream() {
        let answers: Vec<Answer> = vec![None, Some((24, 65000, 1)), Some((48, 7, 2)), None];
        let mut digest = AnswerDigest::new();
        let mut bytes = Vec::new();
        for a in &answers {
            digest.push(*a);
            match a {
                None => bytes.push(0),
                Some((len, asn, class)) => {
                    bytes.push(1);
                    bytes.push(*len);
                    bytes.extend_from_slice(&asn.to_le_bytes());
                    bytes.push(*class);
                }
            }
        }
        assert_eq!(digest.value(), cellserve::content_hash(&bytes));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = AnswerDigest::new();
        a.push(None);
        a.push(Some((24, 1, 1)));
        let mut b = AnswerDigest::new();
        b.push(Some((24, 1, 1)));
        b.push(None);
        assert_ne!(a.value(), b.value());
    }
}
