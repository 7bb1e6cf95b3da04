//! Dependency-light HTTP/1.1 endpoint with keep-alive.
//!
//! The handler loops the request parser over one connection: HTTP/1.1
//! peers get keep-alive by default (`Connection: close` opts out),
//! HTTP/1.0 peers get one-request-per-connection unless they send
//! `Connection: keep-alive`. Reuse is bounded three ways so no client
//! can pin a handler thread forever: the per-socket
//! [`io_timeout`](crate::ServeConfig::io_timeout) doubles as the idle
//! cap between requests, [`max_requests_per_conn`]
//! (crate::ServeConfig::max_requests_per_conn) caps how many requests
//! one connection may carry, and every read is bounded ([`MAX_LINE`]
//! per line, [`MAX_HEADER_BYTES`] per header block, [`MAX_BODY`] per
//! body — breaches answer 431/400/413 and close). Endpoints:
//!
//! - `GET /lookup?ip=ADDR` — one address, JSON answer.
//! - `POST /lookup` — newline-separated addresses in the body, CSV
//!   answer in the CLI's `ip,prefix,asn,class` format (`-` for misses).
//! - `GET /metrics` — Prometheus text, with `*.p50/.p99/.p999` latency
//!   gauges refreshed from the live histograms.
//! - `GET /healthz`, `GET /generation` — JSON daemon status, including
//!   the serving generation's artifact content hash and delta epoch
//!   (for correlating with `cellspot index build` / `delta build`
//!   output).
//!
//! Every response is counted exactly once, so the per-endpoint counters
//! (`served.http.{lookup,lookup_batch,metrics,healthz,generation,
//! not_found,bad_request,timeouts}`) sum to
//! `served.http.requests` (absent socket errors that abort a response
//! mid-write).
//!
//! Query strings are matched literally (no percent-decoding): IPv4
//! dotted quads and IPv6 colon-hex are URL-safe as-is.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use cellserve::{IndexView, IpKey};

use crate::daemon::Ctx;
use crate::error::ServedError;

/// Largest accepted `POST /lookup` body.
const MAX_BODY: usize = 1 << 26;
/// Largest accepted request or header line (bytes, newline included).
const MAX_LINE: usize = 8 * 1024;
/// Largest accepted header block (sum of header-line bytes).
const MAX_HEADER_BYTES: usize = 32 * 1024;

pub(crate) fn handle(stream: TcpStream, ctx: &Ctx) {
    ctx.obs.counter("served.http.connections").inc();
    if handle_conn(stream, ctx).is_err() {
        ctx.obs.counter("served.http.errors").inc();
    }
}

/// The keep-alive loop: read one request, serve it, repeat until the
/// peer closes, opts out, stalls, or hits the per-connection cap.
fn handle_conn(stream: TcpStream, ctx: &Ctx) -> Result<(), ServedError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut w = BufWriter::new(stream);
    let mut served = 0usize;
    loop {
        let mut line = Vec::new();
        match read_line_bounded(&mut reader, &mut line, MAX_LINE) {
            // Clean close at a request boundary (peer hung up, or
            // shutdown half-closed the socket).
            Ok(LineEnd::Eof) if line.is_empty() => return Ok(()),
            // EOF mid-line: the peer died mid-request; nothing to
            // answer, nothing counted.
            Ok(LineEnd::Eof) => return Ok(()),
            Ok(LineEnd::TooLong) => {
                reply(
                    ctx,
                    &mut w,
                    "served.http.bad_request",
                    431,
                    "Request Header Fields Too Large",
                    TEXT,
                    "request line too long\n",
                    true,
                )?;
                return Ok(());
            }
            Ok(LineEnd::Complete) => {}
            Err(e) if is_timeout(&e) => {
                if served > 0 && line.is_empty() {
                    // An idle keep-alive connection past the timeout:
                    // a normal close, not a misbehaving peer.
                    ctx.obs.counter("served.http.idle_closed").inc();
                    return Ok(());
                }
                shed_stalled(ctx, &mut w);
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        }
        if served > 0 {
            ctx.obs.counter("served.http.keepalive.reuses").inc();
        }
        let force_close = ctx.max_requests_per_conn > 0 && served + 1 >= ctx.max_requests_per_conn;
        let close = serve_one(&mut reader, &mut w, ctx, &line, force_close)?;
        served += 1;
        if close {
            return Ok(());
        }
    }
}

/// Serve one parsed-or-parseable request; returns whether the
/// connection must close afterwards. Every exit path writes exactly one
/// response through [`reply`] (so the counters stay summable) except
/// aborts where the peer is already gone.
fn serve_one(
    reader: &mut BufReader<TcpStream>,
    w: &mut BufWriter<TcpStream>,
    ctx: &Ctx,
    request_line: &[u8],
    force_close: bool,
) -> Result<bool, ServedError> {
    let t0 = Instant::now();
    let line = String::from_utf8_lossy(request_line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    // HTTP/1.0 defaults to close; everything else to keep-alive.
    let default_close = version.eq_ignore_ascii_case("HTTP/1.0");

    let mut content_length = 0usize;
    let mut bad_content_length = false;
    let mut explicit_close: Option<bool> = None;
    let mut header_bytes = 0usize;
    loop {
        let mut header = Vec::new();
        match read_line_bounded(reader, &mut header, MAX_LINE) {
            Ok(LineEnd::Complete) => {}
            Ok(LineEnd::Eof) => {
                // Headers truncated by a dead peer; best-effort answer.
                reply(
                    ctx,
                    w,
                    "served.http.bad_request",
                    400,
                    "Bad Request",
                    TEXT,
                    "truncated request\n",
                    true,
                )?;
                return Ok(true);
            }
            Ok(LineEnd::TooLong) => {
                reply(
                    ctx,
                    w,
                    "served.http.bad_request",
                    431,
                    "Request Header Fields Too Large",
                    TEXT,
                    "header line too long\n",
                    true,
                )?;
                return Ok(true);
            }
            Err(e) if is_timeout(&e) => {
                shed_stalled(ctx, w);
                return Ok(true);
            }
            Err(e) => return Err(e.into()),
        }
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            reply(
                ctx,
                w,
                "served.http.bad_request",
                431,
                "Request Header Fields Too Large",
                TEXT,
                "header block too large\n",
                true,
            )?;
            return Ok(true);
        }
        let header = String::from_utf8_lossy(&header);
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        let lower = header.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            match v.trim().parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => bad_content_length = true,
            }
        } else if let Some(v) = lower.strip_prefix("connection:") {
            match v.trim() {
                "close" => explicit_close = Some(true),
                "keep-alive" => explicit_close = Some(false),
                _ => {}
            }
        }
    }

    // A Content-Length the daemon cannot parse means it cannot frame
    // the body — reject loudly instead of silently treating it as 0
    // and misreading the body bytes as the next request.
    if bad_content_length {
        reply(
            ctx,
            w,
            "served.http.bad_request",
            400,
            "Bad Request",
            TEXT,
            "malformed Content-Length header\n",
            true,
        )?;
        return Ok(true);
    }

    let close = force_close || explicit_close.unwrap_or(default_close);
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };

    match (method.as_str(), path) {
        ("POST", "/lookup") => {
            if content_length > MAX_BODY {
                reply(
                    ctx,
                    w,
                    "served.http.bad_request",
                    413,
                    "Payload Too Large",
                    TEXT,
                    "body too large\n",
                    true,
                )?;
                return Ok(true);
            }
            let body = match read_body(reader, content_length) {
                Ok(body) => body,
                Err(e) if is_timeout(&e) => {
                    shed_stalled(ctx, w);
                    return Ok(true);
                }
                // Peer died mid-body: nothing to answer.
                Err(_) => return Ok(true),
            };
            let text = String::from_utf8_lossy(&body);
            let mut ips = Vec::new();
            let mut bad = None;
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match IpKey::parse(line) {
                    Ok(ip) => ips.push(ip),
                    Err(e) => {
                        bad = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = bad {
                reply(
                    ctx,
                    w,
                    "served.http.bad_request",
                    400,
                    "Bad Request",
                    TEXT,
                    &format!("{e}\n"),
                    close,
                )?;
                record_latency(ctx, t0);
                return Ok(close);
            }
            let (answers, _) = ctx.answer(&ips);
            let mut csv = String::from("ip,prefix,asn,class\n");
            for (ip, res) in ips.iter().zip(&answers) {
                match res {
                    Some(m) => {
                        csv.push_str(&format!(
                            "{ip},{},{},{}\n",
                            m.prefix,
                            m.label.asn.value(),
                            m.label.class
                        ));
                    }
                    None => csv.push_str(&format!("{ip},-,-,-\n")),
                }
            }
            reply(
                ctx,
                w,
                "served.http.lookup_batch",
                200,
                "OK",
                CSV,
                &csv,
                close,
            )?;
        }
        _ => {
            // Every other request carries no meaningful body; drain a
            // (bounded) stray one so its bytes are not misparsed as the
            // next request on this connection.
            if content_length > 0 {
                if content_length > MAX_BODY {
                    reply(
                        ctx,
                        w,
                        "served.http.bad_request",
                        413,
                        "Payload Too Large",
                        TEXT,
                        "body too large\n",
                        true,
                    )?;
                    return Ok(true);
                }
                match drain_body(reader, content_length) {
                    Ok(()) => {}
                    Err(e) if is_timeout(&e) => {
                        shed_stalled(ctx, w);
                        return Ok(true);
                    }
                    Err(_) => return Ok(true),
                }
            }
            match (method.as_str(), path) {
                ("GET", "/lookup") => {
                    let raw =
                        query.and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("ip=")));
                    let Some(raw) = raw else {
                        reply(
                            ctx,
                            w,
                            "served.http.bad_request",
                            400,
                            "Bad Request",
                            TEXT,
                            "missing ip= query parameter\n",
                            close,
                        )?;
                        record_latency(ctx, t0);
                        return Ok(close);
                    };
                    match IpKey::parse(raw) {
                        Err(e) => {
                            reply(
                                ctx,
                                w,
                                "served.http.bad_request",
                                400,
                                "Bad Request",
                                TEXT,
                                &format!("{e}\n"),
                                close,
                            )?;
                        }
                        Ok(ip) => {
                            // The generation printed is the one that
                            // answered, not whatever is current by now.
                            let (answers, answered_by) = ctx.answer(&[ip]);
                            let generation = answered_by.number;
                            let body = match &answers[0] {
                                Some(m) => format!(
                                    "{{\"ip\":\"{ip}\",\"matched\":true,\"prefix\":\"{}\",\"asn\":{},\"class\":\"{}\",\"generation\":{generation}}}\n",
                                    m.prefix,
                                    m.label.asn.value(),
                                    m.label.class,
                                ),
                                None => format!(
                                    "{{\"ip\":\"{ip}\",\"matched\":false,\"generation\":{generation}}}\n"
                                ),
                            };
                            reply(ctx, w, "served.http.lookup", 200, "OK", JSON, &body, close)?;
                        }
                    }
                }
                ("GET", "/metrics") => {
                    crate::refresh_latency_gauges(&ctx.obs);
                    let body = cellobs::ExportFormat::Prometheus.render(&ctx.obs.snapshot());
                    reply(
                        ctx,
                        w,
                        "served.http.metrics",
                        200,
                        "OK",
                        "text/plain; version=0.0.4",
                        &body,
                        close,
                    )?;
                }
                ("GET", "/healthz") => {
                    let current = ctx.store.current();
                    let rejected = ctx.obs.counter("served.conns.rejected").get();
                    let body = format!(
                        "{{\"status\":\"ok\",\"generation\":{},\"prefixes\":{},\"labels\":{},\"artifact_hash\":\"{}\",\"epoch\":{},\"conns\":{{\"active\":{},\"max\":{},\"rejected\":{}}}}}\n",
                        current.number,
                        current.index.len(),
                        current.index.label_count(),
                        cellserve::hash_hex(current.artifact_hash),
                        current.epoch,
                        ctx.conns.active(),
                        ctx.conns.max(),
                        rejected,
                    );
                    reply(ctx, w, "served.http.healthz", 200, "OK", JSON, &body, close)?;
                }
                ("GET", "/generation") => {
                    let current = ctx.store.current();
                    let body = format!(
                        "{{\"generation\":{},\"artifact_hash\":\"{}\",\"epoch\":{}}}\n",
                        current.number,
                        cellserve::hash_hex(current.artifact_hash),
                        current.epoch,
                    );
                    reply(
                        ctx,
                        w,
                        "served.http.generation",
                        200,
                        "OK",
                        JSON,
                        &body,
                        close,
                    )?;
                }
                _ => {
                    reply(
                        ctx,
                        w,
                        "served.http.not_found",
                        404,
                        "Not Found",
                        TEXT,
                        "unknown endpoint\n",
                        close,
                    )?;
                }
            }
        }
    }
    record_latency(ctx, t0);
    Ok(close)
}

fn record_latency(ctx: &Ctx, t0: Instant) {
    ctx.obs
        .histogram("served.http.request.ns")
        .record(t0.elapsed().as_nanos() as u64);
}

/// A peer stalled a read mid-request past the socket timeout: shed it
/// (best-effort 503, always `Connection: close`) and count the
/// rejection where the admission-control rejections land too.
fn shed_stalled(ctx: &Ctx, w: &mut BufWriter<TcpStream>) {
    ctx.obs.counter("served.conns.rejected").inc();
    let _ = reply(
        ctx,
        w,
        "served.http.timeouts",
        503,
        "Service Unavailable",
        TEXT,
        "request timed out; connection shed\n",
        true,
    );
}

enum LineEnd {
    /// A full line (newline included, unless EOF-terminated) is in the
    /// buffer.
    Complete,
    /// The stream ended; the buffer holds whatever partial line arrived.
    Eof,
    /// The line exceeded the cap; the oversized prefix was discarded.
    TooLong,
}

/// `read_line` with a byte cap: a newline-free stream can grow the
/// buffer to at most `max` bytes instead of without limit. Partial
/// bytes stay in `line` on error, so callers can distinguish an idle
/// timeout (nothing read) from a mid-line stall.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineEnd> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if line.is_empty() {
                LineEnd::Eof
            } else {
                LineEnd::Complete
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let take = i + 1;
                if line.len() + take > max {
                    reader.consume(take);
                    return Ok(LineEnd::TooLong);
                }
                line.extend_from_slice(&available[..take]);
                reader.consume(take);
                return Ok(LineEnd::Complete);
            }
            None => {
                let n = available.len();
                if line.len() + n > max {
                    reader.consume(n);
                    return Ok(LineEnd::TooLong);
                }
                line.extend_from_slice(&available[..n]);
                reader.consume(n);
            }
        }
    }
}

/// Read exactly `len` body bytes in bounded chunks — no pre-allocation
/// of the full declared length, so a huge `Content-Length` with no
/// bytes behind it cannot balloon memory.
fn read_body(reader: &mut BufReader<TcpStream>, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(len.min(64 * 1024));
    let mut chunk = [0u8; 16 * 1024];
    let mut remaining = len;
    while remaining > 0 {
        let want = remaining.min(chunk.len());
        let n = reader.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "body truncated",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    Ok(body)
}

/// Discard exactly `len` body bytes (an endpoint that takes no body
/// must still consume one so keep-alive framing stays aligned).
fn drain_body(reader: &mut BufReader<TcpStream>, len: usize) -> std::io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    let mut remaining = len;
    while remaining > 0 {
        let want = remaining.min(chunk.len());
        let n = reader.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "body truncated",
            ));
        }
        remaining -= n;
    }
    Ok(())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

const TEXT: &str = "text/plain";
const JSON: &str = "application/json";
const CSV: &str = "text/csv";

/// Write one response and count it: `served.http.requests` plus exactly
/// one endpoint/error counter, so the counters stay summable.
#[allow(clippy::too_many_arguments)]
fn reply(
    ctx: &Ctx,
    w: &mut impl Write,
    counter: &str,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    ctx.obs.counter("served.http.requests").inc();
    ctx.obs.counter(counter).inc();
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )?;
    w.write_all(body.as_bytes())?;
    w.flush()
}
