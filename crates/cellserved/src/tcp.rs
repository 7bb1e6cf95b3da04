//! Framed TCP connection handler: decode a query frame, answer it on
//! this thread ([`Ctx::answer`]), encode the answer frame. See
//! [`crate::proto`] for the wire format.
//!
//! The framed protocol always pipelined many requests per connection;
//! this handler gives it the same hardening semantics as the HTTP
//! keep-alive loop: the per-socket
//! [`io_timeout`](crate::ServeConfig::io_timeout) bounds both the idle
//! gap between frames (a quiet close, `served.tcp.idle_closed`) and a
//! stall mid-frame (shed, `served.conns.rejected`), and
//! [`max_requests_per_conn`](crate::ServeConfig::max_requests_per_conn)
//! closes the connection after that many frames — the resilient
//! [`FramedClient`](crate::FramedClient) reconnects transparently.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::Instant;

use crate::daemon::Ctx;
use crate::error::ServedError;
use crate::proto::{decode_queries, encode_answers, read_frame, write_frame};

pub(crate) fn handle(stream: TcpStream, ctx: &Ctx) {
    ctx.obs.counter("served.tcp.connections").inc();
    if serve_frames(stream, ctx).is_err() {
        ctx.obs.counter("served.tcp.errors").inc();
    }
}

fn serve_frames(stream: TcpStream, ctx: &Ctx) -> Result<(), ServedError> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut served = 0usize;
    loop {
        // Wait for the next frame without consuming anything, so a
        // timeout here is unambiguous: no bytes of a frame have
        // arrived. That separates "idle between frames" (a normal
        // close) from "stalled inside a frame" (a shed peer, below).
        match reader.fill_buf() {
            // Clean close at a frame boundary: the client is done (or
            // shutdown half-closed the socket).
            Ok([]) => return Ok(()),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if served > 0 {
                    ctx.obs.counter("served.tcp.idle_closed").inc();
                } else {
                    // Connected and never sent a frame: a slowloris
                    // peer, shed like an admission rejection.
                    ctx.obs.counter("served.tcp.timeouts").inc();
                    ctx.obs.counter("served.conns.rejected").inc();
                }
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        }
        let payload = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            Err(e) if is_timeout(&e) => {
                ctx.obs.counter("served.tcp.timeouts").inc();
                ctx.obs.counter("served.conns.rejected").inc();
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        if served > 0 {
            ctx.obs.counter("served.tcp.keepalive.reuses").inc();
        }
        let t0 = Instant::now();
        let ips = decode_queries(&payload)?;
        ctx.obs.counter("served.tcp.requests").inc();
        ctx.obs.counter("served.tcp.queries").add(ips.len() as u64);
        let (answers, _) = ctx.answer(&ips);
        write_frame(&mut writer, &encode_answers(&answers))?;
        ctx.obs
            .histogram("served.tcp.request.ns")
            .record(t0.elapsed().as_nanos() as u64);
        served += 1;
        if ctx.max_requests_per_conn > 0 && served >= ctx.max_requests_per_conn {
            // Per-connection cap, symmetric with HTTP keep-alive: the
            // close lands at a frame boundary, which a resilient client
            // treats as "reconnect and continue".
            return Ok(());
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}
