//! The compact length-prefixed TCP lookup protocol.
//!
//! Every frame, in both directions, is a `u32` little-endian payload
//! length followed by exactly that many payload bytes. A connection
//! carries any number of request/response frame pairs, strictly in
//! order, until the client closes it.
//!
//! Request payload:
//!
//! ```text
//! count    u32 LE
//! queries  count × { family: u8 (4 | 6), addr: 4 or 16 bytes, big-endian }
//! ```
//!
//! Response payload:
//!
//! ```text
//! count    u32 LE — always equal to the request count
//! answers  count × { status: u8 (0 = miss, 1 = hit),
//!                    on hit: prefix_len u8, asn u32 LE, class u8 }
//! ```
//!
//! The class byte uses the sealed artifact's encoding (0 = unknown,
//! 1 = dedicated, 2 = mixed), so a wire answer round-trips to the same
//! label the artifact stores. Frames above [`MAX_FRAME`] bytes are
//! rejected before allocation on both sides, and so is a request of
//! more than [`MAX_QUERIES_PER_FRAME`] queries — one whose all-hit
//! answer would not fit a frame.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use cellserve::{AsClass, IpKey, LookupMatch, MatchedPrefix};

use crate::error::ServedError;

/// Hard cap on a frame payload, both directions (16 MiB — far above any
/// sane batch, small enough to reject garbage length prefixes cheaply).
pub const MAX_FRAME: usize = 1 << 24;

/// Most queries one request frame may carry: as many as can all hit
/// (7 bytes each, after the 4 count bytes) and still be answered inside
/// [`MAX_FRAME`]. A v4 query is only 5 bytes on the wire, so without
/// this a legal request could ask for an answer no frame can hold.
pub const MAX_QUERIES_PER_FRAME: usize = (MAX_FRAME - 4) / 7;
const _: () = assert!(4 + MAX_QUERIES_PER_FRAME * 7 <= MAX_FRAME);

/// The error both ends give a request of more than
/// [`MAX_QUERIES_PER_FRAME`] queries. Never retryable.
fn too_many_queries(count: usize) -> ServedError {
    ServedError::Protocol(format!(
        "{count} queries in one frame exceed the {MAX_QUERIES_PER_FRAME}-query cap \
         (an all-hit answer would not fit a {MAX_FRAME}-byte frame)"
    ))
}

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary; EOF mid-frame is an error.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame payload of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Write one length-prefixed frame and flush it.
pub(crate) fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Encode a request payload for `ips`.
pub(crate) fn encode_queries(ips: &[IpKey]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + ips.len() * 17);
    out.extend_from_slice(&(ips.len() as u32).to_le_bytes());
    for ip in ips {
        match *ip {
            IpKey::V4(a) => {
                out.push(4);
                out.extend_from_slice(&a.to_be_bytes());
            }
            IpKey::V6(a) => {
                out.push(6);
                out.extend_from_slice(&a.to_be_bytes());
            }
        }
    }
    out
}

/// Decode a request payload. Rejects a count above
/// [`MAX_QUERIES_PER_FRAME`] (before allocating for it), unknown
/// families, truncated addresses, and trailing bytes.
pub(crate) fn decode_queries(payload: &[u8]) -> Result<Vec<IpKey>, ServedError> {
    let mut pos = 0usize;
    let count = take(payload, &mut pos, 4, "query count")?;
    let count = u32::from_le_bytes(count.try_into().expect("4 bytes")) as usize;
    if count > MAX_QUERIES_PER_FRAME {
        return Err(too_many_queries(count));
    }
    // A query is at least 5 bytes, so the payload bounds the allocation.
    let mut ips = Vec::with_capacity(count.min(payload.len() / 5));
    for i in 0..count {
        let family = take(payload, &mut pos, 1, "address family")?[0];
        match family {
            4 => {
                let raw = take(payload, &mut pos, 4, "IPv4 address")?;
                ips.push(IpKey::V4(u32::from_be_bytes(
                    raw.try_into().expect("4 bytes"),
                )));
            }
            6 => {
                let raw = take(payload, &mut pos, 16, "IPv6 address")?;
                ips.push(IpKey::V6(u128::from_be_bytes(
                    raw.try_into().expect("16 bytes"),
                )));
            }
            other => {
                return Err(ServedError::Protocol(format!(
                    "query {i}: unknown address family {other} (expected 4 or 6)"
                )))
            }
        }
    }
    if pos != payload.len() {
        return Err(ServedError::Protocol(format!(
            "{} trailing bytes after {count} queries",
            payload.len() - pos
        )));
    }
    Ok(ips)
}

/// Encode a response payload for the answers of one batch.
pub(crate) fn encode_answers(results: &[Option<LookupMatch>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + results.len() * 8);
    out.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for r in results {
        match r {
            None => out.push(0),
            Some(m) => {
                out.push(1);
                let len = match m.prefix {
                    MatchedPrefix::V4(net) => net.len(),
                    MatchedPrefix::V6(net) => net.len(),
                };
                out.push(len);
                out.extend_from_slice(&m.label.asn.value().to_le_bytes());
                out.push(class_byte(m.label.class));
            }
        }
    }
    out
}

/// Decode a response payload into per-query answers.
pub(crate) fn decode_answers(payload: &[u8]) -> Result<Vec<Option<WireAnswer>>, ServedError> {
    let mut pos = 0usize;
    let count = take(payload, &mut pos, 4, "answer count")?;
    let count = u32::from_le_bytes(count.try_into().expect("4 bytes")) as usize;
    let mut answers = Vec::with_capacity(count.min(MAX_FRAME / 2));
    for i in 0..count {
        let status = take(payload, &mut pos, 1, "answer status")?[0];
        match status {
            0 => answers.push(None),
            1 => {
                let body = take(payload, &mut pos, 6, "hit body")?;
                let class = match body[5] {
                    0 => AsClass::Unknown,
                    1 => AsClass::Dedicated,
                    2 => AsClass::Mixed,
                    other => {
                        return Err(ServedError::Protocol(format!(
                            "answer {i}: unknown class byte {other}"
                        )))
                    }
                };
                answers.push(Some(WireAnswer {
                    prefix_len: body[0],
                    asn: u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")),
                    class,
                }));
            }
            other => {
                return Err(ServedError::Protocol(format!(
                    "answer {i}: unknown status byte {other}"
                )))
            }
        }
    }
    if pos != payload.len() {
        return Err(ServedError::Protocol(format!(
            "{} trailing bytes after {count} answers",
            payload.len() - pos
        )));
    }
    Ok(answers)
}

fn take<'a>(
    payload: &'a [u8],
    pos: &mut usize,
    n: usize,
    what: &str,
) -> Result<&'a [u8], ServedError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= payload.len())
        .ok_or_else(|| ServedError::Protocol(format!("truncated {what}")))?;
    let raw = &payload[*pos..end];
    *pos = end;
    Ok(raw)
}

fn class_byte(class: AsClass) -> u8 {
    // Same encoding as the sealed artifact's label table.
    match class {
        AsClass::Unknown => 0,
        AsClass::Dedicated => 1,
        AsClass::Mixed => 2,
    }
}

/// One hit as seen on the wire: enough to identify the matched prefix
/// length and its AS label without shipping the whole prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireAnswer {
    /// Length of the matched prefix.
    pub prefix_len: u8,
    /// Origin AS of the matched prefix.
    pub asn: u32,
    /// Mixed/dedicated verdict for that AS.
    pub class: AsClass,
}

/// Retry/timeout policy for a [`FramedClient`].
///
/// The client treats transport failures — connect refused, socket
/// timeout, the server closing the connection (restart, per-connection
/// request cap, shed) — as retryable: it reconnects and re-sends the
/// *whole* lookup batch. A connection that has already answered and
/// then fails is most likely one the server closed on purpose (its
/// request cap, an idle timeout), so the first re-send goes out at
/// once on a fresh connection; exponential backoff starts only when a
/// freshly opened connection fails. Lookups are
/// idempotent reads, so a retried batch returns byte-identical answers
/// and replay digests are unaffected. Protocol violations (undecodable
/// frames, wrong answer counts) are never retried: a server speaking
/// garbage will speak garbage again.
#[derive(Clone, Copy, Debug)]
pub struct ClientPolicy {
    /// Deadline for establishing a connection; `ZERO` blocks
    /// indefinitely (the OS default).
    pub connect_timeout: Duration,
    /// Per-socket read/write deadline once connected; `ZERO` disables.
    pub io_timeout: Duration,
    /// Total lookup attempts (first try included) before
    /// [`ServedError::GaveUp`]. 0 behaves like 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per attempt.
    pub backoff_base: Duration,
    /// Cap on the doubled backoff sleep.
    pub backoff_max: Duration,
}

impl Default for ClientPolicy {
    fn default() -> Self {
        ClientPolicy {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            max_attempts: 4,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

impl ClientPolicy {
    /// The sleep before retry number `attempt` (1-based):
    /// `backoff_base × 2^(attempt-1)`, capped at `backoff_max`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_max)
    }
}

/// Blocking client for the framed TCP protocol, with a reconnect/retry
/// policy (see [`ClientPolicy`]). One instance serializes its requests
/// in call order; under the hood it may span several TCP connections as
/// the server restarts, sheds, or rotates connections.
pub struct FramedClient {
    addr: SocketAddr,
    policy: ClientPolicy,
    stream: Option<TcpStream>,
    /// The current connection has completed at least one exchange;
    /// cleared wherever `stream` is dropped.
    answered: bool,
    connected_once: bool,
    retries: u64,
    reconnects: u64,
}

impl FramedClient {
    /// Connect to a daemon's TCP listener with the default policy.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<FramedClient> {
        Self::connect_with(addr, ClientPolicy::default())
    }

    /// Connect eagerly with an explicit policy: the first connection is
    /// established (or fails) here, so "daemon is down right now" is
    /// reported early instead of burning the retry budget.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        policy: ClientPolicy,
    ) -> std::io::Result<FramedClient> {
        let mut client = Self::lazy(addr, policy)?;
        client.ensure_connected()?;
        Ok(client)
    }

    /// Build a client without connecting; the first
    /// [`lookup`](FramedClient::lookup) connects (with the full retry budget).
    /// Use this when the daemon may not be up yet — a replay driver
    /// started alongside a daemon, a supervisor racing a restart.
    pub fn lazy<A: ToSocketAddrs>(addr: A, policy: ClientPolicy) -> std::io::Result<FramedClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        Ok(FramedClient {
            addr,
            policy,
            stream: None,
            answered: false,
            connected_once: false,
            retries: 0,
            reconnects: 0,
        })
    }

    /// The client's policy.
    pub fn policy(&self) -> ClientPolicy {
        self.policy
    }

    /// Retried lookup attempts so far (each preceded by a backoff
    /// sleep and a fresh connection). The immediate re-send after a
    /// kept-alive connection went stale is not one of them.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Connections established after the first — how often the client
    /// healed a broken transport.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn ensure_connected(&mut self) -> std::io::Result<()> {
        if self.stream.is_some() {
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
        self.stream = Some(stream);
        Ok(())
    }

    /// Look up a batch of addresses; answers come back in query order.
    ///
    /// Transport failures are retried per the policy — reconnect,
    /// re-send the whole batch — so a daemon restart mid-replay heals
    /// transparently. When the budget is exhausted the typed
    /// [`ServedError::GaveUp`] reports the attempt count and the final
    /// failure; protocol violations fail immediately, and a batch of
    /// more than [`MAX_QUERIES_PER_FRAME`] addresses is one before a
    /// byte is sent — split it into several calls.
    pub fn lookup(&mut self, ips: &[IpKey]) -> Result<Vec<Option<WireAnswer>>, ServedError> {
        if ips.len() > MAX_QUERIES_PER_FRAME {
            return Err(too_many_queries(ips.len()));
        }
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            let stale = self.answered;
            let e = match self.try_lookup(ips) {
                Ok(answers) => {
                    self.answered = true;
                    return Ok(answers);
                }
                Err(e) if !retryable(&e) => return Err(e),
                Err(e) => e,
            };
            // Drop the (possibly poisoned) connection and try again
            // from a clean slate.
            self.stream = None;
            self.answered = false;
            if stale {
                // A kept-alive connection the server has since closed:
                // re-send at once, outside the attempt budget (it can
                // happen only once per call — the next failure is on a
                // fresh connection).
                continue;
            }
            attempts += 1;
            if attempts >= max_attempts {
                return Err(ServedError::GaveUp {
                    attempts,
                    last: Box::new(e),
                });
            }
            self.retries += 1;
            std::thread::sleep(self.policy.backoff(attempts));
        }
    }

    /// One attempt over the current (or a fresh) connection.
    fn try_lookup(&mut self, ips: &[IpKey]) -> Result<Vec<Option<WireAnswer>>, ServedError> {
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("connected above");
        write_frame(stream, &encode_queries(ips))?;
        let payload = read_frame(stream)?.ok_or_else(|| {
            // A clean close before the answer: the server shut down,
            // shed, or hit its per-connection cap mid-flight. The
            // transport is gone, not the protocol — retryable.
            ServedError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "server closed the connection before answering",
            ))
        })?;
        let answers = decode_answers(&payload)?;
        if answers.len() != ips.len() {
            return Err(ServedError::Protocol(format!(
                "{} answers for {} queries",
                answers.len(),
                ips.len()
            )));
        }
        Ok(answers)
    }
}

/// Transport failures heal on a fresh connection; protocol violations
/// do not.
fn retryable(e: &ServedError) -> bool {
    matches!(e, ServedError::Io(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellserve::ServeLabel;
    use netaddr::{Asn, Ipv4Net};

    #[test]
    fn queries_round_trip() {
        let ips = vec![
            IpKey::V4(0x0A010203),
            IpKey::V6(0x2001_0db8_0000_0000_0000_0000_0000_0001),
            IpKey::V4(0),
        ];
        let payload = encode_queries(&ips);
        assert_eq!(decode_queries(&payload).expect("round trip"), ips);
    }

    #[test]
    fn answers_round_trip() {
        let hit = LookupMatch {
            prefix: MatchedPrefix::V4(Ipv4Net::new(0x0A000000, 8).expect("net")),
            label: ServeLabel {
                asn: Asn(64500),
                class: AsClass::Mixed,
            },
        };
        let payload = encode_answers(&[Some(hit), None]);
        let answers = decode_answers(&payload).expect("round trip");
        assert_eq!(
            answers,
            vec![
                Some(WireAnswer {
                    prefix_len: 8,
                    asn: 64500,
                    class: AsClass::Mixed,
                }),
                None,
            ]
        );
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        // Truncated count.
        assert!(decode_queries(&[1, 0]).is_err());
        // Family byte nobody speaks.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(5);
        bad.extend_from_slice(&[0; 4]);
        assert!(decode_queries(&bad).is_err());
        // Trailing garbage after a complete request.
        let mut trailing = encode_queries(&[IpKey::V4(1)]);
        trailing.push(0xFF);
        assert!(decode_queries(&trailing).is_err());
        // Truncated hit body in a response.
        let mut resp = Vec::new();
        resp.extend_from_slice(&1u32.to_le_bytes());
        resp.push(1);
        resp.push(24);
        assert!(decode_answers(&resp).is_err());
        // One query more than an all-hit answer frame can hold: refused
        // on the four count bytes alone, as a protocol error…
        let over = MAX_QUERIES_PER_FRAME + 1;
        match decode_queries(&(over as u32).to_le_bytes()) {
            Err(ServedError::Protocol(why)) => assert!(why.contains("cap"), "{why}"),
            other => panic!("expected a Protocol error, got {other:?}"),
        }
        // …while the cap itself is only short of addresses.
        match decode_queries(&(MAX_QUERIES_PER_FRAME as u32).to_le_bytes()) {
            Err(ServedError::Protocol(why)) => assert!(why.contains("truncated"), "{why}"),
            other => panic!("expected a truncation error, got {other:?}"),
        }
        // The client refuses the same slice without touching the socket
        // (nobody listens on this port) and without spending a retry.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let mut client = FramedClient::lazy(addr, ClientPolicy::default()).expect("resolve");
        assert!(matches!(
            client.lookup(&vec![IpKey::V4(1); over]),
            Err(ServedError::Protocol(_))
        ));
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = ClientPolicy {
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(300),
            ..ClientPolicy::default()
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(50));
        assert_eq!(policy.backoff(2), Duration::from_millis(100));
        assert_eq!(policy.backoff(3), Duration::from_millis(200));
        assert_eq!(policy.backoff(4), Duration::from_millis(300));
        assert_eq!(policy.backoff(40), Duration::from_millis(300));
    }

    #[test]
    fn dead_port_exhausts_the_budget_into_gave_up() {
        // Bind-then-drop guarantees a port nobody is listening on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let policy = ClientPolicy {
            connect_timeout: Duration::from_millis(200),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            ..ClientPolicy::default()
        };
        let mut client = FramedClient::lazy(addr, policy).expect("resolve");
        match client.lookup(&[IpKey::V4(1)]) {
            Err(ServedError::GaveUp { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, ServedError::Io(_)));
            }
            other => panic!("expected GaveUp, got {other:?}"),
        }
        assert_eq!(client.retries(), 2, "a sleep before each retry");
    }

    #[test]
    fn eager_connect_reports_a_down_daemon_immediately() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let policy = ClientPolicy {
            connect_timeout: Duration::from_millis(200),
            ..ClientPolicy::default()
        };
        assert!(FramedClient::connect_with(addr, policy).is_err());
    }

    #[test]
    fn frames_carry_length_prefixes() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").expect("write to vec");
        assert_eq!(&buf[..4], &3u32.to_le_bytes());
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor).expect("read back"),
            Some(b"abc".to_vec())
        );
        // Clean EOF at a frame boundary is "no more frames".
        assert_eq!(read_frame(&mut cursor).expect("eof"), None);
        // EOF inside a length prefix is an error.
        let mut partial = &buf[..2];
        assert!(read_frame(&mut partial).is_err());
        // Oversized length prefixes are rejected without allocating.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}
