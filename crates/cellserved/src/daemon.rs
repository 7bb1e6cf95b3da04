//! The daemon itself: listeners, the one request path every connection
//! thread answers through, reload watchers, and the shutdown
//! choreography that drains them in order.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cellobs::{ObsSnapshot, Observer};
use cellserve::{Artifact, ArtifactHandle, IpKey, LookupMatch, QueryEngine};

use crate::conns::{bind_reuseaddr, ConnTracker};
use crate::error::ServedError;
use crate::generation::{Generation, GenerationStore};
use crate::reload;

/// Tunables for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// `host:port` for the HTTP endpoint; `None` disables it. Use port
    /// 0 to let the OS pick (see [`Daemon::http_addr`]).
    pub http_listen: Option<String>,
    /// `host:port` for the framed TCP endpoint; `None` disables it.
    pub tcp_listen: Option<String>,
    /// Watch the artifact path and hot-swap validated replacements.
    pub reload_watch: bool,
    /// Watch this path for sealed CELLDELT deltas and hot-patch the
    /// live generation with any that chain on it (base hash matches,
    /// epoch advances). The file need not exist at startup; the watcher
    /// fires when it is first published. Independent of `reload_watch`
    /// — both watchers can run side by side.
    pub delta_watch: Option<PathBuf>,
    /// Poll interval for the reload and delta watchers.
    pub reload_poll: Duration,
    /// Admission budget: live connections across both listeners. A
    /// connection beyond the budget is shed immediately (HTTP 503 /
    /// framed close) and counted in `served.conns.rejected`. Each
    /// connection thread answers its own requests one at a time, so
    /// this is also the bound on in-flight work. 0 means unlimited
    /// (the pre-hardening behavior).
    pub max_conns: usize,
    /// Per-socket read/write timeout. A peer that stalls a read or
    /// write past this — a slow-loris header dripper, a dead client
    /// mid-body, a receiver that never drains its response — is shed
    /// (`served.conns.rejected`). Also bounds how long an idle
    /// keep-alive connection is held.
    /// [`Duration::ZERO`] disables every per-socket deadline.
    pub io_timeout: Duration,
    /// Requests served on one connection before the daemon closes it
    /// (HTTP keep-alive and framed TCP alike) — bounds how long a
    /// single client can pin a handler thread. 0 means unlimited.
    pub max_requests_per_conn: usize,
    /// How long shutdown waits for in-flight handlers to finish after
    /// half-closing their sockets, before force-closing the stragglers.
    pub drain_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            http_listen: None,
            tcp_listen: None,
            reload_watch: false,
            delta_watch: None,
            reload_poll: Duration::from_millis(250),
            max_conns: 1024,
            io_timeout: Duration::from_secs(10),
            max_requests_per_conn: 4096,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Shared state every connection handler sees.
pub(crate) struct Ctx {
    pub store: Arc<GenerationStore>,
    pub obs: Observer,
    pub conns: Arc<ConnTracker>,
    /// See [`ServeConfig::io_timeout`]; `ZERO` = disabled.
    pub io_timeout: Duration,
    /// See [`ServeConfig::max_requests_per_conn`]; 0 = unlimited.
    pub max_requests_per_conn: usize,
}

impl Ctx {
    /// Answer one request — a frame, a `POST /lookup` body, a single
    /// `GET /lookup` — on the calling connection thread: pin the
    /// current generation once, run the engine over `ips` (one chunk
    /// and one fresh hot-block cache up to [`cellserve::QUERY_CHUNK`]
    /// queries, rayon fan-out beyond), and return the answers in query
    /// order with the generation that produced them. A concurrent swap
    /// only affects later requests.
    pub(crate) fn answer(&self, ips: &[IpKey]) -> (Vec<Option<LookupMatch>>, Arc<Generation>) {
        let generation = self.store.current();
        let engine = QueryEngine::new(&generation.index).with_observer(self.obs.clone());
        let (answers, _) = engine.run(ips);
        (answers, generation)
    }
}

#[derive(Clone, Copy)]
enum Endpoint {
    Http,
    Tcp,
}

/// A running lookup daemon. Dropping it without calling
/// [`shutdown`](Daemon::shutdown) leaves threads running; always shut
/// down for a clean exit and the final metrics snapshot.
pub struct Daemon {
    store: Arc<GenerationStore>,
    obs: Observer,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    http_addr: Option<SocketAddr>,
    tcp_addr: Option<SocketAddr>,
    artifact_path: Option<PathBuf>,
    conns: Arc<ConnTracker>,
    drain_timeout: Duration,
}

impl Daemon {
    /// Open, validate, and serve a sealed artifact file: mmapped and
    /// served in place — near-zero bytes copied at boot. A CELLSERV v1
    /// file is refused ([`cellserve::ServeError::UnsupportedVersion`])
    /// with a pointer to `cellspot index migrate`.
    pub fn start(
        config: ServeConfig,
        artifact: &Path,
        obs: Observer,
    ) -> Result<Daemon, ServedError> {
        // Fingerprint before reading: if the file is replaced between
        // the read and the watcher's first poll, the change is seen.
        let initial = reload::fingerprint(artifact);
        let handle = Artifact::open(artifact)?;
        let store = GenerationStore::from_handle(handle, obs.clone());
        Self::start_inner(config, store, Some((artifact.to_path_buf(), initial)), obs)
    }

    /// Serve an already-loaded artifact (no artifact file to watch, so
    /// no reload) — sealed in-process or opened by the caller.
    pub fn start_with_handle(
        config: ServeConfig,
        handle: ArtifactHandle,
        obs: Observer,
    ) -> Result<Daemon, ServedError> {
        let store = GenerationStore::from_handle(handle, obs.clone());
        Self::start_inner(config, store, None, obs)
    }

    fn start_inner(
        config: ServeConfig,
        store: GenerationStore,
        artifact: Option<(PathBuf, Option<reload::Fingerprint>)>,
        obs: Observer,
    ) -> Result<Daemon, ServedError> {
        if config.reload_watch && artifact.is_none() {
            return Err(ServedError::Config(
                "reload_watch requires an artifact path to watch".into(),
            ));
        }
        let store = Arc::new(store);
        let conns = ConnTracker::new(config.max_conns, obs.clone());
        let ctx = Arc::new(Ctx {
            store: Arc::clone(&store),
            obs: obs.clone(),
            conns: Arc::clone(&conns),
            io_timeout: config.io_timeout,
            max_requests_per_conn: config.max_requests_per_conn,
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        let http_addr = match &config.http_listen {
            Some(spec) => Some(Self::spawn_listener(
                spec,
                Endpoint::Http,
                &ctx,
                &shutdown,
                &mut threads,
            )?),
            None => None,
        };
        let tcp_addr = match &config.tcp_listen {
            Some(spec) => Some(Self::spawn_listener(
                spec,
                Endpoint::Tcp,
                &ctx,
                &shutdown,
                &mut threads,
            )?),
            None => None,
        };

        let artifact_path = artifact.as_ref().map(|(p, _)| p.clone());
        if config.reload_watch {
            let (path, initial) = artifact.expect("checked above");
            let watch_store = Arc::clone(&store);
            threads.push(reload::spawn_watcher(
                reload::Watch {
                    name: "served-reload",
                    metric: "served.reload",
                    path,
                    poll: config.reload_poll,
                    initial,
                },
                obs.clone(),
                move |p| {
                    let _ = watch_store.try_swap_path(p);
                },
                Arc::clone(&shutdown),
            )?);
        }
        if let Some(path) = config.delta_watch.clone() {
            let initial = reload::fingerprint(&path);
            let delta_store = Arc::clone(&store);
            threads.push(reload::spawn_watcher(
                reload::Watch {
                    name: "served-delta",
                    metric: "served.delta",
                    path,
                    poll: config.reload_poll,
                    initial,
                },
                obs.clone(),
                move |p| {
                    let _ = delta_store.try_apply_delta_path(p);
                },
                Arc::clone(&shutdown),
            )?);
        }

        Ok(Daemon {
            store,
            obs,
            shutdown,
            threads,
            http_addr,
            tcp_addr,
            artifact_path,
            conns,
            drain_timeout: config.drain_timeout,
        })
    }

    fn spawn_listener(
        spec: &str,
        endpoint: Endpoint,
        ctx: &Arc<Ctx>,
        shutdown: &Arc<AtomicBool>,
        threads: &mut Vec<JoinHandle<()>>,
    ) -> Result<SocketAddr, ServedError> {
        let listener = bind_reuseaddr(spec)?;
        let addr = listener.local_addr()?;
        let ctx = Arc::clone(ctx);
        let shutdown = Arc::clone(shutdown);
        let name = match endpoint {
            Endpoint::Http => "served-http",
            Endpoint::Tcp => "served-tcp",
        };
        threads.push(
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        // Per-socket deadlines before the first byte is
                        // read: a stalled peer can pin its handler for
                        // at most one timeout per read/write.
                        if !ctx.io_timeout.is_zero() {
                            let _ = stream.set_read_timeout(Some(ctx.io_timeout));
                            let _ = stream.set_write_timeout(Some(ctx.io_timeout));
                        }
                        // Admission: over-budget connections are shed
                        // here, on the accept thread, so no handler
                        // thread is ever spawned for them.
                        let Some(guard) = ctx.conns.try_admit(&stream) else {
                            ctx.obs.counter("served.conns.rejected").inc();
                            shed(endpoint, stream);
                            continue;
                        };
                        let ctx = Arc::clone(&ctx);
                        // Handlers run detached but tracked: the guard
                        // registers the socket with the ConnTracker, so
                        // shutdown can half-close it and wait for the
                        // handler to finish before snapshotting.
                        let _ = std::thread::Builder::new()
                            .name("served-conn".into())
                            .spawn(move || {
                                match endpoint {
                                    Endpoint::Http => crate::http::handle(stream, &ctx),
                                    Endpoint::Tcp => crate::tcp::handle(stream, &ctx),
                                }
                                drop(guard);
                            });
                    }
                })?,
        );
        Ok(addr)
    }

    /// Where the HTTP endpoint actually listens (resolves port 0).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Where the framed TCP endpoint actually listens.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The current artifact generation number.
    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    /// The daemon's observer (shared; snapshot any time).
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Re-read the artifact path right now and swap if it validates.
    /// Independent of the watcher — works whether or not `reload_watch`
    /// is on, as long as the daemon was started from a file.
    pub fn reload_now(&self) -> Result<u64, ServedError> {
        let path = self.artifact_path.as_ref().ok_or_else(|| {
            ServedError::Config("daemon was not started from an artifact file".into())
        })?;
        self.store.try_swap_path(path)
    }

    /// Apply sealed delta bytes to the live generation right now,
    /// independent of any watcher; returns the new generation number.
    /// The delta must chain on the serving generation (base hash
    /// matches, epoch advances) — see
    /// [`GenerationStore::try_apply_delta_bytes`].
    pub fn apply_delta_now(&self, delta_bytes: &[u8]) -> Result<u64, ServedError> {
        self.store.try_apply_delta_bytes(delta_bytes)
    }

    /// Graceful shutdown: stop accepting, drain in-flight connection
    /// handlers (each finishes the request it is answering), join all
    /// threads, refresh the latency-quantile gauges, and hand back the
    /// final metrics snapshot. The final snapshot cannot race in-flight
    /// responses: handlers are tracked and drained (bounded by
    /// [`ServeConfig::drain_timeout`]) before it is taken.
    pub fn shutdown(mut self) -> ObsSnapshot {
        self.shutdown.store(true, Ordering::SeqCst);
        // Accept loops block in `accept`; a throwaway connection makes
        // each one re-check the flag and exit.
        for addr in [self.http_addr, self.tcp_addr].into_iter().flatten() {
            let _ = TcpStream::connect(addr);
        }
        // Half-close the read side of every live connection: blocked
        // and idle reads wake with EOF, while in-flight responses still
        // flow out the intact write side. Then wait (bounded) for the
        // handlers to finish; any straggler past the window is
        // force-closed rather than allowed to race the snapshot.
        self.conns.close_reads();
        if !self.conns.drain(self.drain_timeout) {
            self.obs
                .counter("served.conns.aborted")
                .add(self.conns.active() as u64);
            self.conns.close_all();
            let _ = self.conns.drain(Duration::from_millis(250));
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        crate::refresh_latency_gauges(&self.obs);
        self.obs.snapshot()
    }
}

/// Turn away a connection that failed admission, without spawning a
/// thread for it: HTTP peers get a best-effort `503` with
/// `Connection: close` (small enough to fit the socket buffer, so this
/// cannot block the accept loop past its write timeout), framed peers
/// see an immediate close — the protocol has no error frame, and the
/// resilient [`crate::FramedClient`] treats the close as retryable.
fn shed(endpoint: Endpoint, stream: TcpStream) {
    if let Endpoint::Http = endpoint {
        let body = "daemon at connection capacity\n";
        let mut stream = stream;
        let _ = write!(
            stream,
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
    }
    // Dropping the stream closes it for both endpoints.
}
