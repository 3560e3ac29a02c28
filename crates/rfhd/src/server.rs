//! The daemon: listeners, request isolation, backpressure, and the
//! result cache.
//!
//! ## Fault domains
//!
//! Every connection has its own thread, which reads and decodes frames
//! and answers them in order; a connection costs a thread, never a
//! worker. Each decoded compute request is one task on a bounded
//! [`TaskPool`] of `workers` threads and `queue_depth` queue slots, so a
//! request costs a worker. Load is shed at two points, each with an
//! `overloaded` error frame carrying a `retry_after_ms` hint: the
//! acceptor admits at most `workers + queue_depth` open connections and
//! answers the next one before closing it, and a request that finds the
//! pool's queue full is answered on its own connection, which stays open.
//!
//! The pool worker is the isolation boundary: it runs the request under
//! `catch_unwind` and sends the outcome back through a channel, on which
//! the connection thread waits under the request's wall-clock timeout
//! (queue wait included). A panic becomes an `internal` error frame; a
//! timeout becomes a `timeout` frame, and the abandoned request keeps its
//! worker until the instruction/cycle budgets threaded into the executor
//! and timing model stop it, so stragglers are bounded by `workers`.
//! Neither event kills the worker, the connection, or the daemon.
//!
//! Socket reads carry an idle timeout, so a stalled slow-writer client
//! holds its connection thread only for the configured window before
//! being disconnected.
//!
//! ## Shutdown
//!
//! A `shutdown` request flips the accept flag and wakes the acceptor; the
//! daemon then stops admitting connections, joins the connection threads
//! (every admitted connection finishes), drains the pool, and reports
//! end-of-life counters.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rfh_testkit::env;
use rfh_testkit::pool::TaskPool;

use crate::cache::{Key, Store};
use crate::handler::{decode_request, handle_with, Budgets, Op, Request, StrandStore};
use crate::json::Json;
use crate::proto::{
    read_frame, render_response, write_frame, ErrorFrame, ErrorKind, FrameError, DEFAULT_MAX_FRAME,
};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7117` (port 0 picks a free port).
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Daemon configuration. [`ServerConfig::from_env`] layers the `RFHD_*`
/// environment knobs (parsed under the shared [`rfh_testkit::env`]
/// grammar: decimal or `0x`-hex, loud warning and fallback on a malformed
/// value) over these defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Worker threads: compute requests run concurrently. Connections
    /// have their own threads and hold no worker while idle.
    pub workers: usize,
    /// Request-queue depth beyond the workers; a request arriving with the
    /// queue full is shed with an `overloaded` frame. At most `workers +
    /// queue_depth` connections are open at once, and the next one is
    /// shed the same way.
    pub queue_depth: usize,
    /// Result-cache capacity in entries.
    pub cache_entries: usize,
    /// Per-strand allocation cache capacity in entries (strands are much
    /// smaller and more numerous than whole results, so the default is
    /// correspondingly larger).
    pub strand_cache_entries: usize,
    /// Default and maximum per-request wall-clock timeout. Clients may
    /// request less via `timeout_ms`, never more.
    pub timeout_ms: u64,
    /// Socket read timeout: how long a connection may sit idle (or a
    /// slow-writer stall mid-frame) before being disconnected.
    pub io_timeout_ms: u64,
    /// Maximum accepted frame payload.
    pub max_frame: usize,
    /// Ceiling on per-request instruction budgets.
    pub max_warp_instructions: u64,
    /// Ceiling on per-request timing-model cycle budgets.
    pub max_cycles: u64,
}

impl ServerConfig {
    /// Conservative defaults for the given endpoint.
    pub fn new(endpoint: Endpoint) -> Self {
        ServerConfig {
            endpoint,
            workers: 4,
            queue_depth: 16,
            cache_entries: 256,
            strand_cache_entries: 2048,
            timeout_ms: 10_000,
            io_timeout_ms: 10_000,
            max_frame: DEFAULT_MAX_FRAME,
            max_warp_instructions: 20_000_000,
            max_cycles: 200_000_000,
        }
    }

    /// Defaults overridden by the `RFHD_TIMEOUT_MS`, `RFHD_QUEUE_DEPTH`,
    /// `RFHD_CACHE_ENTRIES`, and `RFHD_STRAND_CACHE_ENTRIES` environment
    /// knobs.
    pub fn from_env(endpoint: Endpoint) -> Self {
        let mut cfg = ServerConfig::new(endpoint);
        if let Some(ms) = env::u64_knob("RFHD_TIMEOUT_MS") {
            cfg.timeout_ms = ms.max(1);
        }
        if let Some(depth) = env::positive_usize_knob("RFHD_QUEUE_DEPTH") {
            cfg.queue_depth = depth;
        }
        if let Some(entries) = env::positive_usize_knob("RFHD_CACHE_ENTRIES") {
            cfg.cache_entries = entries;
        }
        if let Some(entries) = env::positive_usize_knob("RFHD_STRAND_CACHE_ENTRIES") {
            cfg.strand_cache_entries = entries;
        }
        cfg
    }
}

/// End-of-life counters reported by [`Server::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Requests answered (including error frames).
    pub served: u64,
    /// Connections and requests shed with an `overloaded` frame.
    pub shed: u64,
    /// Requests that hit the wall-clock timeout.
    pub timeouts: u64,
    /// Panics caught inside request isolation.
    pub compute_panics: u64,
    /// Panics that escaped a connection thread or a pool task (should
    /// stay 0; compute panics are caught one level deeper).
    pub pool_panics: u64,
    /// Connections still open when the drain finished (must be 0 — drain
    /// joins every admitted connection).
    pub in_flight_at_exit: usize,
}

struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    compute_panics: AtomicU64,
    in_flight: AtomicUsize,
}

struct Shared {
    cfg: ServerConfig,
    /// The endpoint after binding (real port for TCP port 0) — the
    /// shutdown wake connects here.
    resolved: Endpoint,
    /// Whole-response result cache, keyed by the typed op (its 64-bit
    /// digest is only a pre-key — see [`crate::cache::Key`]).
    cache: Store<Key<Op>, Json>,
    /// Per-strand allocation cache shared by every request.
    strand_cache: Arc<StrandStore>,
    shutdown: AtomicBool,
    counters: Counters,
    started: Instant,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// One connection, generic over the transport. Shared with the client
/// side, which dials with [`Conn::connect`].
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// Dials an endpoint.
    pub(crate) fn connect(endpoint: &Endpoint) -> std::io::Result<Conn> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Conn::Tcp),
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    pub(crate) fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: Listener,
    shared: Shared,
    /// The endpoint after binding — for TCP port 0 this carries the
    /// actual port, so tests and the chaos harness can connect.
    endpoint: Endpoint,
}

impl Server {
    /// Binds the configured endpoint. An existing socket file at a unix
    /// endpoint is removed first (a daemon that died without cleanup must
    /// not brick its own socket path).
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let (listener, endpoint) = match &cfg.endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let actual = Endpoint::Tcp(l.local_addr()?.to_string());
                (Listener::Tcp(l), actual)
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l), Endpoint::Unix(path.clone()))
            }
        };
        let shared = Shared {
            resolved: endpoint.clone(),
            cache: Store::with_capacity(cfg.cache_entries),
            strand_cache: Arc::new(Store::with_capacity(cfg.strand_cache_entries)),
            shutdown: AtomicBool::new(false),
            counters: Counters {
                served: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                compute_panics: AtomicU64::new(0),
                in_flight: AtomicUsize::new(0),
            },
            started: Instant::now(),
            cfg,
        };
        Ok(Server {
            listener,
            shared,
            endpoint,
        })
    }

    /// The endpoint actually bound (with the real port for TCP port 0).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Serves until a `shutdown` request, then drains and reports.
    ///
    /// # Errors
    ///
    /// Only fatal accept-loop failures; per-connection errors are
    /// contained and answered in-band.
    pub fn run(self) -> std::io::Result<ServerReport> {
        let shared = &self.shared;
        let pool = TaskPool::new(shared.cfg.workers, shared.cfg.queue_depth);
        // A connection waits on at most one request at a time, so this many
        // open connections fit the pool's workers and queue slots.
        let max_conns = shared.cfg.workers.max(1) + shared.cfg.queue_depth.max(1);
        let conn_panics = AtomicU64::new(0);
        std::thread::scope(|scope| loop {
            let conn = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake connection is dropped unanswered
            }
            // A failed accept (peer vanished between SYN and accept) must
            // not kill the daemon.
            let Ok(mut conn) = conn else { continue };
            if shared.counters.in_flight.load(Ordering::SeqCst) >= max_conns {
                let frame = overloaded(shared, "too many open connections");
                let _ = conn.set_write_timeout(Some(Duration::from_millis(1_000)));
                let _ = write_frame(&mut conn, &render_response(0, &Err(frame)));
                continue;
            }
            // Counted here, not in the thread, so the next accept sees it.
            shared.counters.in_flight.fetch_add(1, Ordering::SeqCst);
            let (pool, conn_panics) = (&pool, &conn_panics);
            scope.spawn(move || {
                if catch_unwind(AssertUnwindSafe(|| serve_conn(conn, shared, pool))).is_err() {
                    conn_panics.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        let pool_panics = conn_panics.into_inner() + pool.drain() as u64;
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        let c = &shared.counters;
        Ok(ServerReport {
            served: c.served.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            compute_panics: c.compute_panics.load(Ordering::Relaxed),
            pool_panics,
            in_flight_at_exit: c.in_flight.load(Ordering::Relaxed),
        })
    }

    /// Binds and serves on a background thread; the returned handle
    /// carries the resolved endpoint. Used by tests, the chaos harness,
    /// and the CI smoke test.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(cfg)?;
        let endpoint = server.endpoint.clone();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle { endpoint, thread })
    }
}

/// Handle to a daemon running on a background thread.
pub struct ServerHandle {
    /// The resolved endpoint to connect to.
    pub endpoint: Endpoint,
    thread: std::thread::JoinHandle<std::io::Result<ServerReport>>,
}

impl ServerHandle {
    /// Waits for the daemon to exit (send a `shutdown` request first).
    ///
    /// # Errors
    ///
    /// The accept loop's fatal error, if any; a panic of the server
    /// thread itself is surfaced as an `Other` I/O error.
    pub fn join(self) -> std::io::Result<ServerReport> {
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// Serves one connection to completion: a sequence of frames, each
/// answered in order on the same socket. The acceptor counted the
/// connection in `in_flight`.
fn serve_conn(mut conn: Conn, shared: &Shared, pool: &TaskPool) {
    // Decrement even if this function panics (the caller contains it).
    struct InFlightGuard<'a>(&'a Counters);
    impl Drop for InFlightGuard<'_> {
        fn drop(&mut self) {
            self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _guard = InFlightGuard(&shared.counters);

    let io_timeout = Duration::from_millis(shared.cfg.io_timeout_ms.max(1));
    if conn.set_read_timeout(Some(io_timeout)).is_err()
        || conn.set_write_timeout(Some(io_timeout)).is_err()
    {
        return;
    }

    loop {
        let payload = match read_frame(&mut conn, shared.cfg.max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(e) => {
                // After a framing error the byte stream cannot be
                // resynchronized: answer once (where the peer can still
                // hear it), then close.
                let frame = match &e {
                    FrameError::Io(io) => match io.kind() {
                        // A stalled slow-writer (or idle keep-alive) hit
                        // the socket read timeout.
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                            ErrorFrame::new(
                                ErrorKind::Timeout,
                                format!("no complete frame within {} ms", shared.cfg.io_timeout_ms),
                            )
                        }
                        // The peer is gone; nobody is listening.
                        _ => return,
                    },
                    _ => ErrorFrame::new(ErrorKind::Protocol, e.to_string()),
                };
                respond(&mut conn, shared, 0, &Err(frame));
                return;
            }
        };
        let doc = match crate::json::parse(&payload) {
            Ok(doc) => doc,
            Err(e) => {
                // Framing is intact, so the stream stays usable: answer
                // the malformed request and keep serving.
                let frame = ErrorFrame::new(ErrorKind::Protocol, format!("bad JSON: {e}"));
                respond(&mut conn, shared, 0, &Err(frame));
                continue;
            }
        };
        let req = match decode_request(&doc) {
            Ok(req) => req,
            Err(frame) => {
                let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
                respond(&mut conn, shared, id, &Err(frame));
                continue;
            }
        };
        match req.op {
            Op::Shutdown => {
                respond(
                    &mut conn,
                    shared,
                    req.id,
                    &Ok((
                        Json::Obj(vec![("draining".into(), Json::Bool(true))]),
                        false,
                    )),
                );
                shared.shutdown.store(true, Ordering::SeqCst);
                wake_acceptor(shared);
                return;
            }
            Op::Stats => {
                let outcome = Ok((stats_json(shared), false));
                respond(&mut conn, shared, req.id, &outcome);
            }
            _ => {
                let id = req.id;
                let outcome = compute(shared, pool, req);
                respond(&mut conn, shared, id, &outcome);
            }
        }
    }
}

/// Runs one compute request under the full isolation stack: cache →
/// pool worker → `catch_unwind` → wall-clock timeout.
fn compute(shared: &Shared, pool: &TaskPool, req: Request) -> Result<(Json, bool), ErrorFrame> {
    // Every compute op but `ping` is a deterministic function of its
    // typed op, which keys the result cache; `id` and `timeout_ms` sit
    // outside it.
    let key = (req.op != Op::Ping).then(|| Key::of(req.op.clone()));
    if let Some(result) = key.as_ref().and_then(|k| shared.cache.get(k)) {
        return Ok((result, true));
    }
    let budgets = Budgets {
        max_warp_instructions: shared.cfg.max_warp_instructions,
        max_cycles: shared.cfg.max_cycles,
    };
    let timeout = Duration::from_millis(
        req.timeout_ms
            .unwrap_or(shared.cfg.timeout_ms)
            .clamp(1, shared.cfg.timeout_ms),
    );
    let (tx, rx) = mpsc::channel();
    let strand_cache = Arc::clone(&shared.strand_cache);
    let deadline = Instant::now() + timeout;
    let admitted = pool.try_execute(Box::new(move || {
        if Instant::now() >= deadline {
            return; // timed out in the queue: nobody waits for it
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_with(&req, &budgets, Some(&strand_cache))
        }));
        // A send failure means the request timed out and the receiver is
        // gone; the result is simply dropped.
        let _ = tx.send(outcome);
    }));
    if admitted.is_err() {
        return Err(overloaded(shared, "request queue is full"));
    }
    match rx.recv_timeout(timeout) {
        Ok(Ok(Ok(result))) => match key {
            Some(key) => Ok((shared.cache.insert(key, result), false)),
            None => Ok((result, false)),
        },
        Ok(Ok(Err(frame))) => Err(frame),
        Ok(Err(panic)) => {
            shared
                .counters
                .compute_panics
                .fetch_add(1, Ordering::Relaxed);
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(ErrorFrame::new(
                ErrorKind::Internal,
                format!("request panicked: {what}"),
            ))
        }
        Err(_) => {
            shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            // The straggler keeps its worker until its instruction or
            // cycle budget halts it; its late result is dropped.
            Err(ErrorFrame::new(
                ErrorKind::Timeout,
                format!("request exceeded {} ms", timeout.as_millis()),
            ))
        }
    }
}

/// Counts a shed and builds its `overloaded` frame, telling the client
/// when to retry: a fraction of the request window, since a worker frees
/// up at latest when one request ends.
fn overloaded(shared: &Shared, what: &str) -> ErrorFrame {
    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
    let mut frame = ErrorFrame::new(ErrorKind::Overloaded, what);
    frame.retry_after_ms = Some((shared.cfg.timeout_ms / 10).clamp(10, 1_000));
    frame
}

fn respond(conn: &mut Conn, shared: &Shared, id: u64, outcome: &Result<(Json, bool), ErrorFrame>) {
    shared.counters.served.fetch_add(1, Ordering::Relaxed);
    // A write failure means the peer is gone; nothing to do but let the
    // caller finish the connection.
    let _ = write_frame(conn, &render_response(id, outcome));
}

fn cache_stats_json(stats: crate::cache::CacheStats) -> Json {
    let mut fields = vec![
        ("hits".into(), Json::u64(stats.hits)),
        ("misses".into(), Json::u64(stats.misses)),
        ("evictions".into(), Json::u64(stats.evictions)),
        ("races".into(), Json::u64(stats.races)),
        ("entries".into(), Json::u64(stats.entries as u64)),
    ];
    if let Some(cap) = stats.capacity {
        fields.push(("capacity".into(), Json::u64(cap as u64)));
    }
    Json::Obj(fields)
}

fn stats_json(shared: &Shared) -> Json {
    let c = &shared.counters;
    Json::Obj(vec![
        ("cache".into(), cache_stats_json(shared.cache.stats())),
        (
            "strand_cache".into(),
            cache_stats_json(shared.strand_cache.stats()),
        ),
        ("served".into(), Json::u64(c.served.load(Ordering::Relaxed))),
        ("shed".into(), Json::u64(c.shed.load(Ordering::Relaxed))),
        (
            "timeouts".into(),
            Json::u64(c.timeouts.load(Ordering::Relaxed)),
        ),
        (
            "compute_panics".into(),
            Json::u64(c.compute_panics.load(Ordering::Relaxed)),
        ),
        (
            "in_flight".into(),
            Json::u64(c.in_flight.load(Ordering::Relaxed) as u64),
        ),
        ("workers".into(), Json::u64(shared.cfg.workers as u64)),
        (
            "queue_depth".into(),
            Json::u64(shared.cfg.queue_depth as u64),
        ),
        (
            "uptime_ms".into(),
            Json::u64(shared.started.elapsed().as_millis() as u64),
        ),
    ])
}

/// Unblocks the acceptor after the shutdown flag flips, via a throwaway
/// connection to the daemon's own (resolved) endpoint. The acceptor sees
/// the flag before handling the wake connection and exits.
fn wake_acceptor(shared: &Shared) {
    match &shared.resolved {
        Endpoint::Tcp(addr) => drop(TcpStream::connect(addr.as_str())),
        Endpoint::Unix(path) => drop(UnixStream::connect(path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_reads_knobs() {
        // Unique names per test: the environment is process-global.
        std::env::set_var("RFHD_TIMEOUT_MS", "250");
        std::env::set_var("RFHD_QUEUE_DEPTH", "3");
        std::env::set_var("RFHD_CACHE_ENTRIES", "0x10");
        std::env::set_var("RFHD_STRAND_CACHE_ENTRIES", "0x40");
        let cfg = ServerConfig::from_env(Endpoint::Tcp("127.0.0.1:0".into()));
        assert_eq!(cfg.timeout_ms, 250);
        assert_eq!(cfg.queue_depth, 3);
        assert_eq!(cfg.cache_entries, 16);
        assert_eq!(cfg.strand_cache_entries, 64);
        std::env::remove_var("RFHD_TIMEOUT_MS");
        std::env::remove_var("RFHD_QUEUE_DEPTH");
        std::env::remove_var("RFHD_CACHE_ENTRIES");
        std::env::remove_var("RFHD_STRAND_CACHE_ENTRIES");
    }
}
