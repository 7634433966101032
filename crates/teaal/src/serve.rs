//! The `teaal serve` daemon: a fault-tolerant evaluation service over
//! the [`wire`] protocol.
//!
//! Architecture (all `std`, no async runtime — the vendor tree is
//! offline):
//!
//! ```text
//!            accept loop (nonblocking poll, SIGINT/SIGTERM aware)
//!                 │ one thread per connection
//!                 ▼
//!  connection handler ──ping/health──▶ answered inline
//!         │ eval
//!         ▼
//!  bounded admission queue ──full──▶ immediate `overloaded` response
//!         │
//!         ▼
//!  worker pool (fixed size) ── per-request EvalLimits clamped by the
//!         │                    server caps, CancelToken registered for
//!         ▼                    drain cancellation, panic-isolated
//!  shared EvalContext (content-addressed caches, bounded by
//!  `--max-cache-mb`)
//! ```
//!
//! Fault containment, by layer:
//!
//! - **Malformed bytes** — the wire parser classifies every failure as
//!   recoverable (respond `protocol`, keep the connection) or fatal
//!   (close that connection); the daemon never exits on input.
//! - **Overload** — the admission queue is bounded; a full queue sheds
//!   with a structured `overloaded` response instead of queueing
//!   without bound. Clients retry safely: evaluation is
//!   content-addressed and idempotent.
//! - **Panics** — each request runs under
//!   [`catching`](crate::request::catching); a panicking evaluation
//!   becomes a `panic`-coded error response while the worker survives.
//! - **Dead peers** — per-connection read/write timeouts drop the
//!   connection, never the process.
//! - **Shutdown** — SIGINT/SIGTERM stops accepting, finishes admitted
//!   work up to `--drain-ms`, then cancels stragglers through their
//!   [`CancelToken`]s and answers still-queued requests with
//!   `shutting-down`.
//!
//! Deterministic fault injection for all of the above rides on
//! [`teaal_core::failpoint`] sites `serve.accept` and `serve.request`
//! (actions `panic`, `err`, `sleep(MS)`, and `drop` — the last severs
//! the connection mid-response).

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use teaal_core::failpoint::{self, FailAction};
use teaal_fibertree::telemetry;
use teaal_fibertree::TensorData;
use teaal_sim::{CancelToken, EvalContext, EvalLimits, OpTable};

use crate::args::{
    parse_extent, parse_limit, parse_loop_order, parse_ops, Argv, RandomRanks, SharedOptions,
    LIMIT_KEYS,
};
use crate::request::{
    compress_dataset, evaluate_request, ErrorCode, EvalFailure, RequestOverrides,
};
use crate::wire::{self, Frame, FrameKind, Stream, WireError};

/// How often the accept loop polls for new connections and the
/// shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(15);

/// How long after the drain deadline the daemon waits for connection
/// handlers to flush their final responses before exiting anyway.
const CONNECTION_FLUSH_GRACE: Duration = Duration::from_secs(2);

/// Everything `teaal serve` needs to run; built by the CLI argument
/// parser, overridable in tests.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP listen address (`HOST:PORT`; port 0 picks an ephemeral one).
    pub addr: String,
    /// Listen on a Unix socket at this path instead of TCP.
    pub unix_path: Option<PathBuf>,
    /// Worker-pool size.
    pub workers: usize,
    /// Admission-queue bound; a full queue sheds with `overloaded`.
    pub queue_depth: usize,
    /// Graceful-drain budget after SIGINT/SIGTERM.
    pub drain: Duration,
    /// Per-connection read/write timeout (drops dead peers).
    pub io_timeout: Duration,
    /// Maximum wire-frame body size accepted or sent.
    pub max_frame_bytes: usize,
    /// The options `serve` shares with `teaal`: the dataset every
    /// request evaluates against, the default operator table and
    /// extents (requests may add to them), the caps every request's
    /// limits are clamped by, and the pipeline-cache bound.
    pub shared: SharedOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            unix_path: None,
            workers: teaal_sim::default_threads().max(1),
            queue_depth: 64,
            drain: Duration::from_millis(5000),
            io_timeout: Duration::from_millis(10_000),
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            shared: SharedOptions::default(),
        }
    }
}

/// Set by the SIGINT/SIGTERM handler; the accept loop polls it.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // The handler only stores to an atomic — async-signal-safe. Raw
    // `signal(2)` instead of a libc crate: the vendor tree is offline,
    // and std already links libc on every Unix target.
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }
    type Handler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    fn local_display(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => format!("unix:{}", path.display()),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One admitted request waiting for (or occupying) a worker.
struct Job {
    seq: u64,
    frame: Frame,
    reply: mpsc::Sender<Response>,
}

/// What a worker hands back to the connection thread.
struct Response {
    frame: Frame,
    /// When set (the `drop` failpoint action), the connection thread
    /// writes only a prefix of the encoded frame and severs the
    /// connection — exercising client retry paths deterministically.
    drop_mid_response: bool,
}

impl Response {
    fn whole(frame: Frame) -> Response {
        Response {
            frame,
            drop_mid_response: false,
        }
    }
}

struct Queue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Shared daemon state: configuration extract, gauges, the admission
/// queue, and the cancellation registry the drain path uses.
struct Daemon {
    ctx: Arc<EvalContext>,
    data: Vec<TensorData>,
    queue: Mutex<Queue>,
    available: Condvar,
    queue_depth: usize,
    workers: usize,
    io_timeout: Duration,
    max_frame_bytes: usize,
    limit_caps: EvalLimits,
    ops: OpTable,
    extents: Vec<(String, u64)>,
    start: Instant,
    draining: AtomicBool,
    seq: AtomicU64,
    /// `seq → CancelToken` for every request currently on a worker.
    active: Mutex<HashMap<u64, CancelToken>>,
    // Gauges and monotonic counters surfaced by `health`.
    in_flight: AtomicU64,
    queued: AtomicU64,
    connections: AtomicU64,
    served_ok: AtomicU64,
    served_err: AtomicU64,
    shed_overloaded: AtomicU64,
}

/// Decrements a gauge when dropped, so early returns and panics cannot
/// leak `in_flight`/`connections` counts.
struct GaugeGuard<'a>(&'a AtomicU64);

impl<'a> GaugeGuard<'a> {
    fn increment(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A wire field the shared grammar rejected: a `bad-request` naming it.
fn bad_field(key: &str, predicate: &str) -> EvalFailure {
    EvalFailure::new(ErrorCode::BadRequest, format!("field {key} {predicate}"))
}

/// Decodes every `key` field of `frame` with `parse`.
fn decode_all<T>(
    frame: &Frame,
    key: &str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, EvalFailure> {
    frame
        .all(key)
        .map(|v| parse(v).map_err(|e| bad_field(key, &e)))
        .collect()
}

impl Daemon {
    fn err_frame(id: &str, code: ErrorCode, message: &str) -> Frame {
        Frame::new(FrameKind::Err)
            .field("id", id)
            .field("code", code.as_str())
            .field("message", message)
    }

    fn health_frame(&self, id: &str) -> Frame {
        let snap = telemetry::pipeline_snapshot();
        let mut f = Frame::new(FrameKind::Ok)
            .field("id", id)
            .field("uptime_ms", self.start.elapsed().as_millis().to_string())
            .field("workers", self.workers.to_string())
            .field("queue_depth", self.queue_depth.to_string())
            .field(
                "in_flight",
                self.in_flight.load(Ordering::Relaxed).to_string(),
            )
            .field("queued", self.queued.load(Ordering::Relaxed).to_string())
            .field(
                "connections",
                self.connections.load(Ordering::Relaxed).to_string(),
            )
            .field(
                "served_ok",
                self.served_ok.load(Ordering::Relaxed).to_string(),
            )
            .field(
                "served_err",
                self.served_err.load(Ordering::Relaxed).to_string(),
            )
            .field(
                "shed_overloaded",
                self.shed_overloaded.load(Ordering::Relaxed).to_string(),
            )
            .field(
                "draining",
                if self.draining.load(Ordering::Relaxed) {
                    "1"
                } else {
                    "0"
                },
            )
            .field("degraded_sequential", snap.degraded_sequential.to_string())
            .field("transform_execs", snap.transform_execs.to_string());
        for (stage, s) in snap.stages() {
            f = f
                .field(&format!("cache.{stage}.hits"), s.hits.to_string())
                .field(&format!("cache.{stage}.misses"), s.misses.to_string())
                .field(&format!("cache.{stage}.bytes"), s.bytes.to_string())
                .field(&format!("cache.{stage}.evictions"), s.evictions.to_string());
        }
        f
    }

    /// Decodes the request-level limit overrides and clamps them by the
    /// server caps.
    fn request_limits(&self, frame: &Frame) -> Result<EvalLimits, EvalFailure> {
        let mut limits = EvalLimits::default();
        for key in LIMIT_KEYS {
            if let Some(v) = frame.get(key) {
                parse_limit(&mut limits, key, v).map_err(|e| bad_field(key, &e))?;
            }
        }
        Ok(limits.clamped_by(&self.limit_caps))
    }

    /// Evaluates one admitted `eval` request on a worker thread.
    fn handle_eval(&self, job: &Job) -> Response {
        let id = job.frame.get("id").unwrap_or("").to_string();
        let mut drop_mid_response = false;
        let limits = match self.request_limits(&job.frame) {
            Ok(l) => l,
            Err(f) => {
                self.served_err.fetch_add(1, Ordering::Relaxed);
                return Response::whole(Self::err_frame(&id, f.code, &f.message));
            }
        };
        let token = CancelToken::new(&limits);
        self.active
            .lock()
            .expect("active registry poisoned")
            .insert(job.seq, token.clone());

        let result = crate::request::catching(|| {
            match failpoint::check("serve.request") {
                Some(FailAction::Panic) => panic!("injected failpoint panic at `serve.request`"),
                Some(FailAction::Err(msg)) => return Err(EvalFailure::new(ErrorCode::Eval, msg)),
                Some(FailAction::Drop) => drop_mid_response = true,
                Some(FailAction::Sleep(_)) | None => {}
            }
            let source = job.frame.get("spec").ok_or_else(|| {
                EvalFailure::new(ErrorCode::BadRequest, "eval request has no `spec` field")
            })?;
            let spec = self
                .ctx
                .parse(source)
                .map_err(|e| EvalFailure::new(ErrorCode::BadRequest, e.to_string()))?;
            let mut overrides = RequestOverrides::default();
            if let Some(name) = job.frame.get("ops") {
                overrides.ops =
                    Some(parse_ops(name).map_err(|m| EvalFailure::new(ErrorCode::BadRequest, m))?);
            }
            overrides.loop_order = decode_all(&job.frame, "loop_order", parse_loop_order)?;
            let mut extents = self.extents.clone();
            extents.extend(decode_all(&job.frame, "extent", parse_extent)?);
            let refs: Vec<&TensorData> = self.data.iter().collect();
            evaluate_request(
                &self.ctx,
                &spec,
                &overrides,
                self.ops,
                &extents,
                &refs,
                Some(&token),
            )
        });

        self.active
            .lock()
            .expect("active registry poisoned")
            .remove(&job.seq);
        let frame = match result {
            Ok(report) => {
                self.served_ok.fetch_add(1, Ordering::Relaxed);
                Frame::new(FrameKind::Ok)
                    .field("id", &id)
                    .field("report", report)
            }
            Err(f) => {
                self.served_err.fetch_add(1, Ordering::Relaxed);
                Self::err_frame(&id, f.code, &f.message)
            }
        };
        Response {
            frame,
            drop_mid_response,
        }
    }
}

fn worker_loop(d: &Daemon) {
    loop {
        let job = {
            let mut q = d.queue.lock().expect("admission queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = d.available.wait(q).expect("admission queue poisoned");
            }
        };
        let Some(job) = job else { return };
        d.queued.fetch_sub(1, Ordering::Relaxed);
        let response = {
            let _in_flight = GaugeGuard::increment(&d.in_flight);
            d.handle_eval(&job)
        };
        // The receiver may have hung up (dead peer); that is its loss,
        // not ours.
        let _ = job.reply.send(response);
    }
}

/// Writes one response; honors the `drop` failpoint by truncating the
/// frame and severing the connection. `Err` means the connection is
/// done.
fn write_response(stream: &mut Stream, response: &Response) -> Result<(), ()> {
    let bytes = response.frame.encode();
    if response.drop_mid_response {
        let cut = (bytes.len() / 2).max(1);
        let _ = stream.write_all(&bytes[..cut]);
        let _ = stream.flush();
        stream.shutdown();
        return Err(());
    }
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .map_err(|_| ())
}

fn handle_connection(d: &Arc<Daemon>, stream: Stream) {
    let _connections = GaugeGuard::increment(&d.connections);
    match failpoint::check("serve.accept") {
        // A panic here kills only this connection thread — the daemon,
        // its accept loop, and its workers keep serving.
        Some(FailAction::Panic) => panic!("injected failpoint panic at `serve.accept`"),
        Some(FailAction::Err(_)) | Some(FailAction::Drop) => {
            stream.shutdown();
            return;
        }
        Some(FailAction::Sleep(_)) | None => {}
    }
    if stream.set_timeouts(d.io_timeout).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let frame = match wire::read_frame(&mut reader, d.max_frame_bytes) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean EOF
            Err(WireError::Frame(msg)) => {
                // Framing held; report and keep the connection.
                let resp = Response::whole(Daemon::err_frame("", ErrorCode::Protocol, &msg));
                if write_response(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
            Err(WireError::Fatal(msg)) => {
                // Desynchronized; best-effort report, then close.
                let resp = Response::whole(Daemon::err_frame("", ErrorCode::Protocol, &msg));
                let _ = write_response(&mut writer, &resp);
                writer.shutdown();
                return;
            }
            // Dead or timed-out peer: drop the connection, keep the
            // daemon.
            Err(WireError::Io(_)) => return,
        };
        if frame.kind != FrameKind::Req {
            let resp = Response::whole(Daemon::err_frame(
                frame.get("id").unwrap_or(""),
                ErrorCode::Protocol,
                &format!("expected a req frame, got {}", frame.kind),
            ));
            if write_response(&mut writer, &resp).is_err() {
                return;
            }
            continue;
        }
        let id = frame.get("id").unwrap_or("").to_string();
        let response = match frame.get("op") {
            Some("ping") => Response::whole(
                Frame::new(FrameKind::Ok)
                    .field("id", &id)
                    .field("pong", "1"),
            ),
            Some("health") => Response::whole(d.health_frame(&id)),
            Some("eval") => {
                if d.draining.load(Ordering::Relaxed) {
                    Response::whole(Daemon::err_frame(
                        &id,
                        ErrorCode::ShuttingDown,
                        "the daemon is draining toward shutdown",
                    ))
                } else {
                    let (tx, rx) = mpsc::channel();
                    let seq = d.seq.fetch_add(1, Ordering::Relaxed);
                    let admitted = {
                        let mut q = d.queue.lock().expect("admission queue poisoned");
                        if q.closed {
                            Err(ErrorCode::ShuttingDown)
                        } else if q.jobs.len() >= d.queue_depth {
                            Err(ErrorCode::Overloaded)
                        } else {
                            q.jobs.push_back(Job {
                                seq,
                                frame,
                                reply: tx,
                            });
                            d.queued.fetch_add(1, Ordering::Relaxed);
                            Ok(())
                        }
                    };
                    match admitted {
                        Ok(()) => {
                            d.available.notify_one();
                            rx.recv().unwrap_or_else(|_| {
                                Response::whole(Daemon::err_frame(
                                    &id,
                                    ErrorCode::Internal,
                                    "worker vanished before replying",
                                ))
                            })
                        }
                        Err(code) => {
                            if code == ErrorCode::Overloaded {
                                d.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::whole(Daemon::err_frame(
                                &id,
                                code,
                                &format!(
                                    "admission queue is full ({} queued); retry with backoff",
                                    d.queue_depth
                                ),
                            ))
                        }
                    }
                }
            }
            Some(other) => Response::whole(Daemon::err_frame(
                &id,
                ErrorCode::BadRequest,
                &format!("unknown op {other:?} (want eval, health, or ping)"),
            )),
            None => Response::whole(Daemon::err_frame(
                &id,
                ErrorCode::BadRequest,
                "request has no `op` field",
            )),
        };
        if write_response(&mut writer, &response).is_err() {
            return;
        }
    }
}

fn bind(cfg: &ServeConfig) -> Result<Listener, String> {
    if let Some(path) = &cfg.unix_path {
        #[cfg(unix)]
        {
            // A stale socket file from a crashed daemon would make bind
            // fail; remove it (a live daemon holds the listener, not
            // just the file, so this only clears leftovers).
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)
                .map_err(|e| format!("binding unix socket {}: {e}", path.display()))?;
            return Ok(Listener::Unix(listener, path.clone()));
        }
        #[cfg(not(unix))]
        return Err(format!(
            "unix sockets are not supported on this platform ({})",
            path.display()
        ));
    }
    TcpListener::bind(&cfg.addr)
        .map(Listener::Tcp)
        .map_err(|e| format!("binding {}: {e}", cfg.addr))
}

/// Runs the daemon until SIGINT/SIGTERM, then drains gracefully.
///
/// Prints `teaal serve: listening on <addr>` to stdout once bound (the
/// soak driver and tests parse this line for the ephemeral port), and a
/// drain summary to stderr on shutdown.
///
/// # Errors
///
/// A human-readable message when binding or configuration fails; once
/// serving, faults are contained per connection/request and never
/// surface here.
pub fn serve(cfg: ServeConfig) -> Result<ExitCode, String> {
    install_signal_handlers();
    SHUTDOWN_REQUESTED.store(false, Ordering::SeqCst);
    let listener = bind(&cfg)?;
    listener
        .set_nonblocking()
        .map_err(|e| format!("listener nonblocking mode: {e}"))?;

    let ctx = EvalContext::new();
    let SharedOptions {
        tensors,
        extents,
        ops,
        limits,
    } = cfg.shared;
    if let Some(bytes) = limits.max_resident_cache_bytes {
        ctx.set_max_cache_bytes(bytes);
    }
    let data = compress_dataset(tensors)?;
    let daemon = Arc::new(Daemon {
        ctx,
        data,
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            closed: false,
        }),
        available: Condvar::new(),
        queue_depth: cfg.queue_depth.max(1),
        workers: cfg.workers.max(1),
        io_timeout: cfg.io_timeout,
        max_frame_bytes: cfg.max_frame_bytes,
        limit_caps: limits,
        ops,
        extents,
        start: Instant::now(),
        draining: AtomicBool::new(false),
        seq: AtomicU64::new(0),
        active: Mutex::new(HashMap::new()),
        in_flight: AtomicU64::new(0),
        queued: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        served_ok: AtomicU64::new(0),
        served_err: AtomicU64::new(0),
        shed_overloaded: AtomicU64::new(0),
    });

    let workers: Vec<_> = (0..daemon.workers)
        .map(|i| {
            let d = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name(format!("teaal-serve-worker-{i}"))
                .spawn(move || worker_loop(&d))
                .map_err(|e| format!("spawning worker {i}: {e}"))
        })
        .collect::<Result<_, _>>()?;

    println!("teaal serve: listening on {}", listener.local_display());
    let _ = std::io::stdout().flush();

    // Accept until a shutdown signal arrives. The listener is
    // nonblocking so the loop observes the flag within one poll tick.
    while !SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let d = Arc::clone(&daemon);
                let spawned = std::thread::Builder::new()
                    .name("teaal-serve-conn".to_string())
                    .spawn(move || handle_connection(&d, stream));
                if spawned.is_err() {
                    // Out of threads: shed this connection, keep serving.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }

    // Graceful drain: stop accepting, let admitted work finish up to
    // the deadline, then cancel stragglers and flush queued requests
    // with `shutting-down`.
    drop(listener);
    daemon.draining.store(true, Ordering::Relaxed);
    eprintln!(
        "teaal serve: drain started ({} in flight, {} queued, budget {} ms)",
        daemon.in_flight.load(Ordering::Relaxed),
        daemon.queued.load(Ordering::Relaxed),
        cfg.drain.as_millis()
    );
    let deadline = Instant::now() + cfg.drain;
    while Instant::now() < deadline {
        if daemon.in_flight.load(Ordering::Relaxed) == 0
            && daemon.queued.load(Ordering::Relaxed) == 0
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let cancelled = {
        let active = daemon.active.lock().expect("active registry poisoned");
        for token in active.values() {
            token.cancel();
        }
        active.len()
    };
    let flushed = {
        let mut q = daemon.queue.lock().expect("admission queue poisoned");
        q.closed = true;
        let pending: Vec<Job> = q.jobs.drain(..).collect();
        drop(q);
        daemon.available.notify_all();
        let n = pending.len();
        for job in pending {
            daemon.queued.fetch_sub(1, Ordering::Relaxed);
            let id = job.frame.get("id").unwrap_or("");
            let _ = job.reply.send(Response::whole(Daemon::err_frame(
                id,
                ErrorCode::ShuttingDown,
                "the daemon shut down before this request reached a worker",
            )));
        }
        n
    };
    for worker in workers {
        let _ = worker.join();
    }
    // Give connection handlers a bounded moment to flush final
    // responses; single-shot clients disconnect right after reading.
    let flush_deadline = Instant::now() + CONNECTION_FLUSH_GRACE;
    while daemon.connections.load(Ordering::Relaxed) > 0 && Instant::now() < flush_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    eprintln!(
        "teaal serve: drained ({} cancelled, {} flushed from queue, {} ok / {} err served)",
        cancelled,
        flushed,
        daemon.served_ok.load(Ordering::Relaxed),
        daemon.served_err.load(Ordering::Relaxed)
    );
    Ok(ExitCode::SUCCESS)
}

/// Parses `teaal serve` command-line arguments (everything after the
/// subcommand) and runs the daemon. The dataset, operator table,
/// extents, limit caps and cache bound come from the options `teaal`
/// shares ([`SharedOptions`]), with `--random NAME=R1,R2:RxC:NNZ`.
///
/// # Errors
///
/// A usage message for unknown or malformed options.
pub fn run_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = ServeConfig::default();
    cfg.shared = SharedOptions::scan(
        &mut Argv::new(args, 2),
        RandomRanks::Inline,
        |flag, argv| {
            match flag {
                "--addr" => cfg.addr = argv.value("HOST:PORT")?.to_string(),
                "--unix" => cfg.unix_path = Some(PathBuf::from(argv.value("a socket path")?)),
                "--workers" => cfg.workers = argv.positive("a positive integer")?,
                "--queue" => cfg.queue_depth = argv.positive("a positive integer")?,
                "--drain-ms" => {
                    cfg.drain = Duration::from_millis(argv.parsed("an integer (milliseconds)")?);
                }
                "--io-timeout-ms" => {
                    cfg.io_timeout =
                        Duration::from_millis(argv.positive("a positive integer (milliseconds)")?);
                }
                "--max-frame-kb" => {
                    cfg.max_frame_bytes = argv
                        .positive::<usize>("a positive integer (KiB)")?
                        .saturating_mul(1024);
                }
                other => return Err(format!("unknown serve option {other}")),
            }
            Ok(())
        },
    )?;
    serve(cfg)
}
