//! # wsn-serve
//!
//! A concurrent link-configuration query service: a long-running TCP
//! server speaking a JSON-lines protocol over the whole reproduction
//! stack — the discrete-event simulator (`simulate`), the closed-form
//! models of Eqs. 2–9 (`predict`), the epsilon-constraint optimizer
//! (`tune`), and the multi-link scenario catalog (`scenario`) — plus
//! `stats`, `cache`, and `shutdown` control ops.
//!
//! One request per line, one response line per request; responses echo
//! the request's `id` so a client may pipeline. The protocol is specified
//! in `docs/SERVE.md`; start a server with `repro serve --addr
//! 127.0.0.1:0` or embed one:
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use wsn_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?; // 127.0.0.1, OS port
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = std::net::TcpStream::connect(addr)?;
//! writeln!(client, r#"{{"id":1,"op":"predict","config":{{"distance_m":20.0}}}}"#)?;
//! let mut line = String::new();
//! BufReader::new(client.try_clone()?).read_line(&mut line)?;
//! assert!(line.contains("\"ok\":true"));
//! writeln!(client, r#"{{"op":"shutdown"}}"#)?;
//! handle.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Architecture: connections are owned by a sharded nonblocking event
//! loop ([`reactor`], on a std-only syscall shim in [`sys`]) where an idle
//! connection costs one file descriptor. Complete request lines are
//! parsed and validated on the shard thread, which also builds the
//! request's cache key (the canonical bit pattern of every parameter) and
//! probes the memory tier of the result cache with it: a hit is answered
//! right there, without touching the queue or a worker, and so is a miss
//! of bounded cost (every `predict`, and a `simulate` that is analytic or
//! carries at most [`INLINE_MAX_PACKETS`] packets). Everything else —
//! long simulations, grid scans, scenarios, expired requests, and the
//! keyless control ops — is pushed onto a bounded [`queue::JobQueue`],
//! or refused with `overloaded` at once when it is full; a fixed worker
//! pool pops jobs, consults the tiered result cache again (the sharded
//! in-memory [`cache`] over the optional persistent [`store`]), executes
//! misses through the shared [`engine::Engine`], and hands the response
//! line back to the connection's shard. Every parsed line gets exactly one
//! answer, even after the client half-closes. `shutdown` closes the
//! queue: pending jobs still get answers, later lines (hits included) are
//! refused and their connections closed, then everything drains and
//! `run` returns. On targets without the epoll shim, `run` fails with
//! an `Unsupported` I/O error.

#![deny(unsafe_code)] // unsafe lives only in `sys`, behind its own allow
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod stats;
pub mod store;
pub mod sys;

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsn_obs::log::EventLog;
use wsn_obs::trace::TraceIdGen;
use wsn_sim_engine::mode::EngineMode;

use crate::engine::{Answer, Engine, ExecError, SHUTDOWN_BODY};
use crate::protocol::{
    cache_key, envelope_err, envelope_ok, parse_request, ErrCode, Request, RequestBody,
};
use crate::queue::{JobQueue, PushError};
use crate::reactor::{Reactor, ReactorConn};
use crate::store::Store;

/// Tuning knobs for one server instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Listen address, `host:port` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads; 0 means available parallelism capped at 8.
    pub threads: usize,
    /// Most jobs the queue holds before backpressure kicks in.
    pub queue_depth: usize,
    /// Default per-request deadline, ms (overridable per request via
    /// `deadline_ms`); measured from arrival to the start of execution.
    /// An expired request is never answered from the cache.
    pub default_deadline_ms: u64,
    /// Result-cache shards.
    pub cache_shards: usize,
    /// Append one JSONL access-log record per request to this file
    /// (schema in `docs/SERVE.md`); `None` disables logging entirely.
    pub access_log: Option<PathBuf>,
    /// Requests whose execution takes at least this long also draw a
    /// `slow_request` warning in the access log; 0 disables the check.
    pub slow_request_ms: u64,
    /// Event-loop shards; 0 means available parallelism capped at 4.
    pub reactor_shards: usize,
    /// Directory of the persistent result store (tier 2 of the cache);
    /// `None` keeps the cache memory-only.
    pub store: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_depth: 256,
            default_deadline_ms: 30_000,
            cache_shards: 16,
            access_log: None,
            slow_request_ms: 1_000,
            reactor_shards: 0,
            store: None,
        }
    }
}

/// Observability shared by every shard and worker thread: the (possibly
/// disabled) access log, the trace-id generator, and the slow threshold.
#[derive(Debug)]
struct ServeObs {
    log: EventLog,
    traces: TraceIdGen,
    slow_us: u64,
}

/// Everything a reactor shard needs to turn a request line into an inline
/// answer or a queued job.
#[derive(Debug)]
pub(crate) struct ReactorCtx {
    pub(crate) engine: Arc<Engine>,
    pub(crate) queue: Arc<JobQueue<Job>>,
    pub(crate) obs: Arc<ServeObs>,
    pub(crate) default_deadline_ms: u64,
    /// Set once a `shutdown` op runs. From then on no line is answered
    /// inline: every one takes the queue and, once it is closed, draws
    /// the shutting-down error and closes its connection.
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// Accept-loop polling period while idle.
const POLL: Duration = Duration::from_millis(25);

/// What can go wrong starting or running a server.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        /// The requested address.
        addr: String,
        /// The underlying socket error.
        source: std::io::Error,
    },
    /// A non-transient I/O failure on the listening socket or the
    /// reactor's epoll machinery.
    Io(std::io::Error),
    /// The access-log file could not be opened.
    AccessLog {
        /// The requested log path.
        path: PathBuf,
        /// The underlying file error.
        source: std::io::Error,
    },
    /// The persistent result store could not be opened (I/O failure, or
    /// corruption before the tail of the last segment).
    Store {
        /// The requested store directory.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Io(e) => write!(f, "server socket error: {e}"),
            ServeError::AccessLog { path, source } => {
                write!(f, "cannot open access log {}: {source}", path.display())
            }
            ServeError::Store { path, source } => {
                write!(f, "cannot open result store {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::Io(e) => Some(e),
            ServeError::AccessLog { source, .. } => Some(source),
            ServeError::Store { source, .. } => Some(source),
        }
    }
}

/// One parsed request, answered inline or by the pool.
#[derive(Debug)]
pub(crate) struct Job {
    request: Request,
    /// The request's cache key, built once on the front end; `None` for
    /// the live control ops.
    key: Option<String>,
    /// The connection the line came from; the job's one answer goes out
    /// through [`ReactorConn::answer`].
    conn: Arc<ReactorConn>,
    /// Per-request trace id, rendered once (16 hex chars) when the line is
    /// parsed; echoed in the response envelope and every access-log record
    /// so a client complaint can be joined to the log.
    trace: String,
    /// When the front-end enqueued this job — the start of the
    /// queue-wait clock.
    enqueued: Instant,
    deadline: Instant,
    /// The client's address, for the access log.
    peer: Arc<str>,
}

/// A bound, not-yet-running query server.
///
/// The engine (and with it the tiered result cache) exists from
/// [`bind`](Server::bind) on, so a warm-up pass ([`warm`](Server::warm))
/// can seed the cache before the first client connects.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local: SocketAddr,
    config: ServerConfig,
    engine: Arc<Engine>,
}

impl Server {
    /// Binds the configured address and opens the persistent store (when
    /// configured).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound (in use,
    /// unresolvable, privileged port…); [`ServeError::Store`] when the
    /// store directory cannot be opened or is corrupt.
    pub fn bind(config: ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        let local = listener.local_addr().map_err(ServeError::Io)?;
        let mut engine = Engine::new(config.cache_shards);
        if let Some(path) = &config.store {
            let store = Store::open(path).map_err(|source| ServeError::Store {
                path: path.clone(),
                source,
            })?;
            engine = engine.with_store(store);
        }
        Ok(Server {
            listener,
            local,
            config,
            engine: Arc::new(engine),
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Seeds the tiered cache with precomputed `(cache key, result
    /// body)` entries — the `--warm-from-campaign` path. Returns how
    /// many entries were installed.
    ///
    /// # Errors
    ///
    /// Propagates store append failures.
    pub fn warm(
        &self,
        entries: impl IntoIterator<Item = (String, String)>,
    ) -> std::io::Result<usize> {
        let mut installed = 0usize;
        for (key, body) in entries {
            self.engine.warm_insert(&key, &body)?;
            installed += 1;
        }
        Ok(installed)
    }

    /// Runs the accept loop until a `shutdown` request drains the server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the listening socket or the reactor itself
    /// fails (on a target without the epoll shim, at once with
    /// `ErrorKind::Unsupported`); per-connection errors never abort the
    /// server.
    pub fn run(self) -> Result<(), ServeError> {
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get().min(8))
        } else {
            self.config.threads
        };
        let engine = Arc::clone(&self.engine);
        let queue: Arc<JobQueue<Job>> = Arc::new(JobQueue::new(self.config.queue_depth));
        let shutdown = Arc::new(AtomicBool::new(false));
        let log = match &self.config.access_log {
            Some(path) => EventLog::to_file(path).map_err(|source| ServeError::AccessLog {
                path: path.clone(),
                source,
            })?,
            None => EventLog::disabled(),
        };
        let obs = Arc::new(ServeObs {
            log,
            traces: TraceIdGen::new(),
            slow_us: self.config.slow_request_ms.saturating_mul(1_000),
        });
        obs.log
            .info("server_started")
            .str("addr", &self.local.to_string())
            .u64("threads", threads as u64)
            .u64("queue_depth", self.config.queue_depth as u64)
            .emit();

        self.listener
            .set_nonblocking(true)
            .map_err(ServeError::Io)?;
        let ctx = Arc::new(ReactorCtx {
            engine: Arc::clone(&engine),
            queue: Arc::clone(&queue),
            obs: Arc::clone(&obs),
            default_deadline_ms: self.config.default_deadline_ms,
            shutdown: Arc::clone(&shutdown),
        });
        let shards = if self.config.reactor_shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
        } else {
            self.config.reactor_shards
        };
        let mut reactor = Reactor::start(shards, ctx).map_err(ServeError::Io)?;

        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let obs = Arc::clone(&obs);
            workers.push(std::thread::spawn(move || {
                worker_loop(&engine, &queue, &shutdown, &obs)
            }));
        }

        while !shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    // Response lines are small; Nagle+delayed-ACK would add
                    // ~40 ms to every answer.
                    let _ = stream.set_nodelay(true);
                    reactor.assign(stream, peer);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::Io(e)),
            }
        }
        // Graceful drain: the queue is closed, workers finish every
        // pending job (buffering answers through the still-running
        // shards), and only then do the shards stop and deliver what
        // remains.
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        reactor.shutdown();

        let snapshot = engine.stats.snapshot(
            engine.cache.hits(),
            engine.cache.misses(),
            engine.cache.len(),
            engine.cache.evictions(),
        );
        obs.log
            .info("server_stopped")
            .u64("requests", snapshot.requests)
            .u64("errors", snapshot.errors)
            .u64("deadline_exceeded", snapshot.deadline_exceeded)
            .f64("uptime_s", snapshot.uptime_s)
            .emit();
        Ok(())
    }
}

/// Writes one access-log record; every request answered inline or queued
/// gets exactly one, whatever its outcome.
#[allow(clippy::too_many_arguments)]
fn log_request(
    obs: &ServeObs,
    job: &Job,
    outcome: &str,
    ok: bool,
    cached: bool,
    queue_wait_us: u64,
    exec_us: u64,
    bytes: usize,
) {
    obs.log
        .info("request")
        .str("trace", &job.trace)
        .str("op", job.request.op.name())
        .str("id", &job.request.id)
        .str("peer", &job.peer)
        .str("outcome", outcome)
        .bool("ok", ok)
        .bool("cached", cached)
        .u64("queue_wait_us", queue_wait_us)
        .u64("exec_us", exec_us)
        .u64("bytes", bytes as u64)
        .emit();
}

/// Sends the answer to one executed request and accounts for it: the `ok`
/// or error envelope, the stats sample, the access-log record and, past the
/// threshold, a `slow_request` warning. The one answer path shared by
/// worker jobs and the front end's inline answers (memory-tier hits and
/// bounded-cost misses); `exec_us`, the envelope's `service_us`, runs from
/// `started` to the answer.
fn respond(
    engine: &Engine,
    obs: &ServeObs,
    job: &Job,
    result: Result<Answer, ExecError>,
    started: Instant,
    queue_wait_us: u64,
) {
    let exec_us = started.elapsed().as_micros() as u64;
    let (id, op, trace) = (&job.request.id, job.request.op, job.trace.as_str());
    match result {
        Ok(answer) => {
            job.conn.answer(&envelope_ok(
                id,
                op,
                answer.cached,
                exec_us,
                trace,
                &answer.body,
            ));
            engine.stats.record_done(op, true, exec_us);
            log_request(
                obs,
                job,
                "ok",
                true,
                answer.cached,
                queue_wait_us,
                exec_us,
                answer.body.len(),
            );
            if obs.slow_us > 0 && exec_us >= obs.slow_us {
                obs.log
                    .warn("slow_request")
                    .str("trace", trace)
                    .str("op", op.name())
                    .u64("exec_us", exec_us)
                    .u64("threshold_us", obs.slow_us)
                    .emit();
            }
        }
        Err(error) => {
            job.conn.answer(&envelope_err(
                id,
                Some(op),
                Some(trace),
                error.code,
                &error.message,
            ));
            // A scan the engine aborted cooperatively counts with the
            // jobs that died in the queue, not as an executed error —
            // both are the same client-visible contract (`deadline`),
            // and its partial exec time would poison the quantiles.
            if error.code == ErrCode::Deadline {
                engine.stats.record_deadline_exceeded(op);
                log_request(
                    obs,
                    job,
                    "deadline_exceeded",
                    false,
                    false,
                    queue_wait_us,
                    exec_us,
                    0,
                );
            } else {
                engine.stats.record_done(op, false, exec_us);
                log_request(obs, job, "error", false, false, queue_wait_us, exec_us, 0);
            }
        }
    }
}

/// Pops jobs until the queue closes and drains, answering each one.
///
/// Timing contract: `queue_wait_us` runs from enqueue to pop and lands in
/// the queue-wait histogram for every popped job; `exec_us` (the
/// envelope's `service_us`) runs from pop to answer and is recorded only
/// for jobs that actually executed — deadline-expired jobs are counted
/// under `deadline_exceeded` instead of polluting the execution
/// distribution with near-zero samples.
fn worker_loop(engine: &Engine, queue: &JobQueue<Job>, shutdown: &AtomicBool, obs: &ServeObs) {
    while let Some(mut job) = queue.pop() {
        let popped = Instant::now();
        let queue_wait_us = popped.duration_since(job.enqueued).as_micros() as u64;
        engine.stats.record_dequeued(queue_wait_us);
        let id = &job.request.id;
        let op = job.request.op;
        let trace = job.trace.as_str();

        if popped > job.deadline {
            let overdue = popped.duration_since(job.deadline).as_millis();
            job.conn.answer(&envelope_err(
                id,
                Some(op),
                Some(trace),
                ErrCode::Deadline,
                &format!("deadline exceeded: job spent its budget (+{overdue} ms) in the queue"),
            ));
            engine.stats.record_deadline_exceeded(op);
            log_request(
                obs,
                &job,
                "deadline_exceeded",
                false,
                false,
                queue_wait_us,
                0,
                0,
            );
            obs.log
                .warn("deadline_exceeded")
                .str("trace", trace)
                .str("op", op.name())
                .str("peer", &job.peer)
                .u64("queue_wait_us", queue_wait_us)
                .u64("overdue_ms", overdue as u64)
                .emit();
            continue;
        }

        let result = if matches!(job.request.body, RequestBody::Shutdown) {
            // Raised before the answer goes out, so a client that has seen
            // it can rely on every later line being refused.
            shutdown.store(true, Ordering::SeqCst);
            queue.close();
            Ok(Answer {
                body: Arc::new(SHUTDOWN_BODY.to_string()),
                cached: false,
            })
        } else {
            let key = job.key.take();
            engine.execute_keyed(&job.request.body, key, Some(job.deadline))
        };
        respond(engine, obs, &job, result, popped, queue_wait_us);
    }
}

/// What the front-end should do with the connection after one line.
pub(crate) enum LineDisposition {
    /// Keep reading.
    Continue,
    /// Stop serving this connection (after flushing pending answers).
    Close,
}

/// Most packets a golden or fast `simulate` may carry and still be
/// executed on the front-end thread when it misses the memory tier. A
/// 100-packet golden miss takes 32 µs at the median and 44 µs at p90
/// (release build, 2-vCPU VM), which bounds how long an inline miss keeps
/// a reactor shard from its other connections.
pub const INLINE_MAX_PACKETS: u64 = 100;

/// Whether a request that missed the memory tier is cheap enough to run on
/// the front-end thread: every `predict`, an analytic `simulate`, and a
/// golden or fast `simulate` of at most [`INLINE_MAX_PACKETS`] packets.
/// Everything else (long simulations, scans, scenarios, control ops) takes
/// the queue.
fn runs_inline(body: &RequestBody) -> bool {
    match body {
        RequestBody::Predict { .. } => true,
        RequestBody::Simulate {
            engine: EngineMode::Analytic,
            ..
        } => true,
        RequestBody::Simulate { packets, .. } => *packets <= INLINE_MAX_PACKETS,
        _ => false,
    }
}

/// Validates one request line, then answers it on the spot or enqueues it.
/// A full queue refuses the job at once with `overloaded`: a shard must
/// never block, or every connection on it would stall.
///
/// Unless the request has expired or a `shutdown` has run, two kinds of
/// request are answered on the calling thread through [`respond`]: a
/// memory-tier hit, and a miss that [`runs_inline`] (executed through
/// [`Engine::execute_keyed`] right here). Either one's `service_us` runs
/// from the start of the probe or of the execution to the answer; it draws
/// an execution sample but no queue-wait sample, and its access-log record
/// carries `queue_wait_us:0`. The probe counts only hits; a miss is counted
/// by `execute_keyed`'s own lookup, inline or on a worker, so each request
/// counts exactly one of the two. Expired requests are never probed (they
/// take the queue and draw the `deadline` error), and keyless control ops
/// always take the queue.
pub(crate) fn handle_request_line(
    line: &str,
    conn: &Arc<ReactorConn>,
    peer: &Arc<str>,
    ctx: &ReactorCtx,
) -> LineDisposition {
    if line.trim().is_empty() {
        return LineDisposition::Continue;
    }
    let started = Instant::now();
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(rejection) => {
            conn.send_line(&envelope_err(
                &rejection.id,
                None,
                None,
                rejection.code,
                &rejection.error,
            ));
            ctx.engine.stats.record_rejected(None);
            ctx.obs
                .log
                .warn("request_rejected")
                .str("peer", peer)
                .str("id", &rejection.id)
                .str("code", rejection.code.name())
                .str("error", &rejection.error)
                .emit();
            return LineDisposition::Continue;
        }
    };
    let budget_ms = request.deadline_ms.unwrap_or(ctx.default_deadline_ms);
    conn.begin_job();
    let mut job = Job {
        key: cache_key(&request.body),
        deadline: started + Duration::from_millis(budget_ms),
        conn: Arc::clone(conn),
        trace: ctx.obs.traces.next().to_string(),
        enqueued: started,
        peer: Arc::clone(peer),
        request,
    };
    let probed = Instant::now();
    if probed < job.deadline && !ctx.shutdown.load(Ordering::Relaxed) {
        if let Some(body) = job
            .key
            .as_deref()
            .and_then(|key| ctx.engine.cache.probe(key))
        {
            let hit = Ok(Answer { body, cached: true });
            respond(&ctx.engine, &ctx.obs, &job, hit, probed, 0);
            return LineDisposition::Continue;
        }
        if runs_inline(&job.request.body) {
            let started = Instant::now();
            let key = job.key.take();
            let result = ctx
                .engine
                .execute_keyed(&job.request.body, key, Some(job.deadline));
            respond(&ctx.engine, &ctx.obs, &job, result, started, 0);
            return LineDisposition::Continue;
        }
    }
    ctx.engine.stats.record_enqueued();
    match ctx.queue.push(job) {
        Ok(()) => LineDisposition::Continue,
        Err(PushError::Full(job)) => {
            ctx.engine.stats.record_push_refused();
            job.conn.answer(&envelope_err(
                &job.request.id,
                Some(job.request.op),
                Some(&job.trace),
                ErrCode::Overloaded,
                "server busy: request queue is full",
            ));
            ctx.engine.stats.record_rejected(Some(job.request.op));
            ctx.obs
                .log
                .warn("queue_full")
                .str("trace", &job.trace)
                .str("op", job.request.op.name())
                .str("peer", peer)
                .emit();
            LineDisposition::Continue
        }
        Err(PushError::Closed(job)) => {
            ctx.engine.stats.record_push_refused();
            job.conn.answer(&envelope_err(
                &job.request.id,
                Some(job.request.op),
                Some(&job.trace),
                ErrCode::Overloaded,
                "server is shutting down",
            ));
            LineDisposition::Close
        }
    }
}

/// Convenient glob-import of the serving layer.
pub mod prelude {
    pub use crate::engine::{Engine, ExecError};
    pub use crate::protocol::{ErrCode, Op, Request, RequestBody};
    pub use crate::stats::{LatencyQuantiles, ServeStats, StatsSnapshot};
    pub use crate::store::Store;
    pub use crate::{ServeError, Server, ServerConfig};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn request_line(client: &mut TcpStream, line: &str) -> String {
        writeln!(client, "{line}").unwrap();
        let mut response = String::new();
        BufReader::new(client.try_clone().unwrap())
            .read_line(&mut response)
            .unwrap();
        response
    }

    #[test]
    fn bind_run_query_shutdown_roundtrip() {
        let server = Server::bind(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());

        let mut client = TcpStream::connect(addr).unwrap();
        let response = request_line(&mut client, r#"{"id":"q","op":"predict"}"#);
        assert!(response.contains("\"ok\":true"), "{response}");
        assert!(response.contains("\"id\":\"q\""), "{response}");

        let response = request_line(&mut client, r#"{"id":2,"op":"shutdown"}"#);
        assert!(response.contains("shutting_down"), "{response}");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let err = Server::bind(ServerConfig {
            addr: "256.0.0.1:1".to_string(),
            ..ServerConfig::default()
        })
        .unwrap_err();
        match err {
            ServeError::Bind { addr, .. } => assert_eq!(addr, "256.0.0.1:1"),
            other => panic!("expected Bind, got {other}"),
        }
    }
}
