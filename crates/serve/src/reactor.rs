//! The sharded nonblocking event-loop core: N reactor shards, each
//! owning a set of accepted connections on one epoll instance, so 10k
//! mostly-idle clients cost file descriptors instead of threads.
//!
//! Each shard runs one thread around [`crate::sys::Epoll::wait`]. A connection
//! lives entirely on its shard: the shard reads into a per-connection
//! buffer, frames complete `\n`-terminated lines (and, at end of input, a
//! final line without one), and parses them with `handle_request_line`.
//! A memory-tier cache hit, or a miss of bounded cost (see
//! [`crate::INLINE_MAX_PACKETS`]), is answered on the shard itself: the
//! answer lands in the connection's write buffer and the `flush_conn` that
//! ends every read pass writes it, without waiting on the queue, a worker
//! or the eventfd wake-up. Everything else goes to the shared bounded
//! worker queue. Workers answer through a `ReactorConn` handle that appends to
//! the connection's write buffer and wakes the shard via its eventfd; the
//! shard flushes opportunistically and falls back to `EPOLLOUT` interest
//! when the socket pushes back.
//!
//! A full queue never blocks a shard — one stalled push would freeze every
//! connection on it. The push is refused at once and the line answered
//! `overloaded`, which is also the honest signal an open-loop client wants
//! under saturation.
//!
//! A connection that has seen end of input (or must close after a refusal)
//! drains: it stops asking for input, and closes once its out-buffer is
//! empty **and** every job built from its lines has been answered, so a
//! client that half-closes still gets every answer.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::protocol::MAX_LINE_BYTES;
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::{handle_request_line, LineDisposition, ReactorCtx};

/// Eventfd wake token; connection tokens start above it.
const WAKE_TOKEN: u64 = 0;

/// Readiness reports fetched per `epoll_pwait`.
const MAX_EVENTS: usize = 256;

/// Idle wait bound, ms: the loop re-checks its stop flag at least this
/// often even if no wake arrives.
const WAIT_MS: i32 = 100;

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Most bytes a connection's write buffer may hold before the server
/// gives up on a client that stopped reading (8 MiB).
const MAX_OUT_BUFFER: usize = 8 << 20;

/// State a shard shares with the accept loop and with workers: the wake
/// eventfd, freshly accepted connections, and tokens with pending writes.
#[derive(Debug)]
pub(crate) struct ShardShared {
    efd: EventFd,
    inbox: Mutex<Vec<(TcpStream, SocketAddr)>>,
    dirty: Mutex<Vec<u64>>,
}

/// One connection's write half, handed to workers inside jobs. Appends
/// land in the connection's out-buffer; the owning shard does the actual
/// socket writes.
#[derive(Debug)]
pub(crate) struct ReactorConn {
    token: u64,
    shard: Arc<ShardShared>,
    out: Mutex<Vec<u8>>,
    /// Jobs built from this connection's lines and not yet answered; a
    /// draining connection stays open until this reaches zero.
    jobs: AtomicUsize,
    /// Set once the shard closed (or condemned) the connection; late
    /// answers are dropped, since a vanished client is not a server error.
    dead: AtomicBool,
}

impl ReactorConn {
    /// Delivers a line that answers no job (a rejected or oversized line).
    pub(crate) fn send_line(&self, line: &str) {
        self.deliver(line, false);
    }

    /// Counts one more job built from this connection's lines; its
    /// [`answer`](Self::answer) ends it.
    pub(crate) fn begin_job(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// Delivers a job's one answer and ends the job.
    pub(crate) fn answer(&self, line: &str) {
        self.deliver(line, true);
    }

    /// Appends `line` and its terminator to the out-buffer, then wakes the
    /// shard to flush it.
    fn deliver(&self, line: &str, ends_job: bool) {
        if !self.dead.load(Ordering::Acquire) {
            let mut out = self.out.lock().expect("reactor out buffer");
            if out.len() + line.len() + 1 > MAX_OUT_BUFFER {
                // The client has MAX_OUT_BUFFER of unread answers; it is
                // not reading. Condemn the connection rather than buffer
                // without bound.
                self.dead.store(true, Ordering::Release);
            } else {
                out.extend_from_slice(line.as_bytes());
                out.push(b'\n');
            }
        }
        if ends_job {
            // After the append and before the wake, so the flush the wake
            // triggers sees this answer in the buffer whenever it sees the
            // count at zero.
            self.jobs.fetch_sub(1, Ordering::Release);
        }
        self.shard
            .dirty
            .lock()
            .expect("reactor dirty list")
            .push(self.token);
        self.shard.efd.notify();
    }
}

/// A shard-owned connection: the socket, its read/write framing state,
/// and the worker-facing handle.
#[derive(Debug)]
struct ConnState {
    stream: TcpStream,
    handle: Arc<ReactorConn>,
    peer: Arc<str>,
    /// Received bytes not yet consumed as lines.
    rbuf: Vec<u8>,
    /// How far into `rbuf` is known to hold no newline, so each received
    /// byte is scanned for one once.
    scanned: usize,
    /// The epoll event set currently registered for the socket.
    interest: u32,
    /// No more input is read; close once the out-buffer is empty and every
    /// job is answered (EOF seen, fatal protocol error, or queue closed
    /// for shutdown).
    draining: bool,
    /// An oversized line is being absorbed: discard input until its
    /// terminating newline, then drain and close.
    absorbing: bool,
}

/// The running reactor: shard threads plus the shared state the accept
/// loop needs to feed them.
#[derive(Debug)]
pub(crate) struct Reactor {
    shards: Vec<Arc<ShardShared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    next: usize,
}

impl Reactor {
    /// Starts `shards` event-loop threads.
    ///
    /// # Errors
    ///
    /// Fails when an epoll instance or eventfd cannot be created — on
    /// unsupported targets that is `ErrorKind::Unsupported`.
    pub fn start(shards: usize, ctx: Arc<ReactorCtx>) -> std::io::Result<Reactor> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut shared = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard_id in 0..shards.max(1) {
            let epoll = Epoll::new()?;
            let efd = EventFd::new()?;
            epoll.add(efd.raw_fd(), EPOLLIN, WAKE_TOKEN)?;
            let shard = Arc::new(ShardShared {
                efd,
                inbox: Mutex::new(Vec::new()),
                dirty: Mutex::new(Vec::new()),
            });
            shared.push(Arc::clone(&shard));
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&stop);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("reactor-{shard_id}"))
                    .spawn(move || shard_loop(&epoll, &shard, &ctx, &stop))
                    .map_err(std::io::Error::other)?,
            );
        }
        Ok(Reactor {
            shards: shared,
            handles,
            stop,
            next: 0,
        })
    }

    /// Hands a freshly accepted connection to the next shard round-robin.
    pub fn assign(&mut self, stream: TcpStream, peer: SocketAddr) {
        let shard = &self.shards[self.next % self.shards.len()];
        self.next = self.next.wrapping_add(1);
        shard
            .inbox
            .lock()
            .expect("reactor inbox")
            .push((stream, peer));
        shard.efd.notify();
    }

    /// Stops every shard, letting each flush its remaining out-buffers
    /// (call only after the worker pool has drained, so every pending
    /// answer is already buffered), and joins the threads.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.efd.notify();
        }
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// One shard's event loop: wait, read, frame, enqueue, flush, repeat.
fn shard_loop(epoll: &Epoll, shard: &Arc<ShardShared>, ctx: &Arc<ReactorCtx>, stop: &AtomicBool) {
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_token: u64 = WAKE_TOKEN + 1;
    let mut events = vec![EpollEvent::default(); MAX_EVENTS];

    loop {
        let n = epoll.wait(&mut events, WAIT_MS).unwrap_or(0);
        for event in events.iter().take(n) {
            let token = event.data();
            let bits = event.bits();
            if token == WAKE_TOKEN {
                shard.efd.drain();
                continue;
            }
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                handle_readable(epoll, &mut conns, token, ctx);
            }
            if bits & EPOLLOUT != 0 {
                flush_conn(epoll, &mut conns, token);
            }
        }

        // Adopt connections the accept loop queued for this shard.
        let adopted: Vec<(TcpStream, SocketAddr)> =
            std::mem::take(&mut *shard.inbox.lock().expect("reactor inbox"));
        for (stream, peer) in adopted {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = next_token;
            next_token += 1;
            let interest = EPOLLIN | EPOLLRDHUP;
            if epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                continue;
            }
            let handle = Arc::new(ReactorConn {
                token,
                shard: Arc::clone(shard),
                out: Mutex::new(Vec::new()),
                jobs: AtomicUsize::new(0),
                dead: AtomicBool::new(false),
            });
            conns.insert(
                token,
                ConnState {
                    stream,
                    handle,
                    peer: Arc::from(peer.to_string()),
                    rbuf: Vec::new(),
                    scanned: 0,
                    interest,
                    draining: false,
                    absorbing: false,
                },
            );
        }

        // Flush connections workers marked dirty since the last pass.
        let dirty: Vec<u64> = std::mem::take(&mut *shard.dirty.lock().expect("reactor dirty list"));
        for token in dirty {
            flush_conn(epoll, &mut conns, token);
        }

        if stop.load(Ordering::SeqCst) {
            break;
        }
    }

    // Shutdown: workers have drained, every answer is buffered. Deliver
    // what remains with blocking writes (bounded by a timeout) so the
    // final responses — including the `shutting_down` envelope — land.
    for (_, conn) in conns {
        conn.handle.dead.store(true, Ordering::Release);
        let out = conn.handle.out.lock().expect("reactor out buffer");
        if out.is_empty() {
            continue;
        }
        let mut stream = conn.stream;
        if stream.set_nonblocking(false).is_ok() {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
            let _ = stream.write_all(&out);
            let _ = stream.flush();
        }
    }
}

/// Removes a connection from the shard, condemning its handle so late
/// worker answers are dropped instead of written to a dead socket.
fn close_conn(epoll: &Epoll, conns: &mut HashMap<u64, ConnState>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        conn.handle.dead.store(true, Ordering::Release);
        let _ = epoll.del(conn.stream.as_raw_fd());
    }
}

/// Reads everything currently available on `token`, frames complete
/// lines, and answers or enqueues the requests they parse into. At end of
/// input, a final line without a newline still counts.
fn handle_readable(
    epoll: &Epoll,
    conns: &mut HashMap<u64, ConnState>,
    token: u64,
    ctx: &Arc<ReactorCtx>,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if conn.draining {
        // A draining connection no longer asks for input, so only a
        // hang-up or an error lands here: nobody is left to answer.
        close_conn(epoll, conns, token);
        return;
    }
    let mut tmp = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                // What is left is at most MAX_LINE_BYTES: `process_lines`
                // refuses a longer tail. Empty input is skipped.
                let tail = String::from_utf8_lossy(&conn.rbuf);
                handle_request_line(&tail, &conn.handle, &conn.peer, ctx);
                conn.draining = true;
                break;
            }
            Ok(n) if conn.absorbing => {
                // Discard the rest of an oversized line; its newline ends
                // the absorption and the connection drains away.
                if tmp[..n].contains(&b'\n') {
                    conn.absorbing = false;
                    conn.draining = true;
                    break;
                }
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&tmp[..n]);
                process_lines(conn, ctx);
                if conn.draining {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                close_conn(epoll, conns, token);
                return;
            }
        }
    }
    flush_conn(epoll, conns, token);
}

/// Extracts every complete line from the connection's read buffer and
/// dispatches it; flags oversized lines for absorption. Each byte is
/// scanned for a newline once, and the consumed lines leave the buffer in
/// one drain per call, so a pipelined burst costs time linear in its size.
fn process_lines(conn: &mut ConnState, ctx: &Arc<ReactorCtx>) {
    let mut consumed = 0;
    while let Some(pos) = conn.rbuf[conn.scanned..].iter().position(|&b| b == b'\n') {
        let end = conn.scanned + pos;
        let line_bytes = &conn.rbuf[consumed..end];
        consumed = end + 1;
        conn.scanned = consumed;
        if line_bytes.len() > MAX_LINE_BYTES {
            reject_oversized(conn, ctx);
            conn.draining = true;
            break;
        }
        let line = String::from_utf8_lossy(line_bytes);
        if let LineDisposition::Close = handle_request_line(&line, &conn.handle, &conn.peer, ctx) {
            conn.draining = true;
            break;
        }
    }
    conn.rbuf.drain(..consumed);
    conn.scanned = conn.rbuf.len();
    if conn.rbuf.is_empty() {
        // Keep at most one read chunk of capacity, so a connection that
        // once sent a near-cap line does not pin a megabyte while idle.
        conn.rbuf.shrink_to(READ_CHUNK);
    }
    if !conn.draining && conn.rbuf.len() > MAX_LINE_BYTES {
        reject_oversized(conn, ctx);
        conn.rbuf.clear();
        conn.scanned = 0;
        conn.absorbing = true;
    }
}

/// Answers an oversized line with the protocol error and accounts for it.
fn reject_oversized(conn: &mut ConnState, ctx: &Arc<ReactorCtx>) {
    conn.handle.send_line(&crate::protocol::envelope_err(
        "null",
        None,
        None,
        crate::protocol::ErrCode::Oversized,
        &format!("request line exceeds {MAX_LINE_BYTES} bytes; closing connection"),
    ));
    ctx.engine.stats.record_rejected(None);
    ctx.obs
        .log
        .warn("oversized_line")
        .str("peer", &conn.peer)
        .u64("limit_bytes", MAX_LINE_BYTES as u64)
        .emit();
}

/// Writes as much of the connection's out-buffer as the socket accepts,
/// keeps the registered interest in step (input until draining, `EPOLLOUT`
/// while a backlog remains), and closes a draining connection once its
/// buffer is empty and every job it sent is answered.
fn flush_conn(epoll: &Epoll, conns: &mut HashMap<u64, ConnState>, token: u64) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if conn.handle.dead.load(Ordering::Acquire) {
        close_conn(epoll, conns, token);
        return;
    }
    // Read before the buffer: a worker appends its answer before it ends
    // the job, so a zero here means every answer is already in `out`.
    let answered = conn.handle.jobs.load(Ordering::Acquire) == 0;
    let mut broken = false;
    let empty = {
        let mut out = conn.handle.out.lock().expect("reactor out buffer");
        let mut written = 0usize;
        while written < out.len() {
            match conn.stream.write(&out[written..]) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        out.drain(..written);
        out.is_empty()
    };
    if broken || (empty && answered && conn.draining) {
        close_conn(epoll, conns, token);
        return;
    }
    // A draining connection asks for no input: end of input stays readable
    // under level triggering and would spin the shard while it waits.
    let input = if conn.draining {
        0
    } else {
        EPOLLIN | EPOLLRDHUP
    };
    let interest = if empty { input } else { input | EPOLLOUT };
    if interest != conn.interest {
        conn.interest = interest;
        let _ = epoll.modify(conn.stream.as_raw_fd(), interest, token);
    }
}
