//! Non-blocking event-loop front-end with adaptive micro-batching.
//!
//! The thread-per-connection front-end ([`super::server`]) spends its
//! concurrency budget on parked OS threads and hands the engine one sample
//! at a time, so what a batch shares never reaches the serving path. This
//! module replaces it with one event-loop
//! thread multiplexing every connection through a level-triggered
//! [`epoll::Poller`], plus a small worker pool that runs the actual
//! inference:
//!
//! ```text
//!             ┌────────────────────────── event-loop thread ─────────────┐
//!  accept ───▶│ slab of connections                                      │
//!  readable ─▶│   FrameReader (resumable) ──▶ decode ──▶ admit ──▶ queue │
//!             │   micro-batcher: flush at N samples / T µs / input idle  │
//!             │   ordered response slots ──▶ write buffer ──▶ flush      │
//!             └───────▲──────────────────────────────┬───────────────────┘
//!                     │ completions (wake pipe)      │ FlushGroup / Batch
//!             ┌───────┴──────────────────────────────▼───────────────────┐
//!             │ worker pool: classify_batch, one scratch per worker      │
//!             └──────────────────────────────────────────────────────────┘
//! ```
//!
//! **Connection state machine.** Each connection is `reading ⇄ writing`
//! with both sides always willing: reads resume mid-frame across
//! `WouldBlock` via [`FrameReader`], and responses that do not fit the
//! socket buffer park in a per-connection write buffer mirrored by
//! `EPOLLOUT` interest until drained. Responses are delivered strictly in
//! request order through a slot queue, no matter how the worker pool
//! reorders completions.
//!
//! **Backpressure.** Admission is bounded by the micro-batcher's
//! `queue_depth`; a request past the bound is answered immediately with a
//! structured [`ERR_OVERLOADED`] frame — the connection stays open and the
//! client may retry, instead of the old model's unbounded thread growth. A
//! connection whose peer stops reading accumulates a write buffer up to
//! `max_write_buffer` and is then closed as a slow consumer.
//!
//! **Malformed requests.** A payload that is framed correctly but decodes
//! as no known message answers [`ERR_MALFORMED_REQUEST`] and the
//! connection survives — other requests in flight on it are unaffected.
//! Framing-level corruption (oversized length declaration, EOF mid-frame)
//! still tears the connection down, as no frame boundary can be trusted
//! afterwards.

use crate::admin::{self, AdminRequest};
use crate::microbatch::{Completion, FlushGroup, MicroBatchConfig, MicroBatcher, QueuedSample};
use crate::proto::{
    ClassifyBatchResponse, ErrorFrame, FrameReader, ListModelsResponse, ProtoError, Request,
    ERR_INTERNAL, ERR_MALFORMED_REQUEST, ERR_OVERLOADED, ERR_UNSUPPORTED_VERSION, PROTOCOL_VERSION,
};
use crate::registry::ModelHandle;
use crate::server::{route_error_frame, Shared};
use bytes::Bytes;
use epoll::{Interest, Poller};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a server front-end schedules its connections.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum ServingMode {
    /// One blocking OS thread per connection, requests handled one at a
    /// time (the paper's §6 methodology, and this crate's original
    /// front-end).
    ThreadPerConnection,
    /// One non-blocking event-loop thread multiplexing every connection,
    /// with concurrent single-sample requests coalesced into batch-kernel
    /// calls by an adaptive micro-batcher.
    EventLoop(EventLoopOptions),
}

impl Default for ServingMode {
    fn default() -> Self {
        Self::EventLoop(EventLoopOptions::default())
    }
}

/// Tuning for the event-loop front-end.
#[derive(Clone, Debug)]
pub struct EventLoopOptions {
    /// Micro-batching flush policy and admission bound.
    pub microbatch: MicroBatchConfig,
    /// Inference worker threads; `0` picks from the machine's available
    /// parallelism.
    pub workers: usize,
    /// Most simultaneous connections; beyond it, new connections are
    /// answered with an overload error and closed.
    pub max_connections: usize,
    /// Per-connection write-buffer cap; a peer that stops reading its
    /// responses past this is closed as a slow consumer.
    pub max_write_buffer: usize,
}

impl Default for EventLoopOptions {
    fn default() -> Self {
        Self {
            microbatch: MicroBatchConfig::default(),
            workers: 0,
            max_connections: 4096,
            max_write_buffer: 4 << 20,
        }
    }
}

/// Either listener the event loop can front.
pub(crate) enum Listener {
    Uds(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Self::Uds(l) => l.as_raw_fd(),
            Self::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// Accepts one connection, already switched to non-blocking (and
    /// `TCP_NODELAY` for TCP — single-sample responses are
    /// latency-sensitive).
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Self::Uds(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Stream::Uds(stream))
            }
            Self::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Self::Uds(s) => s.as_raw_fd(),
            Self::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Uds(s) => s.read(buf),
            Self::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Uds(s) => s.write(buf),
            Self::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::Uds(s) => s.flush(),
            Self::Tcp(s) => s.flush(),
        }
    }
}

/// Connection tokens pack `(generation << 32) | slab index`. A slab index
/// never reaches `u32::MAX` (connections are bounded far below it), so
/// tokens with all-ones low bits are reserved for the loop's own fds —
/// completions for a connection that died and whose slot was reused carry
/// a stale generation and are discarded instead of answering the wrong
/// peer.
const TOKEN_LISTENER: u64 = u32::MAX as u64;
const TOKEN_WAKEUP: u64 = (1 << 32) | u32::MAX as u64;
/// The control-plane listener: its own reserved token, so admin accepts
/// are dispatched as a distinct listener class and never queue behind
/// inference traffic.
const TOKEN_ADMIN_LISTENER: u64 = (2 << 32) | u32::MAX as u64;

fn pack_token(index: usize, generation: u32) -> u64 {
    (u64::from(generation) << 32) | index as u64
}

fn unpack_token(token: u64) -> (usize, u32) {
    ((token & u64::from(u32::MAX)) as usize, (token >> 32) as u32)
}

/// Most frames decoded per readable event before yielding back to the
/// poller, so one firehose connection cannot starve the others (the data
/// left in its socket buffer keeps it level-triggered readable).
const FRAMES_PER_WAKE: usize = 64;

/// Idle poll period: an upper bound on how stale the shutdown flag can go
/// unnoticed when no wake byte arrives.
const IDLE_TIMEOUT: Duration = Duration::from_millis(25);

/// Compact the write buffer once this much of its front has been flushed.
const WRITE_COMPACT_BYTES: usize = 64 << 10;

struct Conn {
    stream: Stream,
    frames: FrameReader,
    /// Response bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// In-order response slots: `pending[i]` answers request
    /// `base_seq + i`; `None` is still being classified.
    pending: VecDeque<Option<Bytes>>,
    base_seq: u64,
    next_seq: u64,
    generation: u32,
    interest: Interest,
    /// Accepted on the admin listener: frames decode as admin ops and
    /// execute on the control thread, not the inference pool.
    admin: bool,
}

impl Conn {
    fn token(&self, index: usize) -> u64 {
        pack_token(index, self.generation)
    }

    fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// One decoded admin op bound for the control thread, with the slot its
/// reply must fill.
struct AdminJob {
    token: u64,
    slot: u64,
    request: AdminRequest,
}

/// Work handed to the inference pool.
enum Job {
    /// Coalesced single-sample requests for one resolved model.
    Group(FlushGroup),
    /// A client-submitted batch frame, passed through whole.
    Batch {
        model: Arc<ModelHandle>,
        token: u64,
        slot: u64,
        v2: bool,
        samples: Vec<Vec<f32>>,
    },
}

impl Job {
    fn samples(&self) -> usize {
        match self {
            Self::Group(group) => group.items.len(),
            Self::Batch { samples, .. } => samples.len(),
        }
    }
}

/// Classifies one job and returns its completions (one per request).
fn run_job(job: Job) -> Vec<Completion> {
    match job {
        Job::Group(group) => {
            let borrowed: Vec<&[f32]> = group
                .items
                .iter()
                .map(|item| item.features.as_slice())
                .collect();
            let start = Instant::now();
            let classes = group.model.engine().classify_batch(&borrowed);
            let elapsed = start.elapsed().as_nanos() as u64;
            let n = group.items.len() as u64;
            group.model.book(n, elapsed);
            // Each coalesced request reports the amortized share of the
            // batch's wall clock — the same accounting `classify_many`
            // applies to client-submitted batches.
            let latency_ns = (elapsed / n.max(1)).max(1);
            group
                .items
                .into_iter()
                .zip(classes)
                .map(|(item, class)| {
                    let response = crate::proto::ClassifyResponse { class, latency_ns };
                    Completion {
                        token: item.token,
                        slot: item.slot,
                        frame: if item.v2 {
                            response.encode_v2()
                        } else {
                            response.encode()
                        },
                        samples: 1,
                    }
                })
                .collect()
        }
        Job::Batch {
            model,
            token,
            slot,
            v2,
            samples,
        } => {
            let borrowed: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
            let start = Instant::now();
            let classes = model.engine().classify_batch(&borrowed);
            let latency_ns = start.elapsed().as_nanos() as u64;
            model.book(borrowed.len() as u64, latency_ns);
            let response = ClassifyBatchResponse {
                classes,
                latency_ns,
            };
            vec![Completion {
                token,
                slot,
                frame: if v2 {
                    response.encode_v2()
                } else {
                    response.encode()
                },
                samples: samples.len(),
            }]
        }
    }
}

/// A running event-loop front-end; joining it tears everything down.
pub(crate) struct EventLoopHandle {
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Write end of the loop's wake pipe, to interrupt a poll on shutdown.
    wake: UnixStream,
}

impl EventLoopHandle {
    /// Wakes the loop (the caller must have set the shared shutdown flag
    /// first) and joins the loop thread and worker pool.
    pub(crate) fn stop(&mut self) {
        let _ = (&self.wake).write(&[1]);
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds the poller, wake pipe, and worker pool, then starts the loop
/// thread over an already-listening socket. When `admin` is given, its
/// listener joins the same poller under [`TOKEN_ADMIN_LISTENER`] and a
/// dedicated control thread executes the decoded ops — WAL fsyncs and
/// compaction never run on the loop thread and never wait behind queued
/// inference jobs.
pub(crate) fn spawn(
    listener: Listener,
    admin: Option<UnixListener>,
    shared: Arc<Shared>,
    opts: EventLoopOptions,
) -> std::io::Result<EventLoopHandle> {
    let poller = Poller::new()?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    listener_nonblocking(&listener)?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKEUP, Interest::READABLE)?;
    let admin_listener = match admin {
        Some(l) => {
            l.set_nonblocking(true)?;
            poller.register(l.as_raw_fd(), TOKEN_ADMIN_LISTENER, Interest::READABLE)?;
            Some(Listener::Uds(l))
        }
        None => None,
    };

    let worker_count = if opts.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
    } else {
        opts.workers
    };
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let mut workers = Vec::with_capacity(worker_count);
    for _ in 0..worker_count {
        let job_rx = Arc::clone(&job_rx);
        let completions = Arc::clone(&completions);
        let wake = wake_tx.try_clone()?;
        workers.push(std::thread::spawn(move || loop {
            // Sender dropped (loop thread exited) ⇒ drain and stop.
            let Ok(job) = job_rx.lock().expect("job queue").recv() else {
                return;
            };
            let done = run_job(job);
            completions.lock().expect("completion queue").extend(done);
            // A full wake pipe means a wakeup is already pending; the
            // loop will drain the completion queue either way.
            let _ = (&wake).write(&[1]);
        }));
    }

    // The control thread: one per loop, executing admin ops serially in
    // arrival order (activate-then-set-default scripts behave) and
    // pushing replies through the ordinary completion path.
    let admin_jobs = if admin_listener.is_some() {
        let (admin_tx, admin_rx) = mpsc::channel::<AdminJob>();
        let admin_shared = Arc::clone(&shared);
        let admin_completions = Arc::clone(&completions);
        let wake = wake_tx.try_clone()?;
        workers.push(std::thread::spawn(move || {
            // Sender dropped (loop thread exited) ⇒ stop.
            while let Ok(job) = admin_rx.recv() {
                let reply = admin::handle(&admin_shared.store, &job.request);
                let done = Completion {
                    token: job.token,
                    slot: job.slot,
                    frame: reply.encode(),
                    samples: 0,
                };
                admin_completions
                    .lock()
                    .expect("completion queue")
                    .push(done);
                let _ = (&wake).write(&[1]);
            }
        }));
        Some(admin_tx)
    } else {
        None
    };

    let loop_shared = Arc::clone(&shared);
    let loop_thread = std::thread::spawn(move || {
        let mut event_loop = EventLoop {
            poller,
            listener,
            admin_listener,
            shared: loop_shared,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            active: 0,
            batcher: MicroBatcher::new(opts.microbatch.clone()),
            jobs: job_tx,
            admin_jobs,
            completions,
            wake_rx,
            opts,
        };
        event_loop.run();
    });

    Ok(EventLoopHandle {
        loop_thread: Some(loop_thread),
        workers,
        wake: wake_tx,
    })
}

fn listener_nonblocking(listener: &Listener) -> std::io::Result<()> {
    match listener {
        Listener::Uds(l) => l.set_nonblocking(true),
        Listener::Tcp(l) => l.set_nonblocking(true),
    }
}

struct EventLoop {
    poller: Poller,
    listener: Listener,
    /// The control-plane listener, when an admin socket was configured.
    admin_listener: Option<Listener>,
    shared: Arc<Shared>,
    /// Connection slab; `free` holds vacated indices for reuse.
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on every close, so a completion for a
    /// dead tenant never answers the slot's next occupant.
    generations: Vec<u32>,
    free: Vec<usize>,
    active: usize,
    batcher: MicroBatcher,
    jobs: mpsc::Sender<Job>,
    /// Channel to the control thread; `None` without an admin socket.
    admin_jobs: Option<mpsc::Sender<AdminJob>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    wake_rx: UnixStream,
    opts: EventLoopOptions,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Vec::new();
        while !self.shared.shutdown.load(Ordering::Acquire) {
            // With samples pending, poll without blocking: the moment the
            // input goes idle we flush, so a lone request pays
            // microseconds, not the full flush_wait. Under sustained
            // arrivals the loop keeps finding ready connections and the
            // size/time caps below bound the coalescing delay.
            let timeout = if self.batcher.deadline().is_some() {
                Duration::ZERO
            } else {
                IDLE_TIMEOUT
            };
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            let had_events = !events.is_empty();
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(false),
                    TOKEN_ADMIN_LISTENER => self.accept_ready(true),
                    TOKEN_WAKEUP => self.drain_wakeups(),
                    token => self.conn_event(token, event.readable, event.writable, event.error),
                }
            }
            // Completions may have landed while we were busy even without
            // a fresh wake byte in this batch of events.
            self.apply_completions();
            let groups = if had_events {
                self.batcher.flush_due(Instant::now())
            } else {
                // The zero-timeout poll came back empty: input is idle,
                // nothing more will coalesce — flush now.
                self.batcher.flush_all()
            };
            self.dispatch(groups);
        }
    }

    fn accept_ready(&mut self, admin: bool) {
        loop {
            let accepted = if admin {
                let Some(listener) = &self.admin_listener else {
                    return;
                };
                listener.accept()
            } else {
                self.listener.accept()
            };
            match accepted {
                Ok(stream) => {
                    // Admin connections are exempt from the data-plane
                    // connection cap: the socket is local-only and mode
                    // 0600, and an emergency `retire` must get through a
                    // daemon that is drowning in data traffic.
                    if !admin && self.active >= self.opts.max_connections {
                        // Best-effort structured refusal; a fresh socket
                        // buffer virtually always takes one small frame.
                        let frame = ErrorFrame {
                            code: ERR_OVERLOADED,
                            detail: format!(
                                "connection limit {} reached",
                                self.opts.max_connections
                            ),
                        }
                        .encode();
                        let mut stream = stream;
                        let _ = stream.write(&frame);
                        continue;
                    }
                    self.insert_conn(stream, admin);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // Transient pressure (EMFILE, aborted handshake, EINTR):
                // the listener stays level-triggered readable while a
                // connection is still queued, so the next iteration
                // retries — same resilience as run_accept_loop.
                Err(_) => return,
            }
        }
    }

    fn insert_conn(&mut self, stream: Stream, admin: bool) {
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            }
        };
        let generation = self.generations[index];
        let conn = Conn {
            stream,
            frames: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            generation,
            interest: Interest::READABLE,
            admin,
        };
        let token = conn.token(index);
        let fd = conn.stream.as_raw_fd();
        if self.poller.register(fd, token, Interest::READABLE).is_err() {
            // Registration failure: drop the connection, reuse the slot.
            self.free.push(index);
            return;
        }
        self.conns[index] = Some(conn);
        self.active += 1;
    }

    fn drain_wakeups(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, error: bool) {
        let (index, generation) = unpack_token(token);
        let Some(Some(conn)) = self.conns.get(index) else {
            return;
        };
        if conn.generation != generation {
            return; // stale event for a reused slot
        }
        if writable {
            self.flush_out(index);
        }
        if readable {
            self.read_ready(index);
        } else if error {
            self.close_conn(index);
            return;
        }
        self.update_interest(index);
    }

    fn read_ready(&mut self, index: usize) {
        for _ in 0..FRAMES_PER_WAKE {
            let Some(Some(conn)) = self.conns.get_mut(index) else {
                return;
            };
            let is_admin = conn.admin;
            let payload = match conn.frames.read_frame(&mut conn.stream) {
                Ok(Some(payload)) => payload,
                Ok(None) => {
                    // Clean EOF: the peer is gone, any responses still in
                    // flight have no reader.
                    self.close_conn(index);
                    return;
                }
                Err(ProtoError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return; // drained; partial frame stays buffered
                }
                // Framing-level corruption (oversized declaration, EOF
                // mid-frame, transport error): no trustworthy frame
                // boundary remains, drop the connection.
                Err(_) => {
                    self.close_conn(index);
                    return;
                }
            };
            if is_admin {
                self.on_admin_request(index, &payload);
            } else {
                self.on_request(index, &payload);
            }
            if self.conns.get(index).is_none_or(Option::is_none) {
                return; // the request handler closed the connection
            }
        }
    }

    fn on_request(&mut self, index: usize, payload: &[u8]) {
        match Request::decode(payload) {
            Ok(Request::Single(request)) => {
                self.submit_single(index, None, request.features, false);
            }
            Ok(Request::SingleWith(request)) => {
                self.submit_single(index, Some(request.model), request.features, true);
            }
            Ok(Request::Batch(request)) => {
                self.submit_batch(index, None, request.samples, false);
            }
            Ok(Request::BatchWith(request)) => {
                self.submit_batch(index, Some(request.model), request.samples, true);
            }
            Ok(Request::ListModels { extended }) => {
                let response = ListModelsResponse {
                    models: self.shared.store.list(),
                };
                let frame = match response.encode(if extended { 3 } else { 2 }) {
                    Ok(frame) => frame,
                    Err(e) => ErrorFrame {
                        code: ERR_INTERNAL,
                        detail: format!("model list does not fit in a frame: {e}"),
                    }
                    .encode(),
                };
                self.respond_now(index, frame);
            }
            Ok(Request::UnsupportedVersion { requested }) => {
                let frame = ErrorFrame {
                    code: ERR_UNSUPPORTED_VERSION,
                    detail: format!(
                        "protocol version {requested} not supported; \
                         this server speaks up to {PROTOCOL_VERSION}"
                    ),
                }
                .encode();
                self.respond_now(index, frame);
            }
            // The frame was well-delimited, so the stream is still in
            // sync: reject the one bad request, keep the connection.
            Err(e) => {
                let frame = ErrorFrame {
                    code: ERR_MALFORMED_REQUEST,
                    detail: e.to_string(),
                }
                .encode();
                self.respond_now(index, frame);
            }
        }
    }

    /// Routes one admin frame: decode failures answer a typed refusal
    /// inline (the connection survives — the frame was well-delimited);
    /// decoded ops ship to the control thread, which fills the reserved
    /// slot through the completion path like any inference reply.
    fn on_admin_request(&mut self, index: usize, payload: &[u8]) {
        let request = match AdminRequest::decode(payload) {
            Ok(request) => request,
            Err(e) => {
                let frame = admin::malformed_reply(&e).encode();
                self.respond_now(index, frame);
                return;
            }
        };
        let Some(Some(conn)) = self.conns.get_mut(index) else {
            return;
        };
        let token = conn.token(index);
        let slot = alloc_slot(conn);
        let sent = self.admin_jobs.as_ref().is_some_and(|jobs| {
            jobs.send(AdminJob {
                token,
                slot,
                request,
            })
            .is_ok()
        });
        if !sent {
            // Control thread gone — only during teardown. Fail the slot
            // so the ordered queue does not wedge behind it.
            let frame = admin::AdminReply::Refused(admin::AdminError {
                code: admin::ADMIN_ERR_INTERNAL,
                detail: "control thread unavailable".into(),
            })
            .encode();
            let Some(Some(conn)) = self.conns.get_mut(index) else {
                return;
            };
            fill_slot(conn, slot, frame);
            drain_ready(conn);
            self.flush_out(index);
        }
    }

    fn submit_single(&mut self, index: usize, model: Option<String>, features: Vec<f32>, v2: bool) {
        let resolved = self.shared.store.resolve(model.as_deref());
        let model = match resolved {
            Ok(model) => model,
            Err(e) => {
                self.respond_now(index, route_error_frame(&e).encode());
                return;
            }
        };
        if !self.batcher.admit(1) {
            self.respond_now(index, overload_frame(1).encode());
            return;
        }
        let Some(Some(conn)) = self.conns.get_mut(index) else {
            self.batcher.release(1);
            return;
        };
        let token = conn.token(index);
        let slot = alloc_slot(conn);
        let sample = QueuedSample {
            token,
            slot,
            v2,
            features,
        };
        let groups = self.batcher.enqueue(model, sample, Instant::now());
        self.dispatch(groups);
    }

    fn submit_batch(
        &mut self,
        index: usize,
        model: Option<String>,
        samples: Vec<Vec<f32>>,
        v2: bool,
    ) {
        let resolved = self.shared.store.resolve(model.as_deref());
        let model = match resolved {
            Ok(model) => model,
            Err(e) => {
                self.respond_now(index, route_error_frame(&e).encode());
                return;
            }
        };
        if samples.is_empty() {
            // Answer inline without touching engine or statistics, like
            // `classify_many`.
            let response = ClassifyBatchResponse {
                classes: Vec::new(),
                latency_ns: 0,
            };
            let frame = if v2 {
                response.encode_v2()
            } else {
                response.encode()
            };
            self.respond_now(index, frame);
            return;
        }
        let n = samples.len();
        if !self.batcher.admit(n) {
            self.respond_now(index, overload_frame(n).encode());
            return;
        }
        let Some(Some(conn)) = self.conns.get_mut(index) else {
            self.batcher.release(n);
            return;
        };
        let token = conn.token(index);
        let slot = alloc_slot(conn);
        // Client-submitted batches are already kernel-sized; hand them
        // through whole instead of re-coalescing. Batches at or above the
        // flush threshold take the same-thread fast path: they gain
        // nothing from coalescing, so the loop→worker handoff (queue,
        // wake pipe, completion lock) is pure added latency for them —
        // the `uds_batch` p99 regression recorded in EXPERIMENTS.md
        // entry 2. Running the kernel inline trades one batch of loop
        // availability for a shorter, lock-free response path.
        let job = Job::Batch {
            model,
            token,
            slot,
            v2,
            samples,
        };
        if n >= self.batcher.flush_samples() {
            let done = run_job(job);
            self.batcher.release(n);
            let Some(Some(conn)) = self.conns.get_mut(index) else {
                return;
            };
            for completion in done {
                fill_slot(conn, completion.slot, completion.frame);
            }
            drain_ready(conn);
            self.flush_out(index);
            self.update_interest(index);
            return;
        }
        self.send_job(job);
    }

    fn dispatch(&mut self, groups: Vec<FlushGroup>) {
        for group in groups {
            self.send_job(Job::Group(group));
        }
    }

    fn send_job(&mut self, job: Job) {
        let samples = job.samples();
        if self.jobs.send(job).is_err() {
            // Worker pool gone — only during teardown. Release the
            // admission so accounting stays exact.
            self.batcher.release(samples);
        }
    }

    /// Answers a request inline (errors, model lists, empty batches):
    /// claims the next slot, fills it immediately, and pushes whatever is
    /// deliverable onto the wire.
    fn respond_now(&mut self, index: usize, frame: Bytes) {
        let Some(Some(conn)) = self.conns.get_mut(index) else {
            return;
        };
        let slot = alloc_slot(conn);
        fill_slot(conn, slot, frame);
        drain_ready(conn);
        self.flush_out(index);
    }

    fn apply_completions(&mut self) {
        let done = {
            let mut queue = self.completions.lock().expect("completion queue");
            std::mem::take(&mut *queue)
        };
        if done.is_empty() {
            return;
        }
        let mut touched = Vec::new();
        for completion in done {
            // Admission is released even when the connection died while
            // the job was in flight — capacity must not leak.
            self.batcher.release(completion.samples);
            let (index, generation) = unpack_token(completion.token);
            let Some(Some(conn)) = self.conns.get_mut(index) else {
                continue;
            };
            if conn.generation != generation {
                continue; // slot reused since; discard the orphan
            }
            fill_slot(conn, completion.slot, completion.frame);
            drain_ready(conn);
            if !touched.contains(&index) {
                touched.push(index);
            }
        }
        for index in touched {
            self.flush_out(index);
            self.update_interest(index);
        }
    }

    /// Writes buffered response bytes until the socket refuses; closes
    /// the connection on transport failure or slow-consumer overflow.
    fn flush_out(&mut self, index: usize) {
        let max_write_buffer = self.opts.max_write_buffer;
        let close = {
            let Some(Some(conn)) = self.conns.get_mut(index) else {
                return;
            };
            let mut dead = false;
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            } else if conn.out_pos >= WRITE_COMPACT_BYTES {
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
            // A peer that stops reading while piling on requests would
            // otherwise trade thread exhaustion for memory exhaustion.
            dead || conn.unflushed() > max_write_buffer
        };
        if close {
            self.close_conn(index);
        }
    }

    /// Mirrors the write backlog into poller interest: `EPOLLOUT` only
    /// while bytes are parked, so an idle connection costs no wakeups.
    fn update_interest(&mut self, index: usize) {
        let Some(Some(conn)) = self.conns.get_mut(index) else {
            return;
        };
        let want = if conn.unflushed() > 0 {
            Interest::BOTH
        } else {
            Interest::READABLE
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            let token = conn.token(index);
            if self.poller.reregister(fd, token, want).is_ok() {
                conn.interest = want;
            }
        }
    }

    fn close_conn(&mut self, index: usize) {
        let Some(slot) = self.conns.get_mut(index) else {
            return;
        };
        if let Some(conn) = slot.take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.generations[index] = self.generations[index].wrapping_add(1);
            self.free.push(index);
            self.active -= 1;
            // The fd closes when `conn` drops here. Samples of this
            // connection still queued or in flight classify harmlessly;
            // their completions are discarded by the generation check and
            // their admission released there.
        }
    }
}

fn overload_frame(samples: usize) -> ErrorFrame {
    ErrorFrame {
        code: ERR_OVERLOADED,
        detail: format!("request queue full; {samples} sample(s) shed, retry after backoff"),
    }
}

fn alloc_slot(conn: &mut Conn) -> u64 {
    let slot = conn.next_seq;
    conn.next_seq += 1;
    conn.pending.push_back(None);
    slot
}

fn fill_slot(conn: &mut Conn, slot: u64, frame: Bytes) {
    let Some(offset) = slot.checked_sub(conn.base_seq) else {
        return; // already delivered (cannot happen; defensive)
    };
    if let Some(entry) = conn.pending.get_mut(offset as usize) {
        *entry = Some(frame);
    }
}

/// Moves every response that is next-in-order into the write buffer.
fn drain_ready(conn: &mut Conn) {
    while matches!(conn.pending.front(), Some(Some(_))) {
        let frame = conn.pending.pop_front().flatten().expect("checked Some");
        conn.base_seq += 1;
        conn.out.extend_from_slice(&frame);
    }
}
