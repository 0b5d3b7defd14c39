//! The classification front-end: one non-blocking event loop that runs
//! every request to completion, the only way this crate serves
//! connections.
//!
//! One event-loop thread multiplexes every connection of every listener
//! (Unix socket, TCP, the admin socket) through a level-triggered
//! [`epoll::Poller`] and classifies each request in the pass that decodes
//! it — the paper's §6 front-end, whose samples "are executed sequentially
//! without batching". Only admin ops leave the loop, for the control
//! thread:
//!
//! ```text
//!             ┌──────────────────────── event-loop thread ───────────────┐
//!  accept ───▶│ slab of connections                                      │
//!  readable ─▶│   FrameReader (resumable) ──▶ decode ──▶ classify        │
//!             │   ordered response slots ──▶ write buffer ──▶ one flush  │
//!             └───────▲──────────────────────────────┬───────────────────┘
//!                     │ admin replies (wake pipe)    │ admin ops
//!             ┌───────┴──────────────────────────────▼───────────────────┐
//!             │ control thread: WAL fsync, compaction, rescan, status    │
//!             └──────────────────────────────────────────────────────────┘
//! ```
//!
//! A single is answered by the engine's `classify`, a batch frame by its
//! `classify_batch`; each response fills its ordered slot, and a
//! connection's write buffer is flushed once per readable pass, so a burst
//! of pipelined requests costs one `write`.
//!
//! **Connection state machine.** Each connection is `reading ⇄ writing`
//! with both sides always willing: reads resume mid-frame across
//! `WouldBlock` via [`FrameReader`], and responses that do not fit the
//! socket buffer park in a per-connection write buffer mirrored by
//! `EPOLLOUT` interest until drained. Responses are delivered strictly in
//! request order through a slot queue, whenever the control thread
//! answers an admin op.
//!
//! **Backpressure.** The loop reads no more frames from a connection than
//! it answers in the same pass, so requests it has not reached wait in the
//! kernel socket buffer, and a client that sends faster than the loop
//! classifies meets a full socket: flow control is the backpressure.
//! Connections past [`MAX_CONNECTIONS`], and connections that arrive while
//! the process is out of file descriptors, are answered with a structured
//! [`ERR_OVERLOADED`] frame and closed. A connection whose peer stops
//! reading accumulates a write buffer up to [`MAX_WRITE_BUFFER`] and is
//! then closed as a slow consumer.
//!
//! **Malformed requests.** A payload that is framed correctly but decodes
//! as no known message answers [`ERR_MALFORMED_REQUEST`] and the
//! connection survives — the requests around it on the connection are
//! unaffected. So does a classify request carrying a sample shorter than
//! its model's feature count: it is refused before it reaches an engine.
//! Framing-level corruption (oversized length declaration, EOF mid-frame)
//! still tears the connection down, as no frame boundary can be trusted
//! afterwards.

use crate::admin::{self, AdminRequest};
use crate::proto::{
    ClassifyBatchResponse, ClassifyResponse, ErrorFrame, FrameReader, ListModelsResponse,
    ProtoError, Request, ERR_INTERNAL, ERR_MALFORMED_REQUEST, ERR_OVERLOADED,
    ERR_UNSUPPORTED_VERSION, PROTOCOL_VERSION,
};
use crate::server::{resolve_classify, Shared};
use bytes::Bytes;
use epoll::{Interest, Poller};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Self::Uds(l) => l.set_nonblocking(true),
            Self::Tcp(l) => l.set_nonblocking(true),
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
/// tokens with all-ones low bits are reserved for the loop's own fds: the
/// wake pipe, then one per listener — an admin reply for a connection that
/// died and whose slot was reused carries a stale generation and is
/// discarded instead of answering the wrong peer.
const TOKEN_WAKEUP: u64 = u32::MAX as u64;

/// The reserved token of listener `index` (its position in the loop's
/// listener list).
fn listener_token(index: usize) -> u64 {
    ((index as u64 + 1) << 32) | u64::from(u32::MAX)
}

/// Linux `errno` values of descriptor exhaustion: per process, system-wide.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

fn pack_token(index: usize, generation: u32) -> u64 {
    (u64::from(generation) << 32) | index as u64
}

fn unpack_token(token: u64) -> (usize, u32) {
    ((token & u64::from(u32::MAX)) as usize, (token >> 32) as u32)
}

/// Most frames decoded (and answered) per readable event before yielding
/// back to the poller, so one firehose connection cannot starve the others
/// (the data left in its socket buffer keeps it level-triggered readable).
const FRAMES_PER_WAKE: usize = 64;

/// Most simultaneous data connections; beyond it, new connections are
/// answered with an overload error and closed.
const MAX_CONNECTIONS: usize = 4096;

/// Per-connection write-buffer cap; a peer that stops reading its
/// responses past this is closed as a slow consumer.
const MAX_WRITE_BUFFER: usize = 4 << 20;

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
    /// `base_seq + i`; `None` is an admin op the control thread has not
    /// answered yet.
    pending: VecDeque<Option<Bytes>>,
    base_seq: u64,
    next_seq: u64,
    generation: u32,
    interest: Interest,
    /// Accepted on the admin listener: frames decode as admin ops and
    /// execute on the control thread.
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

/// An admin reply headed back to the loop.
struct Completion {
    /// Connection token the frame belongs to.
    token: u64,
    /// Response slot on that connection.
    slot: u64,
    /// The encoded reply frame.
    frame: Bytes,
}

/// A running event-loop front-end; joining it tears everything down.
pub(crate) struct EventLoopHandle {
    loop_thread: Option<JoinHandle<()>>,
    control_thread: Option<JoinHandle<()>>,
    /// Write end of the loop's wake pipe, to interrupt a poll on shutdown.
    wake: UnixStream,
}

impl EventLoopHandle {
    /// Wakes the loop (the caller must have set the shared shutdown flag
    /// first) and joins the loop and control threads.
    pub(crate) fn stop(&mut self) {
        let _ = (&self.wake).write(&[1]);
        // The loop drops the control thread's job channel on exit, which
        // stops the control thread.
        for thread in [self.loop_thread.take(), self.control_thread.take()]
            .into_iter()
            .flatten()
        {
            let _ = thread.join();
        }
    }
}

/// Binds the poller and wake pipe, then starts the loop thread over
/// already-listening sockets: every data listener, plus the admin listener
/// when one is given. Each listener is polled under its own reserved token
/// ([`listener_token`]). Admin connections decode admin ops, which a
/// dedicated control thread executes — WAL fsyncs and compaction never run
/// on the loop thread.
pub(crate) fn spawn(
    listeners: Vec<Listener>,
    admin: Option<UnixListener>,
    shared: Arc<Shared>,
) -> std::io::Result<EventLoopHandle> {
    let poller = Poller::new()?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKEUP, Interest::READABLE)?;
    let has_admin = admin.is_some();
    let listeners: Vec<(Listener, bool)> = listeners
        .into_iter()
        .map(|listener| (listener, false))
        .chain(admin.map(|listener| (Listener::Uds(listener), true)))
        .collect();
    for (index, (listener, _)) in listeners.iter().enumerate() {
        listener.set_nonblocking()?;
        poller.register(
            listener.as_raw_fd(),
            listener_token(index),
            Interest::READABLE,
        )?;
    }
    let spare_fd = Some(File::open("/dev/null")?);

    // The control thread: one per loop, executing admin ops serially in
    // arrival order (activate-then-set-default scripts behave) and waking
    // the loop with each reply.
    let (completion_tx, completions) = mpsc::channel::<Completion>();
    let (admin_jobs, control_thread) = if has_admin {
        let (admin_tx, admin_rx) = mpsc::channel::<AdminJob>();
        let admin_shared = Arc::clone(&shared);
        let wake = wake_tx.try_clone()?;
        let control = std::thread::spawn(move || {
            // Sender dropped (loop thread exited) ⇒ stop.
            while let Ok(job) = admin_rx.recv() {
                let reply = admin::handle(&admin_shared.store, &job.request);
                let done = Completion {
                    token: job.token,
                    slot: job.slot,
                    frame: reply.encode(),
                };
                if completion_tx.send(done).is_err() {
                    return;
                }
                // A full wake pipe means a wakeup is already pending; the
                // loop drains the completion queue either way.
                let _ = (&wake).write(&[1]);
            }
        });
        (Some(admin_tx), Some(control))
    } else {
        (None, None)
    };

    let loop_thread = std::thread::spawn(move || {
        let mut event_loop = EventLoop {
            poller,
            listeners,
            spare_fd,
            shared,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            active: 0,
            admin_jobs,
            completions,
            wake_rx,
        };
        event_loop.run();
    });

    Ok(EventLoopHandle {
        loop_thread: Some(loop_thread),
        control_thread,
        wake: wake_tx,
    })
}

struct EventLoop {
    poller: Poller,
    /// Every listener, in token order; `true` marks the admin socket.
    listeners: Vec<(Listener, bool)>,
    /// A descriptor held in reserve (`/dev/null`), released to accept and
    /// refuse a connection when the process runs out of descriptors.
    spare_fd: Option<File>,
    shared: Arc<Shared>,
    /// Connection slab; `free` holds vacated indices for reuse.
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on every close, so an admin reply for a
    /// dead tenant never answers the slot's next occupant.
    generations: Vec<u32>,
    free: Vec<usize>,
    active: usize,
    /// Channel to the control thread; `None` without an admin socket.
    admin_jobs: Option<mpsc::Sender<AdminJob>>,
    /// Admin replies from the control thread.
    completions: mpsc::Receiver<Completion>,
    wake_rx: UnixStream,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Vec::new();
        while !self.shared.shutdown.load(Ordering::Acquire) {
            if self.poller.wait(&mut events, Some(IDLE_TIMEOUT)).is_err() {
                break;
            }
            for &event in &events {
                match event.token {
                    TOKEN_WAKEUP => self.drain_wakeups(),
                    token if token as u32 == u32::MAX => {
                        self.accept_ready((token >> 32) as usize - 1);
                    }
                    token => self.conn_event(token, event.readable, event.writable, event.error),
                }
            }
            // Admin replies may have landed while we were busy even without
            // a fresh wake byte in this batch of events.
            self.apply_completions();
        }
    }

    fn accept_ready(&mut self, index: usize) {
        let admin = self.listeners[index].1;
        loop {
            match self.listeners[index].0.accept() {
                Ok(stream) => {
                    // Admin connections are exempt from the data-plane
                    // connection cap: the socket is local-only and mode
                    // 0600, and an emergency `retire` must get through a
                    // daemon that is drowning in data traffic.
                    if !admin && self.active >= MAX_CONNECTIONS {
                        refuse(
                            stream,
                            &format!("connection limit {MAX_CONNECTIONS} reached"),
                        );
                        continue;
                    }
                    self.insert_conn(stream, admin);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // Out of descriptors: the connection stays queued and the
                // level-triggered listener stays readable, so returning
                // would spin the loop. Spend the spare descriptor on
                // accepting and refusing it, then take the spare back.
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => {
                    self.spare_fd = None;
                    let refused = match self.listeners[index].0.accept() {
                        Ok(stream) => {
                            refuse(stream, "file descriptor limit reached");
                            true
                        }
                        Err(_) => false,
                    };
                    self.spare_fd = File::open("/dev/null").ok();
                    if !refused {
                        return;
                    }
                }
                // An aborted handshake or an interrupt: that connection is
                // gone, and the next poll retries whatever is still queued.
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

    /// Decodes up to [`FRAMES_PER_WAKE`] frames and answers each in turn —
    /// data requests right here, admin ops by handing them to the control
    /// thread — then flushes the connection's responses with one write.
    fn read_ready(&mut self, index: usize) {
        let Some(Some(conn)) = self.conns.get_mut(index) else {
            return;
        };
        let mut close = false;
        for _ in 0..FRAMES_PER_WAKE {
            let payload = match conn.frames.read_frame(&mut conn.stream) {
                Ok(Some(payload)) => payload,
                Err(ProtoError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break; // drained; a partial frame stays buffered
                }
                // Clean EOF (the peer is gone), or framing-level corruption
                // (oversized declaration, EOF mid-frame, transport error):
                // no trustworthy frame boundary remains, drop the
                // connection once what it already asked is answered.
                Ok(None) | Err(_) => {
                    close = true;
                    break;
                }
            };
            let slot = alloc_slot(conn);
            let frame = if conn.admin {
                match AdminRequest::decode(&payload) {
                    // The frame was well-delimited: a typed refusal, and
                    // the connection survives.
                    Err(e) => admin::malformed_reply(&e).encode(),
                    Ok(request) => {
                        let job = AdminJob {
                            token: conn.token(index),
                            slot,
                            request,
                        };
                        match self.admin_jobs.as_ref().map(|jobs| jobs.send(job)) {
                            // The control thread fills the slot.
                            Some(Ok(())) => continue,
                            // Control thread gone — only during teardown.
                            // Fail the slot so the ordered queue does not
                            // wedge behind it.
                            _ => admin::AdminReply::Refused(admin::AdminError {
                                code: admin::ADMIN_ERR_INTERNAL,
                                detail: "control thread unavailable".into(),
                            })
                            .encode(),
                        }
                    }
                }
            } else {
                answer(&self.shared, &payload)
            };
            fill_slot(conn, slot, frame);
        }
        drain_ready(conn);
        self.flush_out(index);
        if close {
            self.close_conn(index);
        }
    }

    fn apply_completions(&mut self) {
        let mut touched = Vec::new();
        for completion in self.completions.try_iter() {
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
            // otherwise grow its write buffer without bound.
            dead || conn.unflushed() > MAX_WRITE_BUFFER
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
            // The fd closes when `conn` drops here. An admin op of this
            // connection still on the control thread completes harmlessly;
            // its reply is discarded by the generation check.
        }
    }
}

/// Answers one data-plane frame on the loop thread: classify requests run
/// the engine here, everything else is answered from the store or as an
/// error.
fn answer(shared: &Shared, payload: &[u8]) -> Bytes {
    match Request::decode(payload) {
        Ok(Request::Single(request)) => classify(shared, None, &request.features, false),
        Ok(Request::SingleWith(request)) => {
            classify(shared, Some(&request.model), &request.features, true)
        }
        Ok(Request::Batch(request)) => classify_batch(shared, None, &request.samples, false),
        Ok(Request::BatchWith(request)) => {
            classify_batch(shared, Some(&request.model), &request.samples, true)
        }
        Ok(Request::ListModels { extended }) => {
            let response = ListModelsResponse {
                models: shared.store.list(),
            };
            match response.encode(if extended { 3 } else { 2 }) {
                Ok(frame) => frame,
                Err(e) => ErrorFrame {
                    code: ERR_INTERNAL,
                    detail: format!("model list does not fit in a frame: {e}"),
                }
                .encode(),
            }
        }
        Ok(Request::UnsupportedVersion { requested }) => ErrorFrame {
            code: ERR_UNSUPPORTED_VERSION,
            detail: format!(
                "protocol version {requested} not supported; \
                 this server speaks up to {PROTOCOL_VERSION}"
            ),
        }
        .encode(),
        // The frame was well-delimited, so the stream is still in sync:
        // reject the one bad request, keep the connection.
        Err(e) => ErrorFrame {
            code: ERR_MALFORMED_REQUEST,
            detail: e.to_string(),
        }
        .encode(),
    }
}

/// One sample through the resolved model's `classify`, booked as one
/// request.
fn classify(shared: &Shared, model: Option<&str>, features: &[f32], v2: bool) -> Bytes {
    let model = match resolve_classify(shared, model, [features]) {
        Ok(model) => model,
        Err(frame) => return frame.encode(),
    };
    let start = Instant::now();
    let class = model.engine().classify(features);
    let latency_ns = (start.elapsed().as_nanos() as u64).max(1);
    model.book(1, latency_ns);
    let response = ClassifyResponse { class, latency_ns };
    if v2 {
        response.encode_v2()
    } else {
        response.encode()
    }
}

/// A client-submitted batch through the resolved model's
/// `classify_batch`, booked as one request per sample.
fn classify_batch(shared: &Shared, model: Option<&str>, samples: &[Vec<f32>], v2: bool) -> Bytes {
    let model = match resolve_classify(shared, model, samples.iter().map(Vec::as_slice)) {
        Ok(model) => model,
        Err(frame) => return frame.encode(),
    };
    let response = if samples.is_empty() {
        // Answered without touching engine or statistics.
        ClassifyBatchResponse {
            classes: Vec::new(),
            latency_ns: 0,
        }
    } else {
        let borrowed: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
        let start = Instant::now();
        let classes = model.engine().classify_batch(&borrowed);
        let latency_ns = start.elapsed().as_nanos() as u64;
        model.book(borrowed.len() as u64, latency_ns);
        ClassifyBatchResponse {
            classes,
            latency_ns,
        }
    };
    if v2 {
        response.encode_v2()
    } else {
        response.encode()
    }
}

/// Answers a connection the loop will not serve with a best-effort
/// [`ERR_OVERLOADED`] frame (a fresh socket buffer virtually always takes
/// one small frame), then closes it.
fn refuse(mut stream: Stream, detail: &str) {
    let frame = ErrorFrame {
        code: ERR_OVERLOADED,
        detail: detail.to_owned(),
    }
    .encode();
    let _ = stream.write_all(&frame);
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
