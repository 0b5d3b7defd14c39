//! The eight closed-loop workloads: how each is set up (with per-step
//! timing for `setup_s`), and how each spends one window.
//!
//! Every caller waits for its reply before it sends again, so a slow
//! system receives less load and the saturated workloads *are* the
//! capacity number. All load comes from this one process, on at most two
//! threads and two connections.

use crate::daemon::{Daemon, DaemonOptions, Tools};
use crate::host::{self, ProcSample};
use crate::models::{ModelSpec, Pool, DEEP, SVC, WIDE};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, AdminReply, Reply};
use bolt_bitpack::Mask;
use bolt_core::{BatchScratch, BoltForest, BoltScratch};
use bolt_forest::RandomForest;
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Library calls are timed in chunks of this many, and batches are this
/// large, so one timer read costs under 0.1 % of what it times.
pub const CHUNK: usize = 64;

/// Outstanding single-sample frames per connection on `uds_pipelined`.
const PIPELINE_DEPTH: usize = 32;

/// Admin operations per second on `swap_admin`.
const ADMIN_OPS_PER_S: u64 = 20;

/// Copies of the service artifact in the `cold_churn` fleet.
const CHURN_MODELS: usize = 16;

/// A reply later than this fails its operation and ends the connection.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Spans kept per workload for `trace.json`; totals cover every request.
const TRACE_KEEP: usize = 2000;

/// Workload names, in presentation order. Later issues cite them.
pub const NAMES: [&str; 8] = [
    "lib_single_wide",
    "lib_single_deep",
    "lib_batch_deep",
    "uds_single",
    "uds_pipelined",
    "tcp_batch64",
    "cold_churn",
    "swap_admin",
];

/// Nanoseconds since the process-wide trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Everything one window (or one connection's share of it) observed.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// Wall seconds from first send to last reply.
    pub wall_s: f64,
    /// Operations sent: frames, library calls (per chunk), admin ops.
    pub attempted: u64,
    /// Operations that failed: wrong class, error frame, shed, protocol
    /// error, timeout, refused admin op.
    pub failed: u64,
    /// Samples answered with the oracle's class.
    pub samples_ok: u64,
    /// Samples the daemon answered with classes (right or wrong) — what
    /// its request counter must have advanced by.
    pub samples_answered: u64,
    /// `ERR_OVERLOADED` frames seen.
    pub shed: u64,
    /// Per-operation latency, µs.
    pub lat_us: Vec<f64>,
    /// Per-operation server-reported service time, µs.
    pub svc_us: Vec<f64>,
    /// CPU the system under test spent, ns.
    pub sut_cpu_ns: u64,
    /// How late each admin op was sent against its schedule, µs.
    pub admin_lag_us: Vec<f64>,
    /// Admin round trips, µs.
    pub admin_rtt_us: Vec<f64>,
    /// The first failure's description, for the report.
    pub first_error: Option<String>,
}

impl Recorder {
    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }

    /// Books one finished data operation of `n` samples starting at pool
    /// index `first`: judges the reply against the oracle.
    fn judge(
        &mut self,
        reply: Result<Reply, String>,
        classes: &[u32],
        pool: &Pool,
        first: usize,
        n: usize,
        lat_ns: u64,
    ) -> u64 {
        self.attempted += 1;
        match reply {
            Ok(Reply::Classes { service_ns }) if classes.len() == n => {
                self.samples_answered += n as u64;
                let right = (0..n)
                    .filter(|&k| classes[k] == pool.expected[(first + k) % pool.len()])
                    .count();
                self.samples_ok += right as u64;
                if right == n {
                    self.lat_us.push(lat_ns as f64 / 1000.0);
                    self.svc_us.push(service_ns as f64 / 1000.0);
                } else {
                    self.fail(|| format!("{} of {n} classes differ from the oracle", n - right));
                }
                service_ns
            }
            Ok(Reply::Classes { .. }) => {
                self.fail(|| format!("{} classes for {n} samples", classes.len()));
                0
            }
            Ok(Reply::Error { code, detail }) => {
                self.shed += u64::from(code == wire::ERR_OVERLOADED);
                self.fail(|| format!("error frame {code}: {detail}"));
                0
            }
            Err(e) => {
                self.fail(|| format!("protocol error: {e}"));
                0
            }
        }
    }

    /// Folds another connection's share of the same window into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.wall_s = self.wall_s.max(other.wall_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples_ok += other.samples_ok;
        self.samples_answered += other.samples_answered;
        self.shed += other.shed;
        self.lat_us.extend(other.lat_us);
        self.svc_us.extend(other.svc_us);
        self.sut_cpu_ns += other.sut_cpu_ns;
        self.admin_lag_us.extend(other.admin_lag_us);
        self.admin_rtt_us.extend(other.admin_rtt_us);
        self.first_error = self.first_error.take().or(other.first_error);
    }

    /// Median of latency minus service time over the window's operations:
    /// transport, framing, event loop, dispatch and response write.
    #[must_use]
    pub fn wire_queue_p50_us(&self) -> f64 {
        let mut wire: Vec<f64> = self
            .lat_us
            .iter()
            .zip(&self.svc_us)
            .map(|(lat, svc)| (lat - svc).max(0.0))
            .collect();
        stats::percentile(stats::sort(&mut wire), 0.5)
    }
}

/// What a workload is measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sut {
    /// A `boltd` process.
    Daemon(u32),
    /// The calling thread of this process (library workloads).
    CallingThread,
}

/// One of the eight workloads, set up and ready to run windows.
pub trait Workload {
    /// Its name in [`NAMES`].
    fn name(&self) -> &'static str;
    /// Spends `window` sending load; spans go to the workload's tracer
    /// when `traced`.
    fn run(&mut self, window: Duration, traced: bool) -> Recorder;
    /// What CPU and memory are read from.
    fn sut(&self) -> Sut;
    /// The spans recorded so far.
    fn tracer(&self) -> &Tracer;
    /// The daemon behind it, if it is served.
    fn daemon(&self) -> Option<&Daemon> {
        None
    }
    /// Samples the daemon answered since it started, as the client counted.
    fn samples_answered_total(&self) -> u64 {
        0
    }
    /// One `Status` round trip on the admin socket, µs (`swap_admin`).
    fn admin_status_rtt_us(&mut self) -> Option<f64> {
        None
    }
}

/// What every set-up step took in every repetition: `steps[step][rep]`.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    steps: Vec<Vec<f64>>,
}

impl SetupTimes {
    fn with_steps(n: usize) -> Self {
        Self {
            steps: vec![Vec::new(); n],
        }
    }

    /// `setup_s`: the per-step medians, summed.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.steps.iter().map(|times| stats::median(times)).sum()
    }

    /// Each repetition's total, for the spread the A/A verdict needs.
    #[must_use]
    pub fn per_repetition(&self) -> Vec<f64> {
        let reps = self.steps.iter().map(Vec::len).min().unwrap_or(0);
        (0..reps)
            .map(|r| self.steps.iter().map(|times| times[r]).sum())
            .collect()
    }
}

fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    times.push(started.elapsed().as_secs_f64());
    out
}

// ---------------------------------------------------------------- library

/// `lib_single_*` and `lib_batch_deep`: the compiled forest called in
/// process on one thread.
pub struct LibWorkload {
    name: &'static str,
    bolt: BoltForest,
    pool: Pool,
    batched: bool,
    cursor: usize,
    scratch: BoltScratch,
    batch_scratch: BatchScratch,
    masks: Vec<Mask>,
    matches: Vec<(u32, u32)>,
    lanes: Vec<u64>,
    diffs: Vec<u64>,
    matched: Vec<u32>,
    tracer: Tracer,
}

impl LibWorkload {
    /// Trains and compiles `spec` `reps` times (timing each step) and draws
    /// the request pool. Returns the workload and its set-up times.
    #[must_use]
    pub fn setup(
        name: &'static str,
        spec: &ModelSpec,
        batched: bool,
        seed: u64,
        reps: usize,
    ) -> (Self, SetupTimes) {
        let mut times = SetupTimes::with_steps(2);
        let mut built = None;
        for _ in 0..reps.max(1) {
            let forest = timed(&mut times.steps[0], || {
                RandomForest::train(&spec.training_data(), &spec.forest_config())
            });
            let bolt = timed(&mut times.steps[1], || {
                BoltForest::compile(&forest, &spec.bolt_config())
                    .expect("benchmark models are table-mappable")
            });
            built = Some((forest, bolt));
        }
        let (forest, bolt) = built.expect("at least one repetition");
        let pool = Pool::draw(spec, &forest, seed);
        let width = bolt.universe().len();
        let workload = Self {
            name,
            scratch: bolt.scratch(),
            batch_scratch: bolt.batch_scratch(),
            masks: vec![Mask::zeros(width); CHUNK],
            matches: Vec::new(),
            lanes: Vec::new(),
            diffs: Vec::new(),
            matched: Vec::new(),
            cursor: (seed as usize) % pool.len(),
            bolt,
            pool,
            batched,
            tracer: Tracer::new(name, "core.engine.vote", TRACE_KEEP),
        };
        (workload, times)
    }

    /// Runs the stages of the chunk starting at pool index `first` one by
    /// one on the same samples and records them as children of the whole
    /// call `[t0, t1]`, laid end to end from its start.
    fn trace_chunk(&mut self, first: usize, t0: u64, t1: u64) {
        let n = self.pool.len();
        let view = self.bolt.view();
        let dict = view.dict();
        let universe = self.bolt.universe();

        let started = Instant::now();
        for (k, mask) in self.masks.iter_mut().enumerate() {
            universe.evaluate_into(self.pool.sample((first + k) % n), mask);
        }
        if self.batched {
            // The batched path reads the masks transposed, word-major.
            let stride = dict.stride();
            self.lanes.clear();
            self.lanes.resize(stride * CHUNK, 0);
            for (b, mask) in self.masks.iter().enumerate() {
                for (w, &word) in mask.as_words().iter().enumerate().take(stride) {
                    self.lanes[w * CHUNK + b] = word;
                }
            }
        }
        let encode = started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        self.matches.clear();
        if self.batched {
            self.diffs.clear();
            self.diffs.resize(bolt_core::simd::BLOCK * CHUNK, 0);
            let matches = &mut self.matches;
            dict.scan_lanes(
                &self.lanes,
                CHUNK,
                &mut self.diffs,
                &mut self.matched,
                |id, hit| {
                    matches.extend(hit.iter().map(|&b| (b, id)));
                },
            );
        } else {
            for (k, mask) in self.masks.iter().enumerate() {
                dict.scan(mask, |id| self.matches.push((k as u32, id)));
            }
        }
        let scan = started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        for &(k, id) in &self.matches {
            let address = dict.address_of(id, &self.masks[k as usize]);
            black_box(view.lookup_entry_votes(id, address));
        }
        let lookup = started.elapsed().as_nanos() as u64;

        let (a, b, c) = (t0 + encode, t0 + encode + scan, t0 + encode + scan + lookup);
        self.tracer.request(
            ("core.classify", t0, t1),
            &[
                ("forest.binarize.encode", t0, a),
                ("core.dictionary.scan", a, b),
                ("core.table.lookup", b, c),
            ],
        );
    }
}

impl Workload for LibWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn sut(&self) -> Sut {
        Sut::CallingThread
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn run(&mut self, window: Duration, traced: bool) -> Recorder {
        let mut rec = Recorder::default();
        let n = self.pool.len();
        let mut got = [0u32; CHUNK];
        let cpu_before = host::thread_cpu_ns();
        let started = Instant::now();
        while started.elapsed() < window && !host::stop_requested() {
            let first = self.cursor;
            let t0 = now_ns();
            if self.batched {
                let refs: [&[f32]; CHUNK] =
                    std::array::from_fn(|k| self.pool.sample((first + k) % n));
                self.bolt.batch_votes_with(&refs, &mut self.batch_scratch);
                for (k, class) in got.iter_mut().enumerate() {
                    *class = self.batch_scratch.class(k);
                }
            } else {
                for (k, class) in got.iter_mut().enumerate() {
                    *class = self
                        .bolt
                        .classify_with(self.pool.sample((first + k) % n), &mut self.scratch);
                }
            }
            let t1 = now_ns();
            // One operation is the batch call, or one of the chunk's calls.
            let ops = if self.batched { 1 } else { CHUNK as u64 };
            let right = (0..CHUNK)
                .filter(|&k| got[k] == self.pool.expected[(first + k) % n])
                .count();
            rec.attempted += ops;
            rec.samples_ok += right as u64;
            if right == CHUNK {
                rec.lat_us.push((t1 - t0) as f64 / 1000.0 / ops as f64);
            } else {
                rec.failed += ops.min((CHUNK - right) as u64);
                rec.first_error.get_or_insert_with(|| {
                    format!(
                        "{} of {CHUNK} classes differ from the oracle",
                        CHUNK - right
                    )
                });
            }
            if traced {
                self.trace_chunk(first, t0, t1);
            }
            self.cursor = (first + CHUNK) % n;
        }
        rec.wall_s = started.elapsed().as_secs_f64();
        rec.sut_cpu_ns = host::thread_cpu_ns().saturating_sub(cpu_before);
        rec
    }
}

// ----------------------------------------------------------------- served

/// A connected socket of either transport.
trait Socket: Read + Write + Send {}
impl<T: Read + Write + Send> Socket for T {}

/// What one connection sends.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Legacy single-sample frames to the default model, one outstanding.
    Single,
    /// The same frames, [`PIPELINE_DEPTH`] outstanding.
    Pipelined,
    /// v2 `ClassifyBatchWith` frames of [`CHUNK`] samples, one outstanding.
    Batch(&'static str),
    /// v2 `ClassifyWith` to `churnNN`, round robin, one outstanding.
    Churn,
    /// v2 `ClassifyWith` to the named model, one outstanding.
    Named(&'static str),
}

impl Shape {
    /// The served workload with this name and what its connections send.
    fn of(name: &str) -> Option<(&'static str, Self)> {
        Some(match name {
            "uds_single" => ("uds_single", Self::Single),
            "uds_pipelined" => ("uds_pipelined", Self::Pipelined),
            "tcp_batch64" => ("tcp_batch64", Self::Batch(DEEP.name)),
            "cold_churn" => ("cold_churn", Self::Churn),
            "swap_admin" => ("swap_admin", Self::Named(SVC.name)),
            _ => return None,
        })
    }

    /// The model behind it.
    fn model(self) -> &'static ModelSpec {
        match self {
            Self::Batch(_) => &DEEP,
            _ => &SVC,
        }
    }

    /// The two saturating workloads use both of the generator's threads.
    fn connections(self) -> usize {
        match self {
            Self::Pipelined | Self::Batch(_) => 2,
            _ => 1,
        }
    }

    fn tcp(self) -> bool {
        matches!(self, Self::Batch(_))
    }

    /// Appends the next request frame to `wbuf`; returns the pool index of
    /// its first sample and its sample count.
    fn encode_next(self, pool: &Pool, cursor: &mut usize, wbuf: &mut Vec<u8>) -> (usize, usize) {
        let first = *cursor;
        let n = pool.len();
        let samples = match self {
            Self::Single | Self::Pipelined => {
                wire::encode_single(wbuf, pool.sample(first));
                1
            }
            Self::Named(model) => {
                wire::encode_classify_with(wbuf, model, pool.sample(first));
                1
            }
            Self::Churn => {
                // Consecutive requests go to consecutive models, so with a
                // budget of 4.5 artifacts nearly every request misses.
                let model = format!("churn{:02}", first % CHURN_MODELS);
                wire::encode_classify_with(wbuf, &model, pool.sample(first));
                1
            }
            Self::Batch(model) => {
                let refs: [&[f32]; CHUNK] = std::array::from_fn(|k| pool.sample((first + k) % n));
                wire::encode_batch_with(wbuf, model, &refs);
                CHUNK
            }
        };
        *cursor = (first + samples) % n;
        (first, samples)
    }
}

struct Conn {
    stream: Box<dyn Socket>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    classes: Vec<u32>,
    cursor: usize,
    tracer: Tracer,
}

impl Conn {
    fn open(daemon: &Daemon, tcp: bool, cursor: usize, name: &'static str) -> Result<Self, String> {
        let stream: Box<dyn Socket> = if tcp {
            let addr = daemon.tcp.ok_or("daemon has no TCP listener")?;
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
            Box::new(s)
        } else {
            let s = UnixStream::connect(&daemon.socket)
                .map_err(|e| format!("connect {}: {e}", daemon.socket.display()))?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
            Box::new(s)
        };
        Ok(Self {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            classes: Vec::new(),
            cursor,
            tracer: Tracer::new(name, "server.wire_queue", TRACE_KEEP),
        })
    }

    /// One request, one reply. Returns false when the connection is no
    /// longer usable (the failure is already booked).
    fn round_trip(&mut self, shape: Shape, pool: &Pool, traced: bool, rec: &mut Recorder) -> bool {
        let t0 = now_ns();
        self.wbuf.clear();
        let (first, n) = shape.encode_next(pool, &mut self.cursor, &mut self.wbuf);
        let t1 = if traced { now_ns() } else { 0 };
        let sent = self.stream.write_all(&self.wbuf);
        let t2 = if traced { now_ns() } else { 0 };
        if let Err(e) = sent.and_then(|()| wire::read_frame(&mut self.stream, &mut self.rbuf)) {
            rec.attempted += 1;
            rec.fail(|| format!("transport: {e}"));
            return false;
        }
        let t3 = if traced { now_ns() } else { 0 };
        let reply = wire::decode_reply(&self.rbuf, &mut self.classes);
        let t4 = now_ns();
        let service_ns = rec.judge(reply, &self.classes, pool, first, n, t4 - t0);
        if traced {
            self.tracer.request(
                ("client.request", t0, t4),
                &[
                    ("client.encode", t0, t1),
                    ("client.write", t1, t2),
                    // Reported by the server; it ended when the reply left.
                    ("server.service", t3.saturating_sub(service_ns).max(t2), t3),
                    ("client.read_decode", t3, t4),
                ],
            );
        }
        true
    }

    fn drive(&mut self, shape: Shape, pool: &Pool, window: Duration, traced: bool) -> Recorder {
        match shape {
            Shape::Pipelined => self.drive_pipelined(shape, pool, window, traced),
            _ => self.drive_serial(shape, pool, window, traced),
        }
    }

    fn drive_serial(
        &mut self,
        shape: Shape,
        pool: &Pool,
        window: Duration,
        traced: bool,
    ) -> Recorder {
        let mut rec = Recorder::default();
        let started = Instant::now();
        while started.elapsed() < window && !host::stop_requested() {
            if !self.round_trip(shape, pool, traced, &mut rec) {
                break;
            }
        }
        rec.wall_s = started.elapsed().as_secs_f64();
        rec
    }

    /// Keeps [`PIPELINE_DEPTH`] requests outstanding: tops the pipeline up
    /// with one write, reads whatever has arrived, and repeats; after the
    /// window closes it only drains.
    fn drive_pipelined(
        &mut self,
        shape: Shape,
        pool: &Pool,
        window: Duration,
        traced: bool,
    ) -> Recorder {
        struct Pending {
            first: usize,
            t0: u64,
            t1: u64,
            written: (u64, u64),
        }
        let mut rec = Recorder::default();
        let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(PIPELINE_DEPTH);
        let mut chunk = vec![0u8; 16 << 10];
        self.rbuf.clear();
        let started = Instant::now();
        'window: loop {
            let open = started.elapsed() < window && !host::stop_requested();
            if open && inflight.len() < PIPELINE_DEPTH {
                self.wbuf.clear();
                let fresh = inflight.len();
                while inflight.len() < PIPELINE_DEPTH {
                    let t0 = now_ns();
                    let (first, _) = shape.encode_next(pool, &mut self.cursor, &mut self.wbuf);
                    let t1 = if traced { now_ns() } else { 0 };
                    inflight.push_back(Pending {
                        first,
                        t0,
                        t1,
                        written: (0, 0),
                    });
                }
                let before = if traced { now_ns() } else { 0 };
                if let Err(e) = self.stream.write_all(&self.wbuf) {
                    rec.attempted += inflight.len() as u64;
                    rec.failed += inflight.len() as u64 - 1;
                    rec.fail(|| format!("transport: {e}"));
                    break;
                }
                if traced {
                    let written = (before, now_ns());
                    inflight
                        .range_mut(fresh..)
                        .for_each(|p| p.written = written);
                }
            }
            if inflight.is_empty() {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(n) if n > 0 => self.rbuf.extend_from_slice(&chunk[..n]),
                other => {
                    rec.attempted += inflight.len() as u64;
                    rec.failed += inflight.len() as u64 - 1;
                    rec.fail(|| format!("transport: {other:?}"));
                    break;
                }
            }
            let arrived = now_ns();
            let mut at = 0;
            while let Some(payload) = wire::next_frame(&self.rbuf[at..]) {
                at += 4 + payload.len();
                let reply = wire::decode_reply(payload, &mut self.classes);
                let Some(p) = inflight.pop_front() else {
                    rec.attempted += 1;
                    rec.fail(|| "reply without a request".into());
                    break 'window;
                };
                let done = now_ns();
                let service_ns = rec.judge(reply, &self.classes, pool, p.first, 1, done - p.t0);
                if traced {
                    self.tracer.request(
                        ("client.request", p.t0, done),
                        &[
                            ("client.encode", p.t0, p.t1),
                            ("client.write", p.written.0, p.written.1),
                            (
                                "server.service",
                                arrived.saturating_sub(service_ns).max(p.written.1),
                                arrived,
                            ),
                            ("client.read_decode", arrived, done),
                        ],
                    );
                }
            }
            self.rbuf.drain(..at);
        }
        rec.wall_s = started.elapsed().as_secs_f64();
        rec
    }
}

/// The admin-socket writer of `swap_admin`: alternates `activate svc@1` /
/// `svc@2` on a fixed schedule and reports how late it ran.
struct AdminWriter {
    stream: UnixStream,
    next_version: u32,
    buf: Vec<u8>,
}

impl AdminWriter {
    fn call(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<AdminReply, String> {
        self.buf.clear();
        encode(&mut self.buf);
        self.stream
            .write_all(&self.buf)
            .and_then(|()| wire::read_frame(&mut self.stream, &mut self.buf))
            .map_err(|e| format!("admin transport: {e}"))?;
        wire::decode_admin_reply(&self.buf)
    }

    fn drive(&mut self, window: Duration) -> Recorder {
        let mut rec = Recorder::default();
        let period = Duration::from_nanos(1_000_000_000 / ADMIN_OPS_PER_S);
        let started = Instant::now();
        for k in 0.. {
            let due = period * k;
            if due >= window || host::stop_requested() {
                break;
            }
            std::thread::sleep(due.saturating_sub(started.elapsed()));
            let sent = started.elapsed();
            rec.admin_lag_us.push((sent - due).as_secs_f64() * 1e6);
            let version = self.next_version;
            rec.attempted += 1;
            match self.call(|buf| wire::encode_admin_activate(buf, SVC.name, version)) {
                Ok(AdminReply::Ok) => {
                    rec.admin_rtt_us
                        .push((started.elapsed() - sent).as_secs_f64() * 1e6);
                    self.next_version = 3 - version;
                }
                Ok(other) => rec.fail(|| format!("activate svc@{version}: {other:?}")),
                Err(e) => {
                    rec.fail(|| e);
                    break;
                }
            }
        }
        rec
    }
}

/// The five workloads that drive a real `boltd` over a socket.
pub struct ServedWorkload {
    name: &'static str,
    shape: Shape,
    pool: Pool,
    conns: Vec<Conn>,
    admin: Option<AdminWriter>,
    daemon: Daemon,
    tracer: Tracer,
    answered_total: u64,
    /// `cold_churn`: one artifact of the fleet, opened in process during
    /// traced windows as the reference for what a miss costs.
    cold_artifact: Option<PathBuf>,
}

fn copy(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to)
        .map(drop)
        .map_err(|e| format!("copy {} -> {}: {e}", from.display(), to.display()))
}

impl ServedWorkload {
    /// Builds the fleet with the real `boltc`, starts the real `boltd` and
    /// waits for its first correct reply — `reps` times over, to fresh
    /// paths, timing each step. The last repetition's daemon is the one
    /// measured. Returns the workload and its set-up times.
    ///
    /// # Errors
    ///
    /// Any tool, file or socket failure, or a wrong first reply.
    fn setup(
        name: &'static str,
        shape: Shape,
        tools: &Tools,
        dir: &Path,
        seed: u64,
        reps: usize,
    ) -> Result<(Self, SetupTimes), String> {
        let spec = shape.model();
        let mut times = SetupTimes::with_steps(4);
        let mut pool: Option<Pool> = None;
        let mut last = None;
        for rep in 0..reps.max(1) {
            drop(last.take()); // the previous repetition's daemon
            let dir = dir.join(format!("{}.{rep}", name));
            let models = dir.join("models");
            std::fs::create_dir_all(&models).map_err(|e| format!("mkdir: {e}"))?;
            let forest_json = dir.join("forest.json");
            let artifact = |v: u32| dir.join(format!("{}@{v}.blt", spec.name));
            let versions: &[u32] = match shape {
                Shape::Named(_) => &[1, 2],
                _ => &[1],
            };

            timed(&mut times.steps[0], || tools.train(spec, &forest_json))?;
            timed(&mut times.steps[1], || {
                versions
                    .iter()
                    .try_for_each(|&v| tools.compile(spec, &forest_json, v, &artifact(v)))
            })?;
            timed(&mut times.steps[2], || match shape {
                Shape::Churn => (0..CHURN_MODELS).try_for_each(|i| {
                    copy(&artifact(1), &models.join(format!("churn{i:02}@1.blt")))
                }),
                _ => versions.iter().try_for_each(|&v| {
                    copy(&artifact(v), &models.join(format!("{}@{v}.blt", spec.name)))
                }),
            })?;

            // The oracle is the forest boltc wrote; draw the pool once.
            if pool.is_none() {
                let json = std::fs::read_to_string(&forest_json).map_err(|e| e.to_string())?;
                let forest: RandomForest =
                    serde_json::from_str(&json).map_err(|e| format!("forest.json: {e}"))?;
                pool = Some(Pool::draw(spec, &forest, seed));
            }
            let pool = pool.as_ref().expect("just drawn");

            let artifact_bytes = std::fs::metadata(artifact(1))
                .map_err(|e| e.to_string())?
                .len();
            let options = DaemonOptions {
                default_model: matches!(shape, Shape::Single | Shape::Pipelined)
                    .then_some(spec.name),
                // 4.5 artifacts: four fit, the fifth evicts.
                resident_bytes: matches!(shape, Shape::Churn).then_some(artifact_bytes * 9 / 2),
                tcp: shape.tcp(),
            };
            let mut hello = Recorder::default();
            let (daemon, conn) = timed(&mut times.steps[3], || {
                let daemon = Daemon::start(tools, &dir, options)?;
                let mut conn = Conn::open(&daemon, shape.tcp(), 0, name)?;
                conn.round_trip(shape, pool, false, &mut hello);
                Ok::<_, String>((daemon, conn))
            })?;
            if hello.failed > 0 || hello.samples_ok == 0 {
                return Err(format!(
                    "{}: first reply was wrong: {}",
                    name,
                    hello.first_error.unwrap_or_default()
                ));
            }
            last = Some((daemon, conn, hello.samples_answered, artifact(1)));
        }
        let (daemon, first_conn, answered, artifact) = last.expect("at least one repetition");
        let pool = pool.expect("drawn with the first repetition");
        let mut conns = vec![first_conn];
        for c in 1..shape.connections() {
            // Each connection walks its own part of the pool.
            let cursor = c * pool.len() / shape.connections();
            conns.push(Conn::open(&daemon, shape.tcp(), cursor, name)?);
        }
        conns[0].cursor = (seed as usize) % pool.len();
        let admin = match shape {
            Shape::Named(_) => Some(AdminWriter {
                stream: UnixStream::connect(&daemon.admin)
                    .and_then(|s| s.set_read_timeout(Some(REPLY_TIMEOUT)).map(|()| s))
                    .map_err(|e| format!("connect {}: {e}", daemon.admin.display()))?,
                next_version: 1,
                buf: Vec::new(),
            }),
            _ => None,
        };
        let workload = Self {
            name,
            shape,
            pool,
            conns,
            admin,
            daemon,
            tracer: Tracer::new(name, "server.wire_queue", TRACE_KEEP),
            answered_total: answered,
            cold_artifact: matches!(shape, Shape::Churn).then_some(artifact),
        };
        Ok((workload, times))
    }
}

impl Workload for ServedWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn sut(&self) -> Sut {
        Sut::Daemon(self.daemon.pid())
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn daemon(&self) -> Option<&Daemon> {
        Some(&self.daemon)
    }

    fn samples_answered_total(&self) -> u64 {
        self.answered_total
    }

    fn admin_status_rtt_us(&mut self) -> Option<f64> {
        let admin = self.admin.as_mut()?;
        let started = Instant::now();
        let reply = admin.call(wire::encode_admin_status);
        matches!(reply, Ok(AdminReply::Other(0x83))).then(|| started.elapsed().as_secs_f64() * 1e6)
    }

    fn run(&mut self, window: Duration, traced: bool) -> Recorder {
        let (shape, pool) = (self.shape, &self.pool);
        let before = ProcSample::of(self.daemon.pid());
        let mut rec = Recorder::default();
        std::thread::scope(|scope| {
            // The last connection runs on this thread, so a one-connection
            // workload spawns nothing.
            let (mine, others) = self.conns.split_last_mut().expect("at least one");
            let spawned: Vec<_> = others
                .iter_mut()
                .map(|conn| scope.spawn(move || conn.drive(shape, pool, window, traced)))
                .collect();
            let admin = self
                .admin
                .as_mut()
                .map(|admin| scope.spawn(move || admin.drive(window)));
            rec = mine.drive(shape, pool, window, traced);
            for handle in spawned.into_iter().chain(admin) {
                rec.absorb(handle.join().expect("load thread panicked"));
            }
        });
        rec.sut_cpu_ns = ProcSample::of(self.daemon.pid()).since(before).cpu_ns;
        self.answered_total += rec.samples_answered;
        if traced {
            for conn in &mut self.conns {
                let fresh = Tracer::new(self.name, "server.wire_queue", TRACE_KEEP);
                self.tracer
                    .absorb(std::mem::replace(&mut conn.tracer, fresh));
            }
            if let Some(artifact) = &self.cold_artifact {
                let started = now_ns();
                black_box(bolt_artifact::MappedForest::open(artifact).is_ok());
                self.tracer.reference("artifact.open", started, now_ns());
            }
        }
        rec
    }
}

/// Sets up the workload called `name`. Returns it with its set-up times.
///
/// # Errors
///
/// An unknown name, or whatever its set-up ran into.
pub fn setup(
    name: &str,
    tools: &Tools,
    dir: &Path,
    seed: u64,
    reps: usize,
) -> Result<(Box<dyn Workload>, SetupTimes), String> {
    let lib = |name, spec, batched| {
        let (w, s) = LibWorkload::setup(name, spec, batched, seed, reps);
        Ok((Box::new(w) as Box<dyn Workload>, s))
    };
    match name {
        "lib_single_wide" => lib("lib_single_wide", &WIDE, false),
        "lib_single_deep" => lib("lib_single_deep", &DEEP, false),
        "lib_batch_deep" => lib("lib_batch_deep", &DEEP, true),
        other => {
            let (name, shape) =
                Shape::of(other).ok_or_else(|| format!("unknown workload {other:?}"))?;
            let (w, s) = ServedWorkload::setup(name, shape, tools, dir, seed, reps)?;
            Ok((Box::new(w) as Box<dyn Workload>, s))
        }
    }
}

#[cfg(test)]
impl LibWorkload {
    /// Makes the oracle wrong about every fourth sample.
    pub(crate) fn corrupt_oracle(&mut self) {
        for class in self.pool.expected.iter_mut().step_by(4) {
            *class = class.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        let forest = RandomForest::train(&SVC.training_data(), &SVC.forest_config());
        Pool::draw(&SVC, &forest, 3)
    }

    #[test]
    fn every_kind_of_bad_reply_is_a_failed_operation() {
        let pool = pool();
        let want = pool.expected[5];
        let mut rec = Recorder::default();
        let ok = Ok(Reply::Classes { service_ns: 2000 });
        assert_eq!(rec.judge(ok.clone(), &[want], &pool, 5, 1, 9000), 2000);
        assert_eq!((rec.attempted, rec.failed, rec.samples_ok), (1, 0, 1));
        assert_eq!(
            (rec.lat_us[0], rec.svc_us[0], rec.wire_queue_p50_us()),
            (9.0, 2.0, 7.0)
        );
        // Wrong class: answered, but failed, and no latency sample.
        rec.judge(ok.clone(), &[want + 1], &pool, 5, 1, 9000);
        assert_eq!(
            (
                rec.attempted,
                rec.failed,
                rec.samples_ok,
                rec.samples_answered
            ),
            (2, 1, 1, 2)
        );
        // Wrong count, shed, other error frame, protocol error.
        rec.judge(ok, &[want, want], &pool, 5, 1, 9000);
        let shed = Reply::Error {
            code: wire::ERR_OVERLOADED,
            detail: "full".into(),
        };
        rec.judge(Ok(shed), &[], &pool, 5, 1, 9000);
        let unknown = Reply::Error {
            code: wire::ERR_UNKNOWN_MODEL,
            detail: "who".into(),
        };
        rec.judge(Ok(unknown), &[], &pool, 5, 1, 9000);
        rec.judge(Err("garbage".into()), &[], &pool, 5, 1, 9000);
        assert_eq!((rec.attempted, rec.failed, rec.shed), (6, 5, 1));
        assert_eq!(rec.lat_us.len(), 1);
        assert!(rec
            .first_error
            .as_deref()
            .unwrap_or_default()
            .contains("differ"));
    }

    #[test]
    fn library_workloads_agree_with_the_oracle_and_notice_a_wrong_one() {
        for (name, batched) in [("lib_single_deep", false), ("lib_batch_deep", true)] {
            let (mut w, setup) = LibWorkload::setup(name, &SVC, batched, 11, 2);
            assert!(setup.seconds() > 0.0 && setup.per_repetition().len() == 2);
            let rec = w.run(Duration::from_millis(30), true);
            assert!(
                rec.attempted > 0 && rec.failed == 0,
                "{:?}",
                rec.first_error
            );
            assert_eq!(rec.samples_ok % CHUNK as u64, 0);
            assert!(rec.sut_cpu_ns > 0 && rec.wall_s >= 0.03);
            // The stages were traced and every nanosecond attributed once.
            assert!(w.tracer().requests() > 0);
            assert!((w.tracer().self_sum_pct() - 100.0).abs() < 1e-6);
            assert!(w.tracer().mean_self_us("core.dictionary.scan") > 0.0);

            w.corrupt_oracle();
            let rec = w.run(Duration::from_millis(30), false);
            assert!(rec.failed > 0 && rec.samples_ok < rec.attempted * CHUNK as u64);
        }
    }
}
