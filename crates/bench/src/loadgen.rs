//! Open-loop load generation against a live classification server.
//!
//! The criterion micro-benches in this crate measure closed-loop,
//! single-process throughput; production claims need tail latency under
//! *open-loop* concurrent load, where requests arrive on a fixed schedule
//! whether or not earlier ones have completed (`db_bench` / Guan et al.'s
//! served-workload methodology). Each worker thread fires requests at its
//! slice of the target arrival rate and measures latency **from the
//! scheduled send time**, not the actual send — so when the server falls
//! behind, queueing delay lands in the histogram instead of being
//! silently absorbed (no coordinated omission).
//!
//! Two latencies are recorded per request into
//! [`LatencyHistogram`](crate::hist::LatencyHistogram)s:
//!
//! * **client**: scheduled-send → response decoded (wire + queueing +
//!   service), the number an SLO would bound;
//! * **service**: the server-reported `latency_ns` (receipt →
//!   aggregation), isolating inference from transport.
//!
//! Results serialize as versioned `BENCH_<workload>.json` snapshots (see
//! [`BenchSnapshot`]) so the perf trajectory across PRs is diffable.

use crate::hist::LatencyHistogram;
use bolt_server::proto::{
    read_frame, V2Response, ERR_MALFORMED_REQUEST, MAX_FRAME_BYTES, V2_MAGIC,
};
use bolt_server::{ClassificationClient, ProtoError, PROTOCOL_VERSION};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Schema version stamped into every [`BenchSnapshot`]; bump when the
/// JSON layout changes incompatibly.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Model name the error-traffic mix asks for; never registered, so the
/// server must answer a structured unknown-model rejection.
pub const MISSING_MODEL: &str = "bolt-bench-missing";

/// How long a hostile exchange waits for the server's reaction before the
/// server is declared stalled (the one outcome the hostile mix exists to
/// rule out).
const HOSTILE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Where the load generator connects.
#[derive(Clone, Debug)]
pub enum Target {
    /// A Unix-domain-socket server at this path.
    Uds(PathBuf),
    /// A TCP server at this address.
    Tcp(SocketAddr),
}

impl Target {
    /// Opens one client connection to the target.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the server refuses.
    pub fn connect(&self) -> std::io::Result<ClassificationClient> {
        match self {
            Self::Uds(path) => ClassificationClient::connect(path),
            Self::Tcp(addr) => ClassificationClient::connect_tcp(*addr),
        }
    }

    /// The transport tag recorded in snapshots (`"uds"` / `"tcp"`).
    #[must_use]
    pub fn transport(&self) -> &'static str {
        match self {
            Self::Uds(_) => "uds",
            Self::Tcp(_) => "tcp",
        }
    }

    /// Opens a raw byte stream to the target for hostile-frame injection,
    /// bypassing the typed client so the bench can put arbitrary bytes on
    /// a live data socket. Read-timeout-bounded so a stalled server shows
    /// up as a failure instead of hanging the run.
    fn connect_raw(&self) -> std::io::Result<Box<dyn RawStream>> {
        match self {
            Self::Uds(path) => {
                let stream = std::os::unix::net::UnixStream::connect(path)?;
                stream.set_read_timeout(Some(HOSTILE_READ_TIMEOUT))?;
                Ok(Box::new(stream))
            }
            Self::Tcp(addr) => {
                let stream = std::net::TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(HOSTILE_READ_TIMEOUT))?;
                Ok(Box::new(stream))
            }
        }
    }
}

/// Object-safe byte stream for hostile-frame injection.
trait RawStream: Read + Write + Send {}
impl<T: Read + Write + Send> RawStream for T {}

/// One open-loop workload: how many threads, how fast, what mix.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Workload name; becomes the `BENCH_<name>.json` snapshot stem.
    pub name: String,
    /// Client threads, each holding one connection.
    pub threads: usize,
    /// Target arrival rate in requests (frames) per second, across all
    /// threads.
    pub rate: f64,
    /// Total frames to send across all threads (bounded run).
    pub requests: u64,
    /// Samples per frame: 1 sends single-classify frames, >1 sends
    /// `ClassifyBatch` frames of this size.
    pub batch_size: usize,
    /// Named models cycled per request via v2 `ClassifyWith` routing;
    /// empty routes every frame to the server's default model via legacy
    /// framing.
    pub models: Vec<String>,
    /// Every Nth frame asks for [`MISSING_MODEL`] instead and must be
    /// answered with a structured unknown-model rejection (0 disables).
    pub error_every: u64,
    /// Stop scheduling new frames once this much wall-clock has elapsed.
    /// Whichever of this and `requests` trips first ends the run; with a
    /// duration set, `requests == 0` means "duration-bounded only".
    pub duration: Option<Duration>,
    /// Reconnect storm: every worker tears down and re-opens its
    /// connection after each N frames it sends (0 keeps connections for
    /// the whole run).
    pub reconnect_every: u64,
    /// Hostile-frame mix: every Nth scheduled arrival *also* injects one
    /// fuzz-shaped frame on a separate live data connection (0 disables).
    /// The server must answer a structured error or drop that connection
    /// — never stall, never corrupt the well-formed traffic running
    /// alongside.
    pub hostile_every: u64,
}

impl OpenLoopConfig {
    /// A single-sample default-model workload at the given rate.
    #[must_use]
    pub fn new(name: impl Into<String>, threads: usize, rate: f64, requests: u64) -> Self {
        Self {
            name: name.into(),
            threads: threads.max(1),
            rate,
            requests,
            batch_size: 1,
            models: Vec::new(),
            error_every: 0,
            duration: None,
            reconnect_every: 0,
            hostile_every: 0,
        }
    }
}

/// Percentile summary of one latency histogram, in nanoseconds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistSummary {
    /// Recorded values.
    pub count: u64,
    /// Minimum.
    pub min_ns: u64,
    /// Exact arithmetic mean.
    pub mean_ns: f64,
    /// Median (bucket upper edge, ≤ 3.125 % above the order statistic).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum (exact).
    pub max_ns: u64,
}

impl HistSummary {
    /// Summarizes a histogram.
    #[must_use]
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        Self {
            count: h.count(),
            min_ns: h.min(),
            mean_ns: h.mean(),
            p50_ns: h.value_at_quantile(0.50),
            p90_ns: h.value_at_quantile(0.90),
            p99_ns: h.value_at_quantile(0.99),
            p999_ns: h.value_at_quantile(0.999),
            max_ns: h.max(),
        }
    }
}

/// Everything measured in one open-loop run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The workload that ran.
    pub config: OpenLoopConfig,
    /// Transport tag (`"uds"` / `"tcp"`).
    pub transport: String,
    /// Frames actually sent.
    pub frames_sent: u64,
    /// Frames answered with a well-formed classification.
    pub responses_ok: u64,
    /// Structured rejections the error-traffic mix *expected*.
    pub expected_rejections: u64,
    /// Responses whose class disagreed with the known-good prediction
    /// (only counted when expectations were provided).
    pub wrong_class: u64,
    /// Everything else: transport failures, malformed frames, unexpected
    /// rejections. Zero on a healthy run.
    pub protocol_errors: u64,
    /// Connections deliberately re-opened by the reconnect-storm mix.
    pub reconnects: u64,
    /// Fuzz-shaped frames injected by the hostile mix.
    pub hostile_sent: u64,
    /// Hostile frames the server handled correctly: a structured error on
    /// a surviving connection for well-delimited garbage, a dropped
    /// connection for framing-level corruption. Anything else (a stall, a
    /// classification of garbage, a frame after a must-drop) counts under
    /// [`protocol_errors`](Self::protocol_errors) instead.
    pub hostile_handled: u64,
    /// Wall-clock for the whole run, seconds.
    pub elapsed_s: f64,
    /// Client-observed latency (scheduled send → response decoded).
    pub client: LatencyHistogram,
    /// Server-reported service latency.
    pub service: LatencyHistogram,
}

impl LoadReport {
    /// Achieved frames per second.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.responses_ok as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Achieved classified samples per second (`frames × batch`).
    #[must_use]
    pub fn throughput_sps(&self) -> f64 {
        self.throughput_fps() * self.config.batch_size as f64
    }
}

/// Per-worker accumulator, merged into the [`LoadReport`] at the end.
#[derive(Default)]
struct WorkerTally {
    sent: u64,
    ok: u64,
    rejections: u64,
    wrong_class: u64,
    errors: u64,
    reconnects: u64,
    hostile_sent: u64,
    hostile_handled: u64,
}

/// What one scheduled request came back as.
enum Outcome {
    /// Classes returned, service-side latency.
    Ok(Vec<u32>, u64),
    /// Structured unknown-model rejection on an error-mix frame.
    ExpectedRejection,
    /// Anything else.
    Error,
}

/// Issues one frame of the configured mix and classifies the outcome.
fn issue(
    client: &mut ClassificationClient,
    cfg: &OpenLoopConfig,
    seq: u64,
    batch: &[&[f32]],
) -> Outcome {
    let expect_rejection = cfg.error_every > 0 && seq % cfg.error_every == cfg.error_every - 1;
    let model = if expect_rejection {
        Some(MISSING_MODEL)
    } else if cfg.models.is_empty() {
        None
    } else {
        Some(cfg.models[(seq % cfg.models.len() as u64) as usize].as_str())
    };
    let result: Result<(Vec<u32>, u64), ProtoError> = match (model, cfg.batch_size) {
        (None, 1) => client
            .classify(batch[0])
            .map(|r| (vec![r.class], r.latency_ns)),
        (None, _) => client
            .classify_batch(batch)
            .map(|r| (r.classes, r.latency_ns)),
        (Some(m), 1) => client
            .classify_with(m, batch[0])
            .map(|r| (vec![r.class], r.latency_ns)),
        (Some(m), _) => client
            .classify_batch_with(m, batch)
            .map(|r| (r.classes, r.latency_ns)),
    };
    match result {
        Ok((classes, latency_ns)) => {
            if expect_rejection {
                // The bogus model answered?! That is a routing bug.
                Outcome::Error
            } else {
                Outcome::Ok(classes, latency_ns)
            }
        }
        Err(ProtoError::Rejected { .. }) if expect_rejection => Outcome::ExpectedRejection,
        Err(_) => Outcome::Error,
    }
}

/// What a correct server must do with one hostile frame.
enum HostileExpect {
    /// The frame is well-delimited but decodes as garbage: the server must
    /// answer a structured malformed-request error and keep the
    /// connection.
    StructuredError,
    /// The framing itself is corrupt (oversized length declaration): no
    /// trustworthy frame boundary remains, the server must drop the
    /// connection.
    Disconnect,
}

/// How one hostile exchange went.
enum HostileOutcome {
    /// Handled correctly, connection still usable.
    Survived,
    /// Handled correctly by dropping the connection (as required).
    Dropped,
    /// The server stalled, classified garbage, or answered when it had to
    /// disconnect.
    Misbehaved,
}

/// Builds the `k`-th fuzz-shaped frame (fully framed, length prefix
/// included) and the reaction a correct server owes it. Variants rotate so
/// every worker exercises all of them.
fn hostile_frame(k: u64) -> (Vec<u8>, HostileExpect) {
    match k % 3 {
        0 => {
            // Well-framed v2 header carrying an opcode no client ever
            // sends, padded with junk.
            let mut payload = Vec::new();
            payload.extend_from_slice(&V2_MAGIC.to_le_bytes());
            payload.push(PROTOCOL_VERSION);
            payload.push(0xEE);
            payload.extend_from_slice(&[0xA5; 8]);
            (frame_bytes(&payload), HostileExpect::StructuredError)
        }
        1 => {
            // Legacy-shaped junk: byte length cannot reconcile with any
            // feature count.
            (frame_bytes(&[0xAB; 7]), HostileExpect::StructuredError)
        }
        _ => {
            // Length prefix declaring a frame over the protocol cap; the
            // bytes after it are never a parseable boundary again.
            let mut framed = Vec::new();
            framed.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
            framed.extend_from_slice(&[0xCD; 16]);
            (framed, HostileExpect::Disconnect)
        }
    }
}

/// Prefixes a payload with its u32 LE length, like `write_frame` does.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// Sends one fuzz-shaped frame on a raw connection and checks the server
/// reacted the only two acceptable ways: structured error (connection
/// survives) or connection drop — never a stall, never a classification.
fn hostile_exchange(stream: &mut dyn RawStream, k: u64) -> HostileOutcome {
    let (framed, expect) = hostile_frame(k);
    if stream
        .write_all(&framed)
        .and_then(|()| stream.flush())
        .is_err()
    {
        // The write itself failing is only acceptable when the server was
        // required to drop us (it may race ahead of our write).
        return match expect {
            HostileExpect::Disconnect => HostileOutcome::Dropped,
            HostileExpect::StructuredError => HostileOutcome::Misbehaved,
        };
    }
    let response = read_frame(&mut { stream });
    match expect {
        HostileExpect::StructuredError => match response {
            // The one correct answer: a structured malformed-request
            // error, stream still in sync.
            Ok(Some(payload)) => match V2Response::decode(&payload) {
                Ok(V2Response::Error(frame)) if frame.code == ERR_MALFORMED_REQUEST => {
                    HostileOutcome::Survived
                }
                _ => HostileOutcome::Misbehaved,
            },
            // EOF or transport error: dropping a recoverable frame is a
            // (tolerated) overreaction in thread mode, but a *timeout*
            // means the server swallowed the frame silently — the stall
            // this mix exists to catch.
            Ok(None) => HostileOutcome::Dropped,
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                HostileOutcome::Misbehaved
            }
            Err(_) => HostileOutcome::Dropped,
        },
        HostileExpect::Disconnect => match response {
            // Any frame back means the server kept parsing past corrupt
            // framing; any timeout means it is wedged holding the
            // connection open.
            Ok(Some(_)) => HostileOutcome::Misbehaved,
            Ok(None) => HostileOutcome::Dropped,
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                HostileOutcome::Misbehaved
            }
            Err(_) => HostileOutcome::Dropped,
        },
    }
}

/// Runs one open-loop workload against a live server and collects the
/// latency distributions.
///
/// `samples` supplies request payloads (cycled); `expected` — when given —
/// holds the known-good class per sample, and every response is verified
/// against it (hot-swap churn and differential serving lean on this).
///
/// # Errors
///
/// Returns the connection error if no client thread could connect at
/// startup. Mid-run failures do not abort the run; they are counted in
/// [`LoadReport::protocol_errors`] (each worker reconnects once per
/// failure before giving up on its remaining schedule).
///
/// # Panics
///
/// Panics if `samples` is empty, if the run is unbounded (`requests == 0`
/// with no `duration`), or a worker thread panics.
pub fn run_open_loop(
    target: &Target,
    samples: &[Vec<f32>],
    expected: Option<&[u32]>,
    cfg: &OpenLoopConfig,
) -> std::io::Result<LoadReport> {
    assert!(!samples.is_empty(), "need at least one request sample");
    assert!(
        cfg.requests > 0 || cfg.duration.is_some(),
        "run must be bounded by a request count or a duration"
    );
    let threads = cfg.threads.max(1);
    // Fail fast if the server is absent; workers then own their clients.
    let mut clients = Vec::with_capacity(threads);
    for _ in 0..threads {
        clients.push(target.connect()?);
    }
    let started = Instant::now();
    let results: Vec<(LatencyHistogram, LatencyHistogram, WorkerTally)> =
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for (thread_idx, client) in clients.into_iter().enumerate() {
                handles.push(scope.spawn(move || {
                    worker(target, client, samples, expected, cfg, thread_idx, started)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("load worker panicked"))
                .collect()
        });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut client_hist = LatencyHistogram::new();
    let mut service_hist = LatencyHistogram::new();
    let mut tally = WorkerTally::default();
    for (c, s, t) in &results {
        client_hist.merge(c);
        service_hist.merge(s);
        tally.sent += t.sent;
        tally.ok += t.ok;
        tally.rejections += t.rejections;
        tally.wrong_class += t.wrong_class;
        tally.errors += t.errors;
        tally.reconnects += t.reconnects;
        tally.hostile_sent += t.hostile_sent;
        tally.hostile_handled += t.hostile_handled;
    }
    Ok(LoadReport {
        config: cfg.clone(),
        transport: target.transport().to_owned(),
        frames_sent: tally.sent,
        responses_ok: tally.ok,
        expected_rejections: tally.rejections,
        wrong_class: tally.wrong_class,
        protocol_errors: tally.errors,
        reconnects: tally.reconnects,
        hostile_sent: tally.hostile_sent,
        hostile_handled: tally.hostile_handled,
        elapsed_s,
        client: client_hist,
        service: service_hist,
    })
}

/// One worker thread: fires its interleaved slice of the arrival schedule
/// and records both latency views.
fn worker(
    target: &Target,
    mut client: ClassificationClient,
    samples: &[Vec<f32>],
    expected: Option<&[u32]>,
    cfg: &OpenLoopConfig,
    thread_idx: usize,
    started: Instant,
) -> (LatencyHistogram, LatencyHistogram, WorkerTally) {
    let threads = cfg.threads.max(1) as u64;
    let mut client_hist = LatencyHistogram::new();
    let mut service_hist = LatencyHistogram::new();
    let mut tally = WorkerTally::default();
    let mut batch: Vec<&[f32]> = Vec::with_capacity(cfg.batch_size.max(1));
    // Thread t owns global sequence numbers t, t+threads, t+2·threads, …
    // at one global arrival every 1/rate seconds.
    let deadline = cfg.duration.map(|d| started + d);
    // Hostile mix: a separate raw connection per worker carries the
    // fuzz-shaped frames, so garbage and well-formed traffic hit the same
    // server concurrently without the typed client losing its stream.
    let mut hostile: Option<Box<dyn RawStream>> = None;
    let mut hostile_seq = thread_idx as u64;
    let mut seq = thread_idx as u64;
    while cfg.requests == 0 || seq < cfg.requests {
        let sched = started + Duration::from_secs_f64(seq as f64 / cfg.rate);
        // Fixed-duration mode: a frame *scheduled* past the deadline is
        // not sent, so every thread stops on the same arrival boundary.
        if deadline.is_some_and(|deadline| sched >= deadline) {
            break;
        }
        let now = Instant::now();
        if sched > now {
            std::thread::sleep(sched - now);
        }
        // Batch members cycle through the sample set from a
        // per-request offset.
        batch.clear();
        let base = (seq as usize).wrapping_mul(cfg.batch_size.max(1));
        for i in 0..cfg.batch_size.max(1) {
            batch.push(samples[(base + i) % samples.len()].as_slice());
        }
        // Inject one hostile frame alongside (not instead of) the
        // scheduled request, so each injection also proves the
        // well-formed traffic right next to it still answers correctly.
        if cfg.hostile_every > 0 && seq % cfg.hostile_every == cfg.hostile_every - 1 {
            if hostile.is_none() {
                hostile = target.connect_raw().ok();
            }
            match hostile.take() {
                Some(mut conn) => {
                    tally.hostile_sent += 1;
                    match hostile_exchange(conn.as_mut(), hostile_seq) {
                        HostileOutcome::Survived => {
                            tally.hostile_handled += 1;
                            hostile = Some(conn); // keep riding the same socket
                        }
                        HostileOutcome::Dropped => tally.hostile_handled += 1,
                        HostileOutcome::Misbehaved => tally.errors += 1,
                    }
                    hostile_seq += 1;
                }
                None => tally.errors += 1,
            }
        }
        tally.sent += 1;
        match issue(&mut client, cfg, seq, &batch) {
            Outcome::Ok(classes, latency_ns) => {
                let done = Instant::now();
                client_hist.record(done.duration_since(sched).as_nanos() as u64);
                service_hist.record(latency_ns);
                tally.ok += 1;
                if let Some(expected) = expected {
                    for (i, &class) in classes.iter().enumerate() {
                        if class != expected[(base + i) % expected.len()] {
                            tally.wrong_class += 1;
                        }
                    }
                }
            }
            Outcome::ExpectedRejection => {
                let done = Instant::now();
                client_hist.record(done.duration_since(sched).as_nanos() as u64);
                tally.rejections += 1;
            }
            Outcome::Error => {
                tally.errors += 1;
                // One reconnect attempt; a dead server ends this worker's
                // schedule rather than spinning.
                match target.connect() {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
        }
        // Reconnect storm: churn the connection every N sent frames so
        // accept/close paths stay under load for the whole run.
        if cfg.reconnect_every > 0 && tally.sent % cfg.reconnect_every == 0 {
            match target.connect() {
                Ok(fresh) => {
                    client = fresh;
                    tally.reconnects += 1;
                }
                Err(_) => {
                    tally.errors += 1;
                    break;
                }
            }
        }
        seq += threads;
    }
    (client_hist, service_hist, tally)
}

/// A versioned, machine-readable record of one load-generator run — the
/// unit of the repo's perf trajectory. Serialized as
/// `BENCH_<workload>.json` under `results/`; diff these across PRs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// [`SNAPSHOT_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Always `"bolt-bench"`.
    pub bench: String,
    /// Workload name (snapshot stem).
    pub workload: String,
    /// `git rev-parse --short HEAD` at run time (`"unknown"` outside a
    /// checkout).
    pub git_rev: String,
    /// How the server matches dictionary entries
    /// (`bolt_core::index::MATCH_MECHANISM`; a SIMD scan kernel name in
    /// PR 10–16 snapshots).
    pub kernel: String,
    /// Transport tag (`"uds"` / `"tcp"`).
    pub transport: String,
    /// Client threads.
    pub threads: u64,
    /// Target arrival rate, frames/s.
    pub target_rate_fps: f64,
    /// Samples per frame.
    pub batch_size: u64,
    /// Named models cycled via v2 routing (empty = legacy default
    /// routing).
    pub models: Vec<String>,
    /// Error-traffic period (0 = none).
    pub error_every: u64,
    /// Wall-clock bound on the run in seconds (0 = request-bounded).
    #[serde(default)]
    pub duration_s: f64,
    /// Reconnect-storm period in frames (0 = persistent connections).
    #[serde(default)]
    pub reconnect_every: u64,
    /// Connections re-opened by the reconnect-storm mix.
    #[serde(default)]
    pub reconnects: u64,
    /// Hostile-frame injection period in arrivals (0 = none).
    #[serde(default)]
    pub hostile_every: u64,
    /// Fuzz-shaped frames injected on live data connections.
    #[serde(default)]
    pub hostile_sent: u64,
    /// Hostile frames the server answered with a structured error or a
    /// clean connection drop (the only acceptable reactions).
    #[serde(default)]
    pub hostile_handled: u64,
    /// Hot-swap churn interval in milliseconds (0 = no churn thread).
    pub swap_interval_ms: u64,
    /// Feature dimensionality of the request samples.
    pub n_features: u64,
    /// Frames sent / answered / rejected-as-expected / wrong / failed.
    pub frames_sent: u64,
    /// Frames answered with a well-formed classification.
    pub responses_ok: u64,
    /// Structured rejections the error mix expected.
    pub expected_rejections: u64,
    /// Responses disagreeing with the known-good class.
    pub wrong_class: u64,
    /// Transport/protocol failures.
    pub protocol_errors: u64,
    /// Wall clock, seconds.
    pub elapsed_s: f64,
    /// Achieved frames/s.
    pub throughput_fps: f64,
    /// Achieved samples/s.
    pub throughput_sps: f64,
    /// Client-observed latency percentiles (open-loop, from scheduled
    /// send).
    pub client_latency: HistSummary,
    /// Server-reported service latency percentiles.
    pub service_latency: HistSummary,
}

impl BenchSnapshot {
    /// Builds the snapshot for a finished run.
    #[must_use]
    pub fn from_report(
        report: &LoadReport,
        git_rev: &str,
        n_features: usize,
        swap_interval_ms: u64,
    ) -> Self {
        Self {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            bench: "bolt-bench".to_owned(),
            workload: report.config.name.clone(),
            git_rev: git_rev.to_owned(),
            kernel: bolt_core::index::MATCH_MECHANISM.to_owned(),
            transport: report.transport.clone(),
            threads: report.config.threads as u64,
            target_rate_fps: report.config.rate,
            batch_size: report.config.batch_size as u64,
            models: report.config.models.clone(),
            error_every: report.config.error_every,
            duration_s: report.config.duration.map_or(0.0, |d| d.as_secs_f64()),
            reconnect_every: report.config.reconnect_every,
            reconnects: report.reconnects,
            hostile_every: report.config.hostile_every,
            hostile_sent: report.hostile_sent,
            hostile_handled: report.hostile_handled,
            swap_interval_ms,
            n_features: n_features as u64,
            frames_sent: report.frames_sent,
            responses_ok: report.responses_ok,
            expected_rejections: report.expected_rejections,
            wrong_class: report.wrong_class,
            protocol_errors: report.protocol_errors,
            elapsed_s: report.elapsed_s,
            throughput_fps: report.throughput_fps(),
            throughput_sps: report.throughput_sps(),
            client_latency: HistSummary::from_histogram(&report.client),
            service_latency: HistSummary::from_histogram(&report.service),
        }
    }

    /// Writes `BENCH_<workload>.json` (pretty-printed) into `dir`,
    /// creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error on filesystem failure.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.workload));
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }

    /// Parses and validates a snapshot file: JSON must decode against this
    /// schema, carry the current [`SNAPSHOT_SCHEMA_VERSION`], and be
    /// internally consistent. The CI smoke (`scripts/run_loadgen.sh`) runs
    /// this over every emitted file via `bolt-bench --check`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate_file(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let snapshot: Self = serde_json::from_str(&text).map_err(|e| {
            format!(
                "{} does not parse as a BenchSnapshot: {e:?}",
                path.display()
            )
        })?;
        if snapshot.schema_version != SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (this build reads {SNAPSHOT_SCHEMA_VERSION})",
                snapshot.schema_version
            ));
        }
        if snapshot.bench != "bolt-bench" {
            return Err(format!("bench field is {:?}", snapshot.bench));
        }
        for (field, value) in [
            ("workload", &snapshot.workload),
            ("git_rev", &snapshot.git_rev),
            ("kernel", &snapshot.kernel),
            ("transport", &snapshot.transport),
        ] {
            if value.is_empty() {
                return Err(format!("{field} is empty"));
            }
        }
        if snapshot.frames_sent
            < snapshot.responses_ok + snapshot.expected_rejections + snapshot.protocol_errors
        {
            return Err("outcome counts exceed frames_sent".to_owned());
        }
        if snapshot.hostile_handled > snapshot.hostile_sent {
            return Err("hostile_handled exceeds hostile_sent".to_owned());
        }
        let p = &snapshot.client_latency;
        if !(p.p50_ns <= p.p90_ns
            && p.p90_ns <= p.p99_ns
            && p.p99_ns <= p.p999_ns
            && p.p999_ns <= p.max_ns)
        {
            return Err("client latency percentiles are not monotone".to_owned());
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LoadReport {
        let mut client = LatencyHistogram::new();
        let mut service = LatencyHistogram::new();
        for i in 1..=1000u64 {
            client.record(i * 1000);
            service.record(i * 700);
        }
        LoadReport {
            config: OpenLoopConfig {
                name: "unit".into(),
                threads: 2,
                rate: 5000.0,
                requests: 1000,
                batch_size: 4,
                models: vec!["bolt".into()],
                error_every: 8,
                duration: None,
                reconnect_every: 0,
                hostile_every: 16,
            },
            transport: "uds".into(),
            frames_sent: 1000,
            responses_ok: 875,
            expected_rejections: 125,
            wrong_class: 0,
            protocol_errors: 0,
            reconnects: 0,
            hostile_sent: 62,
            hostile_handled: 62,
            elapsed_s: 0.25,
            client,
            service,
        }
    }

    #[test]
    fn snapshot_roundtrips_and_validates() {
        let report = sample_report();
        let snapshot = BenchSnapshot::from_report(&report, "abc1234", 6, 0);
        let dir = std::env::temp_dir().join(format!("bolt-bench-test-{}", std::process::id()));
        let path = snapshot.write_to(&dir).expect("writes");
        assert_eq!(path.file_name().unwrap().to_str(), Some("BENCH_unit.json"));
        let parsed = BenchSnapshot::validate_file(&path).expect("validates");
        assert_eq!(parsed.workload, "unit");
        assert_eq!(parsed.kernel, bolt_core::index::MATCH_MECHANISM);
        assert_eq!(parsed.frames_sent, 1000);
        assert_eq!(parsed.batch_size, 4);
        assert_eq!(parsed.client_latency.count, 1000);
        assert!(parsed.throughput_fps > 0.0);
        // samples/s is frames/s × batch.
        assert!((parsed.throughput_sps - parsed.throughput_fps * 4.0).abs() < 1e-6);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn validation_rejects_schema_drift() {
        let report = sample_report();
        let snapshot = BenchSnapshot::from_report(&report, "abc1234", 6, 0);
        let dir = std::env::temp_dir().join(format!("bolt-bench-drift-{}", std::process::id()));
        let path = snapshot.write_to(&dir).expect("writes");
        let text = std::fs::read_to_string(&path).expect("read");
        // Future schema version: refuse rather than misread.
        std::fs::write(
            &path,
            text.replace("\"schema_version\": 1", "\"schema_version\": 99"),
        )
        .expect("write");
        let err = BenchSnapshot::validate_file(&path).expect_err("rejects");
        assert!(err.contains("schema_version"), "{err}");
        // Truncated file: refuse.
        std::fs::write(&path, "{\"bench\": \"bolt-bench\"").expect("write");
        assert!(BenchSnapshot::validate_file(&path).is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn snapshot_carries_hostile_counters() {
        let report = sample_report();
        let snapshot = BenchSnapshot::from_report(&report, "abc1234", 6, 0);
        assert_eq!(snapshot.hostile_every, 16);
        assert_eq!(snapshot.hostile_sent, 62);
        assert_eq!(snapshot.hostile_handled, 62);
        // Pre-hostile snapshots (no such fields) must keep parsing.
        fn strip_u64_field(json: &str, key: &str) -> String {
            let needle = format!("\"{key}\":");
            let start = json
                .find(&needle)
                .unwrap_or_else(|| panic!("{key} present"));
            let bytes = json.as_bytes();
            let mut end = start + needle.len();
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            let (s, e) = if bytes.get(end) == Some(&b',') {
                (start, end + 1) // interior field: drop its trailing comma
            } else {
                (start - 1, end) // last field: drop the comma before it
            };
            format!("{}{}", &json[..s], &json[e..])
        }
        let mut text = serde_json::to_string(&snapshot).expect("encode");
        for key in ["hostile_every", "hostile_sent", "hostile_handled"] {
            text = strip_u64_field(&text, key);
        }
        let old: BenchSnapshot = serde_json::from_str(&text).expect("old-schema snapshot parses");
        assert_eq!(old.hostile_every, 0);
        assert_eq!(old.hostile_sent, 0);
        assert_eq!(old.hostile_handled, 0);
    }

    #[test]
    fn hostile_frames_cover_every_reaction() {
        // The rotation must include both required server reactions.
        let mut structured = 0;
        let mut disconnect = 0;
        for k in 0..6 {
            let (framed, expect) = hostile_frame(k);
            assert!(framed.len() >= 4, "frame {k} has a length prefix");
            match expect {
                HostileExpect::StructuredError => {
                    // Well-delimited: the declared length matches reality
                    // and stays under the protocol cap.
                    let declared =
                        u32::from_le_bytes(framed[..4].try_into().expect("prefix")) as usize;
                    assert_eq!(declared, framed.len() - 4);
                    assert!(declared <= MAX_FRAME_BYTES);
                    structured += 1;
                }
                HostileExpect::Disconnect => {
                    let declared =
                        u32::from_le_bytes(framed[..4].try_into().expect("prefix")) as usize;
                    assert!(declared > MAX_FRAME_BYTES);
                    disconnect += 1;
                }
            }
        }
        assert!(structured > 0 && disconnect > 0);
    }

    #[test]
    fn throughput_math() {
        let report = sample_report();
        assert!((report.throughput_fps() - 3500.0).abs() < 1e-9);
        assert!((report.throughput_sps() - 14_000.0).abs() < 1e-9);
    }
}
