//! `boltd` as a process: one event loop fronts every listener and runs
//! every request itself, so the daemon is three threads (main, loop,
//! control) with or without `--tcp`; it has no serving knobs; and the loop
//! keeps serving — and stays idle — when it runs out of file descriptors.

use bolt_artifact::ArtifactWriter;
use bolt_core::{BoltConfig, BoltForest};
use bolt_data::{generate, Workload};
use bolt_forest::{Dataset, ForestConfig, RandomForest};
use bolt_server::proto::{read_frame, V2Response, ERR_OVERLOADED};
use bolt_server::{ClassificationClient, ProtoError};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A small LSTW-like forest, its test samples, and its compiled BLT1
/// artifact written as `DIR/m@1.blt`.
fn fixture(tag: &str) -> (PathBuf, RandomForest, Dataset) {
    let dir = std::env::temp_dir().join(format!("bolt-boltd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let data = generate(Workload::LstwLike, 400, 0x0B17);
    let forest = RandomForest::train(&data, &ForestConfig::new(4).with_max_height(4).with_seed(1));
    let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
    std::fs::write(
        dir.join("m@1.blt"),
        ArtifactWriter::serialize_forest_versioned(&bolt, 1),
    )
    .expect("write artifact");
    (dir, forest, data)
}

/// A running `boltd`, killed and reaped when dropped.
struct Daemon {
    child: Child,
    /// The TCP address from the `boltd also listening on tcp ADDR` line.
    tcp: Option<SocketAddr>,
}

impl Daemon {
    /// Starts `boltd ARGS` (under `ulimit -n LIMIT` when given) and waits
    /// for its listening lines: the TCP one too when `--tcp` is passed.
    fn start(fd_limit: Option<u32>, args: &[&str]) -> Self {
        let boltd = env!("CARGO_BIN_EXE_boltd");
        let mut command = match fd_limit {
            Some(limit) => {
                let mut bash = Command::new("bash");
                bash.arg("-c")
                    .arg(format!("ulimit -n {limit} && exec \"$0\" \"$@\""))
                    .arg(boltd);
                bash
            }
            None => Command::new(boltd),
        };
        let mut child = command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawns boltd");
        let (tx, lines) = mpsc::channel();
        let stdout = child.stdout.take().expect("piped stdout");
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        let want_tcp = args.contains(&"--tcp");
        let mut daemon = Self { child, tcp: None };
        let mut listening = false;
        let deadline = Instant::now() + Duration::from_secs(30);
        while !listening || (want_tcp && daemon.tcp.is_none()) {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = lines
                .recv_timeout(left)
                .expect("boltd prints its listening lines");
            listening |= line.starts_with("boltd listening on ");
            if let Some(addr) = line.strip_prefix("boltd also listening on tcp ") {
                daemon.tcp = Some(addr.trim().parse().expect("a socket address"));
            }
        }
        daemon
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn threads(&self) -> usize {
        std::fs::read_dir(format!("/proc/{}/task", self.pid()))
            .expect("reads the task list")
            .count()
    }

    /// User + system CPU time the process has used so far.
    fn cpu_time(&self) -> Duration {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).expect("stat");
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15, in clock ticks.
        let rest = &stat[stat.rfind(')').expect("comm") + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 =
            fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
        Duration::from_secs_f64(ticks as f64 / clock_ticks_per_second())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn clock_ticks_per_second() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}

/// Classifies every sample over `client` and checks each answer against
/// the reference forest; returns how many were served.
fn assert_classifies(
    client: &mut ClassificationClient,
    forest: &RandomForest,
    data: &Dataset,
    n: usize,
) -> u64 {
    for i in 0..n {
        let sample = data.sample(i);
        let got = client.classify_with("m", sample).expect("classifies");
        assert_eq!(got.class, forest.predict(sample), "sample {i}");
    }
    n as u64
}

#[test]
fn tcp_listener_shares_the_one_event_loop() {
    let (dir, forest, data) = fixture("one-loop");
    let models = dir.join("models");
    std::fs::create_dir_all(&models).expect("model dir");
    std::fs::rename(dir.join("m@1.blt"), models.join("m@1.blt")).expect("move artifact");
    let (sock, admin) = (dir.join("s.sock"), dir.join("a.sock"));
    let base = [
        "--model-dir",
        models.to_str().expect("utf-8 path"),
        "--socket",
        sock.to_str().expect("utf-8 path"),
        "--admin-socket",
        admin.to_str().expect("utf-8 path"),
    ];

    // Main thread, event loop, control thread: no inference pool.
    let uds_only = Daemon::start(None, &base);
    assert_eq!(uds_only.threads(), 3, "boltd without --tcp");
    drop(uds_only);

    let with_tcp_args: Vec<&str> = base
        .iter()
        .copied()
        .chain(["--tcp", "127.0.0.1:0"])
        .collect();
    let daemon = Daemon::start(None, &with_tcp_args);
    assert_eq!(
        daemon.threads(),
        3,
        "--tcp adds a listener to the one event loop, not a second loop and control thread"
    );
    let addr = daemon.tcp.expect("boltd reports its TCP address");

    let mut uds = ClassificationClient::connect(&sock).expect("uds connects");
    let mut tcp = ClassificationClient::connect_tcp(addr).expect("tcp connects");
    let served = assert_classifies(&mut uds, &forest, &data, 3)
        + assert_classifies(&mut tcp, &forest, &data, 4);
    // Both transports book into one set of statistics, visible from either.
    for client in [&mut uds, &mut tcp] {
        let models = client.list_models().expect("lists").models;
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].requests, served);
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_serving_flags_are_unknown() {
    let sock = std::env::temp_dir().join(format!("bolt-boltd-flags-{}.sock", std::process::id()));
    let sock = sock.to_str().expect("utf-8 path");
    for (flag, value) in [
        ("--workers", "2"),
        ("--mb-flush-samples", "8"),
        ("--mb-flush-micros", "100"),
        ("--mb-queue-depth", "16"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_boltd"))
            .args(["--socket", sock, flag, value])
            .stdin(Stdio::null())
            .output()
            .expect("runs boltd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} {value} was accepted");
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}

#[test]
fn descriptor_exhaustion_refuses_the_excess_connection_and_idles() {
    const FD_LIMIT: u32 = 48;
    const HELD: usize = 68;
    let (dir, forest, data) = fixture("fd-limit");
    let sock = dir.join("s.sock");
    let model = format!("m=artifact:{}", dir.join("m@1.blt").display());
    let daemon = Daemon::start(
        Some(FD_LIMIT),
        &[
            "--model",
            &model,
            "--socket",
            sock.to_str().expect("utf-8 path"),
        ],
    );

    // More idle connections than the process has descriptors: the last
    // arrives after accept has started failing with EMFILE.
    let held: Vec<UnixStream> = (0..HELD)
        .map(|_| UnixStream::connect(&sock).expect("connects"))
        .collect();
    let mut excess = held.last().expect("held connections");
    excess
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("sets a timeout");
    match read_frame(&mut excess) {
        Ok(Some(payload)) => match V2Response::decode(&payload).expect("decodes") {
            V2Response::Error(e) => assert_eq!(e.code, ERR_OVERLOADED, "{}", e.detail),
            other => panic!("expected an overload refusal, got {other:?}"),
        },
        other => panic!("the connection past the descriptor limit got no refusal: {other:?}"),
    }

    // With every queued connection answered, the loop has nothing to do.
    let before = daemon.cpu_time();
    std::thread::sleep(Duration::from_secs(1));
    let busy = daemon.cpu_time().saturating_sub(before);
    assert!(
        busy < Duration::from_millis(250),
        "boltd used {busy:?} of CPU over 1 s of idle time"
    );

    // Once the held connections close, a new one is served.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = ClassificationClient::connect(&sock).expect("connects");
        match client.classify(data.sample(0)) {
            Ok(got) => {
                assert_eq!(got.class, forest.predict(data.sample(0)));
                assert_classifies(&mut client, &forest, &data, 20);
                break;
            }
            // The loop may not have seen every hang-up yet.
            Err(ProtoError::Rejected { code, .. })
                if code == ERR_OVERLOADED && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("no service after the held connections closed: {e}"),
        }
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
