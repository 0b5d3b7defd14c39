//! `bolt-bench` — open-loop load harness for the classification server.
//!
//! The criterion benches measure the engine in-process; this binary
//! measures the *serving path* — framing, routing, the event loop — under
//! concurrent open-loop load, and records the latency distribution, tails
//! included, as versioned `BENCH_<workload>.json` snapshots (schema in
//! DESIGN.md).
//!
//! ```text
//! # Self-hosted suite: spin up one in-process server with UDS + TCP
//! # listeners, run every workload mix, write snapshots under results/:
//! bolt-bench [--out DIR] [--quick]
//!
//! # Drive an external boltd (what scripts/run_loadgen.sh does):
//! bolt-bench --connect uds:/tmp/bolt.sock --workload uds_smoke \
//!            --data lstw --requests 2000 --rate 4000 --threads 4 \
//!            [--batch N] [--model NAME]... [--error-every N] \
//!            [--duration-secs S] [--reconnect-every N] \
//!            [--hostile-every N] [--out DIR]
//!
//! # Validate snapshot files against the current schema (CI):
//! bolt-bench --check OUT_DIR/BENCH_uds_single.json ...
//! ```
//!
//! The suite covers the mixes the serving path must survive together:
//! single vs `ClassifyBatch` frames on both transports, named-model
//! fan-out via v2 `ClassifyWith`, deliberate unknown-model error traffic,
//! hot-swap churn re-registering a model under fire, a hostile mix
//! interleaving fuzz-shaped frames on live data connections (the server
//! must answer structured errors or drop the connection — never stall,
//! never panic), and a model-churn fleet cycling 16 directory artifacts
//! through a resident-bytes budget
//! that admits 4 (evict + re-map on nearly every routed request). Every
//! response in self-hosted mode is checked bit-identical to the direct
//! `forest.predict` answer; any mismatch or protocol error fails the run.

use bolt_baselines::ScikitLikeForest;
use bolt_bench::loadgen::{BenchSnapshot, OpenLoopConfig, Target};
use bolt_bench::{print_table, train_workload};
use bolt_core::{BoltConfig, BoltForest};
use bolt_data::Workload;
use bolt_server::{BoltEngine, ModelRegistry, ServerBuilder};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("--check") {
        check(&args[1..])
    } else {
        match Cli::parse(&args) {
            Ok(cli) if cli.connect.is_some() => connect_run(&cli),
            Ok(cli) => suite(&cli),
            Err(e) => Err(e),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bolt-bench [--out DIR] [--quick]\n\
                 \x20      bolt-bench --connect uds:PATH|tcp:ADDR --workload NAME \
                 [--data lstw|mnist|yelp] [--samples N] [--requests N] [--rate R] \
                 [--threads N] [--batch N] [--model NAME]... [--error-every N] \
                 [--duration-secs S] [--reconnect-every N] [--hostile-every N] [--out DIR]\n\
                 \x20      bolt-bench --check FILE..."
            );
            ExitCode::FAILURE
        }
    }
}

/// Parsed command line (suite and `--connect` modes share the knobs).
struct Cli {
    connect: Option<Target>,
    workload: String,
    data: Workload,
    samples: usize,
    requests: u64,
    rate: f64,
    threads: usize,
    batch: usize,
    models: Vec<String>,
    error_every: u64,
    duration_secs: f64,
    reconnect_every: u64,
    hostile_every: u64,
    out: PathBuf,
    quick: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cli = Self {
            connect: None,
            workload: "connect".to_owned(),
            data: Workload::LstwLike,
            samples: 256,
            requests: 0, // 0 → per-mode default
            rate: 0.0,
            threads: 4,
            batch: 1,
            models: Vec::new(),
            error_every: 0,
            duration_secs: 0.0,
            reconnect_every: 0,
            hostile_every: 0,
            out: PathBuf::from("results"),
            quick: false,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if arg == "--quick" {
                cli.quick = true;
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("{arg} needs a value"))?
                .clone();
            match arg.as_str() {
                "--connect" => cli.connect = Some(parse_target(&value)?),
                "--workload" => cli.workload = value,
                "--data" => {
                    cli.data = match value.as_str() {
                        "lstw" => Workload::LstwLike,
                        "mnist" => Workload::MnistLike,
                        "yelp" => Workload::YelpLike,
                        other => return Err(format!("unknown --data {other:?}")),
                    }
                }
                "--samples" => cli.samples = parse_num(&value, "--samples")?,
                "--requests" => cli.requests = parse_num(&value, "--requests")?,
                "--rate" => {
                    cli.rate = value
                        .parse::<f64>()
                        .map_err(|_| format!("--rate wants a number, got {value:?}"))?;
                    if !cli.rate.is_finite() || cli.rate <= 0.0 {
                        return Err("--rate must be a positive finite number".to_owned());
                    }
                }
                "--threads" => cli.threads = parse_num(&value, "--threads")?,
                "--batch" => cli.batch = parse_num(&value, "--batch")?,
                "--model" => cli.models.push(value),
                "--error-every" => cli.error_every = parse_num(&value, "--error-every")?,
                "--duration-secs" => {
                    cli.duration_secs = value
                        .parse::<f64>()
                        .map_err(|_| format!("--duration-secs wants a number, got {value:?}"))?;
                    if !cli.duration_secs.is_finite() || cli.duration_secs <= 0.0 {
                        return Err("--duration-secs must be a positive finite number".to_owned());
                    }
                }
                "--reconnect-every" => {
                    cli.reconnect_every = parse_num(&value, "--reconnect-every")?;
                }
                "--hostile-every" => {
                    cli.hostile_every = parse_num(&value, "--hostile-every")?;
                }
                "--out" => cli.out = PathBuf::from(value),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if cli.samples == 0 || cli.threads == 0 || cli.batch == 0 {
            return Err("--samples, --threads, and --batch must be positive".to_owned());
        }
        Ok(cli)
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} wants a number, got {value:?}"))
}

fn parse_target(value: &str) -> Result<Target, String> {
    if let Some(path) = value.strip_prefix("uds:") {
        return Ok(Target::Uds(PathBuf::from(path)));
    }
    if let Some(addr) = value.strip_prefix("tcp:") {
        return addr
            .parse()
            .map(Target::Tcp)
            .map_err(|e| format!("--connect tcp address {addr:?}: {e}"));
    }
    Err(format!(
        "--connect wants uds:PATH or tcp:ADDR, got {value:?}"
    ))
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Validates snapshot files against the current schema; any failure makes
/// the whole invocation fail.
fn check(files: &[String]) -> Result<(), String> {
    if files.is_empty() {
        return Err("--check needs at least one file".to_owned());
    }
    let mut failures = 0usize;
    for file in files {
        match BenchSnapshot::validate_file(std::path::Path::new(file)) {
            Ok(snapshot) => println!(
                "ok {file}: workload {} ({}, {} frames, p99 {:.1} µs)",
                snapshot.workload,
                snapshot.transport,
                snapshot.frames_sent,
                snapshot.client_latency.p99_ns as f64 / 1000.0
            ),
            Err(e) => {
                eprintln!("FAIL {file}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} snapshot file(s) failed validation"));
    }
    Ok(())
}

/// One workload against an external server (`--connect` mode). No ground
/// truth is available for an external model, so responses are counted but
/// not class-checked.
fn connect_run(cli: &Cli) -> Result<(), String> {
    let target = cli.connect.as_ref().expect("checked by caller");
    let data = bolt_data::generate(cli.data, cli.samples, 0xF00D);
    let samples: Vec<Vec<f32>> = (0..data.len()).map(|i| data.sample(i).to_vec()).collect();
    // Fixed-duration mode: the wall clock bounds the run; an explicit
    // --requests still caps it, otherwise the schedule is open-ended.
    let requests = if cli.requests > 0 {
        cli.requests
    } else if cli.duration_secs > 0.0 {
        0
    } else {
        2000
    };
    let mut cfg = OpenLoopConfig::new(
        cli.workload.clone(),
        cli.threads,
        if cli.rate > 0.0 { cli.rate } else { 4000.0 },
        requests,
    );
    cfg.batch_size = cli.batch;
    cfg.models = cli.models.clone();
    cfg.error_every = cli.error_every;
    cfg.duration = (cli.duration_secs > 0.0).then(|| Duration::from_secs_f64(cli.duration_secs));
    cfg.reconnect_every = cli.reconnect_every;
    cfg.hostile_every = cli.hostile_every;
    let report = bolt_bench::loadgen::run_open_loop(target, &samples, None, &cfg)
        .map_err(|e| format!("connect {target:?}: {e}"))?;
    let snapshot = BenchSnapshot::from_report(&report, &git_rev(), data.n_features(), 0);
    let path = snapshot
        .write_to(&cli.out)
        .map_err(|e| format!("write snapshot: {e}"))?;
    print_reports(&[snapshot]);
    println!("wrote {}", path.display());
    if report.protocol_errors > 0 {
        return Err(format!(
            "{} protocol error(s) during the run",
            report.protocol_errors
        ));
    }
    Ok(())
}

/// The self-hosted suite: one registry, both transports, every mix.
fn suite(cli: &Cli) -> Result<(), String> {
    let (requests, rate) = if cli.quick {
        (1500u64, 6000.0)
    } else {
        (8000u64, 8000.0)
    };
    let requests = if cli.requests > 0 {
        cli.requests
    } else {
        requests
    };
    let rate = if cli.rate > 0.0 { cli.rate } else { rate };

    println!("training LSTW-like forest for the self-hosted servers...");
    let trained = train_workload(Workload::LstwLike, 16, 6, 1200, 512);
    let bolt = Arc::new(
        BoltForest::compile(
            &trained.forest,
            &BoltConfig::default().with_cluster_threshold(4),
        )
        .map_err(|e| format!("bolt compile: {e}"))?,
    );
    let scikit = Arc::new(ScikitLikeForest::from_forest(&trained.forest));
    let samples: Vec<Vec<f32>> = (0..trained.test.len())
        .map(|i| trained.test.sample(i).to_vec())
        .collect();
    // Ground truth for bit-identical verification of every response.
    let expected: Vec<u32> = (0..trained.test.len())
        .map(|i| trained.forest.predict(trained.test.sample(i)))
        .collect();

    // One server with both listeners over one registry, as boltd deploys
    // it.
    let registry = ModelRegistry::new();
    registry
        .register("bolt", Arc::new(BoltEngine::new(Arc::clone(&bolt))))
        .map_err(|e| format!("register bolt: {e}"))?;
    registry
        .register("scikit", Arc::clone(&scikit) as Arc<_>)
        .map_err(|e| format!("register scikit: {e}"))?;
    registry
        .register("swap", Arc::new(BoltEngine::new(Arc::clone(&bolt))))
        .map_err(|e| format!("register swap: {e}"))?;
    registry
        .set_default("bolt")
        .map_err(|e| format!("set default: {e}"))?;
    let uds_path = std::env::temp_dir().join(format!("bolt-bench-{}.sock", std::process::id()));
    let server = ServerBuilder::with_registry(registry.clone())
        .tcp("127.0.0.1:0")
        .bind_uds(&uds_path)
        .map_err(|e| format!("bind uds + tcp: {e}"))?;
    let tcp_addr = server.local_addr().expect("the TCP listener is bound");
    let uds_target = Target::Uds(uds_path.clone());
    let tcp_target = Target::Tcp(tcp_addr);

    // Model-churn fleet: 16 copies of the compiled artifact served from
    // a model directory through a resident-bytes budget that admits only
    // 4 at once, so round-robin routing pays an evict + re-map on nearly
    // every request. Identical trees in every artifact keep the
    // bit-identical check meaningful no matter which model a frame
    // lands on.
    const CHURN_FLEET: usize = 16;
    let churn_dir = std::env::temp_dir().join(format!("bolt-bench-models-{}", std::process::id()));
    std::fs::create_dir_all(&churn_dir).map_err(|e| format!("churn model dir: {e}"))?;
    let churn_artifact = bolt_artifact::ArtifactWriter::serialize_forest_versioned(&bolt, 1);
    let churn_names: Vec<String> = (0..CHURN_FLEET).map(|i| format!("churn{i:02}")).collect();
    for name in &churn_names {
        std::fs::write(churn_dir.join(format!("{name}@1.blt")), &churn_artifact)
            .map_err(|e| format!("write churn artifact: {e}"))?;
    }
    let churn_budget = churn_artifact.len() as u64 * 9 / 2;
    let churn_sock =
        std::env::temp_dir().join(format!("bolt-bench-churn-{}.sock", std::process::id()));
    let churn_server = ServerBuilder::new()
        .model_dir(&churn_dir)
        .resident_bytes(churn_budget)
        .bind_uds(&churn_sock)
        .map_err(|e| format!("bind churn server: {e}"))?;
    let churn_target = Target::Uds(churn_sock.clone());
    let churn_refs: Vec<&str> = churn_names.iter().map(String::as_str).collect();
    let rev = git_rev();
    println!(
        "servers up: uds {} + tcp {tcp_addr}, {requests} frames per workload at {rate} fps",
        uds_path.display()
    );

    let mk = |name: &str, batch: usize, models: &[&str], error_every: u64| {
        let mut cfg = OpenLoopConfig::new(name, cli.threads, rate, requests);
        cfg.batch_size = batch;
        cfg.models = models.iter().map(|&m| m.to_owned()).collect();
        cfg.error_every = error_every;
        cfg
    };
    // Reconnect storm: every worker churns its connection after each 4
    // frames, keeping accept/close hot for the whole run.
    let mut reconnect = mk("uds_reconnect", 1, &[], 0);
    reconnect.reconnect_every = 4;
    // Hostile mix: every 4th arrival also injects a fuzz-shaped frame on
    // a raw side connection. The well-formed traffic alongside must stay
    // bit-identical; the garbage must be answered with structured errors
    // or a dropped connection, never a stall.
    let mut hostile = mk("uds_hostile", 1, &[], 0);
    hostile.hostile_every = 4;
    // The evict + re-map path sustains roughly 1k fps; offer well under
    // that so the snapshot records reload latency, not queueing backlog.
    let mut model_churn = mk("model_churn", 1, &churn_refs, 0);
    model_churn.rate = rate.min(600.0);
    model_churn.requests = requests.min(3000);
    // (config, target, swap churn interval)
    let workloads: Vec<(OpenLoopConfig, &Target, u64)> = vec![
        (mk("uds_single", 1, &[], 0), &uds_target, 0),
        (mk("uds_batch", 16, &[], 0), &uds_target, 0),
        (mk("tcp_single", 1, &[], 0), &tcp_target, 0),
        (mk("tcp_batch", 16, &[], 0), &tcp_target, 0),
        (mk("uds_fanout", 1, &["bolt", "scikit"], 0), &uds_target, 0),
        (mk("uds_errmix", 1, &[], 8), &uds_target, 0),
        (mk("uds_swap", 1, &["swap"], 0), &uds_target, 25),
        (reconnect, &uds_target, 0),
        (hostile, &uds_target, 0),
        (model_churn, &churn_target, 0),
    ];

    let mut snapshots = Vec::new();
    let mut failures = Vec::new();
    for (cfg, target, swap_ms) in workloads {
        println!("running {} ({})...", cfg.name, target.transport());
        let churn = (swap_ms > 0).then(|| spawn_swap_churn(&registry, &bolt, &scikit, swap_ms));
        let report = bolt_bench::loadgen::run_open_loop(target, &samples, Some(&expected), &cfg)
            .map_err(|e| format!("{}: {e}", cfg.name))?;
        if let Some((stop, handle)) = churn {
            stop.store(true, Ordering::Release);
            handle.join().expect("swap churn thread");
        }
        if report.protocol_errors > 0 || report.wrong_class > 0 {
            failures.push(format!(
                "{}: {} protocol error(s), {} wrong class(es)",
                cfg.name, report.protocol_errors, report.wrong_class
            ));
        }
        // The hostile mix must actually have injected garbage and seen
        // every frame handled the acceptable way (misbehaviour already
        // landed in protocol_errors above; this catches a silent no-op).
        if cfg.hostile_every > 0 && report.hostile_sent == 0 {
            failures.push(format!("{}: hostile mix injected nothing", cfg.name));
        }
        let snapshot =
            BenchSnapshot::from_report(&report, &rev, trained.test.n_features(), swap_ms);
        let path = snapshot
            .write_to(&cli.out)
            .map_err(|e| format!("write snapshot: {e}"))?;
        println!("  wrote {}", path.display());
        snapshots.push(snapshot);
    }

    // The suite drove every model; the registry's books must balance.
    let total = registry.total_stats().requests;
    let per_model: u64 = registry.list().iter().map(|model| model.requests).sum();
    if total != per_model {
        failures.push(format!(
            "stats mismatch: total {total} != per-model sum {per_model}"
        ));
    }

    // The churn fleet must have ended inside its budget with evictions
    // actually exercised (resident bytes bounded, not the whole fleet).
    let churn_resident = churn_server.store().resident_bytes();
    if churn_resident > churn_budget {
        failures.push(format!(
            "model_churn: {churn_resident} resident bytes over the {churn_budget} budget"
        ));
    }
    server.shutdown();
    churn_server.shutdown();
    std::fs::remove_dir_all(&churn_dir).ok();
    print_reports(&snapshots);
    if failures.is_empty() {
        println!("suite clean: every response bit-identical, zero protocol errors");
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Re-registers the `swap` model on an interval, alternating between the
/// Bolt and scikit engines (identical predictions, different engines), so
/// the swap workload exercises resolution-under-churn.
fn spawn_swap_churn(
    registry: &ModelRegistry,
    bolt: &Arc<BoltForest>,
    scikit: &Arc<ScikitLikeForest>,
    interval_ms: u64,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let registry = registry.clone();
    let bolt = Arc::clone(bolt);
    let scikit = Arc::clone(scikit);
    let handle = std::thread::spawn(move || {
        let mut flip = false;
        while !thread_stop.load(Ordering::Acquire) {
            if flip {
                registry
                    .swap("swap", Arc::clone(&scikit) as Arc<_>)
                    .expect("hot-swap");
            } else {
                registry
                    .swap("swap", Arc::new(BoltEngine::new(Arc::clone(&bolt))))
                    .expect("hot-swap");
            }
            flip = !flip;
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
    });
    (stop, handle)
}

/// Human-readable summary table over the written snapshots.
fn print_reports(snapshots: &[BenchSnapshot]) {
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1000.0);
    let rows: Vec<Vec<String>> = snapshots
        .iter()
        .map(|s| {
            vec![
                s.workload.clone(),
                s.transport.clone(),
                format!("{}", s.batch_size),
                format!("{:.0}", s.throughput_fps),
                us(s.client_latency.p50_ns),
                us(s.client_latency.p90_ns),
                us(s.client_latency.p99_ns),
                us(s.client_latency.p999_ns),
                us(s.client_latency.max_ns),
                us(s.service_latency.p99_ns),
                format!("{}", s.protocol_errors),
            ]
        })
        .collect();
    print_table(
        "open-loop serving latency (client-observed, µs)",
        &[
            "workload",
            "transport",
            "batch",
            "fps",
            "p50",
            "p90",
            "p99",
            "p999",
            "max",
            "svc p99",
            "errors",
        ],
        &rows,
    );
}
