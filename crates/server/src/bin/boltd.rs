//! `boltd` — serve compiled forests on a Unix domain socket (and
//! optionally TCP), one process hosting any mix of engines.
//!
//! ```text
//! # one engine, legacy style (registered under its platform name):
//! boltd --artifact bolt.json --socket /tmp/bolt.sock
//! boltd --forest forest.json --engine ranger --socket /tmp/rf.sock
//!
//! # many named models behind one socket, with a default for legacy
//! # (unrouted) clients and a TCP front-end sharing the same registry:
//! boltd --artifact bolt.json --forest forest.json \
//!       --model fast=bolt --model fast2=bolt --model ref=scikit \
//!       --default fast --socket /tmp/bolt.sock --tcp 127.0.0.1:9000
//! ```
//!
//! `--model NAME=KIND` may repeat but every NAME must be distinct; KIND
//! is `bolt` (needs `--artifact`), `artifact:PATH.blt` (a compiled `BLT1`
//! artifact, memory-mapped and served zero-copy), or
//! `scikit`/`ranger`/`fp` (need `--forest`; `fp` also needs
//! `--calibration-csv`). Each kind is built once and shared, so two
//! names of the same kind serve one compiled forest (and two names of
//! the same `artifact:` path share one mapping). Pair with `boltc`
//! (the compiler CLI in the workspace root) to train and compile
//! artifacts:
//!
//! ```text
//! boltc compile --forest forest.json --out model.blt
//! boltd --model prod=artifact:model.blt --default prod --socket /tmp/bolt.sock
//! ```
//!
//! For fleets of artifacts, point `--model-dir` at a directory of
//! `NAME@VERSION.blt` files: every model is cataloged at startup, mapped
//! lazily on first request, and (with `--resident-bytes`) evicted
//! least-recently-used under a memory budget. Lifecycle operations are
//! journaled to `registry.wal` in the directory and replayed after a
//! crash or restart:
//!
//! ```text
//! boltd --model-dir /var/lib/bolt/models --resident-bytes 64m \
//!       --socket /tmp/bolt.sock
//! ```
//!
//! The front-end hosts any engine, mirroring §4.5: "the
//! front-end can connect to other forest implementations".

use bolt_baselines::{ForestPackingForest, InferenceEngine, RangerLikeForest, ScikitLikeForest};
use bolt_core::BoltForest;
use bolt_forest::{csv, RandomForest};
use bolt_server::{
    ArtifactEngine, BoltEngine, EventLoopOptions, MicroBatchConfig, ServerBuilder, ServingMode,
};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: boltd [--artifact BOLT.json] [--forest FOREST.json] \
[--engine scikit|ranger|fp] [--calibration-csv FILE] \
[--model NAME=KIND]... [--default NAME] [store flags] \
--socket PATH [--tcp ADDR] [serving flags]
KIND: bolt | artifact:PATH.blt | scikit | ranger | fp

store flags (fleet-scale artifact serving):
  --model-dir DIR      catalog every NAME@VERSION.blt in DIR at startup;
                       each model is mapped lazily on its first request.
                       Lifecycle ops are journaled to DIR/registry.wal
                       and replayed on restart.
  --resident-bytes N   keep at most N bytes of artifact data mapped;
                       the least-recently-used model is evicted when the
                       budget overflows (suffixes k/m/g accepted).
                       [default: unlimited]
  --keep-versions N    compact the registry log at startup, deleting
                       superseded artifact versions beyond the newest N
                       per model. Without this flag nothing is deleted.

control-plane flags (fleet administration without a restart; see boltctl):
  --admin-socket PATH  serve the admin protocol on a local-only, mode-0600
                       Unix socket. [default: DIR/admin.sock when
                       --model-dir DIR is set, otherwise off]
  --no-admin-socket    do not bind an admin socket even with --model-dir.
  --rescan-interval S  poll the model directory's mtime every S seconds
                       and catalog newly dropped NAME@VERSION.blt files
                       (boltctl rescan forces an immediate pickup).
                       [default: off]
  --compact-interval S compact the registry log (and prune superseded
                       versions per --keep-versions) every S seconds in
                       the background, replacing startup-only compaction.
                       [default: off]
  --warm-top K         pre-map the K most recently activated artifacts
                       before the first listener accepts, so a restart
                       does not serve its first requests cold.
                       [default: 0]

serving flags (event-loop front-end with adaptive micro-batching is the default):
  --serving threads|event-loop
                       threads: one blocking thread per connection, no
                       batching (the paper's §6 methodology).
                       event-loop: non-blocking front-end; concurrent
                       single-sample requests coalesce into batch-kernel
                       calls. [default: event-loop]
  --no-microbatch      keep the event loop but dispatch every request
                       individually (no coalescing).
  --mb-flush-samples N flush a micro-batch at N pending samples.
                       [default: 64]
  --mb-flush-micros T  flush a micro-batch T µs after its oldest sample
                       (upper bound; an idle input flushes immediately).
                       [default: 200]
  --mb-queue-depth N   admit at most N samples (queued + in flight);
                       beyond it requests are answered with a structured
                       overload error instead of queueing without bound.
                       [default: 8192]
  --workers N          inference worker threads (0 = auto from available
                       parallelism). [default: 0]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the serving mode from the parsed `--serving`/`--mb-*`/`--workers`
/// flags, rejecting combinations that would silently do nothing.
fn serving_mode(
    serving: Option<&str>,
    no_microbatch: bool,
    flush_samples: Option<&str>,
    flush_micros: Option<&str>,
    queue_depth: Option<&str>,
    workers: Option<&str>,
) -> Result<ServingMode, String> {
    let parse = |flag: &str, value: Option<&str>| -> Result<Option<u64>, String> {
        value
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} wants a non-negative integer, got {v:?}"))
            })
            .transpose()
    };
    let flush_samples = parse("--mb-flush-samples", flush_samples)?;
    let flush_micros = parse("--mb-flush-micros", flush_micros)?;
    let queue_depth = parse("--mb-queue-depth", queue_depth)?;
    let workers = parse("--workers", workers)?;
    match serving.unwrap_or("event-loop") {
        "threads" => {
            if no_microbatch
                || flush_samples.is_some()
                || flush_micros.is_some()
                || queue_depth.is_some()
                || workers.is_some()
            {
                return Err(
                    "micro-batching/worker flags only apply to --serving event-loop".to_owned(),
                );
            }
            Ok(ServingMode::ThreadPerConnection)
        }
        "event-loop" => {
            let defaults = MicroBatchConfig::default();
            let opts = EventLoopOptions {
                microbatch: MicroBatchConfig {
                    enabled: !no_microbatch,
                    flush_samples: flush_samples
                        .map_or(defaults.flush_samples, |n| n.max(1) as usize),
                    flush_wait: flush_micros.map_or(defaults.flush_wait, Duration::from_micros),
                    queue_depth: queue_depth.map_or(defaults.queue_depth, |n| n.max(1) as usize),
                },
                workers: workers.unwrap_or(0) as usize,
                ..EventLoopOptions::default()
            };
            Ok(ServingMode::EventLoop(opts))
        }
        other => Err(format!(
            "unknown serving mode {other:?} (threads|event-loop)"
        )),
    }
}

/// Lazily builds engines from the artifact/forest files, constructing
/// each kind at most once so repeated `--model` kinds share one engine.
struct EngineLoader {
    artifact: Option<String>,
    forest_path: Option<String>,
    calibration: Option<String>,
    forest: Option<RandomForest>,
    built: BTreeMap<String, Arc<dyn InferenceEngine>>,
}

impl EngineLoader {
    fn forest(&mut self) -> Result<&RandomForest, String> {
        if self.forest.is_none() {
            let path = self
                .forest_path
                .as_ref()
                .ok_or("this engine kind needs --forest FOREST.json")?;
            let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let forest: RandomForest = serde_json::from_str(&json).map_err(|e| e.to_string())?;
            println!(
                "loaded forest: {} trees, {} features, {} classes",
                forest.n_trees(),
                forest.n_features(),
                forest.n_classes()
            );
            self.forest = Some(forest);
        }
        Ok(self.forest.as_ref().expect("just loaded"))
    }

    fn engine(&mut self, kind: &str) -> Result<Arc<dyn InferenceEngine>, String> {
        if let Some(engine) = self.built.get(kind) {
            return Ok(Arc::clone(engine));
        }
        if let Some(path) = kind.strip_prefix("artifact:") {
            if path.is_empty() {
                return Err("artifact: kind needs a path, e.g. artifact:model.blt".to_owned());
            }
            let engine = ArtifactEngine::open(path).map_err(|e| format!("map {path}: {e}"))?;
            let meta = engine.model().meta();
            println!(
                "mapped BLT1 artifact {path}: {} dictionary entries, {} table slots, {} classes \
                 ({})",
                meta.n_entries,
                meta.table_capacity,
                meta.n_classes,
                if engine.model().artifact().is_mapped() {
                    "zero-copy mmap"
                } else {
                    "aligned heap fallback"
                }
            );
            let engine: Arc<dyn InferenceEngine> = Arc::new(engine);
            self.built.insert(kind.to_owned(), Arc::clone(&engine));
            return Ok(engine);
        }
        let engine: Arc<dyn InferenceEngine> = match kind {
            "bolt" => {
                let path = self
                    .artifact
                    .as_ref()
                    .ok_or("--model NAME=bolt needs --artifact BOLT.json")?;
                let json =
                    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                let mut bolt: BoltForest =
                    serde_json::from_str(&json).map_err(|e| e.to_string())?;
                bolt.rebuild();
                println!(
                    "loaded Bolt artifact: {} dictionary entries, {} table cells, {} classes",
                    bolt.dictionary().len(),
                    bolt.table().n_cells(),
                    bolt.n_classes()
                );
                Arc::new(BoltEngine::new(Arc::new(bolt)))
            }
            "scikit" => Arc::new(ScikitLikeForest::from_forest(self.forest()?)),
            "ranger" => Arc::new(RangerLikeForest::from_forest(self.forest()?)),
            "fp" => {
                let cal_path = self
                    .calibration
                    .clone()
                    .ok_or("engine kind fp needs --calibration-csv for hot-path estimation")?;
                let file =
                    std::fs::File::open(&cal_path).map_err(|e| format!("open {cal_path}: {e}"))?;
                let cal = csv::from_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
                Arc::new(ForestPackingForest::from_forest(self.forest()?, &cal))
            }
            other => {
                return Err(format!(
                    "unknown engine kind {other:?} (bolt|artifact:PATH.blt|scikit|ranger|fp)"
                ))
            }
        };
        self.built.insert(kind.to_owned(), Arc::clone(&engine));
        Ok(engine)
    }
}

/// Parses one `--model NAME=KIND` value and appends it. Duplicate names
/// are *not* checked here: the store's [`register`](bolt_server::ModelStore::register)
/// refuses them with a typed error, so the rejection happens in one place
/// for every caller (flags, library users, live reconfiguration) and
/// surfaces from the bind call.
fn push_model(models: &mut Vec<(String, String)>, value: &str) -> Result<(), String> {
    let (name, kind) = value
        .split_once('=')
        .ok_or_else(|| format!("--model wants NAME=KIND, got {value:?}"))?;
    if name.is_empty() {
        return Err("--model needs a non-empty NAME".to_owned());
    }
    models.push((name.to_owned(), kind.to_owned()));
    Ok(())
}

/// Parses a byte budget with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `64m`.
fn parse_bytes(flag: &str, value: &str) -> Result<u64, String> {
    let (digits, shift) = match value.as_bytes().last().map(u8::to_ascii_lowercase) {
        Some(b'k') => (&value[..value.len() - 1], 10),
        Some(b'm') => (&value[..value.len() - 1], 20),
        Some(b'g') => (&value[..value.len() - 1], 30),
        _ => (value, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("{flag} wants BYTES[k|m|g], got {value:?}"))?;
    n.checked_mul(1 << shift)
        .ok_or_else(|| format!("{flag} overflows u64: {value:?}"))
}

fn run() -> Result<(), String> {
    let mut artifact = None;
    let mut forest_path = None;
    let mut engine_name = None;
    let mut calibration = None;
    let mut socket = None;
    let mut tcp = None;
    let mut models: Vec<(String, String)> = Vec::new();
    let mut default_model = None;
    let mut model_dir: Option<String> = None;
    let mut resident_bytes = None;
    let mut keep_versions: Option<String> = None;
    let mut admin_socket: Option<String> = None;
    let mut no_admin_socket = false;
    let mut rescan_interval: Option<String> = None;
    let mut compact_interval: Option<String> = None;
    let mut warm_top: Option<String> = None;
    let mut serving = None;
    let mut no_microbatch = false;
    let mut flush_samples = None;
    let mut flush_micros = None;
    let mut queue_depth = None;
    let mut workers = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // Boolean flags first; everything else takes one value.
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--no-microbatch" => {
                no_microbatch = true;
                continue;
            }
            "--no-admin-socket" => {
                no_admin_socket = true;
                continue;
            }
            _ => {}
        }
        let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--artifact" => artifact = Some(value),
            "--forest" => forest_path = Some(value),
            "--engine" => engine_name = Some(value),
            "--calibration-csv" => calibration = Some(value),
            "--socket" => socket = Some(value),
            "--tcp" => tcp = Some(value),
            "--model" => push_model(&mut models, &value)?,
            "--default" => default_model = Some(value),
            "--model-dir" => model_dir = Some(value),
            "--resident-bytes" => resident_bytes = Some(parse_bytes("--resident-bytes", &value)?),
            "--keep-versions" => keep_versions = Some(value),
            "--admin-socket" => admin_socket = Some(value),
            "--rescan-interval" => rescan_interval = Some(value),
            "--compact-interval" => compact_interval = Some(value),
            "--warm-top" => warm_top = Some(value),
            "--serving" => serving = Some(value),
            "--mb-flush-samples" => flush_samples = Some(value),
            "--mb-flush-micros" => flush_micros = Some(value),
            "--mb-queue-depth" => queue_depth = Some(value),
            "--workers" => workers = Some(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let mode = serving_mode(
        serving.as_deref(),
        no_microbatch,
        flush_samples.as_deref(),
        flush_micros.as_deref(),
        queue_depth.as_deref(),
        workers.as_deref(),
    )?;
    let socket = socket.ok_or("need --socket")?;
    let keep_versions = keep_versions
        .as_deref()
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("--keep-versions wants a non-negative integer, got {v:?}"))
        })
        .transpose()?;
    if model_dir.is_none() && (resident_bytes.is_some() || keep_versions.is_some()) {
        return Err("--resident-bytes/--keep-versions only apply with --model-dir".to_owned());
    }
    let parse_secs = |flag: &str, v: Option<&str>| -> Result<Option<u64>, String> {
        v.map(|v| {
            v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                format!("{flag} wants a positive whole number of seconds, got {v:?}")
            })
        })
        .transpose()
    };
    let rescan_interval = parse_secs("--rescan-interval", rescan_interval.as_deref())?;
    let compact_interval = parse_secs("--compact-interval", compact_interval.as_deref())?;
    let warm_top = warm_top
        .as_deref()
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("--warm-top wants a non-negative integer, got {v:?}"))
        })
        .transpose()?
        .unwrap_or(0);
    if model_dir.is_none()
        && (rescan_interval.is_some() || compact_interval.is_some() || warm_top > 0)
    {
        return Err(
            "--rescan-interval/--compact-interval/--warm-top only apply with --model-dir"
                .to_owned(),
        );
    }
    if no_admin_socket && admin_socket.is_some() {
        return Err("--admin-socket and --no-admin-socket are mutually exclusive".to_owned());
    }
    // The admin socket defaults on for fleet (--model-dir) daemons: it
    // lives inside the model directory, so its 0600 mode plus the
    // directory's own permissions gate who can administer the fleet.
    let admin_socket: Option<std::path::PathBuf> = if no_admin_socket {
        None
    } else {
        admin_socket.map(std::path::PathBuf::from).or_else(|| {
            model_dir
                .as_ref()
                .map(|dir| std::path::Path::new(dir).join("admin.sock"))
        })
    };
    if models.is_empty() && model_dir.is_none() {
        // Legacy single-engine invocation: --artifact serves Bolt,
        // --forest [--engine KIND] serves a baseline; the model name is
        // the engine's platform name and it becomes the default.
        let kind = if artifact.is_some() && forest_path.is_none() {
            "bolt".to_owned()
        } else if forest_path.is_some() {
            engine_name.clone().unwrap_or_else(|| "scikit".to_owned())
        } else {
            return Err(
                "need --model NAME=KIND flags, --model-dir, --artifact, or --forest".to_owned(),
            );
        };
        models.push((String::new(), kind)); // name filled from the engine below
    } else if !models.is_empty() && engine_name.is_some() {
        return Err("--engine mixes with the legacy single-model flags only; \
                    with --model, spell the kind as NAME=KIND"
            .to_owned());
    }

    let mut loader = EngineLoader {
        artifact,
        forest_path,
        calibration,
        forest: None,
        built: BTreeMap::new(),
    };
    let mut builder = ServerBuilder::new();
    if let Some(dir) = &model_dir {
        builder = builder.model_dir(dir);
        if let Some(budget) = resident_bytes {
            builder = builder.resident_bytes(budget);
        }
        if let Some(n) = keep_versions {
            builder = builder.keep_versions(n);
        }
    }
    for (name, kind) in &models {
        let engine = loader.engine(kind)?;
        let name = if name.is_empty() {
            engine.name().to_owned()
        } else {
            name.clone()
        };
        println!("model {name}: {} ({kind})", engine.name());
        builder = builder.register(name, engine);
    }
    if let Some(name) = default_model {
        builder = builder.default_model(name);
    }
    if let Some(path) = &admin_socket {
        builder = builder.admin_socket(path);
    }
    if warm_top > 0 {
        builder = builder.warm_top(warm_top);
    }

    let registry_builder = builder.serving(mode.clone());
    let server = registry_builder
        .bind_uds(&socket)
        .map_err(|e| format!("bind {socket}: {e}"))?;
    let store = server.store();
    if let Some(dir) = &model_dir {
        let listed = store.list();
        println!(
            "model directory {dir}: {} models cataloged{}",
            listed.len(),
            resident_bytes.map_or_else(String::new, |b| format!(", resident budget {b} bytes"))
        );
        if keep_versions.is_some() {
            let stats = store.compact().map_err(|e| format!("compact {dir}: {e}"))?;
            println!(
                "compacted registry log: {} -> {} bytes, {} superseded artifact(s) deleted",
                stats.wal_bytes_before, stats.wal_bytes_after, stats.files_deleted
            );
        }
        if warm_top > 0 {
            let metrics = store.metrics();
            println!(
                "warmed up: {} artifact(s) resident ({} bytes) before first accept",
                metrics.resident_models, metrics.resident_bytes
            );
        }
    }
    if let Some(path) = server.admin_path() {
        println!(
            "boltd admin socket on {} (mode 0600; drive with boltctl)",
            path.display()
        );
    }
    // Background maintenance: leaked for the daemon's lifetime (the serve
    // loop below never returns).
    let mut maintenance = Vec::new();
    if let Some(secs) = rescan_interval {
        println!("boltd rescan: polling the model directory every {secs}s");
        maintenance.push(bolt_server::admin::spawn_rescan(
            store.clone(),
            Duration::from_secs(secs),
        ));
    }
    if let Some(secs) = compact_interval {
        println!("boltd compaction: every {secs}s in the background");
        maintenance.push(bolt_server::admin::spawn_compactor(
            store.clone(),
            Duration::from_secs(secs),
        ));
    }
    std::mem::forget(maintenance);
    // Logged once at startup so operators can tell how connections are
    // scheduled.
    match &mode {
        ServingMode::ThreadPerConnection => {
            println!("boltd serving: one thread per connection (no batching)");
        }
        ServingMode::EventLoop(opts) if opts.microbatch.enabled => {
            println!(
                "boltd serving: event loop, micro-batch flush at {} samples / {} µs, \
                 queue depth {}, workers {}",
                opts.microbatch.flush_samples,
                opts.microbatch.flush_wait.as_micros(),
                opts.microbatch.queue_depth,
                if opts.workers == 0 {
                    "auto".to_owned()
                } else {
                    opts.workers.to_string()
                }
            );
        }
        ServingMode::EventLoop(opts) => {
            println!(
                "boltd serving: event loop, micro-batching off, queue depth {}",
                opts.microbatch.queue_depth
            );
        }
        _ => {}
    }
    println!("boltd listening on {socket} (Ctrl-C to stop)");
    let _tcp_server = match tcp {
        Some(addr) => {
            // Both transports share ONE store: one catalog, one
            // write-ahead log, one resident budget.
            let tcp_server = ServerBuilder::with_store(store.clone())
                .serving(mode)
                .bind_tcp(&addr)
                .map_err(|e| format!("bind tcp {addr}: {e}"))?;
            println!("boltd also listening on tcp {}", tcp_server.local_addr());
            Some(tcp_server)
        }
        None => None,
    };

    // Serve until interrupted; report stats whenever they change.
    let mut last = server.stats();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        let stats = server.stats();
        if stats != last {
            println!(
                "served {} requests, mean latency {:.3} µs ({} artifact bytes resident)",
                stats.requests,
                stats.mean_latency_ns() / 1000.0,
                store.resident_bytes()
            );
            for model in store.list() {
                let default = if model.is_default { " (default)" } else { "" };
                let residency = if model.version == 0 {
                    String::new() // in-memory engine, no artifact behind it
                } else if model.resident {
                    format!(" [v{} resident, {} bytes]", model.version, model.bytes)
                } else {
                    format!(" [v{} cold, {} bytes]", model.version, model.bytes)
                };
                println!(
                    "  {}: {} requests via {}{residency}{default}",
                    model.name, model.requests, model.engine
                );
            }
            let metrics = store.metrics();
            if metrics.evictions > 0 {
                println!(
                    "  eviction pressure: {} eviction(s), {} thrash reload(s), \
                     resident high-water {} bytes",
                    metrics.evictions, metrics.thrash_reloads, metrics.resident_bytes_hwm
                );
            }
            last = stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_bytes, push_model, serving_mode};
    use bolt_server::ServingMode;
    use std::time::Duration;

    #[test]
    fn serving_defaults_to_event_loop_microbatching() {
        let mode = serving_mode(None, false, None, None, None, None).unwrap();
        match mode {
            ServingMode::EventLoop(opts) => {
                assert!(opts.microbatch.enabled);
                assert_eq!(opts.microbatch.flush_samples, 64);
                assert_eq!(opts.workers, 0);
            }
            other => panic!("expected event loop default, got {other:?}"),
        }
    }

    #[test]
    fn serving_flags_parse_into_options() {
        let mode = serving_mode(
            Some("event-loop"),
            true,
            Some("128"),
            Some("500"),
            Some("1024"),
            Some("4"),
        )
        .unwrap();
        match mode {
            ServingMode::EventLoop(opts) => {
                assert!(!opts.microbatch.enabled);
                assert_eq!(opts.microbatch.flush_samples, 128);
                assert_eq!(opts.microbatch.flush_wait, Duration::from_micros(500));
                assert_eq!(opts.microbatch.queue_depth, 1024);
                assert_eq!(opts.workers, 4);
            }
            other => panic!("expected event loop, got {other:?}"),
        }
    }

    #[test]
    fn thread_mode_rejects_microbatch_flags() {
        assert!(matches!(
            serving_mode(Some("threads"), false, None, None, None, None),
            Ok(ServingMode::ThreadPerConnection)
        ));
        assert!(serving_mode(Some("threads"), true, None, None, None, None).is_err());
        assert!(serving_mode(Some("threads"), false, Some("8"), None, None, None).is_err());
        assert!(serving_mode(Some("warp"), false, None, None, None, None).is_err());
        assert!(serving_mode(None, false, Some("not-a-number"), None, None, None).is_err());
    }

    #[test]
    fn model_flags_parse_and_accumulate() {
        let mut models = Vec::new();
        push_model(&mut models, "fast=bolt").unwrap();
        push_model(&mut models, "prod=artifact:model.blt").unwrap();
        push_model(&mut models, "ref=scikit").unwrap();
        assert_eq!(
            models,
            vec![
                ("fast".to_owned(), "bolt".to_owned()),
                ("prod".to_owned(), "artifact:model.blt".to_owned()),
                ("ref".to_owned(), "scikit".to_owned()),
            ]
        );
    }

    #[test]
    fn duplicate_model_names_defer_to_the_store() {
        // Flag parsing no longer second-guesses uniqueness: the store's
        // register() is the one place duplicates are refused, so the
        // parser just accumulates (the bind then fails with the typed
        // error — covered by the builder's own tests).
        let mut models = Vec::new();
        push_model(&mut models, "prod=bolt").unwrap();
        push_model(&mut models, "prod=scikit").unwrap();
        assert_eq!(
            models,
            vec![
                ("prod".to_owned(), "bolt".to_owned()),
                ("prod".to_owned(), "scikit".to_owned()),
            ]
        );
    }

    #[test]
    fn malformed_model_flags_are_rejected() {
        let mut models = Vec::new();
        assert!(push_model(&mut models, "no-equals-sign").is_err());
        assert!(push_model(&mut models, "=bolt").is_err());
        assert!(models.is_empty());
    }

    #[test]
    fn byte_budgets_parse_with_binary_suffixes() {
        assert_eq!(parse_bytes("--resident-bytes", "4096").unwrap(), 4096);
        assert_eq!(parse_bytes("--resident-bytes", "8k").unwrap(), 8 << 10);
        assert_eq!(parse_bytes("--resident-bytes", "64M").unwrap(), 64 << 20);
        assert_eq!(parse_bytes("--resident-bytes", "2g").unwrap(), 2 << 30);
        assert!(parse_bytes("--resident-bytes", "lots").is_err());
        assert!(parse_bytes("--resident-bytes", "64q").is_err());
        assert!(parse_bytes("--resident-bytes", "99999999999999999999g").is_err());
    }
}
