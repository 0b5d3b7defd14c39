//! `boltc` — the Bolt model compiler CLI.
//!
//! Train random forests (on a synthetic workload or a CSV file), compile
//! them into Bolt artifacts, and evaluate either representation:
//!
//! ```text
//! boltc train     --workload mnist --samples 2000 --trees 10 --height 4 --out forest.json
//! boltc train     --csv data.csv --trees 20 --height 6 --out forest.json
//! boltc train-reg --workload trips --samples 2000 --out trips.json
//! boltc compile   --forest forest.json --threshold 2 --bloom 10 --out bolt.json
//! boltc compile   --forest forest.json --threshold 2 --out model.blt   # BLT1 artifact
//! boltc inspect   --blt model.blt
//! boltc verify    --blt model.blt --forest forest.json --workload mnist
//! boltc eval      --forest forest.json --workload mnist --samples 500
//! boltc eval      --bolt bolt.json     --workload mnist --samples 500
//! boltc eval      --bolt model.blt     --workload mnist --samples 500
//! boltc eval      --bolt trips.blt     --workload trips --samples 500
//! ```
//!
//! `compile` and `eval` take the model's kind from the file: a forest JSON
//! of any trained kind (random, boosted, regression or boosted-regression
//! forest) compiles to one model, whose head — vote, mean or sum — `eval`
//! scores as accuracy or RMSE.
//!
//! A `--out` ending in `.blt` compiles to the binary `BLT1` zero-copy
//! artifact (serve it with `boltd --model NAME=artifact:model.blt`); any
//! other extension keeps the JSON format.

use bolt_repro::artifact::{section_name, Artifact, ArtifactWriter, MappedForest};
use bolt_repro::core::{BoltConfig, BoltForest, Ensemble, Head};
use bolt_repro::data::Workload;
use bolt_repro::forest::{
    csv, BoostedForest, Dataset, ForestConfig, GradientBoostedRegressor, RandomForest,
    RegressionConfig, RegressionDataset, RegressionForest,
};
use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Write};
use std::process::ExitCode;

/// `println!` for command output. A reader that closes the pipe early
/// (`boltc inspect --blt m.blt | head -1`) already has all it wanted, so a
/// broken pipe ends the process quietly with success; any other write
/// error ends it with a message and failure.
macro_rules! say {
    ($($arg:tt)*) => {
        say_line(format_args!($($arg)*))
    };
}

fn say_line(line: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(line).and_then(|()| out.write_all(b"\n")) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "train" => train(&flags),
        "compile" => compile(&flags),
        "eval" => eval(&flags),
        "train-reg" => train_reg(&flags),
        "inspect" => inspect(&flags),
        "verify" => verify(&flags),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  boltc train     (--workload mnist|lstw|yelp --samples N | --csv FILE)
                  [--trees N] [--height N] [--seed N] --out FOREST.json
  boltc train-reg (--workload trips --samples N | --csv FILE)
                  [--trees N] [--height N] [--seed N] --out FOREST.json
                  (regression CSV: last column is the float target)
  boltc compile   --forest FOREST.json [--threshold N] [--bloom BITS_PER_KEY]
                  [--explanations] [--verify WORKLOAD] [--model-version V]
                  --out BOLT.json|MODEL.blt
                  (any trained forest kind; a .blt extension writes the
                   binary BLT1 zero-copy artifact; --model-version stamps
                   the header for boltd --model-dir fleets, which expect
                   NAME@V.blt file naming; --verify needs a random forest)
  boltc inspect   --blt MODEL.blt
  boltc verify    --blt MODEL.blt [--forest FOREST.json]
                  [--workload NAME] [--samples N] [--seed N]
  boltc eval      (--forest FOREST.json | --bolt BOLT.json|MODEL.blt)
                  (--workload NAME --samples N [--seed N] | --csv FILE)
                  (classifiers: mnist|lstw|yelp, accuracy;
                   regressors: trips, RMSE)";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
        // Boolean flags take no value.
        let value = if key == "explanations" {
            "true".to_owned()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        flags.insert(key.to_owned(), value);
    }
    Ok(flags)
}

fn workload_by_name(name: &str) -> Result<Workload, String> {
    match name.to_ascii_lowercase().as_str() {
        "mnist" => Ok(Workload::MnistLike),
        "lstw" => Ok(Workload::LstwLike),
        "yelp" => Ok(Workload::YelpLike),
        other => Err(format!("unknown workload {other:?} (mnist|lstw|yelp)")),
    }
}

fn numeric<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key} expects a number, got {raw:?}")),
    }
}

fn load_dataset(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    if let Some(path) = flags.get("csv") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        return csv::from_csv(BufReader::new(file)).map_err(|e| e.to_string());
    }
    let workload = workload_by_name(flags.get("workload").ok_or("need --workload or --csv")?)?;
    let samples = numeric(flags, "samples", 1000usize)?;
    let seed = numeric(flags, "seed", 1u64)?;
    Ok(bolt_repro::data::generate(workload, samples, seed))
}

fn train(flags: &HashMap<String, String>) -> Result<(), String> {
    let data = load_dataset(flags)?;
    let out = flags.get("out").ok_or("need --out")?;
    let config = ForestConfig::new(numeric(flags, "trees", 10)?)
        .with_max_height(numeric(flags, "height", 4)?)
        .with_seed(numeric(flags, "seed", 42)?);
    let forest = RandomForest::train(&data, &config);
    let json = serde_json::to_string(&forest).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    say!(
        "trained {} trees (height {}) on {} samples x {} features -> {out} (train accuracy {:.1}%)",
        forest.n_trees(),
        forest.height(),
        data.len(),
        data.n_features(),
        100.0 * forest.accuracy(&data)
    );
    Ok(())
}

/// A trained forest of any kind, read from its JSON. The fields it
/// carries name the kind, so the most specific shape is tried first: a
/// boosted regressor has a `base`, a boosted classifier `weights`, a random
/// forest `n_classes`, and a regression forest none of them.
enum Trained {
    Gbt(GradientBoostedRegressor),
    Boosted(BoostedForest),
    Forest(RandomForest),
    Regression(RegressionForest),
}

impl Trained {
    fn read(path: &str) -> Result<Self, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        if let Ok(m) = serde_json::from_str(&json) {
            return Ok(Self::Gbt(m));
        }
        if let Ok(m) = serde_json::from_str(&json) {
            return Ok(Self::Boosted(m));
        }
        if let Ok(m) = serde_json::from_str(&json) {
            return Ok(Self::Forest(m));
        }
        serde_json::from_str(&json)
            .map(Self::Regression)
            .map_err(|e| format!("{path}: not a trained forest of any kind: {e}"))
    }

    fn ensemble(&self) -> &dyn Ensemble {
        match self {
            Self::Gbt(m) => m,
            Self::Boosted(m) => m,
            Self::Forest(m) => m,
            Self::Regression(m) => m,
        }
    }

    fn is_classifier(&self) -> bool {
        matches!(self, Self::Boosted(_) | Self::Forest(_))
    }

    /// The source model's own prediction, as [`BoltForest::predict`] reads
    /// it: the class as `f32` for classifiers.
    fn predict(&self, sample: &[f32]) -> f32 {
        match self {
            Self::Gbt(m) => m.predict(sample),
            Self::Boosted(m) => m.predict(sample) as f32,
            Self::Forest(m) => m.predict(sample) as f32,
            Self::Regression(m) => m.predict(sample),
        }
    }
}

fn compile(flags: &HashMap<String, String>) -> Result<(), String> {
    let forest_path = flags.get("forest").ok_or("need --forest")?;
    let out = flags.get("out").ok_or("need --out")?;
    let trained = Trained::read(forest_path)?;
    let config = BoltConfig::default()
        .with_cluster_threshold(numeric(flags, "threshold", 4)?)
        .with_bloom_bits_per_key(numeric(flags, "bloom", 10)?)
        .with_explanations(flags.contains_key("explanations"));
    let bolt = BoltForest::compile(trained.ensemble(), &config).map_err(|e| e.to_string())?;
    // Optional safety check against the source forest on fresh samples.
    if flags.contains_key("verify") {
        let Trained::Forest(forest) = &trained else {
            return Err("--verify needs a random forest".into());
        };
        let workload = workload_by_name(flags.get("verify").ok_or("--verify needs a workload")?)?;
        let check = bolt_repro::data::generate(workload, 500, 0x5AFE);
        let samples: Vec<&[f32]> = (0..check.len()).map(|i| check.sample(i)).collect();
        let n = bolt
            .verify_against(forest, samples.iter().copied())
            .map_err(|e| e.to_string())?;
        say!("verified safety property on {n} samples");
    }
    let model_version = numeric(flags, "model-version", 0u32)?;
    if out.ends_with(".blt") {
        ArtifactWriter::write_forest_versioned(&bolt, model_version, out)
            .map_err(|e| format!("write {out}: {e}"))?;
        // Round-trip sanity: the artifact must map and validate cleanly.
        MappedForest::open(out).map_err(|e| format!("re-map {out}: {e}"))?;
    } else {
        if model_version != 0 {
            return Err("--model-version only applies to .blt artifacts".into());
        }
        let json = serde_json::to_string(&bolt).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    }
    say!(
        "compiled ({}): {} predicates, {} dictionary entries, {} table cells -> {out}",
        head_name(bolt.head()),
        bolt.universe().len(),
        bolt.dictionary().len(),
        bolt.table().n_cells()
    );
    Ok(())
}

fn head_name(head: Head) -> String {
    match head {
        Head::Vote { n_classes } => format!("vote head, {n_classes} classes"),
        Head::Mean => "mean head".to_owned(),
        Head::Sum { base } => format!("sum head, base {base}"),
    }
}

/// Scores `predict` on the flags' dataset: a classifier's accuracy on a
/// classification workload, or a regressor's RMSE on a regression one.
fn score(
    flags: &HashMap<String, String>,
    what: &str,
    classifier: bool,
    predict: impl Fn(&[f32]) -> f32,
) -> Result<(), String> {
    if classifier {
        let data = load_dataset(flags)?;
        let correct = data
            .iter()
            .filter(|(sample, label)| predict(sample) as u32 == *label)
            .count();
        say!(
            "{what} accuracy on {} samples: {:.1}%",
            data.len(),
            100.0 * correct as f64 / data.len().max(1) as f64
        );
    } else {
        let data = load_regression_dataset(flags)?;
        let sse: f64 = data
            .iter()
            .map(|(sample, target)| {
                let err = f64::from(predict(sample)) - f64::from(target);
                err * err
            })
            .sum();
        say!(
            "{what} RMSE on {} samples: {:.3}",
            data.len(),
            (sse / data.len().max(1) as f64).sqrt()
        );
    }
    Ok(())
}

fn eval(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("bolt") {
        if path.ends_with(".blt") {
            let mapped = MappedForest::open(path).map_err(|e| format!("map {path}: {e}"))?;
            let classifier = mapped.n_classes() > 0;
            return score(flags, "mapped artifact", classifier, |s| mapped.predict(s));
        }
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let mut bolt: BoltForest = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        bolt.rebuild();
        let classifier = bolt.n_classes() > 0;
        return score(flags, "bolt artifact", classifier, |s| bolt.predict(s));
    }
    let path = flags.get("forest").ok_or("need --forest or --bolt")?;
    let trained = Trained::read(path)?;
    score(flags, "forest", trained.is_classifier(), |s| {
        trained.predict(s)
    })
}

/// Loads a regression dataset: the `trips` workload or a CSV whose last
/// column is the float target.
fn load_regression_dataset(flags: &HashMap<String, String>) -> Result<RegressionDataset, String> {
    if let Some(path) = flags.get("csv") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed: Result<Vec<f32>, _> =
                line.split(',').map(|f| f.trim().parse::<f32>()).collect();
            match parsed {
                Ok(values) if values.len() >= 2 => {
                    targets.push(values[values.len() - 1]);
                    rows.push(values[..values.len() - 1].to_vec());
                }
                Ok(_) => {
                    return Err(format!(
                        "line {} needs at least one feature and a target",
                        lineno + 1
                    ))
                }
                Err(_) if rows.is_empty() => continue, // header
                Err(_) => return Err(format!("non-numeric field at line {}", lineno + 1)),
            }
        }
        return RegressionDataset::from_rows(rows, targets).map_err(|e| e.to_string());
    }
    match flags.get("workload").map(String::as_str) {
        Some("trips") => {
            let samples = numeric(flags, "samples", 1000usize)?;
            let seed = numeric(flags, "seed", 1u64)?;
            Ok(bolt_repro::data::trip_duration_like(samples, seed))
        }
        Some(other) => Err(format!("unknown regression workload {other:?} (trips)")),
        None => Err("need --workload trips or --csv".into()),
    }
}

fn train_reg(flags: &HashMap<String, String>) -> Result<(), String> {
    let data = load_regression_dataset(flags)?;
    let out = flags.get("out").ok_or("need --out")?;
    let mut config = RegressionConfig::new(numeric(flags, "trees", 10)?)
        .with_max_height(numeric(flags, "height", 6)?)
        .with_seed(numeric(flags, "seed", 42)?);
    config.n_trees = numeric(flags, "trees", 10)?;
    let forest = RegressionForest::train(&data, &config);
    let json = serde_json::to_string(&forest).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    say!(
        "trained {} regression trees on {} samples -> {out} (train RMSE {:.3})",
        forest.n_trees(),
        data.len(),
        forest.mse(&data).sqrt()
    );
    Ok(())
}

/// `boltc inspect --blt MODEL.blt` — header, model shape, and section table
/// of a `BLT1` artifact (which is fully CRC-verified by the mapping itself).
fn inspect(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = flags.get("blt").ok_or("need --blt MODEL.blt")?;
    let artifact = Artifact::map(path).map_err(|e| format!("map {path}: {e}"))?;
    let header = artifact.header();
    let kind = match header.model_kind {
        1 => "classifier",
        2 => "regressor",
        _ => "unknown",
    };
    say!(
        "{path}: BLT1 v{} {kind}, model version {}, {} bytes, {} sections, {}",
        header.version,
        header.model_version,
        header.file_len,
        header.section_count,
        if artifact.is_mapped() {
            "memory-mapped"
        } else {
            "heap-backed"
        }
    );
    let model = MappedForest::from_artifact(artifact).map_err(|e| e.to_string())?;
    let meta = model.meta();
    say!(
        "  model: {}, {} predicates ({} features), {} dictionary entries, \
         {} table slots, {} trees, bloom hashes {}",
        head_name(model.head()),
        meta.width,
        meta.n_features,
        meta.n_entries,
        meta.table_capacity,
        meta.n_trees,
        meta.bloom_n_hashes,
    );
    say!(
        "  {:<16} {:>10} {:>10}  crc32",
        "section",
        "offset",
        "bytes"
    );
    for s in model.artifact().sections() {
        say!(
            "  {:<16} {:>10} {:>10}  {:08x}",
            section_name(s.id),
            s.offset,
            s.len,
            s.crc32
        );
    }
    Ok(())
}

/// `boltc verify --blt MODEL.blt [--forest FOREST.json]` — map the artifact,
/// re-running every checksum and structural check; with `--forest`, also
/// prove the mapped model classifies identically to the source forest on a
/// workload sweep.
fn verify(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = flags.get("blt").ok_or("need --blt MODEL.blt")?;
    let model = MappedForest::open(path).map_err(|e| format!("verify {path}: {e}"))?;
    let meta = model.meta();
    say!(
        "{path}: checksums and structure OK ({} sections, {} dictionary entries)",
        model.artifact().header().section_count,
        meta.n_entries
    );
    let Some(forest_path) = flags.get("forest") else {
        return Ok(());
    };
    let trained = Trained::read(forest_path)?;
    if model.n_classes() == 0 || !trained.is_classifier() {
        return Err("--forest verification only supports classifiers".into());
    }
    let workload = workload_by_name(flags.get("workload").map_or("mnist", String::as_str))?;
    let samples = numeric(flags, "samples", 500usize)?;
    let seed = numeric(flags, "seed", 0x5AFEu64)?;
    let check = bolt_repro::data::generate(workload, samples, seed);
    for i in 0..check.len() {
        let sample = check.sample(i);
        let (got, want) = (model.classify(sample), trained.predict(sample) as u32);
        if got != want {
            return Err(format!(
                "mapped artifact diverges from forest on sample {i}: {got} != {want}"
            ));
        }
    }
    say!(
        "verified bit-identical classification on {} samples",
        check.len()
    );
    Ok(())
}
