//! Shared harness for reproducing the Bolt paper's figures.
//!
//! Each `fig*` binary in this crate regenerates one figure of the paper's
//! evaluation (§6); this library holds the common machinery: workload
//! training, platform construction, single-sample service timing, and
//! plain-text report tables. See DESIGN.md's per-experiment index for the
//! figure ↔ binary map and EXPERIMENTS.md for recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod hist;
pub mod loadgen;

use bolt_baselines::{ForestPackingForest, InferenceEngine, RangerLikeForest, ScikitLikeForest};
use bolt_core::{BoltConfig, BoltForest};
use bolt_data::Workload;
use bolt_forest::{Dataset, ForestConfig, RandomForest};
use std::sync::Arc;
use std::time::Instant;

/// Default training-set size for harness workloads.
pub const DEFAULT_TRAIN: usize = 2000;
/// Default test-set (service request) size. The paper uses MNIST's 10 000
/// test samples; this default keeps full-figure runs in CI budgets and can
/// be raised with [`test_samples`].
pub const DEFAULT_TEST: usize = 2000;

/// Returns the number of service requests to time, honouring the
/// `BOLT_BENCH_SAMPLES` environment variable.
#[must_use]
pub fn test_samples() -> usize {
    std::env::var("BOLT_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_TEST)
}

/// A trained workload: train/test splits plus the scikit-equivalent forest.
#[derive(Clone, Debug)]
pub struct TrainedWorkload {
    /// Which dataset family.
    pub workload: Workload,
    /// Training data.
    pub train: Dataset,
    /// Held-out service requests.
    pub test: Dataset,
    /// The trained forest all platforms re-lay.
    pub forest: RandomForest,
}

/// Trains a forest of `n_trees` trees with max height `height` on the given
/// workload (deterministic seeds).
#[must_use]
pub fn train_workload(
    workload: Workload,
    n_trees: usize,
    height: usize,
    n_train: usize,
    n_test: usize,
) -> TrainedWorkload {
    let train = bolt_data::generate(workload, n_train, 0xBEEF);
    let test = bolt_data::generate(workload, n_test, 0xF00D);
    let forest = RandomForest::train(
        &train,
        &ForestConfig::new(n_trees)
            .with_max_height(height)
            .with_seed(42),
    );
    TrainedWorkload {
        workload,
        train,
        test,
        forest,
    }
}

/// The three model shapes the repo benchmark serves, trained and compiled
/// with `n_test` held-out samples each: `wide` (784 features, a tiny
/// dictionary), `svc` (the tuned service forest) and `deep` (threshold 0,
/// one entry per path).
#[must_use]
pub fn benchmark_models(n_test: usize) -> Vec<(&'static str, TrainedWorkload, BoltForest)> {
    [
        ("wide", Workload::MnistLike, 10, 4, 4, 2000),
        ("svc", Workload::LstwLike, 16, 6, 4, 4000),
        ("deep", Workload::LstwLike, 20, 8, 0, 4000),
    ]
    .into_iter()
    .map(|(model, workload, trees, height, threshold, n_train)| {
        let trained = train_workload(workload, trees, height, n_train, n_test);
        let bolt = BoltForest::compile(
            &trained.forest,
            &BoltConfig::default().with_cluster_threshold(threshold),
        )
        .expect("benchmark-shaped forests compile");
        (model, trained, bolt)
    })
    .collect()
}

/// All four platforms of the paper's comparison, built from one forest.
pub struct Platforms {
    /// Bolt, compiled at the given clustering threshold.
    pub bolt: Arc<BoltForest>,
    /// Scikit-Learn-style object-graph engine.
    pub scikit: ScikitLikeForest,
    /// Ranger-style compact-array engine.
    pub ranger: RangerLikeForest,
    /// Forest-Packing-style packed-arena engine.
    pub fp: ForestPackingForest,
}

impl Platforms {
    /// Builds every platform from a trained workload. `threshold` is Bolt's
    /// clustering threshold (Phase 2 output; the figure binaries use the
    /// sweep in `fig13` to justify their choices).
    ///
    /// # Panics
    ///
    /// Panics if Bolt compilation fails (trees too deep to table-map), a
    /// regime the figure binaries avoid or report explicitly.
    #[must_use]
    pub fn build(trained: &TrainedWorkload, threshold: usize) -> Self {
        let bolt = Arc::new(
            BoltForest::compile(
                &trained.forest,
                &BoltConfig::default().with_cluster_threshold(threshold),
            )
            .expect("forest is table-mappable"),
        );
        Self {
            bolt,
            scikit: ScikitLikeForest::from_forest(&trained.forest),
            ranger: RangerLikeForest::from_forest(&trained.forest),
            fp: ForestPackingForest::from_forest(&trained.forest, &trained.train),
        }
    }

    /// Builds platforms with Bolt's setting chosen by a measured Phase-2
    /// mini-sweep: thresholds × bloom budgets are compiled, timed on up to
    /// 128 calibration samples, and the fastest wins (§4.2: "Bolt explores
    /// different parameter strategies and outputs ... the best performance
    /// given a forest and the specified hardware").
    #[must_use]
    pub fn build_tuned(trained: &TrainedWorkload) -> Self {
        let calibration: Vec<&[f32]> = (0..trained.test.len().min(128))
            .map(|i| trained.test.sample(i))
            .collect();
        let mut best: Option<(f64, Arc<BoltForest>)> = None;
        for threshold in [0usize, 1, 2, 4, 8, 16] {
            for bloom in [0usize, 10] {
                let Ok(bolt) = BoltForest::compile(
                    &trained.forest,
                    &BoltConfig::default()
                        .with_cluster_threshold(threshold)
                        .with_bloom_bits_per_key(bloom),
                ) else {
                    continue;
                };
                let mut scratch = bolt.scratch();
                let mut sink = 0u32;
                for s in &calibration {
                    sink = sink.wrapping_add(bolt.classify_with(s, &mut scratch));
                }
                let start = Instant::now();
                for _ in 0..3 {
                    for s in &calibration {
                        sink = sink.wrapping_add(bolt.classify_with(s, &mut scratch));
                    }
                }
                let ns = start.elapsed().as_nanos() as f64;
                std::hint::black_box(sink);
                if best.as_ref().is_none_or(|(b, _)| ns < *b) {
                    best = Some((ns, Arc::new(bolt)));
                }
            }
        }
        let (_, bolt) = best.expect("at least one setting compiles");
        Self {
            bolt,
            scikit: ScikitLikeForest::from_forest(&trained.forest),
            ranger: RangerLikeForest::from_forest(&trained.forest),
            fp: ForestPackingForest::from_forest(&trained.forest, &trained.train),
        }
    }

    /// `(name, engine)` pairs in the paper's figure order.
    #[must_use]
    pub fn engines(&self) -> Vec<(&'static str, Box<dyn InferenceEngine + '_>)> {
        vec![
            ("BOLT", Box::new(BoltAdapter::new(&self.bolt))),
            ("Scikit", Box::new(&self.scikit)),
            ("Ranger", Box::new(&self.ranger)),
            ("FP", Box::new(&self.fp)),
        ]
    }
}

/// Borrowing adapter so a [`BoltForest`] can be timed through the common
/// engine interface. Uses the allocation-free scratch path, guarded by a
/// mutex to satisfy the engine trait's `Sync` bound (uncontended in the
/// single-threaded service loop).
pub struct BoltAdapter<'a> {
    bolt: &'a BoltForest,
    scratch: std::sync::Mutex<bolt_core::BoltScratch>,
}

impl<'a> BoltAdapter<'a> {
    /// Wraps a compiled forest with its own scratch buffer.
    #[must_use]
    pub fn new(bolt: &'a BoltForest) -> Self {
        Self {
            bolt,
            scratch: std::sync::Mutex::new(bolt.scratch()),
        }
    }
}

impl InferenceEngine for BoltAdapter<'_> {
    fn name(&self) -> &'static str {
        "BOLT"
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        let mut scratch = self.scratch.lock().expect("scratch mutex");
        self.bolt.classify_with(sample, &mut scratch)
    }
}

/// Times single-sample sequential service execution (no batching, as in
/// §6). Runs three measurement passes after a warm-up and reports the best
/// mean nanoseconds per sample, damping scheduler noise on shared hosts.
#[must_use]
pub fn time_engine_ns(engine: &dyn InferenceEngine, test: &Dataset) -> f64 {
    let mut sink = 0u32;
    for (sample, _) in test.iter().take(64) {
        sink = sink.wrapping_add(engine.classify(sample));
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for (sample, _) in test.iter() {
            sink = sink.wrapping_add(engine.classify(sample));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / test.len() as f64);
    }
    std::hint::black_box(sink);
    best
}

/// Times classification with *receipt-hot* inputs: the paper's service
/// measures "from the time input samples are received", at which point the
/// sample bytes were just written by the front-end and sit in cache. Each
/// sample row is touched (untimed) before the timed classify; the timer's
/// own calibrated overhead is subtracted.
#[must_use]
pub fn time_engine_hot_ns(engine: &dyn InferenceEngine, test: &Dataset) -> f64 {
    // Calibrate the Instant::now()/elapsed() pair.
    let mut cal = 0u128;
    for _ in 0..4096 {
        let t = Instant::now();
        cal += t.elapsed().as_nanos();
    }
    let overhead = cal as f64 / 4096.0;

    let mut sink = 0u32;
    for (sample, _) in test.iter().take(64) {
        sink = sink.wrapping_add(engine.classify(sample));
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut total = 0u128;
        for (sample, _) in test.iter() {
            // Bring the input row into cache, as a fresh socket read would.
            let warm: f32 = sample.iter().sum();
            std::hint::black_box(warm);
            let start = Instant::now();
            sink = sink.wrapping_add(engine.classify(sample));
            total += start.elapsed().as_nanos();
        }
        best = best.min((total as f64 / test.len() as f64 - overhead).max(0.1));
    }
    std::hint::black_box(sink);
    best
}

/// Formats nanoseconds as the paper's microsecond axis.
#[must_use]
pub fn fmt_us(ns: f64) -> String {
    format!("{:.3}", ns / 1000.0)
}

/// Prints a fixed-width text table (first column left-aligned).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[0]));
            } else {
                out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
            }
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| (*s).to_owned()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platforms_agree_on_predictions() {
        let trained = train_workload(Workload::MnistLike, 5, 3, 300, 100);
        let platforms = Platforms::build(&trained, 4);
        for (sample, _) in trained.test.iter().take(40) {
            let expected = trained.forest.predict(sample);
            for (name, engine) in platforms.engines() {
                assert_eq!(engine.classify(sample), expected, "platform {name}");
            }
        }
    }

    #[test]
    fn timing_returns_positive_latency() {
        let trained = train_workload(Workload::LstwLike, 3, 3, 300, 50);
        let platforms = Platforms::build(&trained, 4);
        let ns = time_engine_ns(&BoltAdapter::new(&platforms.bolt), &trained.test);
        assert!(ns > 0.0);
        assert_eq!(fmt_us(1500.0), "1.500");
    }

    #[test]
    fn sample_count_env_override() {
        // Default path (no env var assumed in tests).
        assert!(test_samples() > 0);
    }
}
