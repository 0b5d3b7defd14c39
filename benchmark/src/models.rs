//! The three forests every workload is built on, and the request pools
//! drawn from `--seed`.
//!
//! The models are fixed parts of the workload definitions: they are always
//! trained from [`MODEL_SEED`]. Across training seeds the `wide` forest's
//! predicate count moves by ±15 % (66–91 on seeds 1–8) and with it every
//! latency, which would make the spread between runs a property of the
//! seed, not of the code. `--seed` therefore drives what a *client* controls: which
//! samples are sent and in what order.

use bolt_core::BoltConfig;
use bolt_data::Workload as Data;
use bolt_forest::{Dataset, ForestConfig, RandomForest};

/// Seed of every model's training data and bootstrap.
pub const MODEL_SEED: u64 = 0xB017;

/// Samples in a request pool. Large enough that per-sample variation in
/// matched entries averages out, small enough to build in milliseconds.
pub const POOL_SAMPLES: usize = 2048;

/// One model: what `boltc train` / `boltc compile` are asked for.
#[derive(Clone, Copy, Debug)]
pub struct ModelSpec {
    /// Name used in metric suffixes and artifact file names.
    pub name: &'static str,
    /// Synthetic data family.
    pub data: Data,
    /// The same family as `boltc --workload` spells it.
    pub boltc_workload: &'static str,
    /// Training samples.
    pub train_samples: usize,
    /// Trees.
    pub trees: usize,
    /// Maximum tree height.
    pub height: usize,
    /// Clustering threshold.
    pub threshold: usize,
}

/// MNIST-like, 784 features, 10 trees of height 4, threshold 4: the
/// paper's Fig. 10 forest. Tiny dictionary, wide input: encode-bound.
pub const WIDE: ModelSpec = ModelSpec {
    name: "wide",
    data: Data::MnistLike,
    boltc_workload: "mnist",
    train_samples: 2000,
    trees: 10,
    height: 4,
    threshold: 4,
};

/// LSTW-like, 11 features, 16 trees of height 6, threshold 4: the tuned
/// service forest the daemons serve by default.
pub const SVC: ModelSpec = ModelSpec {
    name: "svc",
    data: Data::LstwLike,
    boltc_workload: "lstw",
    train_samples: 4000,
    trees: 16,
    height: 6,
    threshold: 4,
};

/// LSTW-like, 20 trees of height 8, threshold 0: a few thousand
/// dictionary entries, so the scan is nearly all of a classification.
pub const DEEP: ModelSpec = ModelSpec {
    name: "deep",
    data: Data::LstwLike,
    boltc_workload: "lstw",
    train_samples: 4000,
    trees: 20,
    height: 8,
    threshold: 0,
};

/// All models, in metric-suffix order.
pub const ALL: [ModelSpec; 3] = [WIDE, SVC, DEEP];

impl ModelSpec {
    /// The training set `boltc train --workload W --samples N --seed S`
    /// generates.
    #[must_use]
    pub fn training_data(&self) -> Dataset {
        bolt_data::generate(self.data, self.train_samples, MODEL_SEED)
    }

    /// The forest configuration `boltc train` builds from the same flags.
    #[must_use]
    pub fn forest_config(&self) -> ForestConfig {
        ForestConfig::new(self.trees)
            .with_max_height(self.height)
            .with_seed(MODEL_SEED)
    }

    /// The compile configuration `boltc compile --threshold K` uses.
    #[must_use]
    pub fn bolt_config(&self) -> BoltConfig {
        BoltConfig::default().with_cluster_threshold(self.threshold)
    }
}

/// A request pool: samples drawn from `--seed`, and the class the oracle
/// (`RandomForest::predict` on the served forest) gives each of them.
#[derive(Clone, Debug)]
pub struct Pool {
    data: Dataset,
    /// `expected[i]` is the oracle's class for sample `i`.
    pub expected: Vec<u32>,
}

impl Pool {
    /// Draws [`POOL_SAMPLES`] requests of `spec`'s data family from `seed`
    /// and labels them with `oracle`.
    #[must_use]
    pub fn draw(spec: &ModelSpec, oracle: &RandomForest, seed: u64) -> Self {
        // Decorrelate from MODEL_SEED so seed == MODEL_SEED does not replay
        // the training set.
        let data = bolt_data::generate(spec.data, POOL_SAMPLES, seed ^ 0x5EED_C11E);
        let expected = (0..data.len())
            .map(|i| oracle.predict(data.sample(i)))
            .collect();
        Self { data, expected }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the pool is empty (it never is).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Sample `i`'s features.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[f32] {
        self.data.sample(i)
    }
}
