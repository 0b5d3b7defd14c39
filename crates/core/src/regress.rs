//! Regression forests compiled to lookup tables.
//!
//! Bolt's machinery is output-agnostic: a regression path is just a path
//! whose "vote weight" is its leaf value (see
//! [`bolt_forest::enumerate_regression_paths`]). The compiled regressor
//! scans the same dictionary, performs the same verified lookups, and
//! aggregates with the Fig. 7 service's `mean(results)` instead of a vote.

use crate::cluster::Clustering;
use crate::dictionary::Dictionary;
use crate::engine::{BoltConfig, BoltScratch, ForestView};
use crate::filter::BloomFilter;
use crate::index::EntryIndex;
use crate::paths::SortedPaths;
use crate::table::RecombinedTable;
use crate::BoltError;
use bolt_bitpack::Mask;
use bolt_forest::{GradientBoostedRegressor, PredicateUniverse, RegressionForest};
use serde::{Deserialize, Serialize};

/// How matched leaf values combine into a prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregation {
    /// Bagged forests: the mean of per-tree leaf values (Fig. 7's
    /// `mean(results)`).
    Mean,
    /// Boosted ensembles: `base + Σ (weighted leaf values)` — the paper's
    /// "adding the corresponding tree weight to each path" (§5).
    Sum,
}

/// A regression forest compiled into Bolt structures.
///
/// # Examples
///
/// ```
/// use bolt_core::{BoltConfig, BoltRegressor};
/// use bolt_forest::{RegressionConfig, RegressionDataset, RegressionForest};
///
/// let rows: Vec<Vec<f32>> = (0..60).map(|i| vec![(i % 6) as f32]).collect();
/// let targets: Vec<f32> = rows.iter().map(|r| r[0] * 2.0).collect();
/// let data = RegressionDataset::from_rows(rows, targets)?;
/// let forest = RegressionForest::train(&data, &RegressionConfig::new(4).with_seed(1));
/// let bolt = BoltRegressor::compile(&forest, &BoltConfig::default())?;
/// let (y_bolt, y_forest) = (bolt.predict(&[3.0]), forest.predict(&[3.0]));
/// assert!((y_bolt - y_forest).abs() < 1e-4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoltRegressor {
    universe: PredicateUniverse,
    dictionary: Dictionary,
    /// Entry-bitmap index over `dictionary`; derived, rebuilt by
    /// [`Self::rebuild`].
    #[serde(skip)]
    index: EntryIndex,
    table: RecombinedTable,
    bloom: Option<BloomFilter>,
    /// Leaf values of single-leaf trees, always added to the sum.
    constant_sum: f64,
    /// Constant offset added before aggregation (a GBM's base score).
    base: f64,
    aggregation: Aggregation,
    n_trees: usize,
}

impl BoltRegressor {
    /// Compiles a trained regression forest.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::EmptyForest`] or [`BoltError::AddressTooWide`]
    /// under the same contract as
    /// [`BoltForest::compile`](crate::BoltForest::compile).
    pub fn compile(forest: &RegressionForest, config: &BoltConfig) -> Result<Self, BoltError> {
        let universe = forest.universe();
        let paths = bolt_forest::enumerate_regression_paths(forest, &universe);
        Self::from_paths(
            universe,
            paths,
            0.0,
            Aggregation::Mean,
            forest.n_trees(),
            config,
        )
    }

    /// Compiles a gradient-boosted regressor: paths carry
    /// `learning_rate x leaf value` and aggregation is base + sum.
    ///
    /// # Errors
    ///
    /// Same contract as [`BoltRegressor::compile`].
    pub fn compile_boosted(
        model: &GradientBoostedRegressor,
        config: &BoltConfig,
    ) -> Result<Self, BoltError> {
        let universe = model.universe();
        let paths = model.enumerate_paths(&universe);
        Self::from_paths(
            universe,
            paths,
            model.base(),
            Aggregation::Sum,
            model.n_trees(),
            config,
        )
    }

    fn from_paths(
        universe: PredicateUniverse,
        paths: Vec<bolt_forest::BinaryPath>,
        base: f64,
        aggregation: Aggregation,
        n_trees: usize,
        config: &BoltConfig,
    ) -> Result<Self, BoltError> {
        if paths.is_empty() {
            return Err(BoltError::EmptyForest);
        }
        let (constant, real): (Vec<_>, Vec<_>) =
            paths.into_iter().partition(|p| p.pairs.is_empty());
        let constant_sum = constant.iter().map(|p| p.weight).sum();
        let (dictionary, table) = if real.is_empty() {
            let empty = Clustering::from_clusters(Vec::new(), config.cluster_threshold);
            (
                Dictionary::from_clustering(&empty, universe.len()),
                RecombinedTable::build(&empty, false),
            )
        } else {
            let sorted = SortedPaths::from_paths(real, n_trees);
            let clustering = Clustering::greedy(&sorted, config.cluster_threshold)?;
            (
                Dictionary::from_clustering(&clustering, universe.len()),
                RecombinedTable::build(&clustering, false),
            )
        };
        let bloom = (config.bloom_bits_per_key > 0)
            .then(|| BloomFilter::from_keys(table.keys(), config.bloom_bits_per_key));
        let index = EntryIndex::build(dictionary.view(), &universe);
        Ok(Self {
            universe,
            dictionary,
            index,
            table,
            bloom,
            constant_sum,
            base,
            aggregation,
            n_trees,
        })
    }

    /// Encodes a raw sample into its predicate mask.
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the universe's feature count.
    #[must_use]
    pub fn encode(&self, sample: &[f32]) -> Mask {
        self.universe.evaluate(sample)
    }

    /// A borrowed [`ForestView`] over the inference structures (regressors
    /// carry no per-class votes, so only the weight-sum scan applies).
    #[must_use]
    pub fn view(&self) -> ForestView<'_> {
        ForestView::new(
            self.dictionary.view(),
            self.index.view(),
            self.table.view(),
            self.bloom.as_ref().map(BloomFilter::view),
            &[],
            0,
        )
    }

    /// Predicts from an encoded input (dictionary scan): the mean of
    /// matched leaf values (`mean(results)`, Fig. 7).
    #[must_use]
    pub fn predict_bits(&self, bits: &Mask) -> f32 {
        self.aggregate(self.view().accumulate_weights(bits, self.constant_sum))
    }

    /// Predicts one raw sample (entry-bitmap index match; bit-identical to
    /// [`Self::predict_bits`] on the encoded sample).
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the universe's feature count.
    #[must_use]
    pub fn predict(&self, sample: &[f32]) -> f32 {
        let mut scratch = BoltScratch::default();
        self.aggregate(self.view().weight_sum_with(
            &self.universe,
            sample,
            &mut scratch,
            self.constant_sum,
        ))
    }

    fn aggregate(&self, sum: f64) -> f32 {
        match self.aggregation {
            Aggregation::Mean => (sum / self.n_trees as f64) as f32,
            Aggregation::Sum => (self.base + sum) as f32,
        }
    }

    /// Mean squared error over a regression dataset.
    #[must_use]
    pub fn mse(&self, data: &bolt_forest::RegressionDataset) -> f64 {
        data.iter()
            .map(|(sample, target)| {
                let d = f64::from(self.predict(sample)) - f64::from(target);
                d * d
            })
            .sum::<f64>()
            / data.len() as f64
    }

    /// Number of dictionary entries.
    #[must_use]
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The recombined table.
    #[must_use]
    pub fn table(&self) -> &RecombinedTable {
        &self.table
    }

    /// The predicate universe used for input encoding.
    #[must_use]
    pub fn universe(&self) -> &PredicateUniverse {
        &self.universe
    }

    /// The bloom filter, if enabled.
    #[must_use]
    pub fn bloom(&self) -> Option<&BloomFilter> {
        self.bloom.as_ref()
    }

    /// Leaf-value sum of single-leaf trees (always added to the scan sum).
    #[must_use]
    pub fn constant_sum(&self) -> f64 {
        self.constant_sum
    }

    /// Constant offset added before aggregation (a GBM's base score).
    #[must_use]
    pub fn base(&self) -> f64 {
        self.base
    }

    /// How matched leaf values combine into a prediction.
    #[must_use]
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Number of source trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Restores derived structures after deserialization: the predicate
    /// universe's lookup index and the entry-bitmap index.
    pub fn rebuild(&mut self) {
        self.universe.rebuild_index();
        self.index = EntryIndex::build(self.dictionary.view(), &self.universe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_forest::{RegressionConfig, RegressionDataset};

    fn dataset(seed: u64) -> RegressionDataset {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 80) as f32 / 8.0
        };
        let rows: Vec<Vec<f32>> = (0..250).map(|_| vec![next(), next(), next()]).collect();
        let targets: Vec<f32> = rows
            .iter()
            .map(|r| r[0] * 3.0 - r[1] + r[2] * 0.5)
            .collect();
        RegressionDataset::from_rows(rows, targets).expect("valid")
    }

    #[test]
    fn equivalent_to_forest_within_float_tolerance() {
        let data = dataset(1);
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(8).with_max_height(5).with_seed(4),
        );
        let bolt = BoltRegressor::compile(&forest, &BoltConfig::default()).expect("compiles");
        for (sample, _) in data.iter() {
            let (a, b) = (bolt.predict(sample), forest.predict(sample));
            assert!(
                (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                "bolt {a} vs forest {b}"
            );
        }
    }

    #[test]
    fn equivalent_on_unseen_inputs() {
        let data = dataset(2);
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(5).with_max_height(4).with_seed(6),
        );
        let bolt = BoltRegressor::compile(&forest, &BoltConfig::default()).expect("compiles");
        for i in 0..100 {
            let sample = vec![i as f32 * 0.17 - 4.0, i as f32 * 0.61, -(i as f32) * 0.4];
            let (a, b) = (bolt.predict(&sample), forest.predict(&sample));
            assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn thresholds_do_not_change_predictions() {
        let data = dataset(3);
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(6).with_max_height(4).with_seed(2),
        );
        let low = BoltRegressor::compile(&forest, &BoltConfig::default().with_cluster_threshold(0))
            .expect("compiles");
        let high =
            BoltRegressor::compile(&forest, &BoltConfig::default().with_cluster_threshold(12))
                .expect("compiles");
        for (sample, _) in data.iter().take(50) {
            assert!((low.predict(sample) - high.predict(sample)).abs() < 1e-4);
        }
    }

    #[test]
    fn mse_matches_forest_mse() {
        let data = dataset(4);
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(6).with_max_height(5).with_seed(8),
        );
        let bolt = BoltRegressor::compile(&forest, &BoltConfig::default()).expect("compiles");
        let (a, b) = (bolt.mse(&data), forest.mse(&data));
        assert!(
            (a - b).abs() < 1e-3 * (1.0 + b),
            "bolt mse {a} vs forest {b}"
        );
    }

    #[test]
    fn serializes_and_rebuilds() {
        let data = dataset(5);
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(4).with_max_height(4).with_seed(3),
        );
        let bolt = BoltRegressor::compile(&forest, &BoltConfig::default()).expect("compiles");
        let json = serde_json::to_string(&bolt).expect("serializes");
        let mut restored: BoltRegressor = serde_json::from_str(&json).expect("deserializes");
        restored.rebuild();
        for (sample, _) in data.iter().take(20) {
            assert_eq!(restored.predict(sample), bolt.predict(sample));
        }
    }
}

#[cfg(test)]
mod gbt_tests {
    use super::*;
    use bolt_forest::GbtConfig;

    fn dataset(seed: u64) -> bolt_forest::RegressionDataset {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 90) as f32 / 9.0
        };
        let rows: Vec<Vec<f32>> = (0..300).map(|_| vec![next(), next()]).collect();
        let targets: Vec<f32> = rows
            .iter()
            .map(|r| r[0] * 4.0 - r[1] * r[1] * 0.2)
            .collect();
        bolt_forest::RegressionDataset::from_rows(rows, targets).expect("valid")
    }

    #[test]
    fn boosted_compile_is_equivalent() {
        let data = dataset(1);
        let model = GradientBoostedRegressor::train(&data, &GbtConfig::new(15).with_seed(3));
        let bolt =
            BoltRegressor::compile_boosted(&model, &BoltConfig::default()).expect("compiles");
        for (sample, _) in data.iter().take(80) {
            let (a, b) = (bolt.predict(sample), model.predict(sample));
            assert!(
                (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                "bolt {a} vs gbt {b}"
            );
        }
    }

    #[test]
    fn boosted_compile_handles_unseen_inputs() {
        let data = dataset(2);
        let model = GradientBoostedRegressor::train(&data, &GbtConfig::new(8).with_seed(5));
        let bolt =
            BoltRegressor::compile_boosted(&model, &BoltConfig::default()).expect("compiles");
        for i in 0..60 {
            let sample = vec![i as f32 * 0.21 - 3.0, i as f32 * 0.47];
            let (a, b) = (bolt.predict(&sample), model.predict(&sample));
            assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn boosted_mse_matches_model() {
        let data = dataset(4);
        let model = GradientBoostedRegressor::train(&data, &GbtConfig::new(10).with_seed(7));
        let bolt =
            BoltRegressor::compile_boosted(&model, &BoltConfig::default()).expect("compiles");
        let (a, b) = (bolt.mse(&data), model.mse(&data));
        assert!((a - b).abs() < 1e-2 * (1.0 + b), "bolt {a} vs gbt {b}");
    }
}
