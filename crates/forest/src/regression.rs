//! Regression trees and forests.
//!
//! The paper frames ensembles as boosting accuracy "for classification and
//! regression tasks" and its Fig. 7 service aggregates results with a mean;
//! this module provides the regression substrate: variance-reduction CART
//! trees whose leaves carry real-valued outputs, and bagged forests that
//! average them. `bolt-core`'s `BoltForest` compiles these to lookup
//! tables with per-path leaf values, read through a mean head.

use crate::{BinaryPath, ForestError, PredicateUniverse};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A dense feature matrix with real-valued targets.
///
/// # Examples
///
/// ```
/// use bolt_forest::RegressionDataset;
///
/// let data = RegressionDataset::from_rows(
///     vec![vec![0.0], vec![1.0]],
///     vec![10.0, 20.0],
/// )?;
/// assert_eq!(data.target(1), 20.0);
/// # Ok::<(), bolt_forest::ForestError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegressionDataset {
    values: Vec<f32>,
    targets: Vec<f32>,
    n_features: usize,
}

impl RegressionDataset {
    /// Builds a dataset from per-sample rows and targets.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::RaggedRows`], [`ForestError::LabelMismatch`],
    /// or [`ForestError::EmptyDataset`] under the same contract as
    /// [`Dataset::from_rows`](crate::Dataset::from_rows).
    pub fn from_rows(rows: Vec<Vec<f32>>, targets: Vec<f32>) -> Result<Self, ForestError> {
        let first = rows.first().ok_or(ForestError::EmptyDataset)?;
        let n_features = first.len();
        if rows.len() != targets.len() {
            return Err(ForestError::LabelMismatch {
                detail: format!("{} rows but {} targets", rows.len(), targets.len()),
            });
        }
        if let Some(bad) = targets.iter().find(|t| !t.is_finite()) {
            return Err(ForestError::LabelMismatch {
                detail: format!("non-finite target {bad}"),
            });
        }
        let mut values = Vec::with_capacity(rows.len() * n_features);
        for row in &rows {
            if row.len() != n_features {
                return Err(ForestError::RaggedRows {
                    expected: n_features,
                    found: row.len(),
                });
            }
            values.extend_from_slice(row);
        }
        Ok(Self {
            values,
            targets,
            n_features,
        })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset has no samples (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of features per sample.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Feature row of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[f32] {
        &self.values[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Target of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn target(&self, i: usize) -> f32 {
        self.targets[i]
    }

    /// Iterates over `(features, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f32], f32)> + '_ {
        (0..self.len()).map(move |i| (self.sample(i), self.target(i)))
    }
}

/// A node of a [`RegressionTree`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum RegNodeKind {
    /// Internal split: `sample[feature] <= threshold` goes left.
    Split {
        /// Feature index tested.
        feature: u32,
        /// Split threshold.
        threshold: f32,
        /// Child for the true edge.
        left: u32,
        /// Child for the false edge.
        right: u32,
    },
    /// Terminal node carrying the mean target of its training samples.
    Leaf {
        /// Predicted value.
        value: f32,
    },
}

/// Training configuration for regression trees/forests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegressionConfig {
    /// Number of trees in the forest.
    pub n_trees: usize,
    /// Maximum tree height.
    pub max_height: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Candidate features per split; `None` = `n/3` (the regression-forest
    /// convention).
    pub features_per_split: Option<usize>,
    /// Maximum candidate thresholds per feature.
    pub max_thresholds: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl RegressionConfig {
    /// A default configuration of `n_trees` height-6 trees.
    #[must_use]
    pub fn new(n_trees: usize) -> Self {
        Self {
            n_trees,
            max_height: 6,
            min_samples_split: 4,
            features_per_split: None,
            max_thresholds: 16,
            seed: 0,
        }
    }

    /// Sets the maximum height.
    #[must_use]
    pub fn with_max_height(mut self, h: usize) -> Self {
        self.max_height = h;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A variance-reduction CART regression tree (flat arena, root at 0).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<RegNodeKind>,
    n_features: usize,
}

impl RegressionTree {
    /// The node arena.
    #[must_use]
    pub fn nodes(&self) -> &[RegNodeKind] {
        &self.nodes
    }

    /// Predicts one sample by root-to-leaf traversal.
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the trained feature count.
    #[must_use]
    pub fn predict(&self, sample: &[f32]) -> f32 {
        assert!(sample.len() >= self.n_features, "sample too short");
        let mut id = 0u32;
        loop {
            match self.nodes[id as usize] {
                RegNodeKind::Leaf { value } => return value,
                RegNodeKind::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if sample[feature as usize] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Number of leaves.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, RegNodeKind::Leaf { .. }))
            .count()
    }

    /// Trains one tree on the given sample indices (used by the bagged
    /// forest and by gradient boosting's per-round residual fits).
    pub(crate) fn train_single(
        data: &RegressionDataset,
        indices: &[usize],
        config: &RegressionConfig,
    ) -> Self {
        Self::train(data, indices, config, config.seed)
    }

    /// Enumerates this tree's root→leaf paths in predicate space; the leaf
    /// value rides in [`BinaryPath::weight`] (tree id is left 0 for the
    /// caller to fill).
    pub(crate) fn binary_paths(&self, universe: &PredicateUniverse) -> Vec<BinaryPath> {
        let mut out = Vec::new();
        let mut stack: Vec<(u32, Vec<(u32, bool)>)> = vec![(0, Vec::new())];
        'walk: while let Some((id, pairs)) = stack.pop() {
            match self.nodes[id as usize] {
                RegNodeKind::Leaf { value } => {
                    let mut pairs = pairs;
                    pairs.sort_unstable_by_key(|&(p, v)| (p, v));
                    let mut deduped: Vec<(u32, bool)> = Vec::with_capacity(pairs.len());
                    for (p, v) in pairs {
                        match deduped.iter().find(|&&(q, _)| q == p) {
                            Some(&(_, existing)) if existing == v => {}
                            Some(_) => continue 'walk, // unreachable path
                            None => deduped.push((p, v)),
                        }
                    }
                    out.push(BinaryPath {
                        pairs: deduped,
                        class: 0,
                        tree: 0,
                        weight: f64::from(value),
                    });
                }
                RegNodeKind::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let pred = universe
                        .id_of(feature, threshold)
                        .expect("universe built from this tree");
                    let mut no = pairs.clone();
                    no.push((pred, false));
                    stack.push((right, no));
                    let mut yes = pairs;
                    yes.push((pred, true));
                    stack.push((left, yes));
                }
            }
        }
        out
    }

    fn train(
        data: &RegressionDataset,
        indices: &[usize],
        config: &RegressionConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes = vec![RegNodeKind::Leaf { value: 0.0 }];
        let mut stack = vec![(0usize, indices.to_vec(), 0usize)];
        let k_features = config
            .features_per_split
            .unwrap_or_else(|| (data.n_features() / 3).max(1))
            .clamp(1, data.n_features());
        while let Some((slot, idx, depth)) = stack.pop() {
            let mean = mean_target(data, &idx);
            let split = if depth < config.max_height && idx.len() >= config.min_samples_split {
                best_split(data, &idx, k_features, config.max_thresholds, &mut rng)
            } else {
                None
            };
            match split {
                None => nodes[slot] = RegNodeKind::Leaf { value: mean },
                Some((feature, threshold)) => {
                    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
                        .iter()
                        .partition(|&&i| data.sample(i)[feature as usize] <= threshold);
                    let left = nodes.len() as u32;
                    nodes.push(RegNodeKind::Leaf { value: 0.0 });
                    let right = nodes.len() as u32;
                    nodes.push(RegNodeKind::Leaf { value: 0.0 });
                    nodes[slot] = RegNodeKind::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    stack.push((left as usize, left_idx, depth + 1));
                    stack.push((right as usize, right_idx, depth + 1));
                }
            }
        }
        Self {
            nodes,
            n_features: data.n_features(),
        }
    }
}

fn mean_target(data: &RegressionDataset, idx: &[usize]) -> f32 {
    let sum: f64 = idx.iter().map(|&i| f64::from(data.target(i))).sum();
    (sum / idx.len().max(1) as f64) as f32
}

/// Finds the split minimizing the weighted sum of child variances.
fn best_split(
    data: &RegressionDataset,
    idx: &[usize],
    k_features: usize,
    max_thresholds: usize,
    rng: &mut StdRng,
) -> Option<(u32, f32)> {
    let parent_sse = sse(data, idx);
    if parent_sse <= 1e-12 {
        return None;
    }
    let mut features: Vec<usize> = (0..data.n_features()).collect();
    features.shuffle(rng);
    features.truncate(k_features);
    let mut best: Option<(f64, u32, f32)> = None;
    for &feature in &features {
        let mut values: Vec<f32> = idx.iter().map(|&i| data.sample(i)[feature]).collect();
        values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        let stride = (values.len() - 1).div_ceil(max_thresholds).max(1);
        let mut t = 0;
        while t + 1 < values.len() {
            let threshold = (values[t] + values[t + 1]) / 2.0;
            let (left, right): (Vec<usize>, Vec<usize>) = idx
                .iter()
                .partition(|&&i| data.sample(i)[feature] <= threshold);
            if !left.is_empty() && !right.is_empty() {
                let score = sse(data, &left) + sse(data, &right);
                if best.is_none_or(|(s, _, _)| score + 1e-12 < s) {
                    best = Some((score, feature as u32, threshold));
                }
            }
            t += stride;
        }
    }
    best.filter(|&(score, _, _)| score + 1e-9 < parent_sse)
        .map(|(_, f, t)| (f, t))
}

fn sse(data: &RegressionDataset, idx: &[usize]) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    let mean = f64::from(mean_target(data, idx));
    idx.iter()
        .map(|&i| {
            let d = f64::from(data.target(i)) - mean;
            d * d
        })
        .sum()
}

/// A bagged regression forest: the prediction is the mean of per-tree leaf
/// values (the paper's `mean(results)` aggregation).
///
/// # Examples
///
/// ```
/// use bolt_forest::{RegressionConfig, RegressionDataset, RegressionForest};
///
/// let rows: Vec<Vec<f32>> = (0..50).map(|i| vec![(i % 10) as f32]).collect();
/// let targets: Vec<f32> = rows.iter().map(|r| 3.0 * r[0] + 1.0).collect();
/// let data = RegressionDataset::from_rows(rows, targets)?;
/// let forest = RegressionForest::train(&data, &RegressionConfig::new(5).with_seed(3));
/// let y = forest.predict(&[4.0]);
/// assert!((y - 13.0).abs() < 3.0);
/// # Ok::<(), bolt_forest::ForestError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegressionForest {
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl RegressionForest {
    /// Trains a bagged regression forest.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_trees == 0`.
    #[must_use]
    pub fn train(data: &RegressionDataset, config: &RegressionConfig) -> Self {
        assert!(config.n_trees > 0, "a forest needs at least one tree");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let trees = (0..config.n_trees)
            .map(|t| {
                let indices: Vec<usize> = (0..data.len())
                    .map(|_| rng.gen_range(0..data.len()))
                    .collect();
                RegressionTree::train(
                    data,
                    &indices,
                    config,
                    config.seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                )
            })
            .collect();
        Self {
            trees,
            n_features: data.n_features(),
        }
    }

    /// The constituent trees.
    #[must_use]
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Number of trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of input features.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Mean of per-tree predictions.
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the trained feature count.
    #[must_use]
    pub fn predict(&self, sample: &[f32]) -> f32 {
        let sum: f64 = self
            .trees
            .iter()
            .map(|t| f64::from(t.predict(sample)))
            .sum();
        (sum / self.trees.len() as f64) as f32
    }

    /// Mean squared error over a dataset.
    #[must_use]
    pub fn mse(&self, data: &RegressionDataset) -> f64 {
        data.iter()
            .map(|(sample, target)| {
                let d = f64::from(self.predict(sample)) - f64::from(target);
                d * d
            })
            .sum::<f64>()
            / data.len() as f64
    }

    /// The forest-wide predicate universe of its splits.
    #[must_use]
    pub fn universe(&self) -> PredicateUniverse {
        let splits = self.trees.iter().flat_map(|tree| {
            tree.nodes().iter().filter_map(|node| match *node {
                RegNodeKind::Split {
                    feature, threshold, ..
                } => Some((feature, threshold)),
                RegNodeKind::Leaf { .. } => None,
            })
        });
        PredicateUniverse::from_splits(splits, self.n_features)
    }
}

/// Enumerates the forest's root→leaf paths in predicate space; the leaf
/// value rides in [`BinaryPath::weight`] (class is unused and set to 0), so
/// Bolt's weighted-vote machinery aggregates regression sums unchanged.
#[must_use]
pub fn enumerate_regression_paths(
    forest: &RegressionForest,
    universe: &PredicateUniverse,
) -> Vec<BinaryPath> {
    let mut out = Vec::new();
    for (tree_id, tree) in forest.trees().iter().enumerate() {
        for mut path in tree.binary_paths(universe) {
            path.tree = tree_id as u32;
            out.push(path);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_dataset(seed: u64) -> RegressionDataset {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100) as f32 / 10.0
        };
        let rows: Vec<Vec<f32>> = (0..300).map(|_| vec![next(), next()]).collect();
        let targets: Vec<f32> = rows.iter().map(|r| 2.0 * r[0] - r[1] + 5.0).collect();
        RegressionDataset::from_rows(rows, targets).expect("valid")
    }

    #[test]
    fn learns_a_linear_function() {
        let data = linear_dataset(1);
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(10).with_max_height(6).with_seed(2),
        );
        let mse = forest.mse(&data);
        // Baseline: predicting the global mean.
        let mean: f64 = data.iter().map(|(_, t)| f64::from(t)).sum::<f64>() / data.len() as f64;
        let variance: f64 = data
            .iter()
            .map(|(_, t)| (f64::from(t) - mean).powi(2))
            .sum::<f64>()
            / data.len() as f64;
        assert!(mse < variance / 4.0, "mse {mse} vs variance {variance}");
    }

    #[test]
    fn deterministic_training() {
        let data = linear_dataset(5);
        let cfg = RegressionConfig::new(4).with_seed(7);
        assert_eq!(
            RegressionForest::train(&data, &cfg),
            RegressionForest::train(&data, &cfg)
        );
    }

    #[test]
    fn paths_cover_all_leaves_and_sum_matches_predict() {
        let data = linear_dataset(3);
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(5).with_max_height(4).with_seed(9),
        );
        let universe = forest.universe();
        let paths = enumerate_regression_paths(&forest, &universe);
        let total_leaves: usize = forest.trees().iter().map(RegressionTree::n_leaves).sum();
        assert!(paths.len() <= total_leaves);
        for (sample, _) in data.iter().take(40) {
            let bits = universe.evaluate(sample);
            let matched_sum: f64 = paths
                .iter()
                .filter(|p| p.matches(&bits))
                .map(|p| p.weight)
                .sum();
            let expected = f64::from(forest.predict(sample)) * forest.n_trees() as f64;
            assert!(
                (matched_sum - expected).abs() < 1e-3,
                "path sum {matched_sum} vs forest sum {expected}"
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(RegressionDataset::from_rows(vec![], vec![]).is_err());
        assert!(RegressionDataset::from_rows(vec![vec![1.0]], vec![f32::NAN]).is_err());
        assert!(
            RegressionDataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 1.0]).is_err()
        );
    }

    #[test]
    fn height_zero_gives_global_mean() {
        let data = linear_dataset(8);
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(3).with_max_height(0).with_seed(1),
        );
        let p = forest.predict(data.sample(0));
        let mean: f32 =
            (data.iter().map(|(_, t)| f64::from(t)).sum::<f64>() / data.len() as f64) as f32;
        assert!((p - mean).abs() < 1.0, "prediction {p} vs mean {mean}");
    }
}
