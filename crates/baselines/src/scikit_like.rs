//! Scikit-Learn-style inference: heap-scattered node objects, per-call
//! input validation, and per-tree probability aggregation.
//!
//! Scikit-learn's `RandomForestClassifier.predict` on a single sample (the
//! paper's no-batching service regime, §6) pays for: converting/validating
//! the input into a fresh `float64` array, walking each tree's node objects
//! through pointers, materializing every tree's class-probability vector,
//! and averaging them before the argmax. This engine reproduces exactly
//! those costs in Rust. (The *additional* Python-interpreter overhead that
//! inflates the paper's absolute Scikit numbers is out of scope; see
//! EXPERIMENTS.md.)

use crate::InferenceEngine;
use bolt_forest::{NodeKind, RandomForest};

/// One verbose node object, boxed individually like a CPython object graph.
#[derive(Debug)]
enum ObjNode {
    Split {
        feature: usize,
        threshold: f64,
        // Boxed children: every hop is a pointer dereference.
        left: Box<ObjNode>,
        right: Box<ObjNode>,
        // Verbose metadata scikit keeps on every node.
        #[allow(dead_code)]
        impurity: f64,
        #[allow(dead_code)]
        n_node_samples: u64,
    },
    Leaf {
        // sklearn's tree_.value: per-class vote distribution, even though
        // only the argmax is needed.
        value: Vec<f64>,
    },
}

impl ObjNode {
    fn from_arena(nodes: &[NodeKind], id: u32, n_classes: usize) -> Self {
        match nodes[id as usize] {
            NodeKind::Split {
                feature,
                threshold,
                left,
                right,
            } => Self::Split {
                feature: feature as usize,
                threshold: f64::from(threshold),
                left: Box::new(Self::from_arena(nodes, left, n_classes)),
                right: Box::new(Self::from_arena(nodes, right, n_classes)),
                impurity: 0.5,
                n_node_samples: 0,
            },
            NodeKind::Leaf { class } => {
                let mut value = vec![0.0f64; n_classes];
                value[class as usize] = 1.0;
                Self::Leaf { value }
            }
        }
    }

    fn proba<'a>(&'a self, sample: &[f64]) -> &'a [f64] {
        match self {
            Self::Leaf { value } => value,
            Self::Split {
                feature,
                threshold,
                left,
                right,
                ..
            } => {
                if sample[*feature] <= *threshold {
                    left.proba(sample)
                } else {
                    right.proba(sample)
                }
            }
        }
    }
}

/// A forest re-laid out in scikit-learn's object-graph style.
#[derive(Debug)]
pub struct ScikitLikeForest {
    trees: Vec<ObjNode>,
    n_features: usize,
    n_classes: usize,
}

impl ScikitLikeForest {
    /// Re-lays a trained forest as boxed node objects.
    #[must_use]
    pub fn from_forest(forest: &RandomForest) -> Self {
        let trees = forest
            .trees()
            .iter()
            .map(|t| ObjNode::from_arena(t.nodes(), 0, forest.n_classes()))
            .collect();
        Self {
            trees,
            n_features: forest.n_features(),
            n_classes: forest.n_classes(),
        }
    }

    /// Number of trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The averaged per-class probabilities for one sample, reproducing
    /// `predict_proba` (validation copy included).
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the feature count or contains a
    /// non-finite value (scikit's `check_array` rejects NaN/inf too).
    #[must_use]
    pub fn predict_proba(&self, sample: &[f32]) -> Vec<f64> {
        // check_array: validate and copy into a fresh float64 buffer.
        assert!(
            sample.len() >= self.n_features,
            "sample has {} features, forest expects {}",
            sample.len(),
            self.n_features
        );
        let validated: Vec<f64> = sample[..self.n_features]
            .iter()
            .map(|&v| {
                assert!(v.is_finite(), "input contains non-finite value");
                f64::from(v)
            })
            .collect();
        // Per-tree probability vectors, then the average.
        let mut acc = vec![0.0f64; self.n_classes];
        for tree in &self.trees {
            let p = tree.proba(&validated);
            for (a, &v) in acc.iter_mut().zip(p) {
                *a += v;
            }
        }
        let n = self.trees.len() as f64;
        acc.iter_mut().for_each(|a| *a /= n);
        acc
    }
}

impl InferenceEngine for ScikitLikeForest {
    fn name(&self) -> &'static str {
        "Scikit"
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        let proba = self.predict_proba(sample);
        let mut best = 0usize;
        for (i, &p) in proba.iter().enumerate().skip(1) {
            if p > proba[best] {
                best = i;
            }
        }
        best as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_forest::{Dataset, ForestConfig};

    fn fixture() -> (Dataset, RandomForest, ScikitLikeForest) {
        let rows: Vec<Vec<f32>> = (0..100)
            .map(|i| vec![(i % 10) as f32, (i % 7) as f32])
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 4.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(7).with_max_height(4).with_seed(11),
        );
        let engine = ScikitLikeForest::from_forest(&forest);
        (data, forest, engine)
    }

    #[test]
    fn equivalent_to_source_forest() {
        let (data, forest, engine) = fixture();
        for (sample, _) in data.iter() {
            assert_eq!(engine.classify(sample), forest.predict(sample));
        }
    }

    #[test]
    fn proba_matches_vote_fractions() {
        let (data, forest, engine) = fixture();
        for (sample, _) in data.iter().take(20) {
            let got = engine.predict_proba(sample);
            let expected = forest.predict_proba(sample);
            for (g, e) in got.iter().zip(&expected) {
                assert!((g - f64::from(*e)).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_like_check_array() {
        let (_, _, engine) = fixture();
        let _ = engine.classify(&[f32::NAN, 0.0]);
    }

    #[test]
    fn name_matches_figures() {
        let (_, _, engine) = fixture();
        assert_eq!(engine.name(), "Scikit");
        assert_eq!(engine.n_trees(), 7);
    }
}
