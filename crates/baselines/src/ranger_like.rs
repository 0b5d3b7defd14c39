//! Ranger-style inference: compact breadth-first node arrays and batching.
//!
//! Ranger (Wright & Ziegler) "processes trees in a breadth-first order, and
//! does not differ in principle from traditional tree execution; instead it
//! optimizes storage by avoiding copies of the original data [and] saving
//! node information in simple data structures" (§2.1). Its strength is
//! batched queries; as a single-sample service "the absence of lookup
//! tables hurts the performance".

use crate::InferenceEngine;
use bolt_forest::{NodeKind, RandomForest};

/// One compact node: 16 bytes, stored in a flat per-tree vector laid out in
/// breadth-first order (as Ranger's simple `std::vector` structures are).
#[derive(Clone, Copy, Debug)]
struct CompactNode {
    /// Split feature, or `u32::MAX` for leaves.
    feature: u32,
    /// Split threshold; for leaves, unused.
    threshold: f32,
    /// Left child index; for leaves, the class.
    left_or_class: u32,
    /// Right child index; for leaves, unused.
    right: u32,
}

const LEAF: u32 = u32::MAX;

/// A forest re-laid out Ranger-style.
#[derive(Clone, Debug)]
pub struct RangerLikeForest {
    /// Per-tree breadth-first node arrays.
    trees: Vec<Vec<CompactNode>>,
    n_classes: usize,
    n_features: usize,
}

impl RangerLikeForest {
    /// Re-lays a trained forest as breadth-first compact arrays.
    #[must_use]
    pub fn from_forest(forest: &RandomForest) -> Self {
        let trees = forest
            .trees()
            .iter()
            .map(|tree| {
                // Breadth-first renumbering of the arena.
                let nodes = tree.nodes();
                let mut order = Vec::with_capacity(nodes.len());
                let mut remap = vec![u32::MAX; nodes.len()];
                let mut queue = std::collections::VecDeque::from([0u32]);
                while let Some(id) = queue.pop_front() {
                    remap[id as usize] = order.len() as u32;
                    order.push(id);
                    if let NodeKind::Split { left, right, .. } = nodes[id as usize] {
                        queue.push_back(left);
                        queue.push_back(right);
                    }
                }
                order
                    .iter()
                    .map(|&id| match nodes[id as usize] {
                        NodeKind::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        } => CompactNode {
                            feature,
                            threshold,
                            left_or_class: remap[left as usize],
                            right: remap[right as usize],
                        },
                        NodeKind::Leaf { class } => CompactNode {
                            feature: LEAF,
                            threshold: 0.0,
                            left_or_class: class,
                            right: 0,
                        },
                    })
                    .collect()
            })
            .collect();
        Self {
            trees,
            n_classes: forest.n_classes(),
            n_features: forest.n_features(),
        }
    }

    /// Number of trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    fn tree_class(tree: &[CompactNode], sample: &[f32]) -> u32 {
        let mut node = tree[0];
        while node.feature != LEAF {
            let next = if sample[node.feature as usize] <= node.threshold {
                node.left_or_class
            } else {
                node.right
            };
            node = tree[next as usize];
        }
        node.left_or_class
    }

    /// Classifies a whole batch, amortizing per-call setup by iterating
    /// tree-major (every tree stays cache-resident while the batch streams
    /// through it) — the batching advantage §2.1 credits Ranger with.
    ///
    /// # Panics
    ///
    /// Panics if any sample is shorter than the feature count.
    #[must_use]
    pub fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        let mut votes = vec![vec![0u32; self.n_classes]; samples.len()];
        for tree in &self.trees {
            for (s, sample) in samples.iter().enumerate() {
                assert!(sample.len() >= self.n_features);
                let class = Self::tree_class(tree, sample);
                votes[s][class as usize] += 1;
            }
        }
        votes
            .iter()
            .map(|v| {
                let mut best = 0usize;
                for (i, &count) in v.iter().enumerate().skip(1) {
                    if count > v[best] {
                        best = i;
                    }
                }
                best as u32
            })
            .collect()
    }
}

impl InferenceEngine for RangerLikeForest {
    fn name(&self) -> &'static str {
        "Ranger"
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        assert!(
            sample.len() >= self.n_features,
            "sample has {} features, forest expects {}",
            sample.len(),
            self.n_features
        );
        let mut votes = vec![0u32; self.n_classes];
        for tree in &self.trees {
            votes[Self::tree_class(tree, sample) as usize] += 1;
        }
        let mut best = 0usize;
        for (i, &count) in votes.iter().enumerate().skip(1) {
            if count > votes[best] {
                best = i;
            }
        }
        best as u32
    }

    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        Self::classify_batch(self, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_forest::{Dataset, ForestConfig};

    fn fixture() -> (Dataset, RandomForest, RangerLikeForest) {
        let rows: Vec<Vec<f32>> = (0..90)
            .map(|i| vec![(i % 9) as f32, (i % 4) as f32])
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 4.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(6).with_max_height(4).with_seed(19),
        );
        let engine = RangerLikeForest::from_forest(&forest);
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
    fn batch_matches_single_sample_path() {
        let (data, _, engine) = fixture();
        let samples: Vec<&[f32]> = (0..data.len()).map(|i| data.sample(i)).collect();
        let batched = engine.classify_batch(&samples);
        for (i, &class) in batched.iter().enumerate() {
            assert_eq!(class, engine.classify(samples[i]));
        }
    }

    #[test]
    fn breadth_first_root_is_first() {
        let (_, forest, engine) = fixture();
        assert_eq!(engine.n_trees(), forest.n_trees());
        // The first node of each compact tree must behave like the root.
        for (tree, compact) in forest.trees().iter().zip(&engine.trees) {
            match tree.nodes()[0] {
                NodeKind::Split { feature, .. } => assert_eq!(compact[0].feature, feature),
                NodeKind::Leaf { class } => {
                    assert_eq!(compact[0].feature, LEAF);
                    assert_eq!(compact[0].left_or_class, class);
                }
            }
        }
    }

    #[test]
    fn name_matches_figures() {
        let (_, _, engine) = fixture();
        assert_eq!(engine.name(), "Ranger");
    }
}
