//! Forest-Packing-style inference (Browne et al., SDM '19).
//!
//! Forest Packing "restructures trees so that hot paths can be processed in
//! one access to processor cache ... storing trees in depth-first order.
//! Nodes in the same path are loaded into the same cache line ... paths are
//! organized by how frequently they are accessed in testing data" (§2 of
//! the Bolt paper). This engine reproduces that layout:
//!
//! * node visit frequencies are estimated from a calibration dataset,
//! * each tree is serialized depth-first with the *hot* child placed
//!   immediately after its parent (so the hot path is a straight run of
//!   consecutive nodes — implicit next-node, no pointer for the hot edge),
//! * all trees live in one contiguous arena of 16-byte nodes.

use crate::InferenceEngine;
use bolt_forest::{Dataset, NodeKind, RandomForest};

/// A packed node: the hot child is implicitly `self + 1`; only the cold
/// child needs an explicit index.
#[derive(Clone, Copy, Debug)]
struct PackedNode {
    /// Split feature, or `u32::MAX` for leaves.
    feature: u32,
    /// Split threshold.
    threshold: f32,
    /// Arena index of the cold child; for leaves, the class.
    cold_or_class: u32,
    /// Whether the hot (inline) child is the *left* (`<=`) branch.
    hot_is_left: bool,
}

const LEAF: u32 = u32::MAX;

/// A forest packed into one depth-first, hot-path-first arena.
#[derive(Clone, Debug)]
pub struct ForestPackingForest {
    arena: Vec<PackedNode>,
    roots: Vec<u32>,
    n_classes: usize,
    n_features: usize,
}

impl ForestPackingForest {
    /// Packs a trained forest, using `calibration` to estimate per-node hit
    /// frequencies (Forest Packing uses testing data for this, which the
    /// Bolt paper critiques).
    ///
    /// # Panics
    ///
    /// Panics if `calibration` has fewer features than the forest expects.
    #[must_use]
    pub fn from_forest(forest: &RandomForest, calibration: &Dataset) -> Self {
        let mut arena = Vec::new();
        let mut roots = Vec::with_capacity(forest.n_trees());
        for tree in forest.trees() {
            // Count how often each node is visited by calibration samples.
            let nodes = tree.nodes();
            let mut hits = vec![0u64; nodes.len()];
            for (sample, _) in calibration.iter() {
                let mut id = 0u32;
                loop {
                    hits[id as usize] += 1;
                    match nodes[id as usize] {
                        NodeKind::Leaf { .. } => break,
                        NodeKind::Split {
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
            roots.push(arena.len() as u32);
            pack_depth_first(nodes, &hits, 0, &mut arena);
        }
        Self {
            arena,
            roots,
            n_classes: forest.n_classes(),
            n_features: forest.n_features(),
        }
    }

    /// Number of trees.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total packed nodes across trees.
    #[must_use]
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Arena bytes (16 bytes per node).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<PackedNode>()
    }

    fn tree_class(&self, root: u32, sample: &[f32]) -> u32 {
        let mut idx = root;
        loop {
            let node = self.arena[idx as usize];
            if node.feature == LEAF {
                return node.cold_or_class;
            }
            let goes_left = sample[node.feature as usize] <= node.threshold;
            idx = if goes_left == node.hot_is_left {
                idx + 1 // hot path: the very next node
            } else {
                node.cold_or_class
            };
        }
    }
}

/// Serializes the subtree at `id` depth-first with the hot child inline.
/// Returns the arena index of the serialized node.
fn pack_depth_first(nodes: &[NodeKind], hits: &[u64], id: u32, arena: &mut Vec<PackedNode>) -> u32 {
    let my_index = arena.len() as u32;
    match nodes[id as usize] {
        NodeKind::Leaf { class } => {
            arena.push(PackedNode {
                feature: LEAF,
                threshold: 0.0,
                cold_or_class: class,
                hot_is_left: false,
            });
        }
        NodeKind::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let hot_is_left = hits[left as usize] >= hits[right as usize];
            let (hot, cold) = if hot_is_left {
                (left, right)
            } else {
                (right, left)
            };
            // Reserve our slot, then lay the hot subtree immediately after
            // so the hot path is a consecutive run.
            arena.push(PackedNode {
                feature,
                threshold,
                cold_or_class: 0, // patched below
                hot_is_left,
            });
            let hot_index = pack_depth_first(nodes, hits, hot, arena);
            debug_assert_eq!(hot_index, my_index + 1);
            let cold_index = pack_depth_first(nodes, hits, cold, arena);
            arena[my_index as usize].cold_or_class = cold_index;
        }
    }
    my_index
}

impl InferenceEngine for ForestPackingForest {
    fn name(&self) -> &'static str {
        "FP"
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
        for &root in &self.roots {
            votes[self.tree_class(root, sample) as usize] += 1;
        }
        let mut best = 0usize;
        for (i, &count) in votes.iter().enumerate().skip(1) {
            if count > votes[best] {
                best = i;
            }
        }
        best as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_forest::ForestConfig;

    fn fixture() -> (Dataset, RandomForest, ForestPackingForest) {
        let rows: Vec<Vec<f32>> = (0..120)
            .map(|i| vec![(i % 10) as f32, (i % 6) as f32])
            .collect();
        // Skewed labels so some paths are much hotter than others.
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 7.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(8).with_max_height(4).with_seed(29),
        );
        let engine = ForestPackingForest::from_forest(&forest, &data);
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
    fn equivalent_on_unseen_inputs() {
        let (_, forest, engine) = fixture();
        for i in 0..80 {
            let sample = vec![i as f32 * 0.37 - 2.0, i as f32 * 0.91];
            assert_eq!(engine.classify(&sample), forest.predict(&sample));
        }
    }

    #[test]
    fn arena_holds_every_node_exactly_once() {
        let (_, forest, engine) = fixture();
        let expected: usize = forest.trees().iter().map(|t| t.nodes().len()).sum();
        assert_eq!(engine.arena_len(), expected);
        assert_eq!(engine.arena_bytes(), expected * 16);
    }

    #[test]
    fn hot_path_is_consecutive() {
        // Follow the hot edge from each root; indices must increment by 1.
        let (_, _, engine) = fixture();
        for &root in &engine.roots {
            let mut idx = root;
            let mut steps = 0;
            while engine.arena[idx as usize].feature != LEAF {
                idx += 1; // hot edge is always inline
                steps += 1;
                assert!(steps <= 64, "runaway hot path");
            }
        }
    }

    #[test]
    fn hot_child_is_the_frequent_one() {
        // With labels skewed to r[0] <= 7 (80% of data), most roots' hot
        // edges should cover the majority of calibration traffic.
        let (data, forest, engine) = fixture();
        // Re-derive first-tree root traffic.
        let tree = &forest.trees()[0];
        if let NodeKind::Split {
            feature,
            threshold,
            left,
            right,
        } = tree.nodes()[0]
        {
            let mut left_hits = 0u64;
            let mut right_hits = 0u64;
            for (sample, _) in data.iter() {
                if sample[feature as usize] <= threshold {
                    left_hits += 1;
                } else {
                    right_hits += 1;
                }
            }
            let root = engine.arena[engine.roots[0] as usize];
            assert_eq!(root.hot_is_left, left_hits >= right_hits);
            let _ = (left, right);
        }
    }

    #[test]
    fn name_matches_figures() {
        let (_, _, engine) = fixture();
        assert_eq!(engine.name(), "FP");
    }
}
