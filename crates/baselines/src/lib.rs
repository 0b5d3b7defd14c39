//! Rust re-implementations of the inference strategies Bolt is evaluated
//! against in the paper (§2.1, §6): Python Scikit-Learn, Ranger, and Forest
//! Packing.
//!
//! The paper compares *memory-layout and branching strategies*, not
//! languages, so each baseline here reproduces the platform's strategy
//! faithfully in Rust on the same [`RandomForest`](bolt_forest::RandomForest)
//! substrate:
//!
//! * [`ScikitLikeForest`] — one heap object per node with verbose metadata,
//!   pointer-chasing traversal, and scikit-learn's per-call input
//!   validation/copy and per-tree probability aggregation.
//! * [`RangerLikeForest`] — compact per-tree node arrays in breadth-first
//!   order, "avoiding copies of the original data, saving node information
//!   in simple data structures"; shines when queries are batched, which its
//!   [`classify_batch`](RangerLikeForest::classify_batch) exposes.
//! * [`ForestPackingForest`] — Browne et al.'s packed layout: depth-first
//!   node order with the *hot* (most frequently taken, estimated from
//!   calibration data) child placed inline so hot paths stay within
//!   consecutive cache lines, trees packed into one contiguous arena.
//!
//! Every engine is a pure re-layout of the same trained forest, so all of
//! them classify identically to
//! [`RandomForest::predict`](bolt_forest::RandomForest::predict) — the
//! crate's tests enforce it.
//!
//! # Examples
//!
//! ```
//! use bolt_baselines::{InferenceEngine, ScikitLikeForest};
//! use bolt_forest::{Dataset, ForestConfig, RandomForest};
//!
//! let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
//! let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
//! let data = Dataset::from_rows(rows, labels, 2)?;
//! let forest = RandomForest::train(&data, &ForestConfig::new(3).with_seed(1));
//! let engine = ScikitLikeForest::from_forest(&forest);
//! assert_eq!(engine.classify(&[3.0]), forest.predict(&[3.0]));
//! # Ok::<(), bolt_forest::ForestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod forest_packing;
mod ranger_like;
mod scikit_like;

pub use forest_packing::ForestPackingForest;
pub use ranger_like::RangerLikeForest;
pub use scikit_like::ScikitLikeForest;

/// A single-sample classification engine, the interface the paper's
/// inference service drives (§4.5: "the front-end can connect to other
/// forest implementations").
pub trait InferenceEngine: Send + Sync {
    /// Platform name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Classifies one sample.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the sample is shorter than the forest's
    /// feature count.
    fn classify(&self, sample: &[f32]) -> u32;

    /// Classifies a batch of samples, returning one class per sample in
    /// order.
    ///
    /// The default loops over [`classify`](Self::classify); engines with a
    /// genuinely batched path (Bolt's batch encode, Ranger's tree-major
    /// sweep) override this to share work across the whole batch.
    ///
    /// # Panics
    ///
    /// Implementations may panic if any sample is shorter than the forest's
    /// feature count.
    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        samples.iter().map(|s| self.classify(s)).collect()
    }
}

impl<T: InferenceEngine + ?Sized> InferenceEngine for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        (**self).classify(sample)
    }

    // Forward explicitly so an engine's batched override is not lost
    // behind the default when called through a reference.
    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        (**self).classify_batch(samples)
    }
}

/// Shared-ownership forwarding: one engine (one compiled forest) can back
/// several registered model names or several servers at once.
impl<T: InferenceEngine + ?Sized> InferenceEngine for std::sync::Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        (**self).classify(sample)
    }

    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        (**self).classify_batch(samples)
    }
}

impl<T: InferenceEngine + ?Sized> InferenceEngine for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        (**self).classify(sample)
    }

    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        (**self).classify_batch(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_are_object_safe() {
        fn _takes_dyn(_e: &dyn InferenceEngine) {}
    }

    #[test]
    fn smart_pointer_forwarding_preserves_batched_override() {
        struct Probe;
        impl InferenceEngine for Probe {
            fn name(&self) -> &'static str {
                "Probe"
            }
            fn classify(&self, _sample: &[f32]) -> u32 {
                1
            }
            fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
                vec![7; samples.len()] // distinguishable from the default
            }
        }
        let arc: std::sync::Arc<dyn InferenceEngine> = std::sync::Arc::new(Probe);
        assert_eq!(arc.name(), "Probe");
        assert_eq!(arc.classify_batch(&[&[0.0], &[0.0]]), vec![7, 7]);
        let boxed: Box<dyn InferenceEngine> = Box::new(Probe);
        assert_eq!(boxed.classify_batch(&[&[0.0]]), vec![7]);
    }
}
