//! Decision-tree and random-forest substrate for the Bolt reproduction.
//!
//! The Bolt paper (Middleware '22) trains its forests with Python
//! Scikit-Learn and converts each tree to DOT files before compiling them to
//! lookup tables. This crate is the from-scratch Rust equivalent of that
//! substrate:
//!
//! * [`Dataset`] — dense feature matrix + class labels with split helpers.
//! * [`DecisionTree`] — binary threshold trees (`feature <= threshold`)
//!   trained with CART/Gini ([`TreeConfig`]).
//! * [`RandomForest`] — bagged ensembles with per-split feature sub-sampling
//!   ([`ForestConfig`]), majority-vote prediction.
//! * [`BoostedForest`] — SAMME-style boosted ensembles whose per-tree weights
//!   exercise Bolt's weighted-path support (§5 of the paper).
//! * [`DeepForest`] — multi-layer (gcForest-style) forests where each layer's
//!   class-probability output is appended to the next layer's input (§4.6).
//! * [`PredicateUniverse`] / [`BinaryPath`] — the forest-wide binarization
//!   Bolt operates on: every distinct `(feature, threshold)` split becomes a
//!   binary predicate, and every root→leaf path becomes a sorted list of
//!   `(predicate, bool)` pairs (§4, Fig. 3 step 1).
//! * [`dot`] — DOT export/import mirroring the paper's scikit-learn → DOT →
//!   Bolt pipeline.
//!
//! # Examples
//!
//! ```
//! use bolt_forest::{Dataset, ForestConfig, RandomForest};
//!
//! // Tiny two-class problem: class = (x0 > 0.5).
//! let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 2) as f32, i as f32]).collect();
//! let labels: Vec<u32> = (0..40).map(|i| (i % 2) as u32).collect();
//! let data = Dataset::from_rows(rows, labels, 2)?;
//! let forest = RandomForest::train(&data, &ForestConfig::new(5).with_max_height(3).with_seed(7));
//! assert_eq!(forest.predict(&[1.0, 3.0]), 1);
//! # Ok::<(), bolt_forest::ForestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binarize;
mod boost;
pub mod csv;
mod dataset;
mod deep;
pub mod dot;
mod error;
mod forest;
mod gbt;
mod quantize;
mod regression;
mod train;
mod tree;

pub use binarize::{
    enumerate_paths, enumerate_weighted_paths, BinaryPath, PredId, Predicate, PredicateUniverse,
};
pub use boost::{BoostConfig, BoostedForest};
pub use dataset::Dataset;
pub use deep::{DeepForest, DeepForestConfig};
pub use error::ForestError;
pub use forest::{ForestConfig, OobReport, RandomForest};
pub use gbt::{GbtConfig, GradientBoostedRegressor};
pub use quantize::Quantizer;
pub use regression::{
    enumerate_regression_paths, RegNodeKind, RegressionConfig, RegressionDataset, RegressionForest,
    RegressionTree,
};
pub use train::TreeConfig;
pub use tree::{DecisionTree, NodeId, NodeKind, TreePath};
