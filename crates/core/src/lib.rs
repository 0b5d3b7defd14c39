//! Bolt: fast inference for random forests (Middleware '22 reproduction).
//!
//! Bolt transforms a fully trained random forest from an ensemble of decision
//! trees into an ensemble of *lookup tables*. The pipeline (Fig. 1 of the
//! paper) has three phases:
//!
//! 1. **Clustering & compression** (§4.1, [`cluster`], [`paths`]) — every
//!    root→leaf path of every tree is enumerated in predicate space, sorted
//!    lexicographically, merged forest-wide, and greedily clustered until a
//!    tunable threshold of uncommon feature-value pairs is reached. Each
//!    cluster becomes a dictionary entry whose *common* pairs form a
//!    branch-free membership key and whose *uncommon* predicates form the
//!    lookup-table address bits.
//! 2. **Parameter selection** (§4.2, [`tuning`]) — the clustering threshold
//!    and the dictionary/table partition counts are swept, trading dictionary
//!    scan time against table storage, and the best setting is selected for
//!    the given hardware.
//! 3. **Filtering** (§4.3–4.4, [`filter`], [`table`]) — per-entry bit-mask
//!    tests plus a bloom filter over the recombined table's keys discard
//!    irrelevant entries without memory accesses; surviving lookups are
//!    verified against the stored dictionary entry ID so false positives are
//!    rejected after at most one table access.
//!
//! The compiled artifact is a [`BoltForest`]: one [`Dictionary`], one
//! recombined [`RecombinedTable`], and the forest's
//! [`PredicateUniverse`](bolt_forest::PredicateUniverse). Inference is a
//! linear scan of the dictionary using word-wide masked compares followed by
//! at most one verified table access per matching entry — no pointer chasing
//! and no per-node branching. The single-sample paths that start from raw
//! features match the dictionary through a derived entry-bitmap [`index`]
//! instead — one bitset row per feature, ANDed — and reach the same entries
//! in the same order as the scan. When many samples arrive together, the
//! batched engine ([`BoltForest::classify_batch_with`]) shares the one
//! stage a batch can share — it evaluates each feature's predicates for the
//! whole batch at once — and matches every sample through the same index,
//! and [`BoltForest::classify_batch_sharded`] splits a batch across threads
//! with per-shard scratch.
//!
//! # Quick start
//!
//! ```
//! use bolt_core::{BoltConfig, BoltForest};
//! use bolt_forest::{Dataset, ForestConfig, RandomForest};
//!
//! // Train a small forest (stand-in for scikit-learn in the paper).
//! let rows: Vec<Vec<f32>> = (0..60).map(|i| vec![(i % 6) as f32, (i % 5) as f32]).collect();
//! let labels: Vec<u32> = (0..60).map(|i| u32::from(i % 6 > 2)).collect();
//! let data = Dataset::from_rows(rows, labels, 2)?;
//! let forest = RandomForest::train(&data, &ForestConfig::new(5).with_max_height(3).with_seed(1));
//!
//! // Compile it to lookup tables and classify with one structure.
//! let bolt = BoltForest::compile(&forest, &BoltConfig::default())?;
//! for (sample, _) in data.iter() {
//!     assert_eq!(bolt.classify(sample), forest.predict(sample)); // safety (§4 fn. 1)
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid` so the one function that issues a cache
// prefetch hint ([`simd::prefetch`]) can opt in with a function-scoped
// `allow`; everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod cluster;
pub mod deep;
mod dictionary;
mod engine;
mod error;
pub mod explain;
pub mod filter;
pub mod index;
pub mod layout;
pub mod oracle;
pub mod parallel;
pub mod paths;
pub mod regress;
pub mod simd;
pub mod table;
pub mod tuning;

pub use batch::BatchScratch;
pub use cluster::{Cluster, Clustering};
pub use deep::DeepBolt;
pub use dictionary::{DictEntry, DictView, Dictionary};
pub use engine::{BoltConfig, BoltForest, BoltScratch, ForestView, InferenceStats};
pub use error::BoltError;
pub use explain::Explanation;
pub use filter::{BloomFilter, BloomView};
pub use index::{EntryIndex, IndexView};
pub use layout::{LayoutReport, SectionBytes};
pub use parallel::{PartitionPlan, PartitionedBolt};
pub use regress::{Aggregation, BoltRegressor};
pub use table::{RecombinedTable, TableCell, TableView, Votes, EMPTY_SLOT_ENTRY};
pub use tuning::{CostModel, ParameterSearch, Trial, TuningReport};
