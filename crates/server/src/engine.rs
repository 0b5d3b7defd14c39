//! Engine adapters for the service.

use bolt_artifact::MappedForest;
use bolt_baselines::InferenceEngine;
use bolt_core::{BatchScratch, BoltForest, BoltScratch};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// One scratch per serving thread, shared by every engine the thread
    /// runs: a request allocates nothing, and a scratch that last served a
    /// model of another shape is resized by the inference body itself.
    static SCRATCH: RefCell<BoltScratch> = RefCell::new(BoltScratch::default());

    /// Its batched counterpart, for batch frames and micro-batch groups:
    /// they run on the calling worker, whose pool is already the service's
    /// parallelism.
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// Adapts a compiled [`BoltForest`] to the [`InferenceEngine`] interface so
/// the front-end can host Bolt and the baselines interchangeably (§4.5:
/// "the front-end can connect to other forest implementations").
///
/// Register it in a [`ModelRegistry`](crate::ModelRegistry) as
/// `Arc<BoltEngine>` (via [`ServerBuilder`](crate::ServerBuilder)); the
/// adapter itself holds the forest behind an `Arc`, so cloning the engine
/// — or registering one `Arc<BoltEngine>` under several model names —
/// shares a single compiled forest rather than duplicating it.
#[derive(Clone, Debug)]
pub struct BoltEngine {
    bolt: Arc<BoltForest>,
}

impl BoltEngine {
    /// Wraps a compiled forest.
    #[must_use]
    pub fn new(bolt: Arc<BoltForest>) -> Self {
        Self { bolt }
    }

    /// The wrapped forest.
    #[must_use]
    pub fn bolt(&self) -> &BoltForest {
        &self.bolt
    }
}

impl InferenceEngine for BoltEngine {
    fn name(&self) -> &'static str {
        "BOLT"
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        SCRATCH.with_borrow_mut(|scratch| self.bolt.classify_with(sample, scratch))
    }

    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        let mut out = Vec::with_capacity(samples.len());
        BATCH_SCRATCH
            .with_borrow_mut(|scratch| self.bolt.classify_batch_with(samples, scratch, &mut out));
        out
    }
}

/// Adapts a memory-mapped `.blt` artifact ([`MappedForest`]) to the
/// [`InferenceEngine`] interface, so `boltd` can serve a model straight off
/// disk — zero heap copy of the structures — and hot-swap it for a freshly
/// mapped file under live traffic via
/// [`ModelRegistry::register`](crate::ModelRegistry::register).
#[derive(Clone)]
pub struct ArtifactEngine {
    model: Arc<MappedForest>,
}

impl ArtifactEngine {
    /// Wraps an already-mapped artifact.
    #[must_use]
    pub fn new(model: Arc<MappedForest>) -> Self {
        Self { model }
    }

    /// Maps and validates the artifact at `path`.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, bolt_artifact::ArtifactError> {
        Ok(Self::new(Arc::new(MappedForest::open(path)?)))
    }

    /// The wrapped mapped model.
    #[must_use]
    pub fn model(&self) -> &MappedForest {
        &self.model
    }
}

impl InferenceEngine for ArtifactEngine {
    fn name(&self) -> &'static str {
        "BOLT-BLT"
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        SCRATCH.with_borrow_mut(|scratch| self.model.classify_with(sample, scratch))
    }

    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        let mut out = Vec::with_capacity(samples.len());
        BATCH_SCRATCH
            .with_borrow_mut(|scratch| self.model.classify_batch_with(samples, scratch, &mut out));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_core::BoltConfig;
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    #[test]
    fn adapter_batches_match_forest() {
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(&data, &ForestConfig::new(3).with_seed(5));
        let bolt =
            Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
        let engine = BoltEngine::new(bolt);
        let samples: Vec<&[f32]> = (0..data.len()).map(|i| data.sample(i)).collect();
        let classes = engine.classify_batch(&samples);
        for (i, &class) in classes.iter().enumerate() {
            assert_eq!(class, forest.predict(samples[i]));
        }
    }

    #[test]
    fn adapter_matches_forest() {
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(&data, &ForestConfig::new(3).with_seed(5));
        let bolt =
            Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
        let engine = BoltEngine::new(bolt);
        assert_eq!(engine.name(), "BOLT");
        for (sample, _) in data.iter() {
            assert_eq!(engine.classify(sample), forest.predict(sample));
        }
    }
}
