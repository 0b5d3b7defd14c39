//! Batched inference through the entry-bitmap index, with thread-parallel
//! batch sharding.
//!
//! After the index ([`crate::index`]) there is no per-entry compare left
//! for a batch to amortize: a sample is matched by ANDing one bitset row
//! per constraining feature group, whatever else arrives with it. What a
//! batch *can* still share is the predicate evaluation. So
//! [`ForestView::batch_votes_into`] encodes the whole batch group-major
//! ([`PredicateUniverse::evaluate_batch_into`]: one feature column against
//! one group's thresholds at a time, vectorized across samples), and then
//! runs every sample through exactly the per-sample body — constant votes,
//! index match over its run starts, bloom filter, verified table lookup,
//! vote adds in ascending entry order — into its row of one flat
//! `B × n_classes` arena. Same encoding, same additions in the same order:
//! vote vectors are **bit-identical** to [`BoltForest::classify_with`],
//! which the differential harness pins.
//!
//! On top of that, [`BoltForest::classify_batch_sharded`] shards a batch
//! across OS threads (crossbeam scoped threads), each shard with its own
//! [`BatchScratch`]; outputs land in disjoint slices so aggregation is a
//! single pass with no locking.

use crate::engine::{argmax, BoltForest, ForestView};
use bolt_forest::{BatchEncoding, PredicateUniverse};

/// Reusable buffers for allocation-free batched inference, mirroring
/// [`BoltScratch`](crate::BoltScratch) for the single-sample hot path: the
/// inference body sizes them to the model and batch it runs, so one scratch
/// per serving thread serves every model and batch size the thread sees.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    /// The batch's run starts and predicate bits.
    encoded: BatchEncoding,
    /// Index-row accumulator: one bit per dictionary entry.
    matched: Vec<u64>,
    /// Flat `n_samples × n_classes` vote arena.
    votes: Vec<f64>,
    n_classes: usize,
}

impl BatchScratch {
    /// Per-class vote weights of sample `b` from the most recent batch run
    /// — bit-identical to [`BoltForest::votes_for_bits`] on the same
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside the most recent batch.
    #[must_use]
    pub fn votes(&self, b: usize) -> &[f64] {
        assert!(
            b < self.len(),
            "sample {b} outside the last batch of {}",
            self.len()
        );
        &self.votes[b * self.n_classes..(b + 1) * self.n_classes]
    }

    /// Argmax class of sample `b` from the most recent batch run (ties go
    /// to the lower class, matching the per-sample engine).
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside the most recent batch.
    #[must_use]
    pub fn class(&self, b: usize) -> u32 {
        argmax(self.votes(b))
    }

    /// Number of samples laid out by the most recent run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.encoded.len()
    }

    /// Whether the most recent run was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.encoded.is_empty()
    }
}

impl ForestView<'_> {
    /// Votes for a whole batch: encodes `samples` group-major through
    /// `universe`, then runs the per-sample index body
    /// ([`Self::votes_with`]'s) over each, leaving every sample's vote
    /// vector in the scratch arena ([`BatchScratch::votes`]). This is the
    /// one batched body, shared by owned forests and memory-mapped
    /// artifacts.
    ///
    /// # Panics
    ///
    /// Panics if any sample is shorter than the universe's feature count or
    /// `universe` is not the one this view's model encodes with.
    pub fn batch_votes_into(
        &self,
        universe: &PredicateUniverse,
        samples: &[&[f32]],
        scratch: &mut BatchScratch,
    ) {
        let n_classes = self.n_classes();
        scratch.n_classes = n_classes;
        scratch.matched.resize(self.index().words(), 0);
        scratch.votes.clear();
        scratch.votes.resize(samples.len() * n_classes, 0.0);
        universe.evaluate_batch_into(samples, &mut scratch.encoded);
        for b in 0..samples.len() {
            self.index_votes_into(
                scratch.encoded.run_starts(b),
                scratch.encoded.words(b),
                &mut scratch.matched,
                &mut scratch.votes[b * n_classes..(b + 1) * n_classes],
                None,
            );
        }
    }
}

impl BoltForest {
    /// Creates a reusable scratch buffer for batched inference via
    /// [`Self::classify_batch_with`] (sized by its first use).
    #[must_use]
    pub fn batch_scratch(&self) -> BatchScratch {
        BatchScratch::default()
    }

    /// Runs the batch through [`ForestView::batch_votes_into`], leaving
    /// each sample's vote vector in the scratch arena
    /// ([`BatchScratch::votes`]).
    ///
    /// # Panics
    ///
    /// Panics if any sample is shorter than the universe's feature count.
    pub fn batch_votes_with(&self, samples: &[&[f32]], scratch: &mut BatchScratch) {
        self.view()
            .batch_votes_into(self.universe(), samples, scratch);
    }

    /// Allocation-free batched classification through a caller-owned
    /// scratch: classes are written into `out` (cleared first), index-for-
    /// index with `samples`. Identical results to calling
    /// [`Self::classify_with`] per sample.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::batch_votes_with`].
    pub fn classify_batch_with(
        &self,
        samples: &[&[f32]],
        scratch: &mut BatchScratch,
        out: &mut Vec<u32>,
    ) {
        self.batch_votes_with(samples, scratch);
        out.clear();
        out.extend((0..samples.len()).map(|b| argmax(scratch.votes(b))));
    }

    /// Convenience wrapper: batched classification with a fresh scratch.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::batch_votes_with`].
    #[must_use]
    pub fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        let mut scratch = self.batch_scratch();
        let mut out = Vec::with_capacity(samples.len());
        self.classify_batch_with(samples, &mut scratch, &mut out);
        out
    }

    /// Per-sample vote vectors for a batch (test/evaluation convenience
    /// over [`Self::batch_votes_with`]).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::batch_votes_with`].
    #[must_use]
    pub fn votes_batch(&self, samples: &[&[f32]]) -> Vec<Vec<f64>> {
        let mut scratch = self.batch_scratch();
        self.batch_votes_with(samples, &mut scratch);
        (0..samples.len())
            .map(|b| scratch.votes(b).to_vec())
            .collect()
    }

    /// Thread-parallel batched classification: the batch is split into
    /// `shards` contiguous chunks, each run through the batched body on its
    /// own scoped thread with a private [`BatchScratch`]; results
    /// land in disjoint output slices (one aggregation pass, no locking).
    /// Classes are identical to [`Self::classify_batch`] regardless of
    /// shard count.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::batch_votes_with`].
    #[must_use]
    pub fn classify_batch_sharded(&self, samples: &[&[f32]], shards: usize) -> Vec<u32> {
        let shards = shards.clamp(1, samples.len().max(1));
        if shards <= 1 {
            return self.classify_batch(samples);
        }
        let chunk = samples.len().div_ceil(shards);
        let mut out = vec![0u32; samples.len()];
        crossbeam::scope(|scope| {
            for (shard_samples, shard_out) in samples.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move |_| {
                    let mut scratch = self.batch_scratch();
                    let mut classes = Vec::with_capacity(shard_samples.len());
                    self.classify_batch_with(shard_samples, &mut scratch, &mut classes);
                    shard_out.copy_from_slice(&classes);
                });
            }
        })
        .expect("crossbeam scope");
        out
    }

    /// Sharded counterpart of [`Self::votes_batch`]: per-sample vote
    /// vectors computed shard-parallel. Used by the differential harness to
    /// pin the sharded path's votes bit-identically to the per-sample
    /// engine.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::batch_votes_with`].
    #[must_use]
    pub fn votes_batch_sharded(&self, samples: &[&[f32]], shards: usize) -> Vec<Vec<f64>> {
        let shards = shards.clamp(1, samples.len().max(1));
        if shards <= 1 {
            return self.votes_batch(samples);
        }
        let chunk = samples.len().div_ceil(shards);
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); samples.len()];
        crossbeam::scope(|scope| {
            for (shard_samples, shard_out) in samples.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move |_| {
                    let votes = self.votes_batch(shard_samples);
                    for (slot, votes) in shard_out.iter_mut().zip(votes) {
                        *slot = votes;
                    }
                });
            }
        })
        .expect("crossbeam scope");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoltConfig;
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    fn fixture() -> (Dataset, RandomForest, BoltForest) {
        let rows: Vec<Vec<f32>> = (0..140)
            .map(|i| vec![(i % 8) as f32, (i % 5) as f32, (i % 3) as f32])
            .collect();
        let labels: Vec<u32> = rows
            .iter()
            .map(|r| u32::from(r[0] + r[1] > 6.0) + u32::from(r[0] > 5.0))
            .collect();
        let data = Dataset::from_rows(rows, labels, 3).expect("valid");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(10).with_max_height(4).with_seed(17),
        );
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        (data, forest, bolt)
    }

    #[test]
    fn batch_classes_match_per_sample_engine() {
        let (data, forest, bolt) = fixture();
        let samples: Vec<&[f32]> = (0..data.len()).map(|i| data.sample(i)).collect();
        let batched = bolt.classify_batch(&samples);
        assert_eq!(batched.len(), samples.len());
        for (i, &class) in batched.iter().enumerate() {
            assert_eq!(class, forest.predict(samples[i]), "sample {i}");
        }
    }

    #[test]
    fn batch_votes_are_bit_identical_to_per_sample_votes() {
        let (data, _, bolt) = fixture();
        let samples: Vec<&[f32]> = (0..60).map(|i| data.sample(i)).collect();
        let mut scratch = bolt.batch_scratch();
        bolt.batch_votes_with(&samples, &mut scratch);
        for (b, sample) in samples.iter().enumerate() {
            let expected = bolt.votes_for_bits(&bolt.encode(sample));
            assert_eq!(scratch.votes(b), expected.as_slice(), "sample {b}");
        }
    }

    #[test]
    fn sharding_is_invisible_in_the_results() {
        let (data, _, bolt) = fixture();
        let samples: Vec<&[f32]> = (0..data.len()).map(|i| data.sample(i)).collect();
        let reference = bolt.classify_batch(&samples);
        for shards in [1, 2, 3, 7, samples.len(), samples.len() + 5] {
            assert_eq!(
                bolt.classify_batch_sharded(&samples, shards),
                reference,
                "{shards} shards"
            );
        }
        assert_eq!(
            bolt.votes_batch_sharded(&samples, 4),
            bolt.votes_batch(&samples)
        );
    }

    #[test]
    fn scratch_is_reusable_across_batch_sizes() {
        let (data, forest, bolt) = fixture();
        let mut scratch = bolt.batch_scratch();
        let mut out = Vec::new();
        for len in [1usize, 5, 3, 64, 2] {
            let samples: Vec<&[f32]> = (0..len).map(|i| data.sample(i)).collect();
            bolt.classify_batch_with(&samples, &mut scratch, &mut out);
            assert_eq!(out.len(), len);
            for (i, &class) in out.iter().enumerate() {
                assert_eq!(class, forest.predict(samples[i]), "len {len} sample {i}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_, _, bolt) = fixture();
        assert!(bolt.classify_batch(&[]).is_empty());
        assert!(bolt.classify_batch_sharded(&[], 4).is_empty());
        let mut scratch = bolt.batch_scratch();
        bolt.batch_votes_with(&[], &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn constant_vote_forests_batch_correctly() {
        use bolt_forest::{DecisionTree, NodeKind};
        let trees = vec![
            DecisionTree::from_nodes(vec![NodeKind::Leaf { class: 0 }], 1, 2),
            DecisionTree::from_nodes(vec![NodeKind::Leaf { class: 1 }], 1, 2),
            DecisionTree::from_nodes(vec![NodeKind::Leaf { class: 1 }], 1, 2),
        ];
        let forest = RandomForest::from_trees(trees).expect("forest");
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let samples: Vec<&[f32]> = vec![&[0.0], &[5.0]];
        assert_eq!(bolt.classify_batch(&samples), vec![1, 1]);
    }

    #[test]
    fn one_scratch_serves_models_of_different_shapes() {
        let (data, forest, bolt) = fixture();
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
        let other_data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let other_forest = RandomForest::train(&other_data, &ForestConfig::new(3).with_seed(5));
        let other = BoltForest::compile(&other_forest, &BoltConfig::default()).expect("compiles");
        assert_ne!(other.n_classes(), bolt.n_classes());
        assert_ne!(other.universe().len(), bolt.universe().len());
        // A scratch that last served another shape refits instead of
        // panicking, in either direction and at changing batch sizes.
        let mut scratch = other.batch_scratch();
        let mut out = Vec::new();
        for round in 0..3 {
            let samples: Vec<&[f32]> = (0..9 + round).map(|i| data.sample(i)).collect();
            bolt.classify_batch_with(&samples, &mut scratch, &mut out);
            for (i, sample) in samples.iter().enumerate() {
                assert_eq!(out[i], forest.predict(sample), "round {round} sample {i}");
                assert_eq!(
                    scratch.votes(i),
                    bolt.votes_for_bits(&bolt.encode(sample)).as_slice()
                );
            }
            let samples: Vec<&[f32]> = (0..4 + round).map(|i| other_data.sample(i)).collect();
            other.classify_batch_with(&samples, &mut scratch, &mut out);
            for (i, sample) in samples.iter().enumerate() {
                assert_eq!(out[i], other_forest.predict(sample));
                assert_eq!(scratch.votes(i).len(), other.n_classes());
            }
        }
    }
}
