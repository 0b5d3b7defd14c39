//! Partitioned parallel inference (§4.2, §4.5, Fig. 4).
//!
//! Bolt parallelizes a *single sample* by splitting its data structures: the
//! dictionary into `d` partitions and the lookup table into `t` partitions,
//! running on `d × t` cores. A core scans only its dictionary partition and
//! accepts only lookups that resolve into its table partition; for any
//! `(entry, address)` pair exactly one core owns both, so every vote is
//! counted exactly once and aggregation is a plain sum (§4.5's formal
//! argument).

use crate::engine::BoltForest;
use crate::filter::table_key;
use crate::tuning::CostModel;
use crate::BoltError;
use bolt_bitpack::Mask;
use std::sync::Arc;

/// A `d × t` split of the Bolt structures across cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartitionPlan {
    /// Number of dictionary partitions (`d`).
    pub dict_parts: usize,
    /// Number of lookup-table partitions (`t`).
    pub table_parts: usize,
}

impl PartitionPlan {
    /// A plan using `d` dictionary and `t` table partitions.
    #[must_use]
    pub fn new(dict_parts: usize, table_parts: usize) -> Self {
        Self {
            dict_parts,
            table_parts,
        }
    }

    /// Total cores required (`d × t`).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.dict_parts * self.table_parts
    }

    /// All plans whose core product is exactly `cores`.
    #[must_use]
    pub fn plans_for_cores(cores: usize) -> Vec<Self> {
        (1..=cores)
            .filter(|d| cores.is_multiple_of(*d))
            .map(|d| Self::new(d, cores / d))
            .collect()
    }
}

impl Default for PartitionPlan {
    fn default() -> Self {
        Self::new(1, 1)
    }
}

/// Per-core work accounting for one inference, used by the latency model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreWork {
    /// Dictionary entries this core scanned.
    pub entries_scanned: usize,
    /// Entries that matched the input's common features.
    pub entries_matched: usize,
    /// Table lookups this core owned and performed.
    pub lookups_performed: usize,
    /// Matched lookups discarded because another core owns the slot.
    pub lookups_skipped: usize,
}

/// A Bolt forest split across cores according to a [`PartitionPlan`].
///
/// # Examples
///
/// ```
/// use bolt_core::{BoltConfig, BoltForest, PartitionPlan, PartitionedBolt};
/// use bolt_forest::{Dataset, ForestConfig, RandomForest};
/// use std::sync::Arc;
///
/// let rows: Vec<Vec<f32>> = (0..60).map(|i| vec![(i % 6) as f32]).collect();
/// let labels: Vec<u32> = (0..60).map(|i| u32::from(i % 6 > 2)).collect();
/// let data = Dataset::from_rows(rows, labels, 2)?;
/// let forest = RandomForest::train(&data, &ForestConfig::new(4).with_seed(2));
/// let bolt = Arc::new(BoltForest::compile(&forest, &BoltConfig::default())?);
/// let partitioned = PartitionedBolt::new(bolt, PartitionPlan::new(2, 2))?;
/// assert_eq!(partitioned.classify(&[3.0]), forest.predict(&[3.0]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct PartitionedBolt {
    bolt: Arc<BoltForest>,
    plan: PartitionPlan,
}

impl PartitionedBolt {
    /// Wraps a compiled forest with a partition plan.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::InvalidPartition`] if either partition count is
    /// zero or exceeds what the structures can usefully hold.
    pub fn new(bolt: Arc<BoltForest>, plan: PartitionPlan) -> Result<Self, BoltError> {
        if plan.dict_parts == 0 || plan.table_parts == 0 {
            return Err(BoltError::InvalidPartition {
                detail: "partition counts must be positive".into(),
            });
        }
        if plan.table_parts > bolt.table().capacity() {
            return Err(BoltError::InvalidPartition {
                detail: format!(
                    "{} table partitions exceed table capacity {}",
                    plan.table_parts,
                    bolt.table().capacity()
                ),
            });
        }
        Ok(Self { bolt, plan })
    }

    /// The partition plan.
    #[must_use]
    pub fn plan(&self) -> PartitionPlan {
        self.plan
    }

    /// The underlying compiled forest.
    #[must_use]
    pub fn bolt(&self) -> &BoltForest {
        &self.bolt
    }

    /// Which table partition owns a resolved slot index.
    fn table_part_of(&self, slot: usize) -> usize {
        let span = self.bolt.table().capacity().div_ceil(self.plan.table_parts);
        (slot / span).min(self.plan.table_parts - 1)
    }

    /// Runs one core's share of the inference, returning its per-class votes
    /// and work counters. Cores are numbered `dict_part * t + table_part`.
    #[must_use]
    pub fn core_votes(&self, core: usize, bits: &Mask) -> (Vec<f64>, CoreWork) {
        let (dict_part, table_part) = (core / self.plan.table_parts, core % self.plan.table_parts);
        let mut votes = vec![0.0f64; self.bolt.n_classes()];
        let mut work = CoreWork::default();
        // Constant votes are counted once, by core 0.
        if core == 0 {
            for &(class, weight) in self.bolt.constant_votes() {
                votes[class as usize] += weight;
            }
        }
        let dict = self.bolt.dictionary();
        let table = self.bolt.table();
        for entry in dict.entries() {
            // Dictionary partitioning: round-robin by entry id.
            if entry.id as usize % self.plan.dict_parts != dict_part {
                continue;
            }
            work.entries_scanned += 1;
            if !dict.matches(entry.id, bits) {
                continue;
            }
            work.entries_matched += 1;
            let address = entry.address_of(bits);
            if let Some(bloom) = self.bolt.bloom() {
                if !bloom.contains(table_key(entry.id, address)) {
                    continue;
                }
            }
            // Table partitioning: only the owning core performs the lookup
            // ("if a dictionary entry on a core leads to a portion of the
            //  lookup table not in said core, the entry is ignored", §4.5).
            let slot = table.slot_of(entry.id, address);
            if self.table_part_of(slot) != table_part {
                work.lookups_skipped += 1;
                continue;
            }
            work.lookups_performed += 1;
            if let Some(cell) = table.lookup(entry.id, address) {
                for &(class, weight) in &cell.votes {
                    votes[class as usize] += weight;
                }
            }
        }
        (votes, work)
    }

    /// Aggregated votes across all cores (sequential execution of each
    /// core's share; used by tests and by the latency model).
    #[must_use]
    pub fn votes(&self, bits: &Mask) -> Vec<f64> {
        let mut votes = vec![0.0f64; self.bolt.n_classes()];
        for core in 0..self.plan.cores() {
            let (core_votes, _) = self.core_votes(core, bits);
            for (v, c) in votes.iter_mut().zip(core_votes) {
                *v += c;
            }
        }
        votes
    }

    /// Classifies a sample by running every core's share on real threads and
    /// aggregating (Fig. 7's workflow). On a single-CPU host this is still
    /// correct, just not faster.
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the universe's feature count.
    #[must_use]
    pub fn classify(&self, sample: &[f32]) -> u32 {
        let bits = self.bolt.encode(sample);
        let cores = self.plan.cores();
        let votes = if cores == 1 {
            self.core_votes(0, &bits).0
        } else {
            let mut all = vec![Vec::new(); cores];
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..cores)
                    .map(|core| {
                        let bits = &bits;
                        scope.spawn(move || self.core_votes(core, bits).0)
                    })
                    .collect();
                for (core, handle) in handles.into_iter().enumerate() {
                    all[core] = handle.join().expect("core thread panicked");
                }
            });
            let mut votes = vec![0.0f64; self.bolt.n_classes()];
            for core_votes in all {
                for (v, c) in votes.iter_mut().zip(core_votes) {
                    *v += c;
                }
            }
            votes
        };
        let mut best = 0usize;
        for (i, &v) in votes.iter().enumerate().skip(1) {
            if v > votes[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Per-core work for one input, core-major order.
    #[must_use]
    pub fn work_profile(&self, bits: &Mask) -> Vec<CoreWork> {
        (0..self.plan.cores())
            .map(|core| self.core_votes(core, bits).1)
            .collect()
    }

    /// Classifies a batch of samples with sample-level parallelism: the
    /// batch is split across `plan.cores()` worker threads, each running
    /// the ordinary single-core engine (§3: Bolt "can still do the previous
    /// two parallelization methods" — across samples and across trees —
    /// besides splitting a single sample).
    ///
    /// # Panics
    ///
    /// Panics if any sample is shorter than the universe's feature count.
    #[must_use]
    pub fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        let workers = self.plan.cores().max(1).min(samples.len().max(1));
        if workers <= 1 {
            let mut scratch = self.bolt.scratch();
            return samples
                .iter()
                .map(|s| self.bolt.classify_with(s, &mut scratch))
                .collect();
        }
        let chunk = samples.len().div_ceil(workers);
        let mut out = vec![0u32; samples.len()];
        std::thread::scope(|scope| {
            for (chunk_samples, chunk_out) in samples.chunks(chunk).zip(out.chunks_mut(chunk)) {
                let bolt = &self.bolt;
                scope.spawn(move || {
                    let mut scratch = bolt.scratch();
                    for (s, o) in chunk_samples.iter().zip(chunk_out.iter_mut()) {
                        *o = bolt.classify_with(s, &mut scratch);
                    }
                });
            }
        });
        out
    }

    /// Models the single-sample latency of this plan on the given hardware:
    /// the slowest core's match+filter+lookup time plus the aggregation
    /// overhead that grows with core count (§4.2: "the overhead of
    /// aggregating results must be considered"). A core matches its
    /// dictionary partition through its slice of the entry-bitmap index, as
    /// the feature-level engine does, reading the rows one match reads.
    #[must_use]
    pub fn estimate_latency_ns(&self, bits: &Mask, model: &CostModel) -> f64 {
        let table_bytes_per_part =
            (self.bolt.table().capacity() * 16).div_ceil(self.plan.table_parts);
        let rows = self.bolt.index().view().rows_per_match();
        let per_core: Vec<f64> = self
            .work_profile(bits)
            .iter()
            .map(|work| {
                model.index_match_cost_ns(work.entries_scanned, rows)
                    + model.matched_cost_ns(work.entries_matched)
                    + work.lookups_performed as f64 * model.lookup_cost_ns(table_bytes_per_part)
            })
            .collect();
        let slowest = per_core.iter().copied().fold(0.0f64, f64::max);
        slowest + model.aggregation_cost_ns(self.plan.cores())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoltConfig;
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    fn fixture() -> (Dataset, RandomForest, Arc<BoltForest>) {
        let rows: Vec<Vec<f32>> = (0..120)
            .map(|i| vec![(i % 8) as f32, (i % 5) as f32])
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 3.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(9).with_max_height(4).with_seed(31),
        );
        let bolt =
            Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
        (data, forest, bolt)
    }

    #[test]
    fn every_plan_is_equivalent_to_unpartitioned() {
        let (data, forest, bolt) = fixture();
        for cores in [1, 2, 4, 8] {
            for plan in PartitionPlan::plans_for_cores(cores) {
                // Tiny fixtures can have fewer table slots than partitions.
                let Ok(partitioned) = PartitionedBolt::new(Arc::clone(&bolt), plan) else {
                    continue;
                };
                for (sample, _) in data.iter().take(30) {
                    assert_eq!(
                        partitioned.classify(sample),
                        forest.predict(sample),
                        "plan {plan:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn votes_are_partition_invariant() {
        let (data, _, bolt) = fixture();
        let baseline =
            PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::new(1, 1)).expect("valid plan");
        let split =
            PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::new(3, 2)).expect("valid plan");
        for (sample, _) in data.iter().take(25) {
            let bits = bolt.encode(sample);
            assert_eq!(baseline.votes(&bits), split.votes(&bits));
        }
    }

    #[test]
    fn each_lookup_owned_by_exactly_one_core() {
        let (data, _, bolt) = fixture();
        let plan = PartitionPlan::new(2, 3);
        let partitioned = PartitionedBolt::new(Arc::clone(&bolt), plan).expect("valid plan");
        for (sample, _) in data.iter().take(20) {
            let bits = bolt.encode(sample);
            let work = partitioned.work_profile(&bits);
            let performed: usize = work.iter().map(|w| w.lookups_performed).sum();
            let (_, stats) = bolt.votes_with_stats(&bits);
            assert_eq!(performed, stats.table_hits + stats.table_misses);
        }
    }

    #[test]
    fn dict_partitions_split_the_scan() {
        let (data, _, bolt) = fixture();
        let plan = PartitionPlan::new(4, 1);
        let partitioned = PartitionedBolt::new(Arc::clone(&bolt), plan).expect("valid plan");
        let bits = bolt.encode(data.sample(0));
        let work = partitioned.work_profile(&bits);
        let scanned: usize = work.iter().map(|w| w.entries_scanned).sum();
        assert_eq!(scanned, bolt.dictionary().len());
        let max_scan = work.iter().map(|w| w.entries_scanned).max().unwrap_or(0);
        assert!(max_scan <= bolt.dictionary().len().div_ceil(4));
    }

    #[test]
    fn plans_for_cores_enumerates_divisors() {
        let plans = PartitionPlan::plans_for_cores(12);
        assert_eq!(plans.len(), 6); // 1x12, 2x6, 3x4, 4x3, 6x2, 12x1
        assert!(plans.iter().all(|p| p.cores() == 12));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let (_, _, bolt) = fixture();
        assert!(PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::new(0, 1)).is_err());
        let too_many_tables = bolt.table().capacity() + 1;
        assert!(
            PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::new(1, too_many_tables))
                .is_err()
        );
    }

    #[test]
    fn batch_parallelism_matches_sequential() {
        let (data, forest, bolt) = fixture();
        let partitioned =
            PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::new(2, 2)).expect("valid plan");
        let samples: Vec<&[f32]> = (0..data.len()).map(|i| data.sample(i)).collect();
        let batched = partitioned.classify_batch(&samples);
        for (i, &class) in batched.iter().enumerate() {
            assert_eq!(class, forest.predict(samples[i]));
        }
        // Degenerate cases.
        assert!(partitioned.classify_batch(&[]).is_empty());
        assert_eq!(
            partitioned.classify_batch(&samples[..1]),
            vec![forest.predict(samples[0])]
        );
    }

    #[test]
    fn constant_votes_counted_exactly_once_across_cores() {
        use bolt_forest::{DecisionTree, NodeKind};
        // One single-leaf tree (constant vote) + one real split tree.
        let stump = DecisionTree::from_nodes(vec![NodeKind::Leaf { class: 1 }], 1, 2);
        let split = DecisionTree::from_nodes(
            vec![
                NodeKind::Split {
                    feature: 0,
                    threshold: 2.0,
                    left: 1,
                    right: 2,
                },
                NodeKind::Leaf { class: 0 },
                NodeKind::Leaf { class: 1 },
            ],
            1,
            2,
        );
        let forest = RandomForest::from_trees(vec![stump, split]).expect("forest");
        let bolt =
            Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
        let partitioned =
            PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::new(2, 2)).expect("valid plan");
        let bits = bolt.encode(&[0.0]);
        let votes = partitioned.votes(&bits);
        // Exactly 2 votes total: one constant, one looked up.
        assert_eq!(votes.iter().sum::<f64>(), 2.0);
        assert_eq!(partitioned.classify(&[0.0]), forest.predict(&[0.0]));
    }

    #[test]
    fn latency_model_penalizes_excessive_cores() {
        let (data, _, bolt) = fixture();
        let model = CostModel::default();
        let bits = bolt.encode(data.sample(0));
        let small = PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::new(1, 1))
            .expect("valid")
            .estimate_latency_ns(&bits, &model);
        let huge = PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::new(16, 1))
            .expect("valid")
            .estimate_latency_ns(&bits, &model);
        // With a tiny dictionary, 16-way splitting pays aggregation overhead
        // for nothing (the paper's Fig. 13A knee).
        assert!(huge > small * 0.5, "model should include aggregation cost");
    }

    /// A match ANDs one row per constraining group, not one per feature
    /// group: on a wide forest (MNIST-like, 10 trees of height 4, like the
    /// benchmark's `wide`) most groups constrain no entry, and the model
    /// must price the rows actually read.
    #[test]
    fn latency_model_prices_the_rows_a_match_reads() {
        let data = bolt_data::generate(bolt_data::Workload::MnistLike, 400, 0xB017);
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(10).with_max_height(4).with_seed(0xB017),
        );
        let bolt =
            Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
        let (rows, groups) = (
            bolt.index().view().rows_per_match(),
            bolt.universe().n_groups(),
        );
        assert!(rows < groups, "{rows} rows read of {groups} groups");
        let model = CostModel::default();
        let plan =
            PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::default()).expect("1x1 plan");
        let bits = bolt.encode(data.sample(0));
        let work = plan.work_profile(&bits)[0];
        let rest = model.matched_cost_ns(work.entries_matched)
            + work.lookups_performed as f64 * model.lookup_cost_ns(bolt.table().capacity() * 16);
        let estimate = plan.estimate_latency_ns(&bits, &model);
        assert_eq!(
            estimate,
            model.index_match_cost_ns(work.entries_scanned, rows) + rest
        );
        assert!(estimate < model.index_match_cost_ns(work.entries_scanned, groups) + rest);
    }
}
