//! Phase 2: parameter selection (§4.2, §5, Fig. 13).
//!
//! "Bolt searches the space given by these parameters by running the forest
//! with different parameter settings and selecting those partitioning
//! strategies that lead to best results." The search iterates over the three
//! implementation parameters of §5 — the uncommon-pair clustering threshold,
//! the number of table partitions, and the number of dictionary partitions —
//! measuring real per-sample latency on calibration inputs and, for
//! partitioned plans, modelling per-core latency with a [`CostModel`]
//! parameterized by the target hardware (cache capacity, memory latency,
//! clock rate).

use crate::engine::{BoltConfig, BoltForest};
use crate::parallel::{PartitionPlan, PartitionedBolt};
use crate::BoltError;
use bolt_forest::{Dataset, RandomForest};
use std::sync::Arc;
use std::time::Instant;

/// An analytic latency model of one core of the target machine.
///
/// The constants are deliberately simple — the paper's Phase 2 also mixes a
/// rough model with empirical runs — but they capture the two regimes §4.6
/// diagnoses: storage-bound (table exceeds LLC, memory latency dominates)
/// and compute-bound (dictionary scan dominates).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Last-level cache capacity available to one core, in bytes.
    pub llc_bytes: usize,
    /// Core clock frequency in GHz.
    pub freq_ghz: f64,
    /// Latency of a main-memory access, in nanoseconds.
    pub mem_latency_ns: f64,
    /// Latency of an LLC hit, in nanoseconds.
    pub cache_latency_ns: f64,
    /// Fixed per-core cost of cross-core result aggregation, in nanoseconds.
    pub aggregation_ns_per_core: f64,
}

impl CostModel {
    /// Cost of scanning `entries` dictionary entries of `stride` words each:
    /// a couple of fused ALU ops per word at the core's clock rate. This
    /// prices the raw-bits paths; feature-level single-sample inference
    /// matches through the entry-bitmap index
    /// ([`Self::index_match_cost_ns`]).
    #[must_use]
    pub fn scan_cost_ns(&self, entries: usize, stride: usize) -> f64 {
        let ops = entries as f64 * (2.0 * stride as f64 + 2.0);
        ops / self.freq_ghz
    }

    /// Cost of matching `entries` dictionary entries through the
    /// entry-bitmap index of a universe with `groups` feature groups: one
    /// load-and-AND per group per 64-entry word, plus one pass over the
    /// result words to pull out the matches.
    #[must_use]
    pub fn index_match_cost_ns(&self, entries: usize, groups: usize) -> f64 {
        let ops = (groups + 1) as f64 * entries.div_ceil(64) as f64;
        ops / self.freq_ghz
    }

    /// Cost of carrying `matched` entries from the match to the table: each
    /// gathers its address bits and probes the bloom filter — about twenty
    /// ALU ops and one cache access. With the scan's `entries × stride`
    /// term gone this is what separates clustering thresholds: a higher
    /// threshold leaves fewer common pairs per entry, so more entries match
    /// every input.
    #[must_use]
    pub fn matched_cost_ns(&self, matched: usize) -> f64 {
        matched as f64 * (20.0 / self.freq_ghz + self.cache_latency_ns)
    }

    /// Cost of one table lookup given the table's resident bytes: an LLC hit
    /// when the structure fits in cache, a memory access otherwise.
    #[must_use]
    pub fn lookup_cost_ns(&self, table_bytes: usize) -> f64 {
        if table_bytes <= self.llc_bytes {
            self.cache_latency_ns
        } else {
            // Partial residency: misses proportional to the overflow.
            let overflow = (table_bytes - self.llc_bytes) as f64 / table_bytes as f64;
            self.cache_latency_ns + overflow * self.mem_latency_ns
        }
    }

    /// Cost of aggregating results across `cores` cores.
    #[must_use]
    pub fn aggregation_cost_ns(&self, cores: usize) -> f64 {
        if cores <= 1 {
            0.0
        } else {
            self.aggregation_ns_per_core * cores as f64
        }
    }
}

impl Default for CostModel {
    /// Roughly the paper's default server: one core's slice of a 30 MB LLC
    /// Xeon E5-2650 v4 at 2.2 GHz.
    fn default() -> Self {
        Self {
            llc_bytes: 30 * 1024 * 1024 / 12,
            freq_ghz: 2.2,
            mem_latency_ns: 90.0,
            cache_latency_ns: 12.0,
            aggregation_ns_per_core: 25.0,
        }
    }
}

/// One evaluated parameter setting.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct Trial {
    /// Clustering threshold used.
    pub threshold: usize,
    /// Bloom-filter bits per key (0 = filter disabled).
    pub bloom_bits: usize,
    /// Partition plan evaluated.
    pub plan: PartitionPlan,
    /// Measured wall-clock nanoseconds per sample (single-threaded run of
    /// the unpartitioned engine; `None` for plans only modelled).
    pub measured_ns: Option<f64>,
    /// Modelled nanoseconds per sample for the plan on the target hardware.
    pub modeled_ns: f64,
    /// Dictionary entries at this threshold.
    pub dict_entries: usize,
    /// Occupied lookup-table cells at this threshold.
    pub table_cells: usize,
    /// Table capacity in bytes (16-byte slots, as modelled).
    pub table_bytes: usize,
}

/// The outcome of a parameter search.
#[derive(Clone, Debug, PartialEq)]
pub struct TuningReport {
    /// All evaluated settings, in evaluation order.
    pub trials: Vec<Trial>,
}

impl TuningReport {
    /// The best trial by modelled latency (ties: fewest cores, then lowest
    /// threshold).
    ///
    /// # Panics
    ///
    /// Panics if the report is empty (searches always produce ≥1 trial).
    #[must_use]
    pub fn best(&self) -> &Trial {
        self.trials
            .iter()
            .min_by(|a, b| {
                a.modeled_ns
                    .partial_cmp(&b.modeled_ns)
                    .expect("latencies are finite")
                    .then(a.plan.cores().cmp(&b.plan.cores()))
                    .then(a.threshold.cmp(&b.threshold))
            })
            .expect("search produces at least one trial")
    }

    /// Spread between the worst and best modelled latencies — the paper's
    /// Fig. 13B shows this can reach ≈4× across settings.
    #[must_use]
    pub fn spread(&self) -> f64 {
        let best = self.best().modeled_ns;
        let worst = self
            .trials
            .iter()
            .map(|t| t.modeled_ns)
            .fold(0.0f64, f64::max);
        if best == 0.0 {
            1.0
        } else {
            worst / best
        }
    }
}

/// Sweeps clustering thresholds and partition plans for a forest.
///
/// # Examples
///
/// ```
/// use bolt_core::{CostModel, ParameterSearch};
/// use bolt_forest::{Dataset, ForestConfig, RandomForest};
///
/// let rows: Vec<Vec<f32>> = (0..80).map(|i| vec![(i % 8) as f32]).collect();
/// let labels: Vec<u32> = (0..80).map(|i| u32::from(i % 8 > 3)).collect();
/// let data = Dataset::from_rows(rows, labels, 2)?;
/// let forest = RandomForest::train(&data, &ForestConfig::new(4).with_seed(2));
/// let report = ParameterSearch::new()
///     .with_thresholds([0, 2, 4])
///     .with_max_cores(4)
///     .run(&forest, &data, &CostModel::default())?;
/// assert!(!report.trials.is_empty());
/// let _best = report.best();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ParameterSearch {
    thresholds: Vec<usize>,
    bloom_options: Vec<usize>,
    max_cores: usize,
    calibration_samples: usize,
}

impl ParameterSearch {
    /// A default sweep: thresholds {0, 2, 4, 8, 12}, bloom on/off, up to
    /// 4 cores.
    #[must_use]
    pub fn new() -> Self {
        Self {
            thresholds: vec![0, 2, 4, 8, 12],
            bloom_options: vec![0, 10],
            max_cores: 4,
            calibration_samples: 64,
        }
    }

    /// Sets the bloom-filter budgets (bits per key; 0 disables) to sweep.
    #[must_use]
    pub fn with_bloom_options(mut self, options: impl IntoIterator<Item = usize>) -> Self {
        self.bloom_options = options.into_iter().collect();
        self
    }

    /// Sets the clustering thresholds to sweep.
    #[must_use]
    pub fn with_thresholds(mut self, thresholds: impl IntoIterator<Item = usize>) -> Self {
        self.thresholds = thresholds.into_iter().collect();
        self
    }

    /// Sets the maximum core count for partition plans.
    #[must_use]
    pub fn with_max_cores(mut self, cores: usize) -> Self {
        self.max_cores = cores.max(1);
        self
    }

    /// Sets the number of calibration samples timed per setting.
    #[must_use]
    pub fn with_calibration_samples(mut self, n: usize) -> Self {
        self.calibration_samples = n.max(1);
        self
    }

    /// A neighbourhood sweep around a known-good trial (§4.2: "given
    /// specific parameters, it can test the effect of small deviations from
    /// the given settings"): thresholds ±1, the same bloom budget plus
    /// on/off, and plans up to one extra doubling of the trial's cores.
    #[must_use]
    pub fn around(trial: &Trial) -> Self {
        let mut thresholds = vec![trial.threshold];
        if trial.threshold > 0 {
            thresholds.insert(0, trial.threshold - 1);
        }
        thresholds.push(trial.threshold + 1);
        let mut bloom_options = vec![0, 10];
        if !bloom_options.contains(&trial.bloom_bits) {
            bloom_options.push(trial.bloom_bits);
        }
        Self {
            thresholds,
            bloom_options,
            max_cores: (trial.plan.cores() * 2).max(1),
            calibration_samples: 64,
        }
    }

    /// Runs the sweep: for each threshold, compile once, measure wall-clock
    /// latency, then model every partition plan up to `max_cores`.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::InvalidConfig`] if no thresholds were given, or
    /// any compilation error from [`BoltForest::compile`].
    pub fn run(
        &self,
        forest: &RandomForest,
        calibration: &Dataset,
        model: &CostModel,
    ) -> Result<TuningReport, BoltError> {
        if self.thresholds.is_empty() || self.bloom_options.is_empty() {
            return Err(BoltError::InvalidConfig {
                detail: "no clustering thresholds or bloom options to sweep".into(),
            });
        }
        let mut trials = Vec::new();
        let n = calibration.len().min(self.calibration_samples);
        for &threshold in &self.thresholds {
            for &bloom_bits in &self.bloom_options {
                let config = BoltConfig::default()
                    .with_cluster_threshold(threshold)
                    .with_bloom_bits_per_key(bloom_bits);
                let bolt = Arc::new(BoltForest::compile(forest, &config)?);
                // Wall-clock measurement of the single-core engine on the
                // feature-level path serving runs.
                let mut scratch = bolt.scratch();
                let start = Instant::now();
                let mut sink = 0u32;
                for i in 0..n {
                    sink =
                        sink.wrapping_add(bolt.classify_with(calibration.sample(i), &mut scratch));
                }
                let measured_ns = start.elapsed().as_nanos() as f64 / n as f64;
                std::hint::black_box(sink);

                let table_bytes = bolt.table().capacity() * 16;
                let sample_bits = &bolt.encode(calibration.sample(0));
                for cores in 1..=self.max_cores {
                    for plan in PartitionPlan::plans_for_cores(cores) {
                        let Ok(partitioned) = PartitionedBolt::new(Arc::clone(&bolt), plan) else {
                            continue;
                        };
                        let modeled_ns = partitioned.estimate_latency_ns(sample_bits, model);
                        trials.push(Trial {
                            threshold,
                            bloom_bits,
                            plan,
                            measured_ns: (plan.cores() == 1).then_some(measured_ns),
                            modeled_ns,
                            dict_entries: bolt.dictionary().len(),
                            table_cells: bolt.table().n_cells(),
                            table_bytes,
                        });
                    }
                }
            }
        }
        Ok(TuningReport { trials })
    }
}

impl Default for ParameterSearch {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs the default Phase-2 sweep and compiles the forest at the winning
/// setting — the one-call version of the paper's "Bolt explores different
/// parameter strategies and outputs a set of lookup tables and dictionaries
/// that give the best performance given a forest and the specified
/// hardware".
///
/// # Errors
///
/// Propagates compilation or sweep errors from [`ParameterSearch::run`].
///
/// # Examples
///
/// ```
/// use bolt_core::{tuning, CostModel};
/// use bolt_forest::{Dataset, ForestConfig, RandomForest};
///
/// let rows: Vec<Vec<f32>> = (0..80).map(|i| vec![(i % 8) as f32]).collect();
/// let labels: Vec<u32> = (0..80).map(|i| u32::from(i % 8 > 3)).collect();
/// let data = Dataset::from_rows(rows, labels, 2)?;
/// let forest = RandomForest::train(&data, &ForestConfig::new(4).with_seed(2));
/// let (bolt, report) = tuning::compile_best(&forest, &data, &CostModel::default())?;
/// assert_eq!(bolt.config().cluster_threshold, report.best().threshold);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile_best(
    forest: &RandomForest,
    calibration: &Dataset,
    model: &CostModel,
) -> Result<(BoltForest, TuningReport), BoltError> {
    let report = ParameterSearch::new().run(forest, calibration, model)?;
    let best = report.best().clone();
    let bolt = BoltForest::compile(
        forest,
        &BoltConfig::default()
            .with_cluster_threshold(best.threshold)
            .with_bloom_bits_per_key(best.bloom_bits),
    )?;
    Ok((bolt, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_forest::ForestConfig;

    fn fixture() -> (Dataset, RandomForest) {
        let rows: Vec<Vec<f32>> = (0..100)
            .map(|i| vec![(i % 10) as f32, (i % 4) as f32])
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 4.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest =
            RandomForest::train(&data, &ForestConfig::new(8).with_max_height(4).with_seed(3));
        (data, forest)
    }

    #[test]
    fn sweep_produces_all_plan_combinations() {
        let (data, forest) = fixture();
        let report = ParameterSearch::new()
            .with_thresholds([0, 4])
            .with_bloom_options([0, 10])
            .with_max_cores(4)
            .with_calibration_samples(8)
            .run(&forest, &data, &CostModel::default())
            .expect("sweep runs");
        // Plans for 1..=4 cores: 1 + 2 + 2 + 3 = 8 per (threshold, bloom).
        assert_eq!(report.trials.len(), 2 * 2 * 8);
        assert!(report.trials.iter().any(|t| t.plan.cores() == 4));
        assert!(report.trials.iter().any(|t| t.bloom_bits == 0));
    }

    #[test]
    fn best_is_minimal_modeled_latency() {
        let (data, forest) = fixture();
        let report = ParameterSearch::new()
            .with_thresholds([0, 2, 8])
            .with_calibration_samples(8)
            .run(&forest, &data, &CostModel::default())
            .expect("sweep runs");
        let best = report.best();
        assert!(report
            .trials
            .iter()
            .all(|t| t.modeled_ns >= best.modeled_ns));
        assert!(report.spread() >= 1.0);
    }

    #[test]
    fn single_core_trials_carry_measurements() {
        let (data, forest) = fixture();
        let report = ParameterSearch::new()
            .with_thresholds([4])
            .with_max_cores(2)
            .with_calibration_samples(4)
            .run(&forest, &data, &CostModel::default())
            .expect("sweep runs");
        for trial in &report.trials {
            if trial.plan.cores() == 1 {
                assert!(trial.measured_ns.expect("measured") > 0.0);
            } else {
                assert!(trial.measured_ns.is_none());
            }
        }
    }

    #[test]
    fn around_explores_the_neighbourhood() {
        let (data, forest) = fixture();
        let report = ParameterSearch::new()
            .with_thresholds([4])
            .with_bloom_options([10])
            .with_max_cores(2)
            .with_calibration_samples(4)
            .run(&forest, &data, &CostModel::default())
            .expect("sweep runs");
        let best = report.best();
        let nearby = ParameterSearch::around(best)
            .with_calibration_samples(4)
            .run(&forest, &data, &CostModel::default())
            .expect("neighbourhood runs");
        let thresholds: std::collections::BTreeSet<usize> =
            nearby.trials.iter().map(|t| t.threshold).collect();
        assert!(thresholds.contains(&best.threshold));
        assert!(thresholds.contains(&(best.threshold + 1)));
        assert!(nearby.best().modeled_ns.is_finite());
        assert!(nearby
            .trials
            .iter()
            .any(|t| t.plan.cores() > best.plan.cores() || best.plan.cores() == 1));
    }

    #[test]
    fn empty_thresholds_rejected() {
        let (data, forest) = fixture();
        let err = ParameterSearch::new()
            .with_thresholds(Vec::<usize>::new())
            .run(&forest, &data, &CostModel::default())
            .expect_err("no thresholds");
        assert!(matches!(err, BoltError::InvalidConfig { .. }));
    }

    #[test]
    fn cost_model_regimes() {
        let model = CostModel::default();
        // In-cache lookups are cheap; overflowing tables pay memory latency.
        let cheap = model.lookup_cost_ns(1024);
        let pricey = model.lookup_cost_ns(model.llc_bytes * 10);
        assert!(cheap < pricey);
        assert_eq!(model.aggregation_cost_ns(1), 0.0);
        assert!(model.aggregation_cost_ns(8) > 0.0);
        assert!(model.scan_cost_ns(100, 2) > model.scan_cost_ns(10, 2));
        // The index prices 64 entries per word-op: far below the scan, and
        // flat within a word.
        assert!(model.index_match_cost_ns(3555, 11) * 50.0 < model.scan_cost_ns(3555, 17));
        assert_eq!(
            model.index_match_cost_ns(65, 11),
            model.index_match_cost_ns(128, 11)
        );
        assert!(model.matched_cost_ns(80) > model.matched_cost_ns(16));
    }

    /// The model must rank clustering thresholds of the service forest (the
    /// benchmark's `svc`: LSTW-like, 16 trees of height 6) the way the
    /// feature-level engine measures them. Priced as a scan
    /// (`entries × stride`) the model preferred high thresholds — few
    /// entries — while through the index those are the slow ones: their
    /// entries carry fewer common pairs, so five times as many match.
    #[test]
    fn predicted_threshold_ordering_matches_measured_on_the_service_forest() {
        let data = bolt_data::generate(bolt_data::Workload::LstwLike, 4000, 0xB017);
        let forest = RandomForest::train(
            &data,
            &bolt_forest::ForestConfig::new(16)
                .with_max_height(6)
                .with_seed(0xB017),
        );
        let model = CostModel::default();
        const SAMPLES: usize = 512;
        let rows: Vec<(usize, f64, f64)> = [0usize, 4, 8]
            .into_iter()
            .map(|threshold| {
                let config = BoltConfig::default().with_cluster_threshold(threshold);
                let bolt = Arc::new(BoltForest::compile(&forest, &config).expect("compiles"));
                // Best of several passes: the floor is what the host's
                // noise cannot lower.
                let mut scratch = bolt.scratch();
                let mut measured = f64::INFINITY;
                for _ in 0..7 {
                    let start = Instant::now();
                    let mut sink = 0u32;
                    for i in 0..SAMPLES {
                        sink = sink.wrapping_add(bolt.classify_with(data.sample(i), &mut scratch));
                    }
                    std::hint::black_box(sink);
                    measured = measured.min(start.elapsed().as_nanos() as f64 / SAMPLES as f64);
                }
                let plan = PartitionedBolt::new(Arc::clone(&bolt), PartitionPlan::default())
                    .expect("1x1 plan");
                let modeled = (0..64)
                    .map(|i| plan.estimate_latency_ns(&bolt.encode(data.sample(i)), &model))
                    .sum::<f64>()
                    / 64.0;
                (threshold, measured, modeled)
            })
            .collect();
        let mut compared = 0;
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                // Only pairs the measurement separates clearly.
                if a.1.max(b.1) < 1.3 * a.1.min(b.1) {
                    continue;
                }
                compared += 1;
                assert_eq!(
                    a.1 < b.1,
                    a.2 < b.2,
                    "thresholds {} and {}: measured {:.0} vs {:.0} ns, modeled {:.0} vs {:.0} ns",
                    a.0,
                    b.0,
                    a.1,
                    b.1,
                    a.2,
                    b.2
                );
            }
        }
        assert!(
            compared >= 2,
            "thresholds 0/4/8 differ by 1.7x and more: {rows:?}"
        );
    }
}
