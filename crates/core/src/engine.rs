//! The compiled Bolt forest and its inference loop (§4.5, Fig. 7).

use crate::cluster::Clustering;
use crate::dictionary::{DictView, Dictionary};
use crate::filter::{table_key, BloomFilter, BloomView};
use crate::index::{EntryIndex, IndexView};
use crate::paths::SortedPaths;
use crate::table::{RecombinedTable, TableView, Votes};
use crate::BoltError;
use bolt_bitpack::Mask;
use bolt_forest::{BinaryPath, BoostedForest, PredicateUniverse, RandomForest};
use serde::{Deserialize, Serialize};

/// Compilation options for [`BoltForest::compile`].
///
/// # Examples
///
/// ```
/// use bolt_core::BoltConfig;
///
/// let cfg = BoltConfig::default()
///     .with_cluster_threshold(6)
///     .with_bloom_bits_per_key(12);
/// assert_eq!(cfg.cluster_threshold, 6);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoltConfig {
    /// Phase-1 clustering threshold: maximum cumulative count of novel
    /// feature-value pairs a cluster may accumulate beyond its seed path
    /// (§4.1). Lower values mean more, smaller dictionary entries.
    pub cluster_threshold: usize,
    /// Bloom-filter budget in bits per stored table key (Phase 3); `0`
    /// disables the filter and probes the table directly.
    pub bloom_bits_per_key: usize,
    /// Record per-cell path features so [`BoltForest::classify_explained`]
    /// can produce salience maps (§2.1). Costs table memory.
    pub explanations: bool,
}

impl BoltConfig {
    /// Sets the clustering threshold.
    #[must_use]
    pub fn with_cluster_threshold(mut self, threshold: usize) -> Self {
        self.cluster_threshold = threshold;
        self
    }

    /// Sets the bloom-filter bits per key (0 disables).
    #[must_use]
    pub fn with_bloom_bits_per_key(mut self, bits: usize) -> Self {
        self.bloom_bits_per_key = bits;
        self
    }

    /// Enables salience tracking.
    #[must_use]
    pub fn with_explanations(mut self, on: bool) -> Self {
        self.explanations = on;
        self
    }
}

impl Default for BoltConfig {
    fn default() -> Self {
        Self {
            cluster_threshold: 4,
            bloom_bits_per_key: 10,
            explanations: false,
        }
    }
}

/// Counters describing one classification, used by the evaluation figures
/// and by Phase-2 tuning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InferenceStats {
    /// Dictionary entries considered (always the full dictionary, whether
    /// the scan compared each one or the entry-bitmap index covered them
    /// all with one row per feature group).
    pub entries_scanned: usize,
    /// Entry-bitmap index rows read (one per feature group that constrains
    /// some entry on the feature-level paths; 0 on the raw-bits scan paths).
    pub index_rows_read: usize,
    /// Entries whose common-feature mask matched the input.
    pub entries_matched: usize,
    /// Lookups skipped by the bloom filter.
    pub bloom_rejects: usize,
    /// Table probes that found a verified cell.
    pub table_hits: usize,
    /// Table probes that found nothing (false positives of the mask test
    /// that survived the bloom filter).
    pub table_misses: usize,
}

/// Reusable per-thread buffers for allocation-free inference
/// ([`BoltForest::classify_with`]). The inference body sizes them to the
/// model it runs — on first use, and again whenever a model of another
/// shape comes by — so one scratch per thread serves every model.
#[derive(Clone, Debug, Default)]
pub struct BoltScratch {
    matching: MatchBuffers,
    votes: Vec<f64>,
}

/// What matching one sample through the index works in, sized to the model
/// by [`ForestView::for_each_sample_match`] itself.
#[derive(Clone, Debug, Default)]
pub(crate) struct MatchBuffers {
    /// The sample's encoded run starts, one per constraining group.
    run_starts: Vec<u32>,
    /// Index-row accumulator: one bit per dictionary entry.
    matched: Vec<u64>,
}

/// A borrowed view of a compiled model's inference structures: dictionary,
/// its entry-bitmap index, table, optional bloom filter, constant votes, and
/// the class count.
///
/// Every inference path — per-sample, batched, owned or memory-mapped —
/// funnels through this one view, so an mmap-backed `BLT1` artifact runs
/// literally the same match/lookup/accumulate code as an in-memory
/// [`BoltForest`], and vote vectors are bit-identical by construction.
#[derive(Clone, Copy, Debug)]
pub struct ForestView<'a> {
    dict: DictView<'a>,
    index: IndexView<'a>,
    table: TableView<'a>,
    bloom: Option<BloomView<'a>>,
    constant_votes: &'a [(u32, f64)],
    n_classes: usize,
}

impl<'a> ForestView<'a> {
    /// Assembles a view from component views; `index` must have been built
    /// from `dict` ([`EntryIndex::build`]). For regressors (which carry no
    /// per-class votes) pass an empty `constant_votes` and `n_classes = 0`;
    /// only [`Self::accumulate_weights`] and [`Self::weight_sum_with`] are
    /// meaningful then.
    #[must_use]
    pub fn new(
        dict: DictView<'a>,
        index: IndexView<'a>,
        table: TableView<'a>,
        bloom: Option<BloomView<'a>>,
        constant_votes: &'a [(u32, f64)],
        n_classes: usize,
    ) -> Self {
        Self {
            dict,
            index,
            table,
            bloom,
            constant_votes,
            n_classes,
        }
    }

    /// The dictionary view.
    #[must_use]
    pub fn dict(&self) -> DictView<'a> {
        self.dict
    }

    /// The entry-bitmap index over [`Self::dict`].
    #[must_use]
    pub fn index(&self) -> IndexView<'a> {
        self.index
    }

    /// The table view.
    #[must_use]
    pub fn table(&self) -> TableView<'a> {
        self.table
    }

    /// The bloom-filter view, if the model carries one.
    #[must_use]
    pub fn bloom(&self) -> Option<BloomView<'a>> {
        self.bloom
    }

    /// Constant votes contributed by single-leaf trees.
    #[must_use]
    pub fn constant_votes(&self) -> &'a [(u32, f64)] {
        self.constant_votes
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The shared body of the raw-bits paths: constant votes, dictionary
    /// scan, bloom filtering, verified table lookups, and vote accumulation
    /// — counted into `stats` when provided. This is the reference
    /// semantics the entry-bitmap index is pinned against, and the only
    /// correct path for bits that need not be thermometer-coded. Votes must
    /// be zeroed by the caller (`entries_scanned` is also the caller's).
    pub fn scan_votes_into(
        &self,
        bits: &Mask,
        votes: &mut [f64],
        mut stats: Option<&mut InferenceStats>,
    ) {
        for &(class, weight) in self.constant_votes {
            votes[class as usize] += weight;
        }
        self.dict.scan(bits, |entry_id| {
            let address = self.dict.address_of(entry_id, bits);
            self.matched_entry_votes(entry_id, address, votes, stats.as_deref_mut());
        });
    }

    /// The shared body of the feature-level single-sample paths:
    /// [`Self::sample_votes_into`] through `scratch`, so the votes left
    /// there are bit-identical to scanning the sample's encoded bits. Every
    /// counter of `stats` is filled when provided.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is shorter than the universe's feature count or
    /// `universe` is not the one this view's model encodes with.
    pub fn votes_with<'s>(
        &self,
        universe: &PredicateUniverse,
        sample: &[f32],
        scratch: &'s mut BoltScratch,
        stats: Option<&mut InferenceStats>,
    ) -> &'s [f64] {
        let BoltScratch { matching, votes } = scratch;
        votes.clear();
        votes.resize(self.n_classes, 0.0);
        self.sample_votes_into(universe, sample, matching, votes, stats);
        votes
    }

    /// What every feature-level path, single or batched, does with one
    /// sample: constant votes, then [`Self::for_each_sample_match`] with
    /// the same back half as [`Self::scan_votes_into`] over the matches in
    /// ascending entry order. `votes` must be zeroed by the caller.
    pub(crate) fn sample_votes_into(
        &self,
        universe: &PredicateUniverse,
        sample: &[f32],
        matching: &mut MatchBuffers,
        votes: &mut [f64],
        mut stats: Option<&mut InferenceStats>,
    ) {
        for &(class, weight) in self.constant_votes {
            votes[class as usize] += weight;
        }
        if let Some(stats) = stats.as_deref_mut() {
            stats.entries_scanned += self.dict.len();
            stats.index_rows_read += self.index.rows_per_match();
        }
        self.for_each_sample_match(universe, sample, matching, |entry_id, address| {
            self.matched_entry_votes(entry_id, address, votes, stats.as_deref_mut());
        });
    }

    /// The feature-level front half: encodes `sample`'s run starts on the
    /// index's constraining groups only
    /// ([`PredicateUniverse::run_starts_into`]), matches through the
    /// entry-bitmap index, and hands `on_match` each matched entry, in
    /// ascending order, with its table address gathered by direct compares
    /// ([`DictView::address_of_sample`]) — the entries and addresses the
    /// reference scan derives from the sample's full bit vector, which is
    /// never built.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is shorter than the universe's feature count or
    /// `universe` is not the one this view's model encodes with.
    pub(crate) fn for_each_sample_match(
        &self,
        universe: &PredicateUniverse,
        sample: &[f32],
        buffers: &mut MatchBuffers,
        mut on_match: impl FnMut(u32, u64),
    ) {
        let MatchBuffers {
            run_starts,
            matched,
        } = buffers;
        // No-ops unless the buffers last served a model of another shape.
        run_starts.resize(self.index.constraining().len(), 0);
        matched.resize(self.index.words(), 0);
        universe.run_starts_into(sample, self.index.constraining(), run_starts);
        self.index.for_each_match(run_starts, matched, |entry_id| {
            on_match(
                entry_id,
                self.dict.address_of_sample(entry_id, universe, sample),
            );
        });
    }

    /// Feature-level classification: the argmax of [`Self::votes_with`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::votes_with`].
    #[must_use]
    pub fn classify_with(
        &self,
        universe: &PredicateUniverse,
        sample: &[f32],
        scratch: &mut BoltScratch,
    ) -> u32 {
        argmax(self.votes_with(universe, sample, scratch, None))
    }

    /// What every matcher does with a matched entry and its gathered
    /// address: count it, then bloom-filter, look up and accumulate.
    #[inline]
    fn matched_entry_votes(
        &self,
        entry_id: u32,
        address: u64,
        votes: &mut [f64],
        mut stats: Option<&mut InferenceStats>,
    ) {
        if let Some(stats) = stats.as_deref_mut() {
            stats.entries_matched += 1;
        }
        // Pull the table line toward L1 while the bloom check runs;
        // pure latency hiding, no effect on results.
        self.table.prefetch(entry_id, address);
        if let Some(bloom) = &self.bloom {
            if !bloom.contains(table_key(entry_id, address)) {
                if let Some(stats) = stats {
                    stats.bloom_rejects += 1;
                }
                return;
            }
        }
        let cell_votes = self.table.lookup(entry_id, address);
        if let Some(stats) = stats {
            // Every stored cell carries at least one vote, so an empty
            // view is exactly a table miss (a surviving false positive).
            if cell_votes.is_empty() {
                stats.table_misses += 1;
            } else {
                stats.table_hits += 1;
            }
        }
        for (class, weight) in cell_votes.iter() {
            votes[class as usize] += weight;
        }
    }

    /// Verified table cell for `(entry, address)` with the bloom filter
    /// consulted first — empty when filtered out, missed, or unstored: the
    /// votes the inference paths add for that pair.
    #[inline]
    #[must_use]
    pub fn lookup_entry_votes(&self, entry_id: u32, address: u64) -> Votes<'a> {
        if let Some(bloom) = &self.bloom {
            if !bloom.contains(table_key(entry_id, address)) {
                return Votes::empty();
            }
        }
        self.table.lookup(entry_id, address)
    }

    /// Classifies an encoded input through a caller-owned vote buffer,
    /// which is cleared and resized to `n_classes`. Bit-identical to
    /// [`BoltForest::classify_bits`] on the same structures.
    #[must_use]
    pub fn classify_bits_into(&self, bits: &Mask, votes: &mut Vec<f64>) -> u32 {
        votes.clear();
        votes.resize(self.n_classes, 0.0);
        self.scan_votes_into(bits, votes, None);
        argmax(votes)
    }

    /// Regression scan over raw bits: folds every surviving vote weight
    /// into `init` (start it at the model's constant sum) in ascending
    /// entry order, and returns the accumulated sum.
    #[must_use]
    pub fn accumulate_weights(&self, bits: &Mask, init: f64) -> f64 {
        let mut sum = init;
        self.dict.scan(bits, |entry_id| {
            self.matched_entry_weights(entry_id, self.dict.address_of(entry_id, bits), &mut sum);
        });
        sum
    }

    /// Feature-level regression: [`Self::accumulate_weights`] with the
    /// dictionary matched through the entry-bitmap index — same entries,
    /// same order, bit-identical sum.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::votes_with`].
    #[must_use]
    pub fn weight_sum_with(
        &self,
        universe: &PredicateUniverse,
        sample: &[f32],
        scratch: &mut BoltScratch,
        init: f64,
    ) -> f64 {
        let mut sum = init;
        self.for_each_sample_match(
            universe,
            sample,
            &mut scratch.matching,
            |entry_id, address| {
                self.matched_entry_weights(entry_id, address, &mut sum);
            },
        );
        sum
    }

    #[inline]
    fn matched_entry_weights(&self, entry_id: u32, address: u64, sum: &mut f64) {
        self.table.prefetch(entry_id, address);
        if let Some(bloom) = &self.bloom {
            if !bloom.contains(table_key(entry_id, address)) {
                return;
            }
        }
        for &value in self.table.lookup(entry_id, address).weights() {
            *sum += value;
        }
    }
}

/// A random forest compiled into Bolt's lookup structures: one dictionary,
/// one recombined table, one bloom filter, plus the forest's predicate
/// universe for input encoding.
///
/// See the crate-level docs for the full pipeline; the safety property
/// (classification equals the original forest for *all* inputs, §4 fn. 1)
/// is enforced by this crate's property tests.
///
/// Compiled artifacts serialize with Serde; after deserialization call
/// [`BoltForest::rebuild`] to restore the predicate universe's derived
/// lookup structures before classifying.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoltForest {
    universe: PredicateUniverse,
    dictionary: Dictionary,
    table: RecombinedTable,
    /// Entry-bitmap index over `dictionary` (see [`crate::index`]).
    /// Derived data, rebuilt rather than serialized.
    #[serde(skip)]
    index: EntryIndex,
    bloom: Option<BloomFilter>,
    /// Votes from single-leaf trees whose (empty) path matches every input.
    constant_votes: Vec<(u32, f64)>,
    n_classes: usize,
    n_trees: usize,
    /// Total vote weight across trees (`n_trees` for plain forests).
    total_weight: f64,
    config: BoltConfig,
}

impl BoltForest {
    /// Compiles a trained random forest (Fig. 1: compression → tables +
    /// dictionary → filters).
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::AddressTooWide`] when some tree path tests more
    /// distinct predicates than a cluster address can hold — the deep-tree
    /// regime where the paper recommends Forest Packing instead.
    pub fn compile(forest: &RandomForest, config: &BoltConfig) -> Result<Self, BoltError> {
        let universe = PredicateUniverse::from_forest(forest);
        let paths = bolt_forest::enumerate_paths(forest, &universe);
        Self::from_paths(
            universe,
            paths,
            forest.n_trees(),
            forest.n_classes(),
            config,
        )
    }

    /// Compiles a boosted forest; each path carries its tree's weight (§5).
    ///
    /// # Errors
    ///
    /// Same contract as [`BoltForest::compile`].
    pub fn compile_boosted(forest: &BoostedForest, config: &BoltConfig) -> Result<Self, BoltError> {
        let universe = PredicateUniverse::from_boosted(forest);
        let paths = bolt_forest::enumerate_weighted_paths(forest, &universe);
        Self::from_paths(
            universe,
            paths,
            forest.n_trees(),
            forest.n_classes(),
            config,
        )
    }

    fn from_paths(
        universe: PredicateUniverse,
        paths: Vec<BinaryPath>,
        n_trees: usize,
        n_classes: usize,
        config: &BoltConfig,
    ) -> Result<Self, BoltError> {
        if paths.is_empty() {
            return Err(BoltError::EmptyForest);
        }
        let total_weight = {
            // One matching path per tree: total per-input weight is the sum
            // of per-tree weights; paths of one tree share its weight.
            let mut per_tree = vec![None; n_trees];
            for p in &paths {
                per_tree[p.tree as usize] = Some(p.weight);
            }
            per_tree.iter().flatten().sum()
        };
        // Single-leaf trees yield empty-pair paths that match every input;
        // fold them into constant votes instead of tables.
        let (constant, real): (Vec<BinaryPath>, Vec<BinaryPath>) =
            paths.into_iter().partition(|p| p.pairs.is_empty());
        let constant_votes = constant.iter().map(|p| (p.class, p.weight)).collect();

        let (dictionary, table) = if real.is_empty() {
            let empty = Clustering::from_clusters(Vec::new(), config.cluster_threshold);
            (
                Dictionary::from_clustering(&empty, universe.len()),
                RecombinedTable::build(&empty, false),
            )
        } else {
            let sorted = SortedPaths::from_paths(real, n_trees);
            let clustering = Clustering::greedy(&sorted, config.cluster_threshold)?;
            (
                Dictionary::from_clustering(&clustering, universe.len()),
                RecombinedTable::build(&clustering, config.explanations),
            )
        };
        let bloom = (config.bloom_bits_per_key > 0)
            .then(|| BloomFilter::from_keys(table.keys(), config.bloom_bits_per_key));
        let index = EntryIndex::build(dictionary.view(), &universe);
        Ok(Self {
            universe,
            dictionary,
            index,
            table,
            bloom,
            constant_votes,
            n_classes,
            n_trees,
            total_weight,
            config: config.clone(),
        })
    }

    /// Encodes a raw sample into its predicate mask (the "features form
    /// table address" step of Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the universe's feature count.
    #[must_use]
    pub fn encode(&self, sample: &[f32]) -> Mask {
        self.universe.evaluate(sample)
    }

    /// Accumulated per-class vote weights for an encoded input.
    #[must_use]
    pub fn votes_for_bits(&self, bits: &Mask) -> Vec<f64> {
        let (votes, _) = self.votes_with_stats(bits);
        votes
    }

    /// Votes plus the per-inference counters used by the evaluation.
    #[must_use]
    pub fn votes_with_stats(&self, bits: &Mask) -> (Vec<f64>, InferenceStats) {
        let mut votes = vec![0.0f64; self.n_classes];
        let mut stats = InferenceStats {
            entries_scanned: self.dictionary.len(),
            ..InferenceStats::default()
        };
        self.scan_votes_into(bits, &mut votes, Some(&mut stats));
        (votes, stats)
    }

    /// A borrowed [`ForestView`] over the inference structures — the shape
    /// every inference path runs over, shared with memory-mapped artifacts.
    #[must_use]
    pub fn view(&self) -> ForestView<'_> {
        ForestView {
            dict: self.dictionary.view(),
            index: self.index.view(),
            table: self.table.view(),
            bloom: self.bloom.as_ref().map(BloomFilter::view),
            constant_votes: &self.constant_votes,
            n_classes: self.n_classes,
        }
    }

    /// The single shared scan body behind every inference path; see
    /// [`ForestView::scan_votes_into`]. Both the stats path and the
    /// allocation-free hot path call this, so the two can never drift.
    /// Votes must be zeroed by the caller.
    pub(crate) fn scan_votes_into(
        &self,
        bits: &Mask,
        votes: &mut [f64],
        stats: Option<&mut InferenceStats>,
    ) {
        self.view().scan_votes_into(bits, votes, stats);
    }

    /// Classifies an encoded input.
    #[must_use]
    pub fn classify_bits(&self, bits: &Mask) -> u32 {
        argmax(&self.votes_for_bits(bits))
    }

    /// Classifies a raw sample (encode + index match + lookups +
    /// aggregate), allocating a scratch for the call; serving loops use
    /// [`Self::classify_with`].
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the universe's feature count.
    #[must_use]
    pub fn classify(&self, sample: &[f32]) -> u32 {
        self.classify_with(sample, &mut self.scratch())
    }

    /// Creates a reusable scratch buffer for allocation-free inference via
    /// [`Self::classify_with`] (sized by its first use).
    #[must_use]
    pub fn scratch(&self) -> BoltScratch {
        BoltScratch::default()
    }

    /// Allocation-free classification: encodes into and aggregates through
    /// the caller's scratch buffer. Identical results to
    /// [`Self::classify`]; this is the service hot path.
    ///
    /// # Panics
    ///
    /// Panics if the sample is shorter than the universe's feature count.
    #[must_use]
    pub fn classify_with(&self, sample: &[f32], scratch: &mut BoltScratch) -> u32 {
        self.view().classify_with(&self.universe, sample, scratch)
    }

    /// Classifies and returns the inference counters — through the same
    /// body as [`Self::classify_with`], so the counters describe exactly
    /// what the hot path does.
    #[must_use]
    pub fn classify_with_stats(&self, sample: &[f32]) -> (u32, InferenceStats) {
        let mut stats = InferenceStats::default();
        let mut scratch = self.scratch();
        let votes = self
            .view()
            .votes_with(&self.universe, sample, &mut scratch, Some(&mut stats));
        (argmax(votes), stats)
    }

    /// Per-class vote fractions; for an unweighted forest this is bit-exact
    /// with [`RandomForest::predict_proba`].
    #[must_use]
    pub fn predict_proba(&self, sample: &[f32]) -> Vec<f32> {
        self.view()
            .votes_with(&self.universe, sample, &mut self.scratch(), None)
            .iter()
            .map(|&v| (v as f32) / (self.total_weight as f32))
            .collect()
    }

    /// Fraction of `data` classified correctly.
    #[must_use]
    pub fn accuracy(&self, data: &bolt_forest::Dataset) -> f64 {
        let correct = data
            .iter()
            .filter(|(sample, label)| self.classify(sample) == *label)
            .count();
        correct as f64 / data.len() as f64
    }

    /// The predicate universe used for input encoding.
    #[must_use]
    pub fn universe(&self) -> &PredicateUniverse {
        &self.universe
    }

    /// The compiled dictionary.
    #[must_use]
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The entry-bitmap index over the dictionary.
    #[must_use]
    pub fn index(&self) -> &EntryIndex {
        &self.index
    }

    /// The recombined lookup table.
    #[must_use]
    pub fn table(&self) -> &RecombinedTable {
        &self.table
    }

    /// The bloom filter, if enabled.
    #[must_use]
    pub fn bloom(&self) -> Option<&BloomFilter> {
        self.bloom.as_ref()
    }

    /// Constant votes contributed by single-leaf trees.
    #[must_use]
    pub fn constant_votes(&self) -> &[(u32, f64)] {
        &self.constant_votes
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of trees in the source forest.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Total vote weight across trees (`n_trees` for plain forests).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The configuration used at compile time.
    #[must_use]
    pub fn config(&self) -> &BoltConfig {
        &self.config
    }

    /// Restores derived structures after deserialization (the predicate
    /// universe's lookup index, feature groups, and the entry-bitmap index
    /// are not serialized).
    pub fn rebuild(&mut self) {
        self.universe.rebuild_index();
        self.index = EntryIndex::build(self.dictionary.view(), &self.universe);
    }

    /// Checks the paper's safety property against the source forest on a
    /// set of samples: classifications must match exactly. Returns the
    /// first mismatch, if any — a deployment-time guard for compiled
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`BoltError::InvalidConfig`] describing the first sample
    /// whose classification diverges.
    pub fn verify_against<'a>(
        &self,
        forest: &RandomForest,
        samples: impl IntoIterator<Item = &'a [f32]>,
    ) -> Result<usize, BoltError> {
        let mut scratch = self.scratch();
        let mut checked = 0usize;
        for sample in samples {
            let (got, expected) = (
                self.classify_with(sample, &mut scratch),
                forest.predict(sample),
            );
            if got != expected {
                return Err(BoltError::InvalidConfig {
                    detail: format!(
                        "safety violation on sample {checked}: bolt={got}, forest={expected}"
                    ),
                });
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Approximate resident bytes of the inference-time structures: the
    /// dictionary scan arrays, the entry-bitmap index, the table's hot-path
    /// slots (16 bytes each), and the bloom filter. This is the quantity
    /// §4.6's capacity-planning diagnosis weighs against LLC capacity.
    #[must_use]
    pub fn approx_resident_bytes(&self) -> usize {
        self.dictionary.scan_bytes()
            + self.index.heap_bytes()
            + self.table.capacity() * 16
            + self.bloom.as_ref().map_or(0, BloomFilter::size_bytes)
    }
}

/// Index of the largest vote; ties go to the lower class, matching
/// [`RandomForest::predict`].
pub(crate) fn argmax(votes: &[f64]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in votes.iter().enumerate().skip(1) {
        if v > votes[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_forest::{BoostConfig, Dataset, ForestConfig};

    fn dataset() -> Dataset {
        let rows: Vec<Vec<f32>> = (0..120)
            .map(|i| vec![(i % 8) as f32, (i % 5) as f32, (i % 3) as f32])
            .collect();
        let labels: Vec<u32> = rows
            .iter()
            .map(|r| u32::from(r[0] + r[1] > 6.0) + u32::from(r[0] > 5.0))
            .collect();
        Dataset::from_rows(rows, labels, 3).expect("valid")
    }

    #[test]
    fn safety_equivalence_on_training_data() {
        let data = dataset();
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(10).with_max_height(4).with_seed(5),
        );
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        for (sample, _) in data.iter() {
            assert_eq!(bolt.classify(sample), forest.predict(sample));
        }
    }

    #[test]
    fn safety_equivalence_on_unseen_inputs() {
        let data = dataset();
        let forest =
            RandomForest::train(&data, &ForestConfig::new(8).with_max_height(3).with_seed(9));
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        // Adversarial off-grid samples (fractional, negative, huge).
        for i in 0..200 {
            let sample = vec![
                (i as f32) * 0.37 - 3.0,
                (i as f32) * 1.21 - 10.0,
                (i as f32) * 0.05,
            ];
            assert_eq!(
                bolt.classify(&sample),
                forest.predict(&sample),
                "sample {i}"
            );
        }
    }

    #[test]
    fn total_votes_equal_tree_count() {
        let data = dataset();
        let forest =
            RandomForest::train(&data, &ForestConfig::new(7).with_max_height(4).with_seed(2));
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        for (sample, _) in data.iter().take(40) {
            let votes = bolt.votes_for_bits(&bolt.encode(sample));
            let total: f64 = votes.iter().sum();
            assert_eq!(total, 7.0, "every tree votes exactly once");
        }
    }

    #[test]
    fn proba_is_bit_exact_with_forest() {
        let data = dataset();
        let forest =
            RandomForest::train(&data, &ForestConfig::new(9).with_max_height(3).with_seed(4));
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        for (sample, _) in data.iter().take(30) {
            assert_eq!(bolt.predict_proba(sample), forest.predict_proba(sample));
        }
    }

    #[test]
    fn bloom_disabled_still_correct() {
        let data = dataset();
        let forest =
            RandomForest::train(&data, &ForestConfig::new(6).with_max_height(4).with_seed(7));
        let with = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let without =
            BoltForest::compile(&forest, &BoltConfig::default().with_bloom_bits_per_key(0))
                .expect("compiles");
        assert!(without.bloom().is_none());
        for (sample, _) in data.iter().take(40) {
            assert_eq!(with.classify(sample), without.classify(sample));
        }
    }

    #[test]
    fn bloom_reduces_table_misses() {
        let data = dataset();
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(10).with_max_height(4).with_seed(3),
        );
        let with = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let without =
            BoltForest::compile(&forest, &BoltConfig::default().with_bloom_bits_per_key(0))
                .expect("compiles");
        let (mut misses_with, mut misses_without) = (0usize, 0usize);
        for (sample, _) in data.iter() {
            misses_with += with.classify_with_stats(sample).1.table_misses;
            misses_without += without.classify_with_stats(sample).1.table_misses;
        }
        assert!(
            misses_with <= misses_without,
            "bloom should never add table misses ({misses_with} vs {misses_without})"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let data = dataset();
        let forest =
            RandomForest::train(&data, &ForestConfig::new(5).with_max_height(4).with_seed(8));
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let (class, stats) = bolt.classify_with_stats(data.sample(0));
        assert_eq!(class, bolt.classify(data.sample(0)));
        assert_eq!(stats.entries_scanned, bolt.dictionary().len());
        assert_eq!(stats.index_rows_read, bolt.index().view().rows_per_match());
        assert!(stats.index_rows_read <= bolt.universe().n_groups().max(1));
        // The raw-bits path counts the same matches and reads no index row.
        let (_, scan_stats) = bolt.votes_with_stats(&bolt.encode(data.sample(0)));
        assert_eq!(
            scan_stats,
            InferenceStats {
                index_rows_read: 0,
                ..stats
            }
        );
        assert_eq!(
            stats.entries_matched,
            stats.bloom_rejects + stats.table_hits + stats.table_misses
        );
        assert!(stats.table_hits >= 1, "at least one tree must vote");
    }

    #[test]
    fn threshold_trades_dictionary_for_table() {
        let data = dataset();
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(10).with_max_height(4).with_seed(6),
        );
        let fine = BoltForest::compile(&forest, &BoltConfig::default().with_cluster_threshold(0))
            .expect("compiles");
        let coarse =
            BoltForest::compile(&forest, &BoltConfig::default().with_cluster_threshold(12))
                .expect("compiles");
        assert!(
            coarse.dictionary().len() <= fine.dictionary().len(),
            "higher threshold must not grow the dictionary"
        );
        // Both remain correct.
        for (sample, _) in data.iter().take(30) {
            assert_eq!(fine.classify(sample), forest.predict(sample));
            assert_eq!(coarse.classify(sample), forest.predict(sample));
        }
    }

    #[test]
    fn boosted_votes_match_weighted_forest() {
        let data = dataset();
        let boosted = BoostedForest::train(&data, &BoostConfig::new(6).with_seed(3));
        let bolt = BoltForest::compile_boosted(&boosted, &BoltConfig::default()).expect("compiles");
        for (sample, _) in data.iter().take(40) {
            let expected = boosted.weighted_votes(sample);
            let got = bolt.votes_for_bits(&bolt.encode(sample));
            for (e, g) in expected.iter().zip(&got) {
                assert!((e - g).abs() < 1e-9, "votes {expected:?} vs {got:?}");
            }
            // Prediction agrees whenever the margin is not a float-order tie.
            let mut sorted = expected.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            if sorted[0] - sorted[1] > 1e-6 {
                assert_eq!(bolt.classify(sample), boosted.predict(sample));
            }
        }
    }

    #[test]
    fn single_leaf_trees_become_constant_votes() {
        use bolt_forest::{DecisionTree, NodeKind};
        let stump = DecisionTree::from_nodes(vec![NodeKind::Leaf { class: 1 }], 2, 2);
        let split = DecisionTree::from_nodes(
            vec![
                NodeKind::Split {
                    feature: 0,
                    threshold: 1.0,
                    left: 1,
                    right: 2,
                },
                NodeKind::Leaf { class: 0 },
                NodeKind::Leaf { class: 1 },
            ],
            2,
            2,
        );
        let forest = RandomForest::from_trees(vec![stump, split]).expect("forest");
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        assert_eq!(bolt.constant_votes(), &[(1, 1.0)]);
        assert_eq!(bolt.classify(&[0.0, 0.0]), forest.predict(&[0.0, 0.0]));
        assert_eq!(bolt.classify(&[5.0, 0.0]), forest.predict(&[5.0, 0.0]));
    }

    #[test]
    fn verify_against_accepts_true_compilations_and_detects_corruption() {
        let data = dataset();
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(6).with_max_height(4).with_seed(21),
        );
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let samples: Vec<&[f32]> = (0..60).map(|i| data.sample(i)).collect();
        assert_eq!(
            bolt.verify_against(&forest, samples.iter().copied())
                .expect("verifies"),
            60
        );
        // A *different* forest must be detected (unless it agrees everywhere).
        let other = RandomForest::train(
            &data,
            &ForestConfig::new(6).with_max_height(4).with_seed(99),
        );
        let disagrees = samples
            .iter()
            .any(|s| other.predict(s) != forest.predict(s));
        if disagrees {
            assert!(bolt
                .verify_against(&other, samples.iter().copied())
                .is_err());
        }
    }

    #[test]
    fn compiled_artifact_serializes_and_rebuilds() {
        let data = dataset();
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(6).with_max_height(4).with_seed(14),
        );
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let json = serde_json::to_string(&bolt).expect("serializes");
        let mut restored: BoltForest = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(
            restored.index(),
            &EntryIndex::default(),
            "index is not serialized"
        );
        restored.rebuild();
        assert_eq!(
            restored.index(),
            bolt.index(),
            "rebuild() restores the index"
        );
        let mut scratch = restored.scratch();
        for (sample, _) in data.iter().take(40) {
            assert_eq!(restored.classify(sample), forest.predict(sample));
            assert_eq!(
                restored.classify_with(sample, &mut scratch),
                forest.predict(sample)
            );
        }
    }

    #[test]
    fn one_scratch_serves_models_of_different_shapes() {
        let data = dataset();
        let small =
            RandomForest::train(&data, &ForestConfig::new(3).with_max_height(2).with_seed(1));
        let large =
            RandomForest::train(&data, &ForestConfig::new(9).with_max_height(5).with_seed(2));
        let small_bolt = BoltForest::compile(&small, &BoltConfig::default()).expect("compiles");
        let large_bolt = BoltForest::compile(&large, &BoltConfig::default()).expect("compiles");
        assert_ne!(small_bolt.universe().len(), large_bolt.universe().len());
        let mut scratch = BoltScratch::default();
        for (sample, _) in data.iter().take(30) {
            assert_eq!(
                small_bolt.classify_with(sample, &mut scratch),
                small.predict(sample)
            );
            assert_eq!(
                large_bolt.classify_with(sample, &mut scratch),
                large.predict(sample)
            );
        }
    }

    #[test]
    #[should_panic(expected = "features")]
    fn short_sample_panics() {
        let data = dataset();
        let forest =
            RandomForest::train(&data, &ForestConfig::new(3).with_max_height(3).with_seed(1));
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        // Every other feature-level path refuses it the same way: the
        // encode checks the length up front, whichever features it reads.
        let short: &[f32] = &[1.0]; // forest expects 3 features
        let regressor = {
            let rows: Vec<Vec<f32>> = data.iter().map(|(s, _)| s.to_vec()).collect();
            let targets = rows.iter().map(|r| r[0] - r[2]).collect();
            let data = bolt_forest::RegressionDataset::from_rows(rows, targets).expect("valid");
            let forest = bolt_forest::RegressionForest::train(
                &data,
                &bolt_forest::RegressionConfig::new(3).with_seed(1),
            );
            crate::BoltRegressor::compile(&forest, &BoltConfig::default()).expect("compiles")
        };
        let expect_panic = |what: &str, run: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).expect_err(what);
            let message = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("sample has 1 features, universe expects 3"),
                "{what}: {message}"
            );
        };
        expect_panic("batched", &|| {
            drop(bolt.classify_batch(&[data.sample(0), short]))
        });
        expect_panic("stats", &|| {
            let _ = bolt.classify_with_stats(short);
        });
        expect_panic("explained", &|| drop(bolt.classify_explained(short)));
        expect_panic("proba", &|| drop(bolt.predict_proba(short)));
        expect_panic("regressor", &|| {
            let _ = regressor.predict(short);
        });
        let _ = bolt.classify(short);
    }

    #[test]
    fn resident_bytes_accounts_all_structures() {
        let data = dataset();
        let forest =
            RandomForest::train(&data, &ForestConfig::new(6).with_max_height(4).with_seed(2));
        let with_bloom = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        let without =
            BoltForest::compile(&forest, &BoltConfig::default().with_bloom_bits_per_key(0))
                .expect("compiles");
        assert!(with_bloom.approx_resident_bytes() > without.approx_resident_bytes());
        assert!(without.approx_resident_bytes() >= without.table().capacity() * 16);
        assert_eq!(
            without.approx_resident_bytes(),
            without.dictionary().scan_bytes()
                + without.index().heap_bytes()
                + without.table().capacity() * 16
        );
        let universe = without.universe();
        assert_eq!(
            without.index().heap_bytes(),
            (universe.len() + universe.n_groups()) * without.dictionary().len().div_ceil(64) * 8
        );
    }

    #[test]
    fn forest_of_only_leaves_compiles() {
        use bolt_forest::{DecisionTree, NodeKind};
        let trees = vec![
            DecisionTree::from_nodes(vec![NodeKind::Leaf { class: 0 }], 1, 2),
            DecisionTree::from_nodes(vec![NodeKind::Leaf { class: 1 }], 1, 2),
            DecisionTree::from_nodes(vec![NodeKind::Leaf { class: 1 }], 1, 2),
        ];
        let forest = RandomForest::from_trees(trees).expect("forest");
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        assert!(bolt.dictionary().is_empty());
        assert_eq!(bolt.classify(&[3.0]), 1);
    }
}
