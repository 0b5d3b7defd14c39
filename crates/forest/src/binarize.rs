//! Forest-wide predicate binarization.
//!
//! Bolt operates on *binary* feature-value pairs (§4 of the paper): every
//! distinct `(feature, threshold)` split that appears anywhere in the forest
//! becomes one binary predicate, and each root→leaf path becomes a sorted
//! list of `(predicate, bool)` pairs. The number of distinct predicates `n`
//! is what drives lookup-table storage (the naïve table needs `2^n` entries).

use crate::{BoostedForest, DecisionTree, RandomForest};
use bolt_bitpack::Mask;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Identifier of a binary predicate within a [`PredicateUniverse`].
pub type PredId = u32;

/// One binary test: `sample[feature] <= threshold`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Feature index tested.
    pub feature: u32,
    /// Threshold compared against (the test is `<=`).
    pub threshold: f32,
}

impl Predicate {
    /// The canonical order of a [`PredicateUniverse`]: by feature, then by
    /// threshold under [`f32::total_cmp`]. It is total, so `-0.0` sorts
    /// strictly before `0.0`, and two predicates are equal under it
    /// exactly when their feature and threshold bits are.
    #[must_use]
    pub fn canonical_cmp(&self, other: &Self) -> Ordering {
        self.feature
            .cmp(&other.feature)
            .then(self.threshold.total_cmp(&other.threshold))
    }
}

/// The set of all distinct predicates used by a forest, in the canonical
/// order [`Predicate::canonical_cmp`] (by feature index, then threshold);
/// a predicate's ID is its position in that order.
///
/// # Examples
///
/// ```
/// use bolt_forest::{Dataset, ForestConfig, PredicateUniverse, RandomForest};
///
/// let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![(i % 4) as f32]).collect();
/// let labels: Vec<u32> = (0..20).map(|i| u32::from(i % 4 > 1)).collect();
/// let data = Dataset::from_rows(rows, labels, 2)?;
/// let forest = RandomForest::train(&data, &ForestConfig::new(3).with_seed(9));
/// let universe = PredicateUniverse::from_forest(&forest);
/// let bits = universe.evaluate(&[2.0]);
/// assert_eq!(bits.width(), universe.len());
/// # Ok::<(), bolt_forest::ForestError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PredicateUniverse {
    preds: Vec<Predicate>,
    /// Per-feature contiguous runs of predicates (the canonical order sorts
    /// by feature then threshold), enabling the monotone fast paths of
    /// [`PredicateUniverse::evaluate_into`] and
    /// [`PredicateUniverse::run_starts_into`].
    #[serde(skip)]
    groups: FeatureGroup,
    n_features: usize,
}

/// Per-feature contiguous predicate runs stored as flat parallel arrays
/// (cache-friendly: one pass over three dense vectors per encode).
#[derive(Clone, Debug, Default, PartialEq)]
struct FeatureGroup {
    /// Feature index of group `g`.
    features: Vec<u32>,
    /// `offsets[g]..offsets[g + 1]` indexes both the flat `thresholds` and
    /// the predicate IDs (groups are contiguous ID runs by construction).
    offsets: Vec<u32>,
    /// All thresholds, ascending within each group.
    thresholds: Vec<f32>,
}

fn build_groups(preds: &[Predicate]) -> FeatureGroup {
    let mut groups = FeatureGroup::default();
    for (i, p) in preds.iter().enumerate() {
        if groups.features.last() != Some(&p.feature) {
            groups.features.push(p.feature);
            groups.offsets.push(i as u32);
        }
        groups.thresholds.push(p.threshold);
    }
    groups.offsets.push(preds.len() as u32);
    groups
}

/// Sets bits `start..end` of `words` (bit `i` lives in word `i / 64`),
/// word by word.
#[inline]
fn set_bit_run(words: &mut [u64], start: usize, end: usize) {
    let mut bit = start;
    while bit < end {
        let offset = bit % 64;
        let span = (64 - offset).min(end - bit);
        let mask = if span == 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << offset
        };
        words[bit / 64] |= mask;
        bit += span;
    }
}

impl PredicateUniverse {
    /// Builds a universe from raw `(feature, threshold)` split pairs
    /// (deduplicated), for tree representations beyond [`DecisionTree`]
    /// such as regression trees. The order, and so every predicate ID,
    /// depends only on the set of splits, not on the order they come in.
    ///
    /// # Panics
    ///
    /// Panics on a NaN threshold: no sample satisfies it, so it has no
    /// place in the ascending run of its feature's group.
    #[must_use]
    pub fn from_splits(splits: impl IntoIterator<Item = (u32, f32)>, n_features: usize) -> Self {
        let mut preds: Vec<Predicate> = splits
            .into_iter()
            .map(|(feature, threshold)| {
                assert!(
                    !threshold.is_nan(),
                    "NaN split threshold on feature {feature}"
                );
                Predicate { feature, threshold }
            })
            .collect();
        preds.sort_unstable_by(Predicate::canonical_cmp);
        preds.dedup_by(|a, b| a.canonical_cmp(b).is_eq());
        Self::from_canonical(preds, n_features)
    }

    /// Builds a universe from predicates already in canonical order:
    /// strictly ascending under [`Predicate::canonical_cmp`] (so distinct),
    /// with no NaN threshold. The caller guarantees the order — a loader
    /// checks it once while reading — and predicate `i` gets ID `i`.
    #[must_use]
    pub fn from_canonical(preds: Vec<Predicate>, n_features: usize) -> Self {
        debug_assert!(
            preds.windows(2).all(|w| w[0].canonical_cmp(&w[1]).is_lt()),
            "predicates not strictly ascending in canonical order"
        );
        let groups = build_groups(&preds);
        Self {
            preds,
            groups,
            n_features,
        }
    }

    fn from_trees<'a>(trees: impl Iterator<Item = &'a DecisionTree>, n_features: usize) -> Self {
        let splits = trees.flat_map(|tree| {
            tree.nodes().iter().filter_map(|node| match *node {
                crate::NodeKind::Split {
                    feature, threshold, ..
                } => Some((feature, threshold)),
                crate::NodeKind::Leaf { .. } => None,
            })
        });
        Self::from_splits(splits, n_features)
    }

    /// Collects the predicate universe of a random forest.
    #[must_use]
    pub fn from_forest(forest: &RandomForest) -> Self {
        Self::from_trees(forest.trees().iter(), forest.n_features())
    }

    /// Collects the predicate universe of a boosted forest.
    #[must_use]
    pub fn from_boosted(forest: &BoostedForest) -> Self {
        Self::from_trees(forest.iter().map(|(t, _)| t), forest.n_features())
    }

    /// Number of distinct predicates (the `n` of the paper's `2^n` bound).
    #[must_use]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the universe is empty (forest of pure leaves).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Number of raw input features the forest reads.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The predicate with ID `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn predicate(&self, id: PredId) -> Predicate {
        self.preds[id as usize]
    }

    /// Looks up the ID of a `(feature, threshold)` predicate: a binary
    /// search of the canonical order, so it finds the predicate with these
    /// exact threshold bits (`-0.0` and `0.0` are two predicates).
    #[must_use]
    pub fn id_of(&self, feature: u32, threshold: f32) -> Option<PredId> {
        let key = Predicate { feature, threshold };
        self.preds
            .binary_search_by(|p| p.canonical_cmp(&key))
            .ok()
            .map(|i| i as PredId)
    }

    /// Evaluates every predicate against a sample, producing one bit per
    /// predicate (bit `i` is `sample[feature_i] <= threshold_i`).
    ///
    /// This is the input-side encoding step of Bolt inference: the returned
    /// mask feeds the branch-free dictionary scan.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is shorter than [`Self::n_features`].
    #[must_use]
    pub fn evaluate(&self, sample: &[f32]) -> Mask {
        let mut bits = Mask::zeros(self.preds.len());
        self.evaluate_into(sample, &mut bits);
        bits
    }

    /// Allocation-free variant of [`Self::evaluate`]: clears `out` and fills
    /// it. Exploits the monotone structure of threshold tests — for a fixed
    /// feature, `v <= t` flips from false to true exactly once along the
    /// ascending thresholds — so each feature costs one comparison search
    /// plus one word-wise bit-run write.
    ///
    /// The `Mask` is what the reference scan reads; inference paths that
    /// start from raw features encode only what the entry-bitmap index
    /// reads ([`Self::run_starts_into`], [`Self::holds`]).
    ///
    /// # Panics
    ///
    /// Panics if `sample` is shorter than [`Self::n_features`] or `out` was
    /// not sized to [`Self::len`] bits.
    pub fn evaluate_into(&self, sample: &[f32], out: &mut Mask) {
        self.check_sample(sample);
        assert_eq!(out.width(), self.preds.len(), "output mask width mismatch");
        out.clear();
        let words = out.as_mut_words();
        let g = &self.groups;
        for gi in 0..g.features.len() {
            let v = sample[g.features[gi] as usize];
            if v.is_nan() {
                continue; // NaN <= t is false for every threshold
            }
            // First threshold with t >= v: predicates from there on are
            // true. Groups are tiny, so a forward scan beats binary search.
            let (lo, hi) = (g.offsets[gi] as usize, g.offsets[gi + 1] as usize);
            let mut pos = lo;
            while pos < hi && g.thresholds[pos] < v {
                pos += 1;
            }
            set_bit_run(words, pos, hi);
        }
    }

    /// Writes, for each feature group `groups` lists, where the sample's run
    /// of true bits starts in that group: `run_starts[i]` is the predicate
    /// ID of group `groups[i]`'s first true bit, or the group's end when
    /// none is true (a NaN feature, or a value above every threshold). Bits
    /// of the group before that ID are false and bits from it on are true,
    /// so the one number fixes the group's whole outcome — the bucket an
    /// entry-bitmap index selects its row by.
    ///
    /// Thresholds ascend, so the predicates that hold are a suffix of the
    /// group and the run start is the group's end minus how many hold: one
    /// branch-free count of `v <= t` the compiler vectorizes, in place of
    /// [`Self::evaluate_into`]'s search. A NaN satisfies no threshold and a
    /// value exactly on one satisfies it, as in the search. Groups not
    /// listed are not read, and no bit vector is built.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is shorter than [`Self::n_features`] (whichever
    /// groups are listed), `run_starts` is not as long as `groups`, or a
    /// listed group is out of range.
    pub fn run_starts_into(&self, sample: &[f32], groups: &[u32], run_starts: &mut [u32]) {
        self.check_sample(sample);
        assert_eq!(
            run_starts.len(),
            groups.len(),
            "run-start buffer length mismatch"
        );
        let g = &self.groups;
        for (start, &group) in run_starts.iter_mut().zip(groups) {
            let group = group as usize;
            let v = sample[g.features[group] as usize];
            let (lo, hi) = (g.offsets[group] as usize, g.offsets[group + 1]);
            let held: u32 = g.thresholds[lo..hi as usize]
                .iter()
                .map(|&t| u32::from(v <= t))
                .sum();
            *start = hi - held;
        }
    }

    /// Whether predicate `pred` holds for `sample`: the single compare
    /// `sample[feature] <= threshold`, equal to bit `pred` of
    /// [`Self::evaluate`]. Callers check the sample's length first
    /// ([`Self::run_starts_into`] does).
    ///
    /// # Panics
    ///
    /// Panics if `pred` is out of range or `sample` lacks its feature.
    #[inline]
    #[must_use]
    pub fn holds(&self, pred: PredId, sample: &[f32]) -> bool {
        let p = self.preds[pred as usize];
        sample[p.feature as usize] <= p.threshold
    }

    /// The up-front contract of every encode: the sample carries every
    /// feature the universe reads, and the derived groups exist.
    fn check_sample(&self, sample: &[f32]) {
        assert!(
            sample.len() >= self.n_features,
            "sample has {} features, universe expects {}",
            sample.len(),
            self.n_features
        );
        assert!(
            self.preds.is_empty() || !self.groups.features.is_empty(),
            "predicate universe used before rebuild_index() after deserialization"
        );
    }

    /// Number of feature groups: distinct features some predicate tests.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.groups.features.len()
    }

    /// Predicate-ID boundaries of the feature groups: group `g` owns IDs
    /// `group_offsets()[g]..group_offsets()[g + 1]`, thresholds ascending.
    /// [`Self::n_groups`]` + 1` long.
    #[must_use]
    pub fn group_offsets(&self) -> &[u32] {
        &self.groups.offsets
    }

    /// Rebuilds the feature groups (needed after deserialization, which
    /// skips the derived structure).
    pub fn rebuild_index(&mut self) {
        self.groups = build_groups(&self.preds);
    }
}

/// One root→leaf path in predicate space: `(predicate, value)` pairs sorted
/// by predicate ID, plus the leaf class, owning tree, and tree weight
/// (1.0 for plain random forests; the boosting weight for boosted forests).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BinaryPath {
    /// Sorted, deduplicated `(predicate, bool)` pairs along the path.
    pub pairs: Vec<(PredId, bool)>,
    /// Leaf classification result.
    pub class: u32,
    /// Index of the tree this path came from.
    pub tree: u32,
    /// Vote weight of the owning tree.
    pub weight: f64,
}

impl BinaryPath {
    /// Whether an evaluated predicate mask satisfies every pair of the path.
    #[must_use]
    pub fn matches(&self, bits: &Mask) -> bool {
        self.pairs.iter().all(|&(p, v)| bits.get(p as usize) == v)
    }
}

fn tree_binary_paths(
    tree: &DecisionTree,
    tree_id: u32,
    weight: f64,
    universe: &PredicateUniverse,
) -> Vec<BinaryPath> {
    let mut out = Vec::with_capacity(tree.n_leaves());
    'paths: for path in tree.paths() {
        let mut pairs: Vec<(PredId, bool)> = Vec::with_capacity(path.tests.len());
        for (feature, threshold, taken) in path.tests {
            let id = universe
                .id_of(feature, threshold)
                .expect("universe built from this forest");
            match pairs.iter().find(|&&(p, _)| p == id) {
                // Same predicate retested with the same outcome: redundant.
                Some(&(_, v)) if v == taken => {}
                // Contradictory retest: the path is unreachable; drop it.
                Some(_) => continue 'paths,
                None => pairs.push((id, taken)),
            }
        }
        pairs.sort_unstable_by_key(|&(p, v)| (p, v));
        out.push(BinaryPath {
            pairs,
            class: path.class,
            tree: tree_id,
            weight,
        });
    }
    out
}

/// Enumerates every (reachable) root→leaf path of the forest in predicate
/// space — Fig. 3 step 1 of the paper.
#[must_use]
pub fn enumerate_paths(forest: &RandomForest, universe: &PredicateUniverse) -> Vec<BinaryPath> {
    forest
        .trees()
        .iter()
        .enumerate()
        .flat_map(|(t, tree)| tree_binary_paths(tree, t as u32, 1.0, universe))
        .collect()
}

/// Enumerates weighted paths of a boosted forest (§5: gradient boosting is
/// supported "by simply adding the corresponding tree weight to each path").
#[must_use]
pub fn enumerate_weighted_paths(
    forest: &BoostedForest,
    universe: &PredicateUniverse,
) -> Vec<BinaryPath> {
    forest
        .iter()
        .enumerate()
        .flat_map(|(t, (tree, w))| tree_binary_paths(tree, t as u32, w, universe))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, ForestConfig, NodeKind};
    use proptest::prelude::*;

    fn trained() -> (Dataset, RandomForest, PredicateUniverse) {
        let rows: Vec<Vec<f32>> = (0..60)
            .map(|i| vec![(i % 6) as f32, (i % 5) as f32])
            .collect();
        let labels: Vec<u32> = (0..60).map(|i| u32::from(i % 6 > 2)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(4).with_max_height(3).with_seed(21),
        );
        let universe = PredicateUniverse::from_forest(&forest);
        (data, forest, universe)
    }

    #[test]
    fn universe_ids_are_canonical_and_total() {
        let (_, forest, universe) = trained();
        let mut count = 0;
        for tree in forest.trees() {
            for node in tree.nodes() {
                if let NodeKind::Split {
                    feature, threshold, ..
                } = *node
                {
                    assert!(universe.id_of(feature, threshold).is_some());
                    count += 1;
                }
            }
        }
        assert!(universe.len() <= count, "universe must deduplicate splits");
        // Canonical order: sorted by (feature, threshold).
        for w in 0..universe.len().saturating_sub(1) {
            let a = universe.predicate(w as u32);
            let b = universe.predicate(w as u32 + 1);
            assert!(
                (a.feature, a.threshold) <= (b.feature, b.threshold),
                "universe must be sorted"
            );
        }
    }

    #[test]
    fn evaluate_matches_direct_comparison() {
        let (data, _, universe) = trained();
        for i in 0..data.len().min(20) {
            let sample = data.sample(i);
            let bits = universe.evaluate(sample);
            for p in 0..universe.len() {
                let pred = universe.predicate(p as u32);
                assert_eq!(bits.get(p), sample[pred.feature as usize] <= pred.threshold);
            }
        }
    }

    #[test]
    fn evaluate_into_matches_naive_on_special_values() {
        let (_, _, universe) = trained();
        let naive = |sample: &[f32]| {
            let mut bits = Mask::zeros(universe.len());
            for p in 0..universe.len() {
                let pred = universe.predicate(p as u32);
                if sample[pred.feature as usize] <= pred.threshold {
                    bits.set(p, true);
                }
            }
            bits
        };
        let specials: Vec<Vec<f32>> = vec![
            vec![f32::NAN, 0.0],
            vec![f32::MAX, f32::MIN],
            vec![-0.0, 0.0],
            vec![f32::INFINITY, f32::NEG_INFINITY],
            vec![2.5, -7.125],
        ];
        for sample in specials {
            assert_eq!(
                universe.evaluate(&sample),
                naive(&sample),
                "sample {sample:?}"
            );
        }
    }

    fn universe_of(thresholds: &[Vec<f32>]) -> PredicateUniverse {
        let splits = thresholds
            .iter()
            .enumerate()
            .flat_map(|(f, ts)| ts.iter().map(move |&t| (f as u32, t)));
        PredicateUniverse::from_splits(splits, thresholds.len())
    }

    /// The index-side encode must agree with the `Mask` reference on every
    /// sample: each listed group's run start splits that group of
    /// `evaluate(s)` into false bits below it and true bits from it on (so
    /// it is the group's first set bit, or its end), and every single
    /// compare is its predicate's bit. Listed are all groups, and every
    /// other one — an index hands in the subset that constrains.
    fn assert_encode_equals_evaluate(universe: &PredicateUniverse, samples: &[Vec<f32>]) {
        let offsets = universe.group_offsets();
        let all: Vec<u32> = (0..universe.n_groups() as u32).collect();
        let odd: Vec<u32> = all.iter().copied().filter(|g| g % 2 == 1).collect();
        for sample in samples {
            let bits = universe.evaluate(sample);
            for groups in [&all, &odd] {
                let mut starts = vec![u32::MAX; groups.len()];
                universe.run_starts_into(sample, groups, &mut starts);
                for (&g, &start) in groups.iter().zip(&starts) {
                    let (lo, hi) = (offsets[g as usize], offsets[g as usize + 1]);
                    assert!((lo..=hi).contains(&start), "start inside group {g}");
                    for p in lo..hi {
                        assert_eq!(
                            bits.get(p as usize),
                            p >= start,
                            "group {g} is false below its run start and true from it on ({sample:?})"
                        );
                    }
                }
            }
            for p in 0..universe.len() {
                assert_eq!(
                    universe.holds(p as PredId, sample),
                    bits.get(p),
                    "predicate {p} of {sample:?}"
                );
            }
        }
    }

    #[test]
    fn run_starts_locate_the_first_true_bit_of_each_group() {
        let (data, _, universe) = trained();
        let offsets = universe.group_offsets();
        assert_eq!(offsets.len(), universe.n_groups() + 1);
        assert_eq!(*offsets.last().expect("sentinel") as usize, universe.len());
        let mut samples: Vec<Vec<f32>> = (0..20).map(|i| data.sample(i).to_vec()).collect();
        samples.push(vec![f32::NAN, f32::INFINITY]);
        samples.push(vec![f32::NEG_INFINITY, f32::NAN]);
        // Exactly on the first group's first threshold.
        samples.push(vec![universe.predicate(0).threshold, 0.0]);
        assert_encode_equals_evaluate(&universe, &samples);
    }

    /// Per feature: NaN, both infinities, below and above every threshold,
    /// and each threshold exactly, one ULP below and one ULP above.
    fn probe_values(thresholds: &[f32]) -> Vec<f32> {
        let mut values = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1e30, 1e30];
        for &t in thresholds {
            values.extend([t, t.next_down(), t.next_up()]);
        }
        values
    }

    #[test]
    fn encode_equals_evaluate_on_probe_values() {
        // Feature 0's 70 thresholds straddle a 64-bit word, feature 2's
        // group starts mid-word after it, and features 2 and 3 carry `-0.0`
        // thresholds (feature 3 beside `0.0`, which compares equal to it).
        let thresholds = vec![
            (0..70).map(|i| i as f32 * 0.5 - 3.0).collect::<Vec<f32>>(),
            vec![0.5],
            vec![-1.0, -0.0, 2.5],
            vec![0.0, -0.0],
        ];
        let universe = universe_of(&thresholds);
        assert_eq!((universe.len(), universe.n_groups()), (76, 4));
        let probes: Vec<Vec<f32>> = thresholds.iter().map(|ts| probe_values(ts)).collect();
        // Every probe of each feature, against rotating probes of the rest.
        let longest = probes.iter().map(Vec::len).max().expect("features");
        let samples: Vec<Vec<f32>> = (0..longest * 3)
            .map(|i| {
                probes
                    .iter()
                    .enumerate()
                    .map(|(f, values)| values[(i / (f + 1) + f) % values.len()])
                    .collect()
            })
            .collect();
        assert_encode_equals_evaluate(&universe, &samples);
    }

    #[test]
    fn encode_handles_empty_groups_and_zero_predicate_universes() {
        // Feature 1 has no threshold, so it forms no group.
        let wide = universe_of(&[vec![0.0, 1.0], vec![], vec![5.0]]);
        assert_eq!(wide.n_groups(), 2);
        let samples = [[0.5f32, 9.0, f32::NAN], [1.0, 0.0, 5.0], [-1.0, 0.0, 6.0]];
        assert_encode_equals_evaluate(&wide, &samples.map(|s| s.to_vec()));
        let mut starts = [0u32; 2];
        wide.run_starts_into(&samples[0], &[0, 1], &mut starts);
        assert_eq!(starts, [1, 3], "0.5 holds for 1.0 only; NaN for nothing");

        let narrow = universe_of(&[vec![2.0]]);
        let mut start = [9u32];
        narrow.run_starts_into(&[2.0], &[0], &mut start);
        assert_eq!(start, [0]);
        narrow.run_starts_into(&[2.5], &[0], &mut start);
        assert_eq!(start, [1]);

        // No predicates at all: no groups to encode, nothing to compare.
        for empty in [universe_of(&[vec![]]), universe_of(&[])] {
            assert_eq!((empty.len(), empty.n_groups()), (0, 0));
            empty.run_starts_into(&[7.0], &[], &mut []);
            assert_encode_equals_evaluate(&empty, &[vec![7.0], vec![f32::NAN]]);
        }
    }

    #[test]
    #[should_panic(expected = "sample has 1 features, universe expects 2")]
    fn encode_rejects_a_short_sample_whichever_groups_it_reads() {
        let universe = universe_of(&[vec![0.0], vec![1.0]]);
        // Group 0 reads only feature 0, which the sample has.
        universe.run_starts_into(&[0.0], &[0], &mut [0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random universes (up to 90 thresholds on a feature, so groups
        /// straddle words) and random samples mixing ordinary values with
        /// NaN, infinities and exact thresholds.
        #[test]
        fn encode_equals_evaluate(
            seed in any::<u64>(),
            n_features in 1usize..=5,
            n_samples in 0usize..=70,
        ) {
            // splitmix64, so a case is reproducible from its seed.
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let thresholds: Vec<Vec<f32>> = (0..n_features)
                .map(|_| {
                    let n = [0, 1, 3, 40, 90][(next() % 5) as usize];
                    (0..n).map(|_| (next() % 2001) as f32 * 0.01 - 10.0).collect()
                })
                .collect();
            let universe = universe_of(&thresholds);
            let samples: Vec<Vec<f32>> = (0..n_samples)
                .map(|_| {
                    thresholds
                        .iter()
                        .map(|ts| match next() % 8 {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            2 => f32::NEG_INFINITY,
                            3 if !ts.is_empty() => ts[(next() % ts.len() as u64) as usize],
                            4 if !ts.is_empty() => ts[(next() % ts.len() as u64) as usize].next_up(),
                            _ => (next() % 2401) as f32 * 0.01 - 12.0,
                        })
                        .collect()
                })
                .collect();
            assert_encode_equals_evaluate(&universe, &samples);
        }
    }

    #[test]
    fn exactly_one_path_matches_per_tree() {
        // The paper's §4 invariant: "Each tree has exactly one matching path
        // for a given input."
        let (data, forest, universe) = trained();
        let paths = enumerate_paths(&forest, &universe);
        for i in 0..data.len().min(30) {
            let bits = universe.evaluate(data.sample(i));
            for t in 0..forest.n_trees() {
                let matching: Vec<&BinaryPath> = paths
                    .iter()
                    .filter(|p| p.tree == t as u32 && p.matches(&bits))
                    .collect();
                assert_eq!(matching.len(), 1, "tree {t}, sample {i}");
                assert_eq!(
                    matching[0].class,
                    forest.trees()[t].predict(data.sample(i)),
                    "path class must equal tree prediction"
                );
            }
        }
    }

    #[test]
    fn paths_are_sorted_and_unique_per_pred() {
        let (_, forest, universe) = trained();
        for path in enumerate_paths(&forest, &universe) {
            for w in path.pairs.windows(2) {
                assert!(w[0].0 < w[1].0, "pairs sorted and deduplicated: {path:?}");
            }
        }
    }

    #[test]
    fn contradictory_paths_are_dropped() {
        // Hand-built tree that retests the same predicate contradictorily:
        // root: x0 <= 1 ? (x0 <= 1 ? c0 : c1) : c1 — the inner "no" edge is
        // unreachable.
        let tree = DecisionTree::from_nodes(
            vec![
                NodeKind::Split {
                    feature: 0,
                    threshold: 1.0,
                    left: 1,
                    right: 4,
                },
                NodeKind::Split {
                    feature: 0,
                    threshold: 1.0,
                    left: 2,
                    right: 3,
                },
                NodeKind::Leaf { class: 0 },
                NodeKind::Leaf { class: 1 },
                NodeKind::Leaf { class: 1 },
            ],
            1,
            2,
        );
        let forest = RandomForest::from_trees(vec![tree]).expect("single tree");
        let universe = PredicateUniverse::from_forest(&forest);
        let paths = enumerate_paths(&forest, &universe);
        // 3 leaves but one unreachable path.
        assert_eq!(paths.len(), 2);
        // Redundant retest collapses to a single pair.
        assert!(paths.iter().all(|p| p.pairs.len() == 1));
    }

    #[test]
    fn weighted_paths_carry_boost_weights() {
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let boosted = crate::BoostedForest::train(&data, &crate::BoostConfig::new(3).with_seed(8));
        let universe = PredicateUniverse::from_boosted(&boosted);
        let paths = enumerate_weighted_paths(&boosted, &universe);
        assert!(!paths.is_empty());
        assert!(paths.iter().all(|p| p.weight > 0.0));
        // Every path carries exactly its owning tree's boosting weight.
        let tree_weights: Vec<f64> = boosted.iter().map(|(_, w)| w).collect();
        for path in &paths {
            assert_eq!(path.weight, tree_weights[path.tree as usize]);
        }
    }

    #[test]
    fn canonical_order_ignores_split_order_and_separates_signed_zeros() {
        let splits = [
            (0, -0.0f32),
            (0, 0.0),
            (0, 1.0),
            (0, -1.0),
            (1, 0.0),
            (0, 0.0),
        ];
        let want = [(0, -1.0f32), (0, -0.0), (0, 0.0), (0, 1.0), (1, 0.0)]
            .map(|(f, t)| (f, t.to_bits()))
            .to_vec();
        // Every rotation, forwards and backwards.
        for r in 0..splits.len() {
            let mut order = splits.to_vec();
            order.rotate_left(r);
            for order in [order.clone(), order.into_iter().rev().collect()] {
                let universe = PredicateUniverse::from_splits(order, 2);
                let got: Vec<(u32, u32)> = (0..universe.len() as u32)
                    .map(|id| universe.predicate(id))
                    .map(|p| (p.feature, p.threshold.to_bits()))
                    .collect();
                assert_eq!(got, want);
                assert_eq!(universe.id_of(0, -0.0), Some(1));
                assert_eq!(universe.id_of(0, 0.0), Some(2));
                assert_eq!(universe.id_of(1, -0.0), None, "bits, not float equality");
                assert_eq!(universe.id_of(2, 0.0), None);
            }
        }
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let (_, _, universe) = trained();
        let json = serde_json::to_string(&universe).expect("serialize");
        let mut restored: PredicateUniverse = serde_json::from_str(&json).expect("deserialize");
        restored.rebuild_index();
        for p in 0..universe.len() {
            let pred = universe.predicate(p as u32);
            assert_eq!(restored.id_of(pred.feature, pred.threshold), Some(p as u32));
        }
    }
}
