//! Differential-testing oracle: randomized forests, adversarial inputs,
//! and bit-exact equivalence checks against the reference traversal.
//!
//! Bolt's entire claim (§4, footnote 1 of the paper) is that the compiled
//! dictionary + table + bloom pipeline classifies **identically** to the
//! source forest for every input. This module is the reusable half of that
//! guarantee: generators for structurally adversarial forests (duplicate
//! thresholds, single-leaf trees, skewed depths, boosted weights) and
//! inputs (threshold-boundary values, NaN/infinite features, all-zero and
//! all-one predicate vectors), plus checkers that report the first
//! divergence. The `differential` integration test drives these across the
//! full configuration matrix; later performance PRs regress against the
//! same oracle.
//!
//! The generators use a self-contained splitmix64 generator
//! ([`OracleRng`]) rather than an external RNG crate so the oracle is
//! available to downstream crates without extra dependencies, and so a
//! failing case is reproducible from its single `u64` seed.

use crate::engine::{BoltConfig, BoltForest};
use bolt_forest::{BoostedForest, Dataset, DecisionTree, NodeKind, RandomForest};

/// Deterministic splitmix64 generator; one seed fully determines every
/// forest and input the oracle produces.
#[derive(Clone, Debug)]
pub struct OracleRng {
    state: u64,
}

impl OracleRng {
    /// Creates a generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is empty");
        (((u128::from(self.next_u64())) * (n as u128)) >> 64) as usize
    }

    /// Returns true with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        lo + (hi - lo) * unit
    }
}

/// Shape parameters for one randomly generated forest.
#[derive(Clone, Debug)]
pub struct ForestSpec {
    /// Input dimensionality.
    pub n_features: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth (a tree may stop early).
    pub max_depth: usize,
    /// Threshold values splits draw from. A small pool forces the
    /// duplicate-threshold regime where predicate deduplication and the
    /// monotone evaluation fast path must agree with raw traversal.
    pub threshold_pool: Vec<f32>,
    /// Probability that a whole tree is a single leaf (constant-vote
    /// path with an empty predicate set).
    pub single_leaf_prob: f64,
}

impl ForestSpec {
    /// Draws a randomized specification: 1–6 features, 2–5 classes, 1–8
    /// trees, depth 1–5, and a pool of 2–6 quarter-step thresholds.
    #[must_use]
    pub fn sampled(rng: &mut OracleRng) -> Self {
        let pool_len = 2 + rng.below(5);
        let threshold_pool = (0..pool_len)
            // Quarter steps in [-4, 4): duplicates across trees are likely
            // and boundary inputs can hit thresholds exactly.
            .map(|_| (rng.below(32) as f32) * 0.25 - 4.0)
            .collect();
        Self {
            n_features: 1 + rng.below(6),
            n_classes: 2 + rng.below(4),
            n_trees: 1 + rng.below(8),
            max_depth: 1 + rng.below(5),
            threshold_pool,
            single_leaf_prob: 0.15,
        }
    }
}

fn grow_subtree(
    nodes: &mut Vec<NodeKind>,
    depth_left: usize,
    spec: &ForestSpec,
    rng: &mut OracleRng,
) -> u32 {
    let idx = nodes.len() as u32;
    if depth_left == 0 || rng.chance(0.25) {
        nodes.push(NodeKind::Leaf {
            class: rng.below(spec.n_classes) as u32,
        });
        return idx;
    }
    // Reserve the parent slot so both children point strictly forward.
    nodes.push(NodeKind::Leaf { class: 0 });
    let feature = rng.below(spec.n_features) as u32;
    let threshold = if rng.chance(0.9) {
        spec.threshold_pool[rng.below(spec.threshold_pool.len())]
    } else {
        rng.uniform(-8.0, 8.0)
    };
    let left = grow_subtree(nodes, depth_left - 1, spec, rng);
    let right = grow_subtree(nodes, depth_left - 1, spec, rng);
    nodes[idx as usize] = NodeKind::Split {
        feature,
        threshold,
        left,
        right,
    };
    idx
}

/// Generates one random decision tree under `spec`.
#[must_use]
pub fn random_tree(spec: &ForestSpec, rng: &mut OracleRng) -> DecisionTree {
    let mut nodes = Vec::new();
    if rng.chance(spec.single_leaf_prob) {
        nodes.push(NodeKind::Leaf {
            class: rng.below(spec.n_classes) as u32,
        });
    } else {
        // Force at least one split so not every tree degenerates.
        nodes.push(NodeKind::Leaf { class: 0 });
        let feature = rng.below(spec.n_features) as u32;
        let threshold = spec.threshold_pool[rng.below(spec.threshold_pool.len())];
        let left = grow_subtree(&mut nodes, spec.max_depth - 1, spec, rng);
        let right = grow_subtree(&mut nodes, spec.max_depth - 1, spec, rng);
        nodes[0] = NodeKind::Split {
            feature,
            threshold,
            left,
            right,
        };
    }
    DecisionTree::from_nodes(nodes, spec.n_features, spec.n_classes)
}

/// Generates a random forest under `spec`.
///
/// # Panics
///
/// Panics only if the generated trees disagree on shape, which would be a
/// bug in this generator.
#[must_use]
pub fn random_forest(spec: &ForestSpec, rng: &mut OracleRng) -> RandomForest {
    let trees = (0..spec.n_trees).map(|_| random_tree(spec, rng)).collect();
    RandomForest::from_trees(trees).expect("generator produces consistent trees")
}

/// Trains a boosted forest on a small random dataset so compiled boosted
/// ensembles (real-valued path weights) are covered too.
///
/// # Panics
///
/// Panics only if the generated dataset is rejected, which would be a bug
/// in this generator.
#[must_use]
pub fn random_boosted_forest(seed: u64) -> BoostedForest {
    let mut rng = OracleRng::new(seed ^ 0xB0A5_7ED0_F0E5_7000);
    let n_features = 2 + rng.below(3);
    let n_classes = 2 + rng.below(2);
    let n_samples = 40 + rng.below(40);
    let rows: Vec<Vec<f32>> = (0..n_samples)
        .map(|_| (0..n_features).map(|_| rng.uniform(-4.0, 4.0)).collect())
        .collect();
    // Planted labels: a noisy threshold rule keeps boosting non-degenerate.
    let labels: Vec<u32> = rows
        .iter()
        .map(|r| {
            let noisy = rng.chance(0.1);
            let base = u32::from(r[0] + r[1 % n_features] > 0.0);
            if noisy {
                (base + 1) % n_classes as u32
            } else {
                base.min(n_classes as u32 - 1)
            }
        })
        .collect();
    let data = bolt_forest::Dataset::from_rows(rows, labels, n_classes)
        .expect("generator produces a valid dataset");
    let rounds = 2 + rng.below(4);
    BoostedForest::train(
        &data,
        &bolt_forest::BoostConfig::new(rounds)
            .with_seed(seed)
            .with_max_height(3),
    )
}

/// All `(feature, threshold)` pairs appearing in the forest's splits.
#[must_use]
pub fn forest_thresholds(forest: &RandomForest) -> Vec<(u32, f32)> {
    tree_thresholds(forest.trees().iter())
}

/// All `(feature, threshold)` pairs appearing in the boosted ensemble.
#[must_use]
pub fn boosted_thresholds(forest: &BoostedForest) -> Vec<(u32, f32)> {
    tree_thresholds(forest.iter().map(|(t, _)| t))
}

fn tree_thresholds<'a>(trees: impl Iterator<Item = &'a DecisionTree>) -> Vec<(u32, f32)> {
    let mut out = Vec::new();
    for tree in trees {
        for node in tree.nodes() {
            if let NodeKind::Split {
                feature, threshold, ..
            } = *node
            {
                out.push((feature, threshold));
            }
        }
    }
    out
}

/// Smallest f32 strictly greater than `x` (finite, non-NaN `x`).
#[must_use]
pub fn next_above(x: f32) -> f32 {
    let bits = x.to_bits();
    let next = if bits == 0x8000_0000 {
        1 // -0.0 steps up to the smallest positive subnormal
    } else if bits >> 31 == 0 {
        bits + 1
    } else {
        bits - 1
    };
    f32::from_bits(next)
}

/// Largest f32 strictly less than `x` (finite, non-NaN `x`).
#[must_use]
pub fn next_below(x: f32) -> f32 {
    let bits = x.to_bits();
    let next = if bits == 0 {
        0x8000_0001 // +0.0 steps down to the smallest negative subnormal
    } else if bits >> 31 == 0 {
        bits - 1
    } else {
        bits + 1
    };
    f32::from_bits(next)
}

/// Generates `count` randomized adversarial inputs plus a fixed prelude of
/// deterministic extremes: the all-one and all-zero predicate vectors,
/// all-NaN, and both infinities.
///
/// Boundary inputs place features exactly on, one ULP above, and one ULP
/// below split thresholds — the values where `<=` binarization and raw
/// traversal are most likely to be mis-stitched.
#[must_use]
pub fn adversarial_inputs(
    n_features: usize,
    thresholds: &[(u32, f32)],
    rng: &mut OracleRng,
    count: usize,
) -> Vec<Vec<f32>> {
    let mut lo = vec![f32::INFINITY; n_features];
    let mut hi = vec![f32::NEG_INFINITY; n_features];
    for &(f, t) in thresholds {
        let f = f as usize;
        lo[f] = lo[f].min(t);
        hi[f] = hi[f].max(t);
    }
    let all_true: Vec<f32> = lo
        .iter()
        .map(|&l| if l.is_finite() { l - 1.0 } else { -1.0 })
        .collect();
    let all_false: Vec<f32> = hi
        .iter()
        .map(|&h| if h.is_finite() { h + 1.0 } else { 1.0 })
        .collect();

    let mut inputs = vec![
        all_true,
        all_false,
        vec![f32::NAN; n_features],
        vec![f32::INFINITY; n_features],
        vec![f32::NEG_INFINITY; n_features],
    ];

    for _ in 0..count {
        let mut sample: Vec<f32> = (0..n_features).map(|_| rng.uniform(-6.0, 6.0)).collect();
        match rng.below(5) {
            // Pin 1–3 features exactly on / one ULP around thresholds.
            0 | 1 if !thresholds.is_empty() => {
                for _ in 0..=rng.below(3) {
                    let (f, t) = thresholds[rng.below(thresholds.len())];
                    sample[f as usize] = match rng.below(3) {
                        0 => t,
                        1 => next_above(t),
                        _ => next_below(t),
                    };
                }
            }
            // Poison some features with NaN.
            2 => {
                for _ in 0..=rng.below(n_features) {
                    sample[rng.below(n_features)] = f32::NAN;
                }
            }
            // Push some features to infinity.
            3 => {
                for _ in 0..=rng.below(n_features) {
                    sample[rng.below(n_features)] = if rng.chance(0.5) {
                        f32::INFINITY
                    } else {
                        f32::NEG_INFINITY
                    };
                }
            }
            // Plain uniform noise.
            _ => {}
        }
        inputs.push(sample);
    }
    inputs
}

/// A self-contained served-equivalence scenario: one random forest, the
/// adversarial inputs to sweep over a serving front-end, and a finite
/// calibration set for engines that estimate hot paths from traffic
/// (forest packing). One seed reproduces the whole case.
#[derive(Clone, Debug)]
pub struct ServedCase {
    /// The reference forest every served engine must match bit-exactly.
    pub forest: RandomForest,
    /// Adversarial inputs (threshold boundaries, NaN, infinities) that
    /// must survive the wire encoding and classify identically.
    pub inputs: Vec<Vec<f32>>,
    /// Finite calibration rows labeled by the reference traversal.
    pub calibration: Dataset,
}

/// Draws a [`ServedCase`] from one seed: a sampled forest spec, the
/// forest, `count` randomized adversarial inputs (plus the deterministic
/// extreme prelude), and a 64-row calibration set.
#[must_use]
pub fn served_case(seed: u64, count: usize) -> ServedCase {
    let mut rng = OracleRng::new(seed);
    let spec = ForestSpec::sampled(&mut rng);
    let forest = random_forest(&spec, &mut rng);
    let thresholds = forest_thresholds(&forest);
    let inputs = adversarial_inputs(spec.n_features, &thresholds, &mut rng, count);
    // Finite rows labeled by the reference forest, so hot-path
    // estimation sees traffic the forest actually produces.
    let rows: Vec<Vec<f32>> = (0..64)
        .map(|_| {
            (0..spec.n_features)
                .map(|_| rng.uniform(-6.0, 6.0))
                .collect()
        })
        .collect();
    let labels: Vec<u32> = rows.iter().map(|r| forest.predict(r)).collect();
    let calibration =
        Dataset::from_rows(rows, labels, spec.n_classes).expect("finite calibration rows");
    ServedCase {
        forest,
        inputs,
        calibration,
    }
}

/// A single observed divergence between Bolt and its source forest.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// The input that diverged.
    pub sample: Vec<f32>,
    /// Bolt's classification.
    pub got: u32,
    /// The reference traversal's classification.
    pub expected: u32,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bolt classified {:?} as {}, reference says {}",
            self.sample, self.got, self.expected
        )
    }
}

/// Checks Bolt against the reference forest traversal on every sample.
/// Returns the number of samples checked.
///
/// # Errors
///
/// Returns the first [`Mismatch`] when any classification diverges.
pub fn check_forest(
    bolt: &BoltForest,
    forest: &RandomForest,
    samples: &[Vec<f32>],
) -> Result<usize, Mismatch> {
    let mut scratch = bolt.scratch();
    for sample in samples {
        let got = bolt.classify_with(sample, &mut scratch);
        let expected = forest.predict(sample);
        if got != expected {
            return Err(Mismatch {
                sample: sample.clone(),
                got,
                expected,
            });
        }
    }
    Ok(samples.len())
}

/// Checks a compiled boosted ensemble against [`BoostedForest::predict`].
/// Returns the number of samples checked.
///
/// # Errors
///
/// Returns the first [`Mismatch`] when any classification diverges.
pub fn check_boosted(
    bolt: &BoltForest,
    forest: &BoostedForest,
    samples: &[Vec<f32>],
) -> Result<usize, Mismatch> {
    let mut scratch = bolt.scratch();
    for sample in samples {
        let got = bolt.classify_with(sample, &mut scratch);
        let expected = forest.predict(sample);
        if got != expected {
            return Err(Mismatch {
                sample: sample.clone(),
                got,
                expected,
            });
        }
    }
    Ok(samples.len())
}

/// Pins the batched engine to the raw-bits reference on the given
/// samples: each sample's batched vote vector must be **bit-identical**
/// (not merely argmax-equal) to [`BoltForest::votes_for_bits`] — the
/// [`DictView::scan`](crate::DictView::scan) path — over its encoded bits,
/// for batch slices of sizes 1, 3, 5 and the full set, both unsharded and
/// sharded. Returns the number of (sample, batch-shape) checks performed.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_batch(bolt: &BoltForest, samples: &[Vec<f32>]) -> Result<usize, String> {
    let refs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
    let expected: Vec<Vec<f64>> = refs
        .iter()
        .map(|s| bolt.votes_for_bits(&bolt.encode(s)))
        .collect();
    let mut checked = 0usize;
    let mut scratch = bolt.batch_scratch();
    for batch_size in [1usize, 3, 5, refs.len().max(1)] {
        for (start, chunk) in refs
            .chunks(batch_size)
            .enumerate()
            .map(|(i, c)| (i * batch_size, c))
        {
            bolt.batch_votes_with(chunk, &mut scratch);
            for (offset, sample) in chunk.iter().enumerate() {
                let got = scratch.votes(offset);
                let want = &expected[start + offset];
                if got != want.as_slice() {
                    return Err(format!(
                        "batch size {batch_size}: votes diverged on sample {:?}: batch {got:?} vs scalar scan {want:?}",
                        sample
                    ));
                }
                checked += 1;
            }
        }
    }
    // Sharded: votes must still be bit-identical, across several shard
    // counts including more shards than samples.
    for shards in [1usize, 2, 4, refs.len() + 1] {
        let sharded = bolt.votes_batch_sharded(&refs, shards);
        for (i, (got, want)) in sharded.iter().zip(&expected).enumerate() {
            if got != want {
                return Err(format!(
                    "{shards} shards: votes diverged on sample {:?}: sharded {got:?} vs scalar scan {want:?}",
                    samples[i]
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Pins the entry-bitmap index and its encode to the reference dictionary
/// scan ([`DictView::scan`](crate::DictView::scan)) over the sample's
/// `Mask` on the given samples: the entries matched from the constraining
/// groups' run starts must be the same, in the same ascending order; each
/// one's address gathered by direct compares
/// ([`DictView::address_of_sample`](crate::DictView::address_of_sample))
/// must equal the one gathered from the bits; and the feature-level path's
/// vote vector and counters
/// ([`ForestView::votes_with`](crate::ForestView::votes_with)) must equal
/// the raw-bits scan path's ([`BoltForest::votes_with_stats`]) bit for bit
/// and count for count — as must votes rebuilt from the scanned entries one
/// [`ForestView::lookup_entry_votes`](crate::ForestView::lookup_entry_votes)
/// at a time. Returns the number of samples checked.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check_index(bolt: &BoltForest, samples: &[Vec<f32>]) -> Result<usize, String> {
    let (view, universe) = (bolt.view(), bolt.universe());
    let (dict, index) = (view.dict(), view.index());
    let mut starts = vec![0u32; index.constraining().len()];
    let mut acc = vec![0u64; index.words()];
    let mut scratch = bolt.scratch();
    for sample in samples {
        let bits = universe.evaluate(sample);
        universe.run_starts_into(sample, index.constraining(), &mut starts);
        let mut scanned = Vec::new();
        dict.scan(&bits, |id| scanned.push(id));
        let mut indexed = Vec::new();
        index.for_each_match(&starts, &mut acc, |id| indexed.push(id));
        if indexed != scanned {
            return Err(format!(
                "index matched {indexed:?}, scalar scan {scanned:?} on sample {sample:?}"
            ));
        }
        let (scan_votes, scan_stats) = bolt.votes_with_stats(&bits);
        let mut rebuilt = vec![0.0f64; bolt.n_classes()];
        for &(class, weight) in view.constant_votes() {
            rebuilt[class as usize] += weight;
        }
        for &id in &scanned {
            let address = dict.address_of(id, &bits);
            let compared = dict.address_of_sample(id, universe, sample);
            if compared != address {
                return Err(format!(
                    "entry {id}: compared address {compared:#b}, bits give {address:#b} on sample {sample:?}"
                ));
            }
            for (class, weight) in view.lookup_entry_votes(id, address).iter() {
                rebuilt[class as usize] += weight;
            }
        }
        if rebuilt
            .iter()
            .map(|v| v.to_bits())
            .ne(scan_votes.iter().map(|v| v.to_bits()))
        {
            return Err(format!(
                "per-entry lookups {rebuilt:?} diverge from scan votes {scan_votes:?} on sample {sample:?}"
            ));
        }
        let mut stats = crate::InferenceStats::default();
        let votes = view.votes_with(universe, sample, &mut scratch, Some(&mut stats));
        if votes
            .iter()
            .map(|v| v.to_bits())
            .ne(scan_votes.iter().map(|v| v.to_bits()))
        {
            return Err(format!(
                "index votes {votes:?} diverge from scan votes {scan_votes:?} on sample {sample:?}"
            ));
        }
        let expected = crate::InferenceStats {
            index_rows_read: index.rows_per_match(),
            ..scan_stats
        };
        if stats != expected {
            return Err(format!(
                "index counters {stats:?} diverge from scan counters {expected:?} on sample {sample:?}"
            ));
        }
    }
    Ok(samples.len())
}

/// The full compile-time configuration matrix the differential suite
/// sweeps: every `cluster_threshold` in 1..=8 crossed with bloom filtering
/// on/off and explanation payloads on/off (32 configurations).
#[must_use]
pub fn config_matrix() -> Vec<BoltConfig> {
    let mut configs = Vec::with_capacity(32);
    for threshold in 1..=8 {
        for bloom_bits in [0usize, 8] {
            for explanations in [false, true] {
                configs.push(
                    BoltConfig::default()
                        .with_cluster_threshold(threshold)
                        .with_bloom_bits_per_key(bloom_bits)
                        .with_explanations(explanations),
                );
            }
        }
    }
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = OracleRng::new(3);
        let mut b = OracleRng::new(3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_above_below_are_adjacent() {
        for x in [0.0f32, -0.0, 1.5, -2.25, 1e-30, -1e30] {
            assert!(next_above(x) > x, "next_above({x})");
            assert!(next_below(x) < x, "next_below({x})");
            // Adjacent: nothing fits strictly between.
            assert_eq!(next_below(next_above(x)), x);
            assert_eq!(next_above(next_below(x)), x);
        }
    }

    #[test]
    fn generated_forests_are_valid_and_deterministic() {
        for seed in 0..20 {
            let mut rng = OracleRng::new(seed);
            let spec = ForestSpec::sampled(&mut rng);
            let forest = random_forest(&spec, &mut rng);
            assert_eq!(forest.n_trees(), spec.n_trees);
            assert_eq!(forest.n_features(), spec.n_features);
            assert_eq!(forest.n_classes(), spec.n_classes);

            let mut rng2 = OracleRng::new(seed);
            let spec2 = ForestSpec::sampled(&mut rng2);
            let forest2 = random_forest(&spec2, &mut rng2);
            for (a, b) in forest.trees().iter().zip(forest2.trees()) {
                assert_eq!(a.nodes(), b.nodes());
            }
        }
    }

    #[test]
    fn adversarial_prelude_hits_predicate_extremes() {
        let mut rng = OracleRng::new(11);
        let spec = ForestSpec::sampled(&mut rng);
        let forest = random_forest(&spec, &mut rng);
        let thresholds = forest_thresholds(&forest);
        let inputs = adversarial_inputs(spec.n_features, &thresholds, &mut rng, 10);
        assert_eq!(inputs.len(), 15);
        // Prelude sample 0 satisfies every predicate, sample 1 none.
        for &(f, t) in &thresholds {
            assert!(
                inputs[0][f as usize] <= t,
                "all-true input violates ({f}, {t})"
            );
            assert!(
                inputs[1][f as usize] > t,
                "all-false input satisfies ({f}, {t})"
            );
        }
    }

    #[test]
    fn config_matrix_covers_every_threshold_and_toggle() {
        let configs = config_matrix();
        assert_eq!(configs.len(), 32);
        for threshold in 1..=8usize {
            assert!(configs.iter().any(|c| c.cluster_threshold == threshold
                && c.bloom_bits_per_key == 0
                && !c.explanations));
            assert!(configs.iter().any(|c| c.cluster_threshold == threshold
                && c.bloom_bits_per_key > 0
                && c.explanations));
        }
    }
}
