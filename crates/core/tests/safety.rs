//! Property-based enforcement of Bolt's safety property (§4, footnote 1):
//! "transformations preserve classification results for all inputs".
//!
//! Random forests are trained on random datasets, compiled at random
//! clustering thresholds, and checked for exact classification equivalence
//! on both in-distribution and adversarial inputs.

use bolt_core::{BoltConfig, BoltForest, PartitionPlan, PartitionedBolt};
use bolt_forest::{Dataset, ForestConfig, RandomForest};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a dataset from proptest-chosen parameters.
fn make_dataset(n_features: usize, n_classes: usize, n_samples: usize, seed: u64) -> Dataset {
    let mut rows = Vec::with_capacity(n_samples);
    let mut labels = Vec::with_capacity(n_samples);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n_samples {
        let row: Vec<f32> = (0..n_features)
            .map(|_| (next() % 16) as f32 - 4.0)
            .collect();
        // Label depends on a couple of features plus noise so trees are
        // non-trivial but learnable.
        let raw = row[0] + row[n_features / 2] * 0.5 + ((next() % 4) as f32 - 1.5);
        labels.push(((raw.abs() as u32) % n_classes as u32).min(n_classes as u32 - 1));
        rows.push(row);
    }
    Dataset::from_rows(rows, labels, n_classes).expect("generated rows are consistent")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bolt classification equals forest prediction for every training
    /// sample and a grid of adversarial unseen samples, across random
    /// shapes, heights, tree counts, and clustering thresholds.
    #[test]
    fn bolt_is_equivalent_to_forest(
        n_features in 2usize..6,
        n_classes in 2usize..5,
        n_trees in 1usize..8,
        max_height in 1usize..5,
        threshold in 0usize..10,
        seed in any::<u64>(),
    ) {
        let data = make_dataset(n_features, n_classes, 80, seed);
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(n_trees)
                .with_max_height(max_height)
                .with_seed(seed ^ 0xABCD),
        );
        let config = BoltConfig::default().with_cluster_threshold(threshold);
        let bolt = BoltForest::compile(&forest, &config).expect("compiles");

        for (sample, _) in data.iter() {
            prop_assert_eq!(bolt.classify(sample), forest.predict(sample));
        }
        // Adversarial off-grid inputs, including extremes.
        for i in 0..40 {
            let sample: Vec<f32> = (0..n_features)
                .map(|f| (i as f32 * 0.77 + f as f32 * 1.31) % 23.0 - 11.0)
                .collect();
            prop_assert_eq!(bolt.classify(&sample), forest.predict(&sample));
        }
        let extremes = vec![f32::MAX; n_features];
        prop_assert_eq!(bolt.classify(&extremes), forest.predict(&extremes));
        let lows = vec![f32::MIN; n_features];
        prop_assert_eq!(bolt.classify(&lows), forest.predict(&lows));
    }

    /// The clustering threshold never changes results, only layout.
    #[test]
    fn thresholds_agree_with_each_other(
        seed in any::<u64>(),
        t1 in 0usize..12,
        t2 in 0usize..12,
    ) {
        let data = make_dataset(4, 3, 60, seed);
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(5).with_max_height(3).with_seed(seed),
        );
        let a = BoltForest::compile(
            &forest,
            &BoltConfig::default().with_cluster_threshold(t1),
        ).expect("compiles");
        let b = BoltForest::compile(
            &forest,
            &BoltConfig::default().with_cluster_threshold(t2),
        ).expect("compiles");
        for (sample, _) in data.iter().take(40) {
            prop_assert_eq!(a.classify(sample), b.classify(sample));
        }
    }

    /// Partitioned inference (any d×t plan) matches the original forest.
    #[test]
    fn partitions_preserve_results(
        seed in any::<u64>(),
        dict_parts in 1usize..5,
        table_parts in 1usize..5,
    ) {
        let data = make_dataset(4, 3, 60, seed);
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(6).with_max_height(4).with_seed(seed),
        );
        let bolt = Arc::new(
            BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"),
        );
        let plan = PartitionPlan::new(dict_parts, table_parts);
        prop_assume!(table_parts <= bolt.table().capacity());
        let partitioned = PartitionedBolt::new(bolt, plan).expect("valid plan");
        for (sample, _) in data.iter().take(25) {
            prop_assert_eq!(partitioned.classify(sample), forest.predict(sample));
        }
    }

    /// The entry-bitmap index matches exactly what the scalar dictionary
    /// scan matches, and leaves bit-identical votes and identical counters,
    /// on random trained forests at random thresholds and random samples
    /// (in-distribution, off-grid, NaN-poisoned and infinite).
    #[test]
    fn index_agrees_with_scan(
        n_features in 1usize..6,
        n_trees in 1usize..8,
        max_height in 1usize..6,
        threshold in 0usize..10,
        bloom in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let data = make_dataset(n_features, 3, 80, seed);
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(n_trees)
                .with_max_height(max_height)
                .with_seed(seed ^ 0x1DE5),
        );
        let config = BoltConfig::default()
            .with_cluster_threshold(threshold)
            .with_bloom_bits_per_key(if bloom { 8 } else { 0 });
        let bolt = BoltForest::compile(&forest, &config).expect("compiles");
        let mut rng = bolt_core::oracle::OracleRng::new(seed);
        let mut samples: Vec<Vec<f32>> = data.iter().take(30).map(|(s, _)| s.to_vec()).collect();
        samples.extend(bolt_core::oracle::adversarial_inputs(
            n_features,
            &bolt_core::oracle::forest_thresholds(&forest),
            &mut rng,
            30,
        ));
        if let Err(divergence) = bolt_core::oracle::check_index(&bolt, &samples) {
            return Err(TestCaseError::fail(divergence));
        }
    }

    /// Vote totals always equal the tree count (each tree votes once).
    #[test]
    fn vote_conservation(seed in any::<u64>(), n_trees in 1usize..10) {
        let data = make_dataset(3, 2, 50, seed);
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(n_trees).with_max_height(3).with_seed(seed),
        );
        let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
        for (sample, _) in data.iter().take(20) {
            let votes = bolt.votes_for_bits(&bolt.encode(sample));
            prop_assert_eq!(votes.iter().sum::<f64>(), n_trees as f64);
        }
    }
}

/// NaN and infinity inputs classify identically to the original forest
/// (NaN fails every `<=` test, so traversal always takes the false edge —
/// and so does Bolt's encoder).
#[test]
fn non_finite_inputs_stay_equivalent() {
    let data = make_dataset(4, 3, 60, 0xD00D);
    let forest = RandomForest::train(&data, &ForestConfig::new(6).with_max_height(4).with_seed(3));
    let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
    let specials = [
        vec![f32::NAN, 0.0, 1.0, 2.0],
        vec![0.0, f32::NAN, f32::NAN, f32::NAN],
        vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0],
        vec![f32::NAN; 4],
    ];
    for sample in &specials {
        assert_eq!(bolt.classify(sample), forest.predict(sample), "{sample:?}");
    }
}

/// A deterministic end-to-end check on the realistic MNIST-shaped workload.
#[test]
fn mnist_like_end_to_end_equivalence() {
    let train = bolt_data::mnist_like(400, 1);
    let test = bolt_data::mnist_like(200, 2);
    let forest = RandomForest::train(
        &train,
        &ForestConfig::new(10).with_max_height(4).with_seed(42),
    );
    let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
    for (sample, _) in train.iter().chain(test.iter()) {
        assert_eq!(bolt.classify(sample), forest.predict(sample));
    }
    assert_eq!(bolt.accuracy(&test), forest.accuracy(&test));
}
