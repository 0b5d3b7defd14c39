//! Differential safety harness (§4 footnote 1 of the paper).
//!
//! Bolt is only allowed to be fast because it is *identical* to the source
//! forest. This suite drives `bolt_core::oracle`'s randomized forest and
//! adversarial input generators across the full compile-time configuration
//! matrix — every `cluster_threshold` in 1..=8 crossed with bloom filtering
//! and explanations on/off — and asserts bit-exact agreement between
//! `BoltForest::classify` and the reference traversal on every sample,
//! including after a serde round-trip plus `rebuild()`.
//!
//! Every failure message carries the forest seed, so any divergence is
//! reproducible from a single `u64`.

use bolt_core::filter::table_key;
use bolt_core::oracle::{self, ForestSpec, OracleRng};
use bolt_core::{BoltConfig, BoltForest};
use bolt_forest::{Dataset, ForestConfig, RandomForest};
use std::collections::HashMap;

const FOREST_SEEDS: u64 = 25;
const RANDOM_INPUTS_PER_FOREST: usize = 20;

fn compile(forest: &RandomForest, config: &BoltConfig, seed: u64) -> BoltForest {
    BoltForest::compile(forest, config)
        .unwrap_or_else(|e| panic!("compile failed for seed {seed} with config {config:?}: {e}"))
}

/// Explanation leg, for forests compiled with explanations (0 checks
/// otherwise): `classify_explained` matches through the entry-bitmap index,
/// so its class must be `classify`'s and its salience list must equal one
/// rebuilt here from the reference `DictView::scan` — same entries in the
/// same ascending order, hence the same `f64` sums, compared exactly.
/// Returns the number of samples checked.
fn check_explanations(bolt: &BoltForest, samples: &[Vec<f32>], seed: u64) -> usize {
    if !bolt.config().explanations {
        return 0;
    }
    let view = bolt.view();
    for sample in samples {
        let explanation = bolt.classify_explained(sample);
        assert_eq!(
            explanation.class,
            bolt.classify(sample),
            "seed {seed}: explained class diverges on {sample:?}"
        );
        let bits = bolt.encode(sample);
        let mut salience: HashMap<u32, f64> = HashMap::new();
        view.dict().scan(&bits, |id| {
            let address = view.dict().address_of(id, &bits);
            if bolt
                .bloom()
                .is_some_and(|bloom| !bloom.contains(table_key(id, address)))
            {
                return;
            }
            let Some(cell) = bolt.table().lookup(id, address) else {
                return;
            };
            for (&(_, weight), features) in cell.votes.iter().zip(&cell.path_features) {
                for &pred in features {
                    *salience
                        .entry(bolt.universe().predicate(pred).feature)
                        .or_insert(0.0) += weight;
                }
            }
        });
        let mut salience: Vec<(u32, f64)> = salience.into_iter().collect();
        salience.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        assert_eq!(
            explanation.salience, salience,
            "seed {seed}: salience diverges from the scan-built reference on {sample:?}"
        );
    }
    samples.len()
}

/// The tentpole sweep: randomized forests × adversarial inputs × the full
/// 32-entry configuration matrix, with a serde+rebuild leg folded in. The
/// final assertion enforces the issue's acceptance floor of 1,000
/// forest/input/config combinations.
#[test]
fn random_forests_match_reference_across_config_matrix() {
    let configs = oracle::config_matrix();
    let mut combinations = 0usize;

    for seed in 0..FOREST_SEEDS {
        let mut rng = OracleRng::new(seed);
        let spec = ForestSpec::sampled(&mut rng);
        let forest = oracle::random_forest(&spec, &mut rng);
        let thresholds = oracle::forest_thresholds(&forest);
        let inputs = oracle::adversarial_inputs(
            spec.n_features,
            &thresholds,
            &mut rng,
            RANDOM_INPUTS_PER_FOREST,
        );

        for (ci, config) in configs.iter().enumerate() {
            let bolt = compile(&forest, config, seed);
            let checked = oracle::check_forest(&bolt, |s| forest.predict(s), &inputs)
                .unwrap_or_else(|m| panic!("seed {seed}, config {config:?}: {m}"));
            combinations += checked;

            // The batched engine rides every sweep: vote vectors must be
            // bit-identical to the scalar raw-bits reference for batch
            // sizes 1, 3, 5 and the full input set.
            let batch_checked = oracle::check_batch(&bolt, &inputs)
                .unwrap_or_else(|m| panic!("seed {seed}, config {config:?}, batched: {m}"));
            combinations += batch_checked;

            // Index leg: the entry-bitmap index must match exactly the
            // entries the scalar scan matches, and the feature-level path
            // must leave bit-identical votes and identical counters.
            let index_checked = oracle::check_index(&bolt, &inputs)
                .unwrap_or_else(|m| panic!("seed {seed}, config {config:?}, index: {m}"));
            combinations += index_checked;

            combinations += check_explanations(&bolt, &inputs, seed);

            // Every 4th configuration also goes through serialize →
            // deserialize → rebuild, so the persisted artifact is held to
            // the same standard as the freshly compiled one.
            if ci % 4 == 0 {
                let json = serde_json::to_string(&bolt).expect("serialize");
                let mut revived: BoltForest = serde_json::from_str(&json).expect("deserialize");
                revived.rebuild();
                let checked = oracle::check_forest(&revived, |s| forest.predict(s), &inputs)
                    .unwrap_or_else(|m| {
                        panic!("seed {seed}, config {config:?} after round-trip: {m}")
                    });
                combinations += checked;
                assert_eq!(
                    revived.index(),
                    bolt.index(),
                    "seed {seed}, config {config:?}: rebuild() must restore the index"
                );
                oracle::check_index(&revived, &inputs).unwrap_or_else(|m| {
                    panic!("seed {seed}, config {config:?}, index after round-trip: {m}")
                });
            }
        }
    }

    assert!(
        combinations >= 1000,
        "acceptance floor is 1,000 combinations, ran only {combinations}"
    );
    eprintln!("differential matrix checked {combinations} forest/input/config combinations");
}

/// Forests trained on a realistic workload (not synthetic node soup) must
/// agree with their compiled form on threshold-boundary and non-finite
/// inputs too.
#[test]
fn trained_forests_match_reference_on_adversarial_inputs() {
    for seed in 0..4u64 {
        let data = bolt_data::lstw_like(400, seed);
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(6).with_max_height(5).with_seed(seed),
        );
        let thresholds = oracle::forest_thresholds(&forest);
        let mut rng = OracleRng::new(seed ^ 0x7EA1);
        let inputs = oracle::adversarial_inputs(forest.n_features(), &thresholds, &mut rng, 30);
        for config in [
            BoltConfig::default(),
            BoltConfig::default()
                .with_cluster_threshold(4)
                .with_bloom_bits_per_key(8)
                .with_explanations(true),
        ] {
            let bolt = compile(&forest, &config, seed);
            oracle::check_forest(&bolt, |s| forest.predict(s), &inputs)
                .unwrap_or_else(|m| panic!("trained seed {seed}, config {config:?}: {m}"));
            oracle::check_batch(&bolt, &inputs)
                .unwrap_or_else(|m| panic!("trained seed {seed}, config {config:?}, batched: {m}"));
            oracle::check_index(&bolt, &inputs)
                .unwrap_or_else(|m| panic!("trained seed {seed}, config {config:?}, index: {m}"));
            check_explanations(&bolt, &inputs, seed);
        }
    }
}

/// Compiled boosted ensembles (real-valued path weights) must reproduce
/// `BoostedForest::predict` exactly.
#[test]
fn boosted_forests_match_reference() {
    for seed in 0..8u64 {
        let boosted = oracle::random_boosted_forest(seed);
        let thresholds = oracle::boosted_thresholds(&boosted);
        let mut rng = OracleRng::new(seed ^ 0xB005);
        let inputs = oracle::adversarial_inputs(boosted.n_features(), &thresholds, &mut rng, 25);
        for threshold in [1usize, 3, 5, 8] {
            for bloom in [0usize, 8] {
                let config = BoltConfig::default()
                    .with_cluster_threshold(threshold)
                    .with_bloom_bits_per_key(bloom);
                let bolt = BoltForest::compile(&boosted, &config)
                    .unwrap_or_else(|e| panic!("boosted compile failed for seed {seed}: {e}"));
                oracle::check_forest(&bolt, |s| boosted.predict(s), &inputs)
                    .unwrap_or_else(|m| panic!("boosted seed {seed}, config {config:?}: {m}"));
                oracle::check_batch(&bolt, &inputs).unwrap_or_else(|m| {
                    panic!("boosted seed {seed}, config {config:?}, batched: {m}")
                });
                oracle::check_index(&bolt, &inputs).unwrap_or_else(|m| {
                    panic!("boosted seed {seed}, config {config:?}, index: {m}")
                });
            }
        }
    }
}

/// Degenerate shapes the clustering pipeline must not mangle: forests where
/// every tree is a single leaf (pure constant votes, empty predicate
/// universe) and single-tree stumps.
#[test]
fn degenerate_forests_match_reference() {
    // All-leaf forest: classification is decided entirely by constant votes.
    let mut rng = OracleRng::new(99);
    let spec = ForestSpec {
        n_features: 3,
        n_classes: 3,
        n_trees: 5,
        max_depth: 1,
        threshold_pool: vec![0.5],
        single_leaf_prob: 1.0,
    };
    let forest = oracle::random_forest(&spec, &mut rng);
    let inputs = oracle::adversarial_inputs(3, &[], &mut rng, 10);
    for config in oracle::config_matrix() {
        let bolt = compile(&forest, &config, 99);
        oracle::check_forest(&bolt, |s| forest.predict(s), &inputs)
            .unwrap_or_else(|m| panic!("all-leaf forest, config {config:?}: {m}"));
        oracle::check_batch(&bolt, &inputs)
            .unwrap_or_else(|m| panic!("all-leaf forest, config {config:?}, batched: {m}"));
        oracle::check_index(&bolt, &inputs)
            .unwrap_or_else(|m| panic!("all-leaf forest, config {config:?}, index: {m}"));
    }

    // Single stump: one tree, one split.
    let spec = ForestSpec {
        n_features: 1,
        n_classes: 2,
        n_trees: 1,
        max_depth: 1,
        threshold_pool: vec![0.0],
        single_leaf_prob: 0.0,
    };
    let forest = oracle::random_forest(&spec, &mut rng);
    let inputs = vec![
        vec![-1.0],
        vec![0.0],
        vec![oracle::next_above(0.0)],
        vec![oracle::next_below(0.0)],
        vec![f32::NAN],
        vec![f32::INFINITY],
        vec![f32::NEG_INFINITY],
    ];
    for config in oracle::config_matrix() {
        let bolt = compile(&forest, &config, 100);
        oracle::check_forest(&bolt, |s| forest.predict(s), &inputs)
            .unwrap_or_else(|m| panic!("stump, config {config:?}: {m}"));
        oracle::check_batch(&bolt, &inputs)
            .unwrap_or_else(|m| panic!("stump, config {config:?}, batched: {m}"));
        oracle::check_index(&bolt, &inputs)
            .unwrap_or_else(|m| panic!("stump, config {config:?}, index: {m}"));
    }
}

/// Satellite: the serialized artifact is the product teams deploy (§2 of
/// the paper frames Bolt as a model-serving component), so a round-tripped
/// and `rebuild()`-ed BoltForest must classify identically to both the
/// original compiled object and the source forest.
#[test]
fn serde_roundtrip_preserves_classification() {
    for seed in 200..208u64 {
        let mut rng = OracleRng::new(seed);
        let spec = ForestSpec::sampled(&mut rng);
        let forest = oracle::random_forest(&spec, &mut rng);
        let thresholds = oracle::forest_thresholds(&forest);
        let inputs = oracle::adversarial_inputs(spec.n_features, &thresholds, &mut rng, 15);
        let config = BoltConfig::default()
            .with_cluster_threshold(1 + (seed as usize % 8))
            .with_bloom_bits_per_key(if seed % 2 == 0 { 8 } else { 0 })
            .with_explanations(seed % 3 == 0);
        let bolt = compile(&forest, &config, seed);

        let json = serde_json::to_string(&bolt).expect("serialize");
        let mut revived: BoltForest = serde_json::from_str(&json).expect("deserialize");
        revived.rebuild();

        let mut scratch = revived.scratch();
        for sample in &inputs {
            let original = bolt.classify(sample);
            let roundtripped = revived.classify_with(sample, &mut scratch);
            assert_eq!(
                roundtripped, original,
                "seed {seed}: round-trip diverged from original on {sample:?}"
            );
            assert_eq!(
                roundtripped,
                forest.predict(sample),
                "seed {seed}: round-trip diverged from forest on {sample:?}"
            );
        }
    }
}

/// Satellite: with the bloom filter disabled every matched dictionary
/// entry probes the table, so `table_hits + table_misses` must equal
/// `entries_matched` and `bloom_rejects` must be zero — and predictions
/// must be unchanged relative to a bloom-enabled build.
#[test]
fn stats_invariants_bloom_disabled() {
    for seed in 300..306u64 {
        let mut rng = OracleRng::new(seed);
        let spec = ForestSpec::sampled(&mut rng);
        let forest = oracle::random_forest(&spec, &mut rng);
        let thresholds = oracle::forest_thresholds(&forest);
        let inputs = oracle::adversarial_inputs(spec.n_features, &thresholds, &mut rng, 20);

        let base = BoltConfig::default().with_cluster_threshold(1 + (seed as usize % 8));
        let plain = compile(&forest, &base.clone().with_bloom_bits_per_key(0), seed);
        let bloomed = compile(&forest, &base.with_bloom_bits_per_key(8), seed);

        for sample in &inputs {
            let (class, stats) = plain.classify_with_stats(sample);
            assert_eq!(
                stats.bloom_rejects, 0,
                "seed {seed}: rejects without a filter"
            );
            assert_eq!(
                stats.table_hits + stats.table_misses,
                stats.entries_matched,
                "seed {seed}: unfiltered probes must cover every matched entry on {sample:?}"
            );
            assert_eq!(
                class,
                bloomed.classify(sample),
                "seed {seed}: disabling the bloom filter changed the prediction on {sample:?}"
            );
        }
    }
}

/// Satellite: the bloom filter is only allowed to skip probes that would
/// have missed. Vote vectors (not just the argmax) must be bit-identical
/// with the filter on and off, table hits must match exactly, and the
/// probe accounting must balance.
#[test]
fn bloom_never_suppresses_a_true_lookup() {
    for seed in 400..406u64 {
        let mut rng = OracleRng::new(seed);
        let spec = ForestSpec::sampled(&mut rng);
        let forest = oracle::random_forest(&spec, &mut rng);
        let thresholds = oracle::forest_thresholds(&forest);
        let inputs = oracle::adversarial_inputs(spec.n_features, &thresholds, &mut rng, 20);

        let base = BoltConfig::default().with_cluster_threshold(1 + (seed as usize % 8));
        let plain = compile(&forest, &base.clone().with_bloom_bits_per_key(0), seed);
        let bloomed = compile(&forest, &base.with_bloom_bits_per_key(6), seed);

        for sample in &inputs {
            let bits = plain.encode(sample);
            let (votes_off, stats_off) = plain.votes_with_stats(&bits);
            let (votes_on, stats_on) = bloomed.votes_with_stats(&bloomed.encode(sample));
            assert_eq!(
                votes_on, votes_off,
                "seed {seed}: bloom filter altered the vote vector on {sample:?}"
            );
            assert_eq!(
                stats_on.table_hits, stats_off.table_hits,
                "seed {seed}: bloom filter suppressed a true path lookup on {sample:?}"
            );
            assert_eq!(
                stats_on.bloom_rejects + stats_on.table_hits + stats_on.table_misses,
                stats_on.entries_matched,
                "seed {seed}: probe accounting does not balance on {sample:?}"
            );
        }
    }
}

/// Regressor leg of the index differential: `BoltForest::predict` (index
/// match) must return the bit pattern the regression head reads from the
/// dictionary scan's weights on the encoded sample, for bagged and boosted
/// regressors, every threshold 1..=8, bloom on and off, on adversarial
/// inputs.
#[test]
fn regressors_predict_identically_through_index_and_scan() {
    use bolt_forest::{
        GbtConfig, GradientBoostedRegressor, RegressionConfig, RegressionDataset, RegressionForest,
    };
    for seed in 600..603u64 {
        let mut rng = OracleRng::new(seed);
        let rows: Vec<Vec<f32>> = (0..120)
            .map(|_| (0..4).map(|_| rng.uniform(-4.0, 4.0)).collect())
            .collect();
        let targets: Vec<f32> = rows
            .iter()
            .map(|r| r[0] * 2.0 - r[1] + r[2] * r[3])
            .collect();
        let data = RegressionDataset::from_rows(rows, targets).expect("valid dataset");
        let forest = RegressionForest::train(
            &data,
            &RegressionConfig::new(5).with_max_height(4).with_seed(seed),
        );
        let boosted = GradientBoostedRegressor::train(&data, &GbtConfig::new(6).with_seed(seed));
        for threshold in 1..=8usize {
            for bloom in [0usize, 8] {
                let config = BoltConfig::default()
                    .with_cluster_threshold(threshold)
                    .with_bloom_bits_per_key(bloom);
                for reg in [
                    BoltForest::compile(&forest, &config).expect("compiles"),
                    BoltForest::compile(&boosted, &config).expect("compiles"),
                ] {
                    let universe = reg.universe();
                    let thresholds: Vec<(u32, f32)> = (0..universe.len())
                        .map(|p| universe.predicate(p as u32))
                        .map(|p| (p.feature, p.threshold))
                        .collect();
                    let inputs = oracle::adversarial_inputs(4, &thresholds, &mut rng, 20);
                    for sample in &inputs {
                        assert_eq!(
                            reg.predict(sample).to_bits(),
                            reg.head()
                                .read(&reg.votes_for_bits(&reg.encode(sample)), reg.n_trees())
                                .to_bits(),
                            "seed {seed}, config {config:?}: index and scan diverge on {sample:?}"
                        );
                    }
                }
            }
        }
    }
}

/// `verify_against` (the library's own spot-check entry point) must agree
/// with the oracle's verdict on a dataset-shaped batch.
#[test]
fn verify_against_agrees_with_oracle() {
    for seed in 500..504u64 {
        let mut rng = OracleRng::new(seed);
        let rows: Vec<Vec<f32>> = (0..100)
            .map(|_| (0..4).map(|_| rng.uniform(-4.0, 4.0)).collect())
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] + r[1] > 0.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid dataset");
        let forest = RandomForest::train(
            &data,
            &ForestConfig::new(4).with_max_height(4).with_seed(seed),
        );
        let bolt = compile(&forest, &BoltConfig::default(), seed);
        let samples: Vec<&[f32]> = data.iter().map(|(s, _)| s).collect();
        let verified = bolt
            .verify_against(&forest, samples.iter().copied())
            .expect("bolt must verify against its source forest");
        assert_eq!(verified, samples.len());
    }
}
