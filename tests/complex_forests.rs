//! Cross-crate integration for the paper's "complex forest structures"
//! (§4.6/§5): deep forests and boosted ensembles compiled through Bolt, plus
//! partitioned inference and tuning over realistic workloads.

use bolt_repro::core::{
    BoltConfig, BoltForest, CostModel, DeepBolt, ParameterSearch, PartitionPlan, PartitionedBolt,
};
use bolt_repro::data::Workload;
use bolt_repro::forest::{
    BoostConfig, BoostedForest, DeepForest, DeepForestConfig, ForestConfig, RandomForest,
};
use std::sync::Arc;

#[test]
fn deep_forest_layers_compile_and_agree() {
    let train = bolt_repro::data::generate(Workload::MnistLike, 700, 6);
    let test = bolt_repro::data::generate(Workload::MnistLike, 150, 7);
    let deep = DeepForest::train(
        &train,
        &DeepForestConfig::two_layers(ForestConfig::new(4).with_max_height(4).with_seed(3)),
    )
    .expect("trains");
    let compiled = DeepBolt::compile(&deep, &BoltConfig::default()).expect("compiles");
    for (sample, _) in test.iter() {
        assert_eq!(compiled.classify(sample), deep.predict(sample));
    }
    assert_eq!(compiled.accuracy(&test), deep.accuracy(&test));
}

#[test]
fn boosted_forest_weighted_votes_survive_compilation() {
    let train = bolt_repro::data::generate(Workload::LstwLike, 1500, 6);
    let test = bolt_repro::data::generate(Workload::LstwLike, 300, 7);
    let boosted = BoostedForest::train(
        &train,
        &BoostConfig::new(10).with_max_height(3).with_seed(6),
    );
    let bolt = BoltForest::compile(&boosted, &BoltConfig::default()).expect("compiles");
    let mut disagreements = 0usize;
    for (sample, _) in test.iter() {
        let expected = boosted.weighted_votes(sample);
        let got = bolt.votes_for_bits(&bolt.encode(sample));
        for (e, g) in expected.iter().zip(&got) {
            assert!(
                (e - g).abs() < 1e-9,
                "weighted votes drifted: {expected:?} vs {got:?}"
            );
        }
        if bolt.classify(sample) != boosted.predict(sample) {
            disagreements += 1; // only possible on float-order ties
        }
    }
    assert!(
        disagreements <= test.len() / 100,
        "{disagreements} disagreements beyond tie tolerance"
    );
}

#[test]
fn tuning_then_partitioning_on_yelp() {
    let train = bolt_repro::data::generate(Workload::YelpLike, 1200, 1);
    let test = bolt_repro::data::generate(Workload::YelpLike, 150, 2);
    let forest = RandomForest::train(
        &train,
        &ForestConfig::new(6)
            .with_max_height(4)
            .with_features_per_split(60)
            .with_seed(12),
    );
    let report = ParameterSearch::new()
        .with_thresholds([0, 2, 4])
        .with_max_cores(4)
        .with_calibration_samples(32)
        .run(&forest, &test, &CostModel::default())
        .expect("sweep runs");
    let best = report.best();
    let bolt = Arc::new(
        BoltForest::compile(
            &forest,
            &BoltConfig::default().with_cluster_threshold(best.threshold),
        )
        .expect("compiles"),
    );
    let partitioned = PartitionedBolt::new(
        Arc::clone(&bolt),
        PartitionPlan::new(best.plan.dict_parts, best.plan.table_parts),
    )
    .expect("valid plan");
    for (sample, _) in test.iter().take(60) {
        assert_eq!(partitioned.classify(sample), forest.predict(sample));
    }
}

#[test]
fn explanations_survive_the_full_pipeline() {
    let train = bolt_repro::data::generate(Workload::YelpLike, 1200, 3);
    let forest = RandomForest::train(
        &train,
        &ForestConfig::new(8)
            .with_max_height(5)
            .with_features_per_split(60)
            .with_seed(2),
    );
    let bolt = BoltForest::compile(&forest, &BoltConfig::default().with_explanations(true))
        .expect("compiles");
    let mut explained = 0usize;
    for (sample, _) in train.iter().take(50) {
        let explanation = bolt.classify_explained(sample);
        assert_eq!(explanation.class, forest.predict(sample));
        if !explanation.salience.is_empty() {
            explained += 1;
        }
    }
    assert!(explained >= 45, "salience produced for only {explained}/50");
}
