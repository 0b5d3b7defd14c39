//! Cross-crate integration for regression: bagged forests and gradient
//! boosting compiled to Bolt structures on the trip-duration workload.

use bolt_repro::core::{BoltConfig, BoltForest};
use bolt_repro::forest::{GbtConfig, GradientBoostedRegressor, RegressionConfig, RegressionForest};

#[test]
fn bagged_regression_end_to_end() {
    let train = bolt_repro::data::trip_duration_like(1500, 1);
    let test = bolt_repro::data::trip_duration_like(300, 2);
    let forest = RegressionForest::train(
        &train,
        &RegressionConfig::new(8).with_max_height(5).with_seed(3),
    );
    let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
    for (sample, _) in test.iter() {
        let (a, b) = (bolt.predict(sample), forest.predict(sample));
        assert!(
            (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
            "bolt {a} vs forest {b}"
        );
    }
    assert!((bolt.mse(&test) - forest.mse(&test)).abs() < 1e-2 * (1.0 + forest.mse(&test)));
}

#[test]
fn boosted_regression_end_to_end() {
    let train = bolt_repro::data::trip_duration_like(1200, 4);
    let test = bolt_repro::data::trip_duration_like(250, 5);
    let model = GradientBoostedRegressor::train(
        &train,
        &GbtConfig::new(25).with_max_height(3).with_seed(6),
    );
    // Boosting should clearly beat the mean baseline on held-out trips.
    let mean: f64 = test.iter().map(|(_, t)| f64::from(t)).sum::<f64>() / test.len() as f64;
    let variance: f64 = test
        .iter()
        .map(|(_, t)| (f64::from(t) - mean).powi(2))
        .sum::<f64>()
        / test.len() as f64;
    assert!(
        model.mse(&test) < variance / 2.0,
        "mse {} vs var {variance}",
        model.mse(&test)
    );

    let bolt = BoltForest::compile(&model, &BoltConfig::default()).expect("compiles");
    for (sample, _) in test.iter() {
        let (a, b) = (bolt.predict(sample), model.predict(sample));
        assert!(
            (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
            "bolt {a} vs gbt {b}"
        );
    }
}

#[test]
fn regression_artifact_round_trips_through_json() {
    let train = bolt_repro::data::trip_duration_like(700, 8);
    let forest = RegressionForest::train(
        &train,
        &RegressionConfig::new(5).with_max_height(4).with_seed(2),
    );
    let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
    let json = serde_json::to_string(&bolt).expect("serializes");
    let mut restored: BoltForest = serde_json::from_str(&json).expect("deserializes");
    restored.rebuild();
    for (sample, _) in train.iter().take(40) {
        assert_eq!(restored.predict(sample), bolt.predict(sample));
    }
}
