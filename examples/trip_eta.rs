//! Regression with Bolt: trip-duration (ETA) prediction compiled to lookup
//! tables, aggregated with the Fig. 7 service's `mean(results)`.
//!
//! Run: `cargo run --release --example trip_eta`

use bolt_repro::core::{BoltConfig, BoltForest};
use bolt_repro::forest::{GbtConfig, GradientBoostedRegressor, RegressionConfig, RegressionForest};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = bolt_repro::data::trip_duration_like(3000, 1);
    let test = bolt_repro::data::trip_duration_like(600, 2);
    let forest = RegressionForest::train(
        &train,
        &RegressionConfig::new(12).with_max_height(6).with_seed(7),
    );
    println!(
        "trip ETA forest: {} trees, test RMSE {:.2} minutes",
        forest.n_trees(),
        forest.mse(&test).sqrt()
    );

    let bolt = BoltForest::compile(&forest, &BoltConfig::default().with_cluster_threshold(2))?;
    println!(
        "compiled regressor: {} dictionary entries, {} table cells",
        bolt.dictionary().len(),
        bolt.table().n_cells()
    );

    // Equivalence: the compiled regressor reproduces the forest's mean.
    let mut worst = 0.0f32;
    for (sample, _) in test.iter() {
        worst = worst.max((bolt.predict(sample) - forest.predict(sample)).abs());
    }
    println!(
        "max |bolt - forest| over {} trips: {worst:.6} minutes",
        test.len()
    );

    // A few concrete ETAs.
    for (label, sample) in [
        ("short off-peak trip", vec![30.0, 11.0, 2.0, 0.0, 1.0, 45.0]),
        (
            "long rush-hour trip in rain",
            vec![250.0, 8.0, 1.0, 40.0, 3.0, 55.0],
        ),
        (
            "weekend highway trip",
            vec![200.0, 14.0, 6.0, 0.0, 0.0, 65.0],
        ),
    ] {
        println!("  {label}: {:.1} minutes", bolt.predict(&sample));
    }

    // Gradient boosting (XGBoost-style, §5): Bolt attaches lr x leaf value
    // to each path and aggregates base + sum.
    let gbt = GradientBoostedRegressor::train(
        &train,
        &GbtConfig::new(40).with_max_height(3).with_seed(9),
    );
    let gbt_bolt = BoltForest::compile(&gbt, &BoltConfig::default())?;
    println!(
        "boosted regressor: {} rounds, test RMSE {:.2} minutes (bagged: {:.2}); Bolt matches to {:.5}",
        gbt.n_trees(),
        gbt.mse(&test).sqrt(),
        forest.mse(&test).sqrt(),
        test.iter()
            .map(|(s, _)| (gbt_bolt.predict(s) - gbt.predict(s)).abs())
            .fold(0.0f32, f32::max)
    );

    let start = Instant::now();
    let mut sink = 0.0f32;
    for (sample, _) in test.iter() {
        sink += bolt.predict(sample);
    }
    std::hint::black_box(sink);
    println!(
        "bolt regression inference: {:.3} µs/sample",
        start.elapsed().as_micros() as f64 / test.len() as f64
    );
    Ok(())
}
