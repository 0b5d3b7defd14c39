//! Criterion benchmarks for the regression path: bagged and boosted
//! ensembles, traversal vs compiled lookup tables.

use bolt_core::{BoltConfig, BoltForest};
use bolt_forest::{GbtConfig, GradientBoostedRegressor, RegressionConfig, RegressionForest};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_bagged_regression(c: &mut Criterion) {
    let train = bolt_data::trip_duration_like(1500, 1);
    let forest = RegressionForest::train(
        &train,
        &RegressionConfig::new(10).with_max_height(5).with_seed(2),
    );
    let bolt = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
    let sample = train.sample(0).to_vec();
    let mut group = c.benchmark_group("regression_bagged");
    group.bench_function("forest_traversal", |b| {
        b.iter(|| black_box(forest.predict(black_box(&sample))));
    });
    group.bench_function("bolt_tables", |b| {
        b.iter(|| black_box(bolt.predict(black_box(&sample))));
    });
    group.finish();
}

fn bench_boosted_regression(c: &mut Criterion) {
    let train = bolt_data::trip_duration_like(1200, 3);
    let model = GradientBoostedRegressor::train(
        &train,
        &GbtConfig::new(30).with_max_height(3).with_seed(4),
    );
    let bolt = BoltForest::compile(&model, &BoltConfig::default()).expect("compiles");
    let sample = train.sample(0).to_vec();
    let mut group = c.benchmark_group("regression_boosted");
    group.bench_function("gbt_traversal", |b| {
        b.iter(|| black_box(model.predict(black_box(&sample))));
    });
    group.bench_function("bolt_tables", |b| {
        b.iter(|| black_box(bolt.predict(black_box(&sample))));
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bagged_regression, bench_boosted_regression
);
criterion_main!(benches);
