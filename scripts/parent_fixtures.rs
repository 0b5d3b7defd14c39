//! Writes the recorded files in `crates/artifact/tests/fixtures/`: one
//! trained forest per kind, the BLT1 file the build at commit 346e211
//! compiles from it (threshold 4, bloom on), its predictions on 200
//! adversarial inputs, and one classifier's compiled JSON.
//!
//! It builds only against that commit, the last with a separate regressor
//! type: check 346e211 out, copy this file to `examples/parent_fixtures.rs`
//! and run
//! `cargo run --release --example parent_fixtures -- crates/artifact/tests/fixtures`.

use bolt_artifact::ArtifactWriter;
use bolt_core::oracle::{self, OracleRng};
use bolt_core::{BoltConfig, BoltForest, BoltRegressor};
use bolt_forest::{
    BoostConfig, BoostedForest, Dataset, ForestConfig, GbtConfig, GradientBoostedRegressor,
    PredicateUniverse, RandomForest, RegressionConfig, RegressionDataset, RegressionForest,
};
use std::fmt::Write as _;
use std::path::Path;

fn rows(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = OracleRng::new(seed);
    (0..150)
        .map(|_| (0..4).map(|_| rng.uniform(-4.0, 4.0)).collect())
        .collect()
}

fn inputs(universe: &PredicateUniverse) -> Vec<Vec<f32>> {
    let thresholds: Vec<(u32, f32)> = (0..universe.len())
        .map(|p| universe.predicate(p as u32))
        .map(|p| (p.feature, p.threshold))
        .collect();
    oracle::adversarial_inputs(universe.n_features(), &thresholds, &mut OracleRng::new(37), 195)
}

fn write(dir: &Path, name: &str, bytes: &[u8]) {
    std::fs::write(dir.join(name), bytes).expect("write fixture");
}

fn lines(values: impl Iterator<Item = u32>) -> String {
    values.fold(String::new(), |mut s, v| {
        writeln!(s, "{v}").unwrap();
        s
    })
}

fn main() {
    let dir = std::path::PathBuf::from(std::env::args().nth(1).expect("OUT_DIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let config = BoltConfig::default();
    assert_eq!((config.cluster_threshold, config.bloom_bits_per_key), (4, 10));

    let x = rows(1);
    let labels: Vec<u32> = x
        .iter()
        .map(|r| u32::from(r[0] + r[1] > 0.0) + u32::from(r[2] > 1.5))
        .collect();
    let data = Dataset::from_rows(x.clone(), labels, 3).unwrap();
    let targets: Vec<f32> = x.iter().map(|r| r[0] * 2.0 - r[1] + r[2] * r[3]).collect();
    let reg_data = RegressionDataset::from_rows(x, targets).unwrap();

    let rf = RandomForest::train(&data, &ForestConfig::new(3).with_max_height(3).with_seed(2));
    let bolt = BoltForest::compile(&rf, &config).unwrap();
    write(&dir, "rf.forest.json", serde_json::to_string(&rf).unwrap().as_bytes());
    write(&dir, "rf.blt", &ArtifactWriter::serialize_forest(&bolt));
    write(&dir, "rf.bolt.json", serde_json::to_string(&bolt).unwrap().as_bytes());
    let xs = inputs(bolt.universe());
    write(&dir, "rf.predictions", lines(xs.iter().map(|s| bolt.classify(s))).as_bytes());

    let boosted = BoostedForest::train(&data, &BoostConfig::new(4).with_max_height(3).with_seed(3));
    let bolt = BoltForest::compile_boosted(&boosted, &config).unwrap();
    write(&dir, "boosted.forest.json", serde_json::to_string(&boosted).unwrap().as_bytes());
    write(&dir, "boosted.blt", &ArtifactWriter::serialize_forest(&bolt));
    let xs = inputs(bolt.universe());
    write(&dir, "boosted.predictions", lines(xs.iter().map(|s| bolt.classify(s))).as_bytes());

    let reg = RegressionForest::train(
        &reg_data,
        &RegressionConfig::new(3).with_max_height(3).with_seed(4),
    );
    let bolt = BoltRegressor::compile(&reg, &config).unwrap();
    write(&dir, "reg.forest.json", serde_json::to_string(&reg).unwrap().as_bytes());
    write(&dir, "reg.blt", &ArtifactWriter::serialize_regressor(&bolt));
    let xs = inputs(bolt.universe());
    let bits = xs.iter().map(|s| bolt.predict(s).to_bits());
    write(&dir, "reg.predictions", lines(bits).as_bytes());

    let gbt = GradientBoostedRegressor::train(
        &reg_data,
        &GbtConfig::new(4).with_max_height(3).with_seed(5),
    );
    let bolt = BoltRegressor::compile_boosted(&gbt, &config).unwrap();
    write(&dir, "gbt.forest.json", serde_json::to_string(&gbt).unwrap().as_bytes());
    write(&dir, "gbt.blt", &ArtifactWriter::serialize_regressor(&bolt));
    let xs = inputs(bolt.universe());
    let bits = xs.iter().map(|s| bolt.predict(s).to_bits());
    write(&dir, "gbt.predictions", lines(bits).as_bytes());
}
