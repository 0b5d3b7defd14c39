//! Complex forest structures in Bolt (§4.6/§5): a two-layer deep forest
//! compiled layer-by-layer, and a gradient-boosted (weighted-tree) ensemble
//! compiled with per-path weights.
//!
//! Run: `cargo run --release --example deep_forest_demo`

use bolt_repro::core::{BoltConfig, BoltForest, DeepBolt};
use bolt_repro::data::Workload;
use bolt_repro::forest::{BoostConfig, BoostedForest, DeepForest, DeepForestConfig, ForestConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train = bolt_repro::data::generate(Workload::LstwLike, 3000, 1);
    let test = bolt_repro::data::generate(Workload::LstwLike, 500, 2);

    // Two-layer deep forest: layer 2 consumes layer 1's class probabilities.
    let deep = DeepForest::train(
        &train,
        &DeepForestConfig::two_layers(ForestConfig::new(8).with_max_height(5).with_seed(11)),
    )?;
    let compiled = DeepBolt::compile(&deep, &BoltConfig::default().with_cluster_threshold(2))?;
    let mut agree = 0usize;
    for (sample, _) in test.iter() {
        if compiled.classify(sample) == deep.predict(sample) {
            agree += 1;
        }
    }
    println!(
        "deep forest: {} layers, accuracy {:.1}%, Bolt agrees on {agree}/{} samples",
        compiled.n_layers(),
        100.0 * deep.accuracy(&test),
        test.len()
    );

    // Gradient-boosted ensemble: Bolt attaches each tree's weight to its
    // paths ("simply adding the corresponding tree weight to each path").
    let boosted = BoostedForest::train(
        &train,
        &BoostConfig::new(12).with_max_height(3).with_seed(4),
    );
    let bolt = BoltForest::compile(&boosted, &BoltConfig::default())?;
    let mut agree = 0usize;
    for (sample, _) in test.iter() {
        if bolt.classify(sample) == boosted.predict(sample) {
            agree += 1;
        }
    }
    println!(
        "boosted forest: {} weighted trees, accuracy {:.1}%, Bolt agrees on {agree}/{} samples",
        boosted.n_trees(),
        100.0 * boosted.accuracy(&test),
        test.len()
    );
    Ok(())
}
