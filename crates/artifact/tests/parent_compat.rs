//! Compatibility with files written before every forest kind compiled to
//! one model: `tests/fixtures/` holds, for each of the four trained kinds,
//! the forest, the `.blt` file that build compiled from it (threshold 4,
//! bloom on) and its predictions on 200 adversarial inputs, plus one
//! classifier's compiled JSON. `fixtures/README.md` describes them, and
//! `scripts/parent_fixtures.rs` wrote them.
//!
//! Today's compile must write each forest byte for byte as before, and the
//! old file, the owned model and the old JSON must reproduce the recorded
//! prediction bits (class ids for classifiers, `f32::to_bits` for
//! regressors).

use bolt_artifact::{Artifact, ArtifactWriter, MappedForest};
use bolt_core::oracle::{self, OracleRng};
use bolt_core::{BoltConfig, BoltForest, Ensemble, Head};
use bolt_forest::{
    BoostedForest, GradientBoostedRegressor, PredicateUniverse, RandomForest, RegressionForest,
};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<u8> {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", name]
        .iter()
        .collect();
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn text(name: &str) -> String {
    String::from_utf8(fixture(name)).expect("utf-8 fixture")
}

/// The 200 inputs the predictions were recorded on: the adversarial prelude
/// plus 195 draws around the model's own thresholds.
fn inputs(universe: &PredicateUniverse) -> Vec<Vec<f32>> {
    let thresholds: Vec<(u32, f32)> = (0..universe.len())
        .map(|p| universe.predicate(p as u32))
        .map(|p| (p.feature, p.threshold))
        .collect();
    let mut rng = OracleRng::new(37);
    oracle::adversarial_inputs(universe.n_features(), &thresholds, &mut rng, 195)
}

/// One recorded prediction per input: a class id under a vote head, the
/// prediction's `f32` bits under a regression head.
fn bits(head: Head, prediction: f32) -> u32 {
    match head {
        Head::Vote { .. } => prediction as u32,
        Head::Mean | Head::Sum { .. } => prediction.to_bits(),
    }
}

fn forest<T: serde::Deserialize>(kind: &str) -> T {
    serde_json::from_str(&text(&format!("{kind}.forest.json"))).expect("forest JSON")
}

fn check_kind<T: Ensemble + serde::Deserialize>(kind: &str) {
    let bolt = BoltForest::compile(&forest::<T>(kind), &BoltConfig::default()).expect("compiles");
    let recorded_blt = fixture(&format!("{kind}.blt"));
    assert!(
        ArtifactWriter::serialize_forest(&bolt) == recorded_blt,
        "{kind}: compiled BLT1 bytes differ from the recorded file"
    );
    let mapped = MappedForest::from_artifact(Artifact::from_bytes(&recorded_blt).expect("valid"))
        .expect("recorded file loads");
    assert_eq!(mapped.head(), bolt.head(), "{kind}: head");
    let recorded: Vec<u32> = text(&format!("{kind}.predictions"))
        .lines()
        .map(|line| line.parse().expect("one u32 per line"))
        .collect();
    let inputs = inputs(bolt.universe());
    assert_eq!((inputs.len(), recorded.len()), (200, 200), "{kind}");
    let mut scratch = bolt.scratch();
    for (i, (sample, &want)) in inputs.iter().zip(&recorded).enumerate() {
        let owned = bits(bolt.head(), bolt.predict_with(sample, &mut scratch));
        let from_file = bits(mapped.head(), mapped.predict_with(sample, &mut scratch));
        assert_eq!(owned, want, "{kind}: owned model, input {i} {sample:?}");
        assert_eq!(from_file, want, "{kind}: file, input {i} {sample:?}");
    }
}

#[test]
fn random_forest_compiles_and_predicts_as_recorded() {
    check_kind::<RandomForest>("rf");
}

#[test]
fn boosted_forest_compiles_and_predicts_as_recorded() {
    check_kind::<BoostedForest>("boosted");
}

#[test]
fn regression_forest_compiles_and_predicts_as_recorded() {
    check_kind::<RegressionForest>("reg");
}

#[test]
fn boosted_regressor_compiles_and_predicts_as_recorded() {
    check_kind::<GradientBoostedRegressor>("gbt");
}

/// Compiled JSON written before heads stored `n_classes` alone; it must
/// still load as a vote head and classify as recorded.
#[test]
fn recorded_classifier_json_loads_and_classifies_as_recorded() {
    let mut bolt: BoltForest = serde_json::from_str(&text("rf.bolt.json")).expect("JSON");
    bolt.rebuild();
    let forest: RandomForest = forest("rf");
    let n_classes = forest.n_classes();
    assert_eq!(bolt.head(), Head::Vote { n_classes });
    let fresh = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");
    assert!(ArtifactWriter::serialize_forest(&bolt) == ArtifactWriter::serialize_forest(&fresh));
    let recorded = text("rf.predictions");
    for (sample, line) in inputs(bolt.universe()).iter().zip(recorded.lines()) {
        assert_eq!(bolt.classify(sample).to_string(), line, "{sample:?}");
    }
}
