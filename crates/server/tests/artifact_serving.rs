//! Serving mapped `BLT1` artifacts through the model store.
//!
//! Three guarantees: (1) an [`ArtifactEngine`] answers bit-identically to
//! the reference forest across the full compile configuration matrix, (2)
//! hot-swapping a live model for a *freshly memory-mapped* artifact file —
//! repeatedly, under concurrent client traffic — never tears a response,
//! drops a request, or changes a classification, and (3) a regressor's
//! artifact in a model directory is refused without disturbing the models
//! beside it.

use std::sync::Arc;

use bolt_artifact::{Artifact, ArtifactWriter, MappedForest};
use bolt_baselines::InferenceEngine;
use bolt_core::oracle;
use bolt_core::{BoltConfig, BoltForest};
use bolt_server::proto::ProtoError;
use bolt_server::{ArtifactEngine, BoltEngine, ClassificationClient, ServerBuilder};

fn artifact_engine(bolt: &BoltForest) -> ArtifactEngine {
    let bytes = ArtifactWriter::serialize_forest(bolt);
    let mapped = MappedForest::from_artifact(Artifact::from_bytes(&bytes).expect("valid"))
        .expect("valid classifier");
    ArtifactEngine::new(Arc::new(mapped)).expect("classifier")
}

#[test]
fn artifact_engine_is_bit_identical_across_config_matrix() {
    let case = oracle::served_case(0xB017, 30);
    let slices: Vec<&[f32]> = case.inputs.iter().map(Vec::as_slice).collect();
    let expected: Vec<u32> = case.inputs.iter().map(|s| case.forest.predict(s)).collect();
    for (i, config) in oracle::config_matrix().iter().enumerate() {
        let bolt = BoltForest::compile(&case.forest, config).expect("compile");
        let engine = artifact_engine(&bolt);
        for (sample, &want) in case.inputs.iter().zip(&expected) {
            assert_eq!(engine.classify(sample), want, "config {i}");
        }
        assert_eq!(
            engine.classify_batch(&slices),
            expected,
            "config {i} batched"
        );
    }
}

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 200;
const SWAPS: usize = 40;

#[test]
fn hot_swapping_freshly_mapped_artifacts_under_traffic_is_seamless() {
    let case = oracle::served_case(0xB117, 24);
    let forest = case.forest.clone();
    let bolt = BoltForest::compile(&case.forest, &BoltConfig::default()).expect("compiles");
    // Two artifact files compiled under different configs — both must
    // classify identically; the swap loop maps each file *fresh* every
    // time, exercising map-validate-swap under live traffic.
    let alt = BoltForest::compile(
        &case.forest,
        &BoltConfig::default()
            .with_cluster_threshold(2)
            .with_bloom_bits_per_key(0),
    )
    .expect("compiles");
    let dir = std::env::temp_dir();
    let path_a = dir.join(format!(
        "bolt-test-artifact-swap-a-{}.blt",
        std::process::id()
    ));
    let path_b = dir.join(format!(
        "bolt-test-artifact-swap-b-{}.blt",
        std::process::id()
    ));
    ArtifactWriter::write_forest(&bolt, &path_a).expect("write a");
    ArtifactWriter::write_forest(&alt, &path_b).expect("write b");

    let in_memory: Arc<dyn InferenceEngine> = Arc::new(BoltEngine::new(Arc::new(bolt)));
    let socket = dir.join(format!(
        "bolt-test-artifact-swap-{}.sock",
        std::process::id()
    ));
    let server = ServerBuilder::new()
        .register("prod", Arc::clone(&in_memory))
        .default_model("prod")
        .bind_uds(&socket)
        .expect("binds");
    let store = server.store();

    let clients: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let socket = socket.clone();
            let forest = forest.clone();
            let inputs = case.inputs.clone();
            std::thread::spawn(move || {
                let mut client = ClassificationClient::connect(&socket).expect("connects");
                for i in 0..REQUESTS_PER_CLIENT {
                    let sample = &inputs[(t + i) % inputs.len()];
                    let want = forest.predict(sample);
                    let got = if i % 2 == 0 {
                        client.classify_with("prod", sample)
                    } else {
                        client.classify(sample)
                    };
                    let response = got.unwrap_or_else(|e| {
                        panic!("request {i} on thread {t} failed mid-swap: {e}")
                    });
                    assert_eq!(
                        response.class, want,
                        "divergent response on thread {t}, request {i}: {sample:?}"
                    );
                }
            })
        })
        .collect();

    // Re-map one of the artifact files from scratch on every swap — the
    // full open/validate/register path a production reload would take.
    for i in 0..SWAPS {
        let engine: Arc<dyn InferenceEngine> = match i % 3 {
            0 => Arc::new(ArtifactEngine::open(&path_a).expect("map a")),
            1 => Arc::new(ArtifactEngine::open(&path_b).expect("map b")),
            _ => Arc::clone(&in_memory),
        };
        store.swap("prod", engine).expect("hot-swaps");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    for client in clients {
        client.join().expect("client thread");
    }
    let total = (CLIENT_THREADS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(
        server.stats().requests,
        total,
        "every request is accounted for"
    );
    server.shutdown();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

/// `boltd` serves classes only: a regressor's `NAME@1.blt` in the model
/// directory answers a structured load error each time it is routed to —
/// the engine refuses its regression head — while the classifier beside it
/// keeps answering as its forest does.
#[test]
fn regressor_artifact_in_model_dir_is_refused_and_others_keep_serving() {
    use bolt_forest::{RegressionConfig, RegressionDataset, RegressionForest};
    let case = oracle::served_case(0xB127, 8);
    let classifier = BoltForest::compile(&case.forest, &BoltConfig::default()).expect("compiles");
    let n_features = case.forest.n_features();
    let rows: Vec<Vec<f32>> = (0..60)
        .map(|i| {
            (0..n_features)
                .map(|f| ((i * (f + 3)) % 7) as f32)
                .collect()
        })
        .collect();
    let targets = rows
        .iter()
        .map(|r| r[0] * 2.0 - r[1 % n_features])
        .collect();
    let data = RegressionDataset::from_rows(rows, targets).expect("dataset");
    let forest = RegressionForest::train(&data, &RegressionConfig::new(3).with_seed(4));
    let regressor = BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles");

    let dir = std::env::temp_dir().join(format!("bolt-test-reg-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("model dir");
    ArtifactWriter::write_forest_versioned(&classifier, 1, dir.join("sev@1.blt")).expect("write");
    ArtifactWriter::write_forest_versioned(&regressor, 1, dir.join("eta@1.blt")).expect("write");
    let socket = dir.join("serve.sock");
    let server = ServerBuilder::new()
        .model_dir(&dir)
        .bind_uds(&socket)
        .expect("binds");
    let mut client = ClassificationClient::connect(&socket).expect("connects");
    for round in 0..2 {
        for sample in &case.inputs {
            match client.classify_with("eta", sample) {
                Err(ProtoError::Rejected { detail, .. }) => {
                    assert!(detail.contains("not a classifier"), "{detail}");
                }
                other => panic!("round {round}: regressor served: {other:?}"),
            }
            let got = client
                .classify_with("sev", sample)
                .expect("classifier serves");
            assert_eq!(got.class, case.forest.predict(sample), "round {round}");
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
