//! End-to-end differential check for the serving stack (Fig. 7 of the
//! paper): classifications served over the socket front-ends — frame
//! codec, registry routing, engine adapters, response framing — must
//! equal the reference forest traversal for the same adversarial inputs
//! the in-process harness uses, including NaN and infinite features,
//! which must survive the wire encoding bit-exactly.
//!
//! One server process hosts Bolt *and* every baseline in its model
//! registry, so all four engines answer through the identical socket and
//! protocol path and can be compared request-for-request.

use std::sync::Arc;

use bolt_baselines::{ForestPackingForest, RangerLikeForest, ScikitLikeForest};
use bolt_core::oracle::{self, ServedCase};
use bolt_core::{BoltConfig, BoltForest};
use bolt_server::{BoltEngine, ClassificationClient, ServerBuilder};

const MODELS: [&str; 4] = ["bolt", "scikit", "ranger", "fp"];

fn compile_case(case: &ServedCase) -> Arc<BoltForest> {
    Arc::new(
        BoltForest::compile(
            &case.forest,
            &BoltConfig::default()
                .with_cluster_threshold(4)
                .with_bloom_bits_per_key(8),
        )
        .expect("compiles"),
    )
}

fn builder_for(case: &ServedCase, bolt: Arc<BoltForest>) -> ServerBuilder {
    ServerBuilder::new()
        .register("bolt", Arc::new(BoltEngine::new(bolt)))
        .register(
            "scikit",
            Arc::new(ScikitLikeForest::from_forest(&case.forest)),
        )
        .register(
            "ranger",
            Arc::new(RangerLikeForest::from_forest(&case.forest)),
        )
        .register(
            "fp",
            Arc::new(ForestPackingForest::from_forest(
                &case.forest,
                &case.calibration,
            )),
        )
        .default_model("bolt")
}

/// Sweeps every adversarial input through every named model on one
/// connection, asserting bit-identical agreement with the reference
/// traversal, then replays the sweep through the legacy (unrouted) path
/// and as one named batch per model. The scikit model only sees the
/// finite slice of the inputs — its `check_array` rejects NaN/inf by
/// documented contract (see `baselines/tests/oracle_agreement.rs`).
///
/// Returns the expected per-sample request count booked against each
/// model, in `MODELS` order.
fn sweep(client: &mut ClassificationClient, case: &ServedCase) -> [u64; MODELS.len()] {
    let n = case.inputs.len() as u64;
    let finite: Vec<&[f32]> = case
        .inputs
        .iter()
        .filter(|s| s.iter().all(|v| v.is_finite()))
        .map(Vec::as_slice)
        .collect();
    let f = finite.len() as u64;
    assert!(f < n, "adversarial prelude always has non-finite inputs");

    for sample in &case.inputs {
        let want = case.forest.predict(sample);
        let all_finite = sample.iter().all(|v| v.is_finite());
        for model in MODELS {
            if model == "scikit" && !all_finite {
                continue;
            }
            let response = client.classify_with(model, sample).expect("classifies");
            assert_eq!(
                response.class, want,
                "model {model} diverged from reference on {sample:?}"
            );
        }
        // Legacy frame → default model ("bolt").
        let response = client.classify(sample).expect("classifies");
        assert_eq!(
            response.class, want,
            "default-model fallback diverged on {sample:?}"
        );
    }
    for model in MODELS {
        let samples: Vec<&[f32]> = if model == "scikit" {
            finite.clone()
        } else {
            case.inputs.iter().map(Vec::as_slice).collect()
        };
        let want: Vec<u32> = samples.iter().map(|s| case.forest.predict(s)).collect();
        let response = client
            .classify_batch_with(model, &samples)
            .expect("classifies batch");
        assert_eq!(
            response.classes, want,
            "model {model} batch diverged from reference"
        );
    }
    // bolt: named + legacy + batch; scikit: finite named + finite batch;
    // ranger, fp: named + batch.
    [3 * n, 2 * f, 2 * n, 2 * n]
}

#[test]
fn served_classifications_match_reference_forest_uds() {
    let case = oracle::served_case(0x5E1F, 40);
    let bolt = compile_case(&case);
    let path =
        std::env::temp_dir().join(format!("bolt-test-oracle-e2e-{}.sock", std::process::id()));
    let server = builder_for(&case, bolt).bind_uds(&path).expect("binds");
    let mut client = ClassificationClient::connect(&path).expect("connects");

    let expected = sweep(&mut client, &case);

    // Per-model stats: each model answered exactly its share of the
    // sweep, and the default model additionally absorbed legacy traffic.
    for (model, want) in MODELS.iter().zip(expected) {
        let stats = server.stats_for(model).expect("registered");
        assert_eq!(stats.requests, want, "stats for {model}");
    }
    assert_eq!(server.stats().requests, expected.iter().sum::<u64>());
    server.shutdown();
}

#[test]
fn served_classifications_match_reference_forest_tcp() {
    let case = oracle::served_case(0x7CB1, 25);
    let bolt = compile_case(&case);
    let server = builder_for(&case, bolt)
        .bind_tcp("127.0.0.1:0")
        .expect("binds");
    let mut client = ClassificationClient::connect_tcp(server.local_addr()).expect("connects");

    let expected = sweep(&mut client, &case);

    assert_eq!(server.stats().requests, expected.iter().sum::<u64>());
    server.shutdown();
}

/// One inference worker serves two models of different width and class
/// count — one owned, one memory-mapped — from its single per-thread
/// scratch: pipelined singles (micro-batch groups) and batch frames below
/// and at the inline threshold alternate between the models, so every call
/// after the first refits a scratch that last served the other shape, on
/// the worker and on the loop thread alike. Every answer must equal the
/// reference traversal.
#[test]
fn one_worker_alternates_batches_across_two_model_shapes() {
    use bolt_artifact::{Artifact, ArtifactWriter, MappedForest};
    use bolt_server::proto::{
        read_frame, ClassifyBatchWithRequest, ClassifyWithRequest, V2Response,
    };
    use bolt_server::{ArtifactEngine, EventLoopOptions, ServingMode};
    use std::io::Write;

    let cases = [
        oracle::served_case(0x0B22, 70),
        oracle::served_case(0x0F66, 70),
    ];
    let bolts: Vec<Arc<BoltForest>> = cases.iter().map(compile_case).collect();
    assert_ne!(bolts[0].n_classes(), bolts[1].n_classes());
    assert_ne!(bolts[0].universe().len(), bolts[1].universe().len());
    let mapped = MappedForest::from_artifact(
        Artifact::from_bytes(&ArtifactWriter::serialize_forest(&bolts[1])).expect("valid"),
    )
    .expect("valid classifier");
    let path =
        std::env::temp_dir().join(format!("bolt-test-two-shapes-{}.sock", std::process::id()));
    let server = ServerBuilder::new()
        .register("m0", Arc::new(BoltEngine::new(Arc::clone(&bolts[0]))))
        .register("m1", Arc::new(ArtifactEngine::new(Arc::new(mapped))))
        .serving(ServingMode::EventLoop(EventLoopOptions {
            workers: 1,
            ..EventLoopOptions::default()
        }))
        .bind_uds(&path)
        .expect("binds");
    let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connects");
    let response = |mut stream: &std::os::unix::net::UnixStream| {
        let payload = read_frame(&mut stream).expect("read").expect("frame");
        V2Response::decode(&payload).expect("decodes")
    };

    let mut served = 0u64;
    for round in 0..6 {
        for (m, case) in cases.iter().enumerate() {
            let model = format!("m{m}");
            let want: Vec<u32> = case.inputs.iter().map(|s| case.forest.predict(s)).collect();
            // A burst of pipelined singles: the micro-batcher groups them.
            let burst = 3 + 5 * round;
            let mut wire = Vec::new();
            for sample in &case.inputs[..burst] {
                let request = ClassifyWithRequest {
                    model: model.clone(),
                    features: sample.clone(),
                };
                wire.extend_from_slice(&request.encode().expect("encodes"));
            }
            stream.write_all(&wire).expect("writes");
            for (i, &class) in want[..burst].iter().enumerate() {
                match response(&stream) {
                    V2Response::Classify(r) => assert_eq!(r.class, class, "{model} single {i}"),
                    other => panic!("{model} single {i}: {other:?}"),
                }
            }
            // A batch frame under the micro-batch flush threshold goes to
            // the worker; one at or over it runs on the loop thread.
            for n in [5 + round, case.inputs.len()] {
                let request = ClassifyBatchWithRequest {
                    model: model.clone(),
                    samples: case.inputs[..n].to_vec(),
                };
                stream
                    .write_all(&request.encode().expect("encodes"))
                    .expect("writes");
                match response(&stream) {
                    V2Response::Batch(r) => assert_eq!(r.classes, want[..n], "{model} batch {n}"),
                    other => panic!("{model} batch of {n}: {other:?}"),
                }
                served += n as u64;
            }
            served += burst as u64;
        }
    }
    assert_eq!(server.stats().requests, served);
    server.shutdown();
}
