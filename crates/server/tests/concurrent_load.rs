//! Concurrent-load smoke: one server with a UDS *and* a TCP listener on
//! one event loop, hammered by client threads on both transports at once
//! with a mixed workload — single classifies, `ClassifyBatch` frames, v2 named
//! routing across two models, and deliberate unknown-model traffic.
//! The serving path must come through with zero protocol errors, every
//! classification bit-identical to the direct `forest.predict` answer,
//! every unknown-model frame answered with a structured rejection (never
//! a dropped connection), and the per-model statistics — booked from two
//! transports concurrently — summing exactly to the aggregate.

use std::sync::Arc;

use bolt_baselines::RangerLikeForest;
use bolt_core::{BoltConfig, BoltForest};
use bolt_forest::{Dataset, ForestConfig, RandomForest};
use bolt_server::{BoltEngine, ClassificationClient, ProtoError, ServerBuilder};

const THREADS_PER_TRANSPORT: usize = 4;
const REQUESTS_PER_THREAD: usize = 400;

fn fixture() -> (Dataset, RandomForest, Arc<BoltForest>) {
    let rows: Vec<Vec<f32>> = (0..240)
        .map(|i| {
            (0..8)
                .map(|j| ((i * 31 + j * 17) % 23) as f32 / 3.0)
                .collect()
        })
        .collect();
    let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] + r[3] > 5.0)).collect();
    let data = Dataset::from_rows(rows, labels, 2).expect("valid");
    let forest = RandomForest::train(
        &data,
        &ForestConfig::new(8).with_max_height(5).with_seed(0xB0),
    );
    let bolt = Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
    (data, forest, bolt)
}

/// One client thread's slice of the mixed workload. Returns the number of
/// single-sample-equivalent requests it booked on the server (for the
/// stats reconciliation), or panics on the first divergence.
fn hammer(
    mut client: ClassificationClient,
    thread_idx: usize,
    samples: &[Vec<f32>],
    expected: &[u32],
) -> u64 {
    let mut booked = 0u64;
    for i in 0..REQUESTS_PER_THREAD {
        let pick = (thread_idx * 7 + i) % samples.len();
        let sample = samples[pick].as_slice();
        let want = expected[pick];
        match i % 5 {
            // Legacy single classify to the default model.
            0 => {
                let response = client.classify(sample).expect("classify");
                assert_eq!(response.class, want, "thread {thread_idx} request {i}");
                booked += 1;
            }
            // Batched frame (4 samples) to the default model.
            1 => {
                let batch: Vec<&[f32]> = (0..4)
                    .map(|k| samples[(pick + k) % samples.len()].as_slice())
                    .collect();
                let response = client.classify_batch(&batch).expect("classify_batch");
                assert_eq!(response.classes.len(), 4);
                for (k, &class) in response.classes.iter().enumerate() {
                    assert_eq!(class, expected[(pick + k) % expected.len()]);
                }
                booked += 4;
            }
            // v2 named routing to the Bolt model.
            2 => {
                let response = client.classify_with("bolt", sample).expect("classify_with");
                assert_eq!(response.class, want);
                booked += 1;
            }
            // v2 named routing to the baseline model: same forest, same
            // bits, different engine.
            3 => {
                let response = client
                    .classify_with("ranger", sample)
                    .expect("classify_with ranger");
                assert_eq!(response.class, want);
                booked += 1;
            }
            // Unknown-model traffic: must be a structured rejection, and
            // the connection must remain usable for the next iteration.
            _ => match client.classify_with("no-such-model", sample) {
                Err(ProtoError::Rejected { code, .. }) => {
                    assert_eq!(code, bolt_server::proto::ERR_UNKNOWN_MODEL);
                }
                other => panic!("unknown model should be rejected, got {other:?}"),
            },
        }
    }
    booked
}

#[test]
fn mixed_concurrent_load_on_both_transports_is_clean() {
    let (data, forest, bolt) = fixture();
    let samples: Vec<Vec<f32>> = (0..data.len()).map(|i| data.sample(i).to_vec()).collect();
    let expected: Vec<u32> = samples.iter().map(|s| forest.predict(s)).collect();

    // One server, one store, both listeners — as boltd deploys it.
    let path = std::env::temp_dir().join(format!(
        "bolt-test-concurrent-load-{}.sock",
        std::process::id()
    ));
    let server = ServerBuilder::new()
        .register("bolt", Arc::new(BoltEngine::new(Arc::clone(&bolt))))
        .register("ranger", Arc::new(RangerLikeForest::from_forest(&forest)))
        .default_model("bolt")
        .tcp("127.0.0.1:0")
        .bind_uds(&path)
        .expect("binds uds + tcp");
    let addr = server.local_addr().expect("tcp listener bound");

    let samples = Arc::new(samples);
    let expected = Arc::new(expected);
    let mut workers = Vec::new();
    for t in 0..THREADS_PER_TRANSPORT * 2 {
        let samples = Arc::clone(&samples);
        let expected = Arc::clone(&expected);
        let path = path.clone();
        workers.push(std::thread::spawn(move || {
            // Even threads hit UDS, odd threads hit TCP, concurrently.
            let client = if t % 2 == 0 {
                ClassificationClient::connect(&path).expect("uds connect")
            } else {
                ClassificationClient::connect_tcp(addr).expect("tcp connect")
            };
            hammer(client, t, &samples, &expected)
        }));
    }
    let booked: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .sum();

    // Every successful request (and nothing else) is on the books; the
    // rejected unknown-model frames never reach a model.
    let store = server.store();
    let total = store.total_stats();
    assert_eq!(total.requests, booked, "aggregate stats drop or inflate");
    let per_model: u64 = store.list().iter().map(|m| m.requests).sum();
    assert_eq!(
        per_model, total.requests,
        "per-model stats disagree with the aggregate"
    );
    // Both named models saw their share of the v2 routed traffic.
    let bolt_requests = store.stats("bolt").expect("bolt stats").requests;
    let ranger_requests = store.stats("ranger").expect("ranger stats").requests;
    assert!(bolt_requests > 0 && ranger_requests > 0);
    assert_eq!(bolt_requests + ranger_requests, total.requests);
    assert_eq!(
        server.stats(),
        total,
        "the server reports the store's books"
    );

    server.shutdown();
}
