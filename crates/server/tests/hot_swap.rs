//! Hot-swap under fire: client threads hammer a named model while the
//! main thread repeatedly swaps the engine behind that name between Bolt
//! and a baseline. Because every engine is held to bit-exact agreement
//! with the reference traversal, *every* response must match the
//! reference no matter which engine answered — a torn read, a dropped
//! in-flight request, or a half-installed engine would surface as an
//! error or a divergent class. Statistics must survive the swaps too:
//! the per-model counters, keyed by name rather than by engine instance,
//! must account for every request the clients made.

use std::sync::Arc;

use bolt_baselines::{ForestPackingForest, InferenceEngine, RangerLikeForest};
use bolt_core::oracle;
use bolt_core::{BoltConfig, BoltForest};
use bolt_server::{BoltEngine, ClassificationClient, ServerBuilder};

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 250;
const SWAPS: usize = 60;

#[test]
fn hot_swap_under_concurrent_traffic_drops_nothing() {
    let case = oracle::served_case(0xCAFE, 30);
    let forest = case.forest.clone();
    let bolt: Arc<dyn InferenceEngine> = Arc::new(BoltEngine::new(Arc::new(
        BoltForest::compile(&case.forest, &BoltConfig::default()).expect("compiles"),
    )));
    let ranger: Arc<dyn InferenceEngine> = Arc::new(RangerLikeForest::from_forest(&case.forest));

    let path = std::env::temp_dir().join(format!("bolt-test-hot-swap-{}.sock", std::process::id()));
    let server = ServerBuilder::new()
        .register("hot", Arc::clone(&bolt))
        .register(
            "pinned",
            // Forest packing handles the full adversarial input set
            // (scikit's check_array would reject the NaN/inf samples).
            Arc::new(ForestPackingForest::from_forest(
                &case.forest,
                &case.calibration,
            )),
        )
        .default_model("hot")
        .bind_uds(&path)
        .expect("binds");
    let store = server.store();

    let clients: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let path = path.clone();
            let forest = forest.clone();
            let inputs = case.inputs.clone();
            std::thread::spawn(move || {
                let mut client = ClassificationClient::connect(&path).expect("connects");
                for i in 0..REQUESTS_PER_CLIENT {
                    let sample = &inputs[(t + i) % inputs.len()];
                    let want = forest.predict(sample);
                    // Rotate across the swapped name, the legacy default
                    // (which also routes to the swapped name), and the
                    // pinned control model.
                    let got = match i % 3 {
                        0 => client.classify_with("hot", sample),
                        1 => client.classify(sample),
                        _ => client.classify_with("pinned", sample),
                    };
                    let response = got.unwrap_or_else(|e| {
                        panic!("request {i} on thread {t} failed mid-swap: {e}")
                    });
                    assert_eq!(
                        response.class, want,
                        "torn response on thread {t}, request {i}: {sample:?}"
                    );
                }
            })
        })
        .collect();

    // Swap the live engine back and forth while the clients run.
    for i in 0..SWAPS {
        let engine = if i % 2 == 0 {
            Arc::clone(&ranger)
        } else {
            Arc::clone(&bolt)
        };
        store.swap("hot", engine).expect("hot-swaps");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    for client in clients {
        client.join().expect("client thread");
    }

    // Every request the clients made is accounted for in the per-model
    // counters — nothing was dropped or double-booked across swaps.
    let total = (CLIENT_THREADS * REQUESTS_PER_CLIENT) as u64;
    let per_model: u64 = store.list().iter().map(|m| m.requests).sum();
    assert_eq!(per_model, total, "per-model stats must sum to the total");
    assert_eq!(server.stats().requests, total);
    // The swapped name kept one continuous counter across engines:
    // 2 of every 3 requests (named + legacy default) landed on it.
    let hot = server.stats_for("hot").expect("registered");
    let pinned = server.stats_for("pinned").expect("registered");
    assert_eq!(hot.requests + pinned.requests, total);
    assert!(
        hot.requests > pinned.requests,
        "hot took named + legacy traffic ({} vs {})",
        hot.requests,
        pinned.requests
    );
    server.shutdown();
}
