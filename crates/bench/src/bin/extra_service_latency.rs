//! Extra experiment (beyond the paper's figures): end-to-end *service*
//! latency through the Fig. 7 front-end — Unix-domain-socket round trip
//! included — for every platform on the Fig. 10 forest.
//!
//! One server process hosts all four engines in its model store; the
//! client routes to each by name over a single connection, so every
//! platform is measured through the identical socket and framing path.
//!
//! The paper excludes network delays from its timings; this binary shows
//! both numbers so the transport share is visible: `service µs` is the
//! client-observed round trip, `engine µs` is the server-side
//! receipt-to-result time the paper reports.
//!
//! Run: `cargo run -p bolt-bench --release --bin extra_service_latency`

use bolt_baselines::{ForestPackingForest, RangerLikeForest, ScikitLikeForest};
use bolt_bench::{fmt_us, print_table, test_samples, train_workload};
use bolt_data::Workload;
use bolt_server::{BoltEngine, ClassificationClient, ServerBuilder};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let trained = train_workload(Workload::MnistLike, 10, 4, 2000, test_samples().min(1000));
    let platforms = bolt_bench::Platforms::build_tuned(&trained);
    let socket = std::env::temp_dir().join(format!("bolt-svc-{}.sock", std::process::id()));
    let server = ServerBuilder::new()
        .register(
            "bolt",
            Arc::new(BoltEngine::new(Arc::clone(&platforms.bolt))),
        )
        .register(
            "scikit",
            Arc::new(ScikitLikeForest::from_forest(&trained.forest)),
        )
        .register(
            "ranger",
            Arc::new(RangerLikeForest::from_forest(&trained.forest)),
        )
        .register(
            "fp",
            Arc::new(ForestPackingForest::from_forest(
                &trained.forest,
                &trained.train,
            )),
        )
        .default_model("bolt")
        .bind_uds(&socket)
        .expect("binds");
    let mut client = ClassificationClient::connect(&socket).expect("connects");

    let mut rows = Vec::new();
    for model in ["bolt", "scikit", "ranger", "fp"] {
        for (sample, _) in trained.test.iter().take(32) {
            let _ = client.classify_with(model, sample).expect("classifies");
        }
        let before = server.stats_for(model).expect("registered");
        let start = Instant::now();
        for (sample, _) in trained.test.iter() {
            let _ = client.classify_with(model, sample).expect("classifies");
        }
        let round_trip_ns = start.elapsed().as_nanos() as f64 / trained.test.len() as f64;
        let after = server.stats_for(model).expect("registered");
        let engine_ns = (after.total_latency_ns - before.total_latency_ns) as f64
            / (after.requests - before.requests) as f64;
        let engine_name = server
            .store()
            .resolve(Some(model))
            .expect("registered")
            .engine()
            .name()
            .to_owned();
        rows.push(vec![
            engine_name,
            fmt_us(engine_ns),
            fmt_us(round_trip_ns),
            format!(
                "{:.0}%",
                100.0 * (round_trip_ns - engine_ns) / round_trip_ns
            ),
        ]);
    }
    server.shutdown();

    print_table(
        "Service latency through the UDS front-end [MNIST, 10 trees, height 4]",
        &["platform", "engine µs", "service µs", "transport share"],
        &rows,
    );
    println!(
        "\nAll four platforms served by one process over one socket (named \
         model routing). 'engine µs' is the paper's measurement boundary \
         (receipt to aggregation); 'service µs' adds the domain-socket \
         round trip."
    );
}
