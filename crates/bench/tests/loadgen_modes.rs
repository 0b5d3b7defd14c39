//! End-to-end checks for the load generator's run-bounding modes:
//! fixed-duration runs and the reconnect-storm mix, against a live
//! in-process server on the event-loop front-end.

use bolt_baselines::ScikitLikeForest;
use bolt_bench::loadgen::{run_open_loop, OpenLoopConfig, Target};
use bolt_forest::{Dataset, ForestConfig, RandomForest};
use bolt_server::ServerBuilder;
use std::sync::Arc;
use std::time::Duration;

fn serve() -> (bolt_server::ClassificationServer, Vec<Vec<f32>>, Vec<u32>) {
    let rows: Vec<Vec<f32>> = (0..120)
        .map(|i| vec![(i % 6) as f32, (i % 5) as f32])
        .collect();
    let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 2.0)).collect();
    let data = Dataset::from_rows(rows, labels, 2).expect("valid");
    let forest = RandomForest::train(&data, &ForestConfig::new(4).with_max_height(3).with_seed(3));
    let samples: Vec<Vec<f32>> = (0..data.len()).map(|i| data.sample(i).to_vec()).collect();
    let expected: Vec<u32> = samples.iter().map(|s| forest.predict(s)).collect();
    let server = ServerBuilder::new()
        .register("m", Arc::new(ScikitLikeForest::from_forest(&forest)))
        .bind_tcp("127.0.0.1:0")
        .expect("binds");
    (server, samples, expected)
}

#[test]
fn duration_bounds_the_run_instead_of_the_request_count() {
    let (server, samples, expected) = serve();
    let target = Target::Tcp(server.local_addr().expect("tcp listener bound"));
    let mut cfg = OpenLoopConfig::new("duration_mode", 2, 2000.0, 0);
    cfg.duration = Some(Duration::from_millis(250));
    let report = run_open_loop(&target, &samples, Some(&expected), &cfg).expect("runs");
    // The schedule stops at the deadline: ~rate × duration frames, never
    // unbounded. Allow generous slack for slow CI hosts.
    assert!(report.frames_sent > 0, "sent nothing in 250 ms");
    assert!(
        report.frames_sent <= 501,
        "sent {} frames, schedule overran the deadline",
        report.frames_sent
    );
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.wrong_class, 0);
    assert_eq!(report.responses_ok, report.frames_sent);
    server.shutdown();
}

#[test]
fn duration_caps_a_request_bounded_run_early() {
    let (server, samples, _) = serve();
    let target = Target::Tcp(server.local_addr().expect("tcp listener bound"));
    // 1M requests at 2k fps would take ~8 minutes; the 200 ms deadline
    // must cut it off.
    let mut cfg = OpenLoopConfig::new("duration_cap", 2, 2000.0, 1_000_000);
    cfg.duration = Some(Duration::from_millis(200));
    let report = run_open_loop(&target, &samples, None, &cfg).expect("runs");
    assert!(report.frames_sent < 1000, "deadline ignored");
    assert_eq!(report.protocol_errors, 0);
    server.shutdown();
}

#[test]
fn reconnect_storm_churns_connections_without_errors() {
    let (server, samples, expected) = serve();
    let target = Target::Tcp(server.local_addr().expect("tcp listener bound"));
    let mut cfg = OpenLoopConfig::new("reconnect_mode", 2, 4000.0, 120);
    cfg.reconnect_every = 3;
    let report = run_open_loop(&target, &samples, Some(&expected), &cfg).expect("runs");
    assert_eq!(report.frames_sent, 120);
    assert_eq!(report.responses_ok, 120);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.wrong_class, 0);
    // Each worker reconnects after every 3rd sent frame.
    assert_eq!(report.reconnects, 120 / 3);
    assert_eq!(server.stats().requests, 120);
    server.shutdown();
}
