//! Pipelining on the event-loop front-end, which answers every request in
//! the pass that decodes it: in-order replies to a mixed burst, per-request
//! malformed-payload errors, reconnect churn, and lone sequential requests
//! on both transports.

use bolt_baselines::InferenceEngine;
use bolt_server::proto::{
    is_v2, read_frame, ClassifyBatchWithRequest, ClassifyRequest, ClassifyResponse, V2Response,
    ERR_MALFORMED_REQUEST, ERR_OVERLOADED,
};
use bolt_server::{ClassificationClient, ServerBuilder};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn unique_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bolt-pipe-{tag}-{}.sock", std::process::id()))
}

/// Classifies `features[0] as u32` plus its offset: deterministic classes
/// without training a forest.
struct EchoEngine(u32);

impl InferenceEngine for EchoEngine {
    fn name(&self) -> &'static str {
        "Echo"
    }

    fn n_features(&self) -> usize {
        1
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        sample[0] as u32 + self.0
    }
}

fn engine(offset: u32) -> Arc<dyn InferenceEngine> {
    Arc::new(EchoEngine(offset))
}

/// Reads one response frame, sorting v2 error frames from legacy
/// classification responses.
fn read_response(stream: &mut UnixStream) -> Result<ClassifyResponse, u8> {
    let payload = read_frame(stream).expect("read").expect("frame");
    if is_v2(&payload) {
        match V2Response::decode(&payload).expect("decodes") {
            V2Response::Error(e) => Err(e.code),
            V2Response::Classify(r) => Ok(r),
            other => panic!("unexpected v2 response: {other:?}"),
        }
    } else {
        Ok(ClassifyResponse::decode(&payload).expect("decodes"))
    }
}

/// What one reply carried, for comparing a whole burst at once.
#[derive(Debug, PartialEq, Eq)]
enum Reply {
    Single(u32),
    Batch(Vec<u32>),
    Error(u8),
}

fn read_reply(stream: &mut UnixStream) -> Reply {
    let payload = read_frame(stream).expect("read").expect("frame");
    if !is_v2(&payload) {
        let response = ClassifyResponse::decode(&payload).expect("decodes");
        assert!(response.latency_ns > 0);
        return Reply::Single(response.class);
    }
    match V2Response::decode(&payload).expect("decodes") {
        V2Response::Batch(r) => Reply::Batch(r.classes),
        V2Response::Error(e) => Reply::Error(e.code),
        other => panic!("unexpected v2 response: {other:?}"),
    }
}

#[test]
fn a_mixed_burst_is_answered_in_request_order() {
    let path = unique_socket("burst");
    let server = ServerBuilder::new()
        .register("m", engine(0))
        .bind_uds(&path)
        .expect("binds");
    let mut stream = UnixStream::connect(&path).expect("connects");
    // One write, no reply read in between: 10 legacy singles, a v2 batch
    // of 8 routed by name, one malformed frame (well delimited, but its
    // 2-byte payload decodes as no message), then 10 more singles.
    let single = |i: u32| {
        ClassifyRequest {
            features: vec![i as f32],
        }
        .encode()
    };
    let batch: Vec<Vec<f32>> = (100..108).map(|i| vec![i as f32]).collect();
    let mut wire = Vec::new();
    (0..10).for_each(|i| wire.extend_from_slice(&single(i)));
    wire.extend_from_slice(
        &ClassifyBatchWithRequest {
            model: "m".to_owned(),
            samples: batch.clone(),
        }
        .encode()
        .expect("encodes"),
    );
    wire.extend_from_slice(&2u32.to_le_bytes());
    wire.extend_from_slice(&[0xFF, 0xFF]);
    (10..20).for_each(|i| wire.extend_from_slice(&single(i)));
    stream.write_all(&wire).expect("writes");

    let classify = |i: u32| Reply::Single(EchoEngine(0).classify(&[i as f32]));
    let expected: Vec<Reply> = (0..10)
        .map(classify)
        .chain([
            Reply::Batch(batch.iter().map(|s| EchoEngine(0).classify(s)).collect()),
            Reply::Error(ERR_MALFORMED_REQUEST),
        ])
        .chain((10..20).map(classify))
        .collect();
    let replies: Vec<Reply> = (0..expected.len())
        .map(|_| read_reply(&mut stream))
        .collect();
    assert!(!replies.contains(&Reply::Error(ERR_OVERLOADED)));
    assert_eq!(replies, expected);

    // The same connection serves a fresh request afterwards.
    stream.write_all(&single(3)).expect("writes");
    assert_eq!(read_reply(&mut stream), classify(3));
    assert_eq!(
        server.stats().requests,
        10 + 8 + 10 + 1,
        "the malformed frame books nothing"
    );
    server.shutdown();
}

#[test]
fn malformed_request_fails_alone_and_the_connection_survives() {
    let path = unique_socket("malformed-mix");
    let server = ServerBuilder::new()
        .register("m", engine(0))
        .bind_uds(&path)
        .expect("binds");
    let mut stream = UnixStream::connect(&path).expect("connects");
    // A pipelined mix: valid, malformed (well-delimited frame whose
    // 2-byte payload decodes as no message), valid. Only the middle
    // request may fail, and only with a structured error.
    let mut wire = Vec::new();
    wire.extend_from_slice(
        &ClassifyRequest {
            features: vec![7.0],
        }
        .encode(),
    );
    wire.extend_from_slice(&2u32.to_le_bytes());
    wire.extend_from_slice(&[0xFF, 0xFF]);
    wire.extend_from_slice(
        &ClassifyRequest {
            features: vec![9.0],
        }
        .encode(),
    );
    stream.write_all(&wire).expect("writes");
    assert_eq!(read_response(&mut stream).expect("first").class, 7);
    assert_eq!(
        read_response(&mut stream).expect_err("second is rejected"),
        ERR_MALFORMED_REQUEST
    );
    assert_eq!(read_response(&mut stream).expect("third").class, 9);
    // The same connection keeps serving afterwards.
    stream
        .write_all(
            &ClassifyRequest {
                features: vec![3.0],
            }
            .encode(),
        )
        .expect("writes");
    assert_eq!(read_response(&mut stream).expect("fourth").class, 3);
    assert_eq!(
        server.stats().requests,
        3,
        "the malformed frame books nothing"
    );
    server.shutdown();
}

#[test]
fn reconnect_churn_leaks_no_state() {
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd")
            .map(|entries| entries.count())
            .unwrap_or(0)
    }
    let path = unique_socket("churn");
    let server = ServerBuilder::new()
        .register("m", engine(0))
        .bind_uds(&path)
        .expect("binds");
    // Warm up so the slab and fd table reach steady state first.
    for _ in 0..10 {
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let _ = client.classify(&[1.0]).expect("classifies");
    }
    // Churn phase cannot start until the warm-up connections are fully
    // closed server-side; poll the fd count down to a baseline.
    std::thread::sleep(Duration::from_millis(50));
    let baseline = open_fds();
    for i in 0..200u32 {
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let response = client.classify(&[(i % 32) as f32]).expect("classifies");
        assert_eq!(response.class, i % 32);
    }
    assert_eq!(server.stats().requests, 210);
    // Give the event loop a beat to observe the last hangups.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut now_fds = open_fds();
    while now_fds > baseline + 4 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now_fds = open_fds();
    }
    assert!(
        now_fds <= baseline + 4,
        "fd count grew from {baseline} to {now_fds} across 200 reconnects"
    );
    // The server still serves after the churn.
    let mut client = ClassificationClient::connect(&path).expect("connects");
    assert_eq!(client.classify(&[5.0]).expect("classifies").class, 5);
    server.shutdown();
}

/// One client, one request at a time: every request is served alone, on
/// either transport.
#[test]
fn sequential_singles_are_answered_on_both_transports() {
    let path = unique_socket("sequential");
    let server = ServerBuilder::new()
        .register("m", engine(0))
        .tcp("127.0.0.1:0")
        .bind_uds(&path)
        .expect("binds");
    let mut client = ClassificationClient::connect(&path).expect("connects");
    for i in 0..10u32 {
        assert_eq!(client.classify(&[i as f32]).expect("classifies").class, i);
    }
    let addr = server.local_addr().expect("tcp listener bound");
    let mut client = ClassificationClient::connect_tcp(addr).expect("connects");
    for i in 0..10u32 {
        assert_eq!(client.classify(&[i as f32]).expect("classifies").class, i);
    }
    assert_eq!(server.stats().requests, 20);
    server.shutdown();
}

#[test]
fn event_loop_tcp_pipelining_and_hot_swap() {
    let server = ServerBuilder::new()
        .register("m", engine(0))
        .bind_tcp("127.0.0.1:0")
        .expect("binds");
    let mut stream = std::net::TcpStream::connect(server.local_addr().expect("tcp listener bound"))
        .expect("connects");
    let mut wire = Vec::new();
    for i in 0..30u32 {
        wire.extend_from_slice(
            &ClassifyRequest {
                features: vec![i as f32],
            }
            .encode(),
        );
    }
    stream.write_all(&wire).expect("writes");
    for i in 0..30u32 {
        let payload = read_frame(&mut stream).expect("read").expect("frame");
        assert_eq!(
            ClassifyResponse::decode(&payload).expect("decodes").class,
            i
        );
    }
    // Hot-swap under the event loop: subsequent resolves see the new
    // engine, stats carry over.
    server.store().swap("m", engine(1)).expect("hot-swaps");
    stream
        .write_all(
            &ClassifyRequest {
                features: vec![12.0],
            }
            .encode(),
        )
        .expect("writes");
    let payload = read_frame(&mut stream).expect("read").expect("frame");
    assert_eq!(
        ClassifyResponse::decode(&payload).expect("decodes").class,
        13,
        "answered by the swapped-in engine"
    );
    assert_eq!(server.stats().requests, 31);
    server.shutdown();
}
