//! Edge cases of the event-loop front-end's adaptive micro-batching:
//! flush policy under pipelining, per-request malformed-payload errors,
//! bounded-queue overload shedding, reconnect churn, and the retained
//! thread-per-connection mode.

use bolt_baselines::InferenceEngine;
use bolt_server::proto::{
    is_v2, read_frame, ClassifyBatchRequest, ClassifyRequest, ClassifyResponse, V2Response,
    ERR_MALFORMED_REQUEST, ERR_OVERLOADED,
};
use bolt_server::{
    ClassificationClient, EventLoopOptions, MicroBatchConfig, ServerBuilder, ServingMode,
};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn unique_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bolt-mb-{tag}-{}.sock", std::process::id()))
}

/// Classifies `features[0] as u32`, after an optional artificial delay —
/// deterministic classes without training a forest, and a way to hold the
/// admission queue full for overload tests.
struct SlowEngine {
    delay: Duration,
}

impl InferenceEngine for SlowEngine {
    fn name(&self) -> &'static str {
        "Slow"
    }

    fn n_features(&self) -> usize {
        1
    }

    fn classify(&self, sample: &[f32]) -> u32 {
        self.classify_batch(&[sample])[0]
    }

    fn classify_batch(&self, samples: &[&[f32]]) -> Vec<u32> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        samples.iter().map(|s| s[0] as u32).collect()
    }
}

fn engine(delay: Duration) -> Arc<dyn InferenceEngine> {
    Arc::new(SlowEngine { delay })
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

#[test]
fn pipelined_singles_coalesce_and_answer_in_order() {
    let path = unique_socket("pipeline");
    let server = ServerBuilder::new()
        .register("m", engine(Duration::ZERO))
        .serving(ServingMode::EventLoop(EventLoopOptions {
            microbatch: MicroBatchConfig {
                flush_samples: 8, // force several size-triggered flushes
                ..MicroBatchConfig::default()
            },
            ..EventLoopOptions::default()
        }))
        .bind_uds(&path)
        .expect("binds");
    let mut stream = UnixStream::connect(&path).expect("connects");
    // Fire 50 distinguishable requests without reading a single response:
    // the server must coalesce them into batch-kernel calls yet answer
    // strictly in request order.
    let mut wire = Vec::new();
    for i in 0..50u32 {
        wire.extend_from_slice(
            &ClassifyRequest {
                features: vec![i as f32],
            }
            .encode(),
        );
    }
    stream.write_all(&wire).expect("writes");
    for i in 0..50u32 {
        let response = read_response(&mut stream).expect("classified");
        assert_eq!(response.class, i, "response {i} out of order");
        assert!(response.latency_ns > 0);
    }
    // Every coalesced sample was booked as one request.
    assert_eq!(server.stats().requests, 50);
    server.shutdown();
}

#[test]
fn malformed_request_fails_alone_and_the_connection_survives() {
    let path = unique_socket("malformed-mix");
    let server = ServerBuilder::new()
        .register("m", engine(Duration::ZERO))
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
fn overload_sheds_with_structured_errors_never_drops() {
    let path = unique_socket("overload");
    let server = ServerBuilder::new()
        // Slow enough that the queue stays full while the flood arrives.
        .register("m", engine(Duration::from_millis(80)))
        .serving(ServingMode::EventLoop(EventLoopOptions {
            microbatch: MicroBatchConfig {
                queue_depth: 2,
                ..MicroBatchConfig::default()
            },
            ..EventLoopOptions::default()
        }))
        .bind_uds(&path)
        .expect("binds");
    let mut stream = UnixStream::connect(&path).expect("connects");
    let mut wire = Vec::new();
    for i in 0..10u32 {
        wire.extend_from_slice(
            &ClassifyRequest {
                features: vec![i as f32],
            }
            .encode(),
        );
    }
    stream.write_all(&wire).expect("writes");
    // Every one of the 10 requests gets *an answer* — classification or a
    // structured overload error — and the connection never drops.
    let mut served = 0;
    let mut shed = 0;
    for _ in 0..10 {
        match read_response(&mut stream) {
            Ok(_) => served += 1,
            Err(code) => {
                assert_eq!(code, ERR_OVERLOADED);
                shed += 1;
            }
        }
    }
    assert_eq!(served + shed, 10);
    assert!(served >= 2, "the admitted requests are answered");
    assert!(shed >= 1, "a depth-2 queue cannot absorb a 10-deep flood");
    // Shedding drained: once in-flight work completes, the same
    // connection is admitted again.
    stream
        .write_all(
            &ClassifyRequest {
                features: vec![4.0],
            }
            .encode(),
        )
        .expect("writes");
    assert_eq!(
        read_response(&mut stream).expect("served after shed").class,
        4
    );
    // A single batch frame larger than the whole queue is shed the same
    // structured way.
    let flood = ClassifyBatchRequest {
        samples: (0..8).map(|i| vec![i as f32]).collect(),
    }
    .encode()
    .expect("encodes");
    stream.write_all(&flood).expect("writes");
    match read_response(&mut stream) {
        Err(code) => assert_eq!(code, ERR_OVERLOADED),
        Ok(other) => panic!("oversized batch must be shed, got {other:?}"),
    }
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
        .register("m", engine(Duration::ZERO))
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

#[test]
fn kernel_sized_batches_take_the_same_thread_fast_path() {
    let path = unique_socket("fastpath");
    let server = ServerBuilder::new()
        .register("m", engine(Duration::ZERO))
        .serving(ServingMode::EventLoop(EventLoopOptions {
            microbatch: MicroBatchConfig {
                flush_samples: 4, // batches of >= 4 execute inline
                ..MicroBatchConfig::default()
            },
            ..EventLoopOptions::default()
        }))
        .bind_uds(&path)
        .expect("binds");
    let mut stream = UnixStream::connect(&path).expect("connects");
    // Pipeline a mix across the threshold — a single, an at-threshold
    // batch (fast path), an under-threshold batch (worker path), and an
    // over-threshold batch — without reading a response. Ordered delivery
    // must hold across the inline and dispatched paths, and every class
    // must be exact.
    let mut wire = Vec::new();
    wire.extend_from_slice(
        &ClassifyRequest {
            features: vec![9.0],
        }
        .encode(),
    );
    let shapes: [&[u32]; 3] = [&[1, 2, 3, 4], &[5, 6], &[7, 8, 9, 10, 11]];
    for samples in shapes {
        wire.extend_from_slice(
            &ClassifyBatchRequest {
                samples: samples.iter().map(|&s| vec![s as f32]).collect(),
            }
            .encode()
            .expect("encodes"),
        );
    }
    stream.write_all(&wire).expect("writes");
    assert_eq!(read_response(&mut stream).expect("single").class, 9);
    for samples in shapes {
        let payload = read_frame(&mut stream).expect("read").expect("frame");
        let response =
            bolt_server::proto::ClassifyBatchResponse::decode(&payload).expect("decodes");
        let want: Vec<u32> = samples.to_vec();
        assert_eq!(response.classes, want);
        assert!(response.latency_ns > 0);
    }
    // The connection keeps serving after an inline batch.
    stream
        .write_all(
            &ClassifyRequest {
                features: vec![2.0],
            }
            .encode(),
        )
        .expect("writes");
    assert_eq!(read_response(&mut stream).expect("after").class, 2);
    // 1 + 4 + 2 + 5 batch samples + 1 trailing single.
    assert_eq!(server.stats().requests, 13);
    server.shutdown();
}

#[test]
fn disabled_microbatching_still_serves_concurrently() {
    let path = unique_socket("mb-off");
    let server = ServerBuilder::new()
        .register("m", engine(Duration::ZERO))
        .serving(ServingMode::EventLoop(EventLoopOptions {
            microbatch: MicroBatchConfig {
                enabled: false,
                ..MicroBatchConfig::default()
            },
            ..EventLoopOptions::default()
        }))
        .bind_uds(&path)
        .expect("binds");
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = ClassificationClient::connect(&path).expect("connects");
                for i in 0..50u32 {
                    let want = (t * 50 + i) % 32;
                    let response = client.classify(&[want as f32]).expect("classifies");
                    assert_eq!(response.class, want);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    assert_eq!(server.stats().requests, 200);
    server.shutdown();
}

#[test]
fn thread_per_connection_mode_is_retained() {
    let path = unique_socket("threads");
    let uds = ServerBuilder::new()
        .register("m", engine(Duration::ZERO))
        .serving(ServingMode::ThreadPerConnection)
        .bind_uds(&path)
        .expect("binds");
    let mut client = ClassificationClient::connect(&path).expect("connects");
    for i in 0..10u32 {
        assert_eq!(client.classify(&[i as f32]).expect("classifies").class, i);
    }
    assert_eq!(uds.stats().requests, 10);
    uds.shutdown();

    let tcp = ServerBuilder::new()
        .register("m", engine(Duration::ZERO))
        .serving(ServingMode::ThreadPerConnection)
        .bind_tcp("127.0.0.1:0")
        .expect("binds");
    let mut client = ClassificationClient::connect_tcp(tcp.local_addr()).expect("connects");
    for i in 0..10u32 {
        assert_eq!(client.classify(&[i as f32]).expect("classifies").class, i);
    }
    assert_eq!(tcp.stats().requests, 10);
    tcp.shutdown();
}

#[test]
fn event_loop_tcp_pipelining_and_hot_swap() {
    let server = ServerBuilder::new()
        .register("m", engine(Duration::ZERO))
        .bind_tcp("127.0.0.1:0")
        .expect("binds");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connects");
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
    server
        .registry()
        .swap("m", engine(Duration::from_micros(1)))
        .expect("hot-swaps");
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
        12
    );
    assert_eq!(server.stats().requests, 31);
    server.shutdown();
}
