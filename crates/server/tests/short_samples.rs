//! Hostile input at the dispatch point: a correctly framed classify request
//! whose sample is shorter than the model's feature count must be refused
//! with a structured `ERR_MALFORMED_REQUEST` — on the legacy single, the
//! v2 single and the batch paths, for owned and memory-mapped models — and
//! must never reach an engine, whose contract is to panic on it. With one
//! inference worker, a single panic would silence the daemon: so after a
//! hundred short requests, valid ones on the same and on new connections
//! must still be answered, and equal the reference forest.

use bolt_artifact::{Artifact, ArtifactWriter, MappedForest};
use bolt_core::{BoltConfig, BoltForest};
use bolt_data::{generate, Workload};
use bolt_forest::{ForestConfig, RandomForest};
use bolt_server::proto::{
    is_v2, read_frame, ClassifyBatchRequest, ClassifyBatchWithRequest, ClassifyRequest,
    ClassifyResponse, ClassifyWithRequest, V2Response, ERR_MALFORMED_REQUEST,
};
use bolt_server::{
    ArtifactEngine, BoltEngine, ClassificationClient, EventLoopOptions, ServerBuilder, ServingMode,
};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const MODELS: [&str; 2] = ["owned", "mapped"];

/// An 11-feature LSTW-like forest and its 40 test samples.
fn fixture() -> (RandomForest, Arc<BoltForest>, Vec<Vec<f32>>) {
    let data = generate(Workload::LstwLike, 600, 0x5407);
    let forest = RandomForest::train(&data, &ForestConfig::new(6).with_max_height(5).with_seed(3));
    let bolt = Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
    let samples = (0..40).map(|i| data.sample(i).to_vec()).collect();
    (forest, bolt, samples)
}

fn server(
    mode: ServingMode,
    bolt: &Arc<BoltForest>,
    path: &Path,
) -> bolt_server::ClassificationServer {
    let mapped = MappedForest::from_artifact(
        Artifact::from_bytes(&ArtifactWriter::serialize_forest(bolt)).expect("valid"),
    )
    .expect("valid classifier");
    ServerBuilder::new()
        .register("owned", Arc::new(BoltEngine::new(Arc::clone(bolt))))
        .register("mapped", Arc::new(ArtifactEngine::new(Arc::new(mapped))))
        .default_model("owned")
        .serving(mode)
        .bind_uds(path)
        .expect("binds")
}

/// Sends one framed request and returns the refusal's error code. A reply
/// that is not an error frame fails to decode as one, and a reply that
/// never comes (a worker died) trips the stream's read timeout.
fn refusal(mut stream: &UnixStream, frame: &[u8], what: &str) -> u8 {
    stream.write_all(frame).expect("writes");
    let payload = read_frame(&mut stream)
        .unwrap_or_else(|e| panic!("{what}: no reply ({e})"))
        .expect("a frame");
    match V2Response::decode(&payload) {
        Ok(V2Response::Error(frame)) => {
            assert!(
                frame.detail.contains("features"),
                "{what}: {}",
                frame.detail
            );
            frame.code
        }
        other => panic!("{what}: expected a refusal, got {other:?}"),
    }
}

/// Every sample through every path and model, each answer equal to the
/// reference traversal. Returns how many samples were served.
fn assert_served(
    client: &mut ClassificationClient,
    forest: &RandomForest,
    samples: &[Vec<f32>],
) -> u64 {
    let want: Vec<u32> = samples.iter().map(|s| forest.predict(s)).collect();
    for (sample, &class) in samples.iter().zip(&want) {
        assert_eq!(client.classify(sample).expect("legacy single").class, class);
        for model in MODELS {
            let got = client.classify_with(model, sample).expect("v2 single");
            assert_eq!(got.class, class, "{model}");
        }
    }
    let slices: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
    assert_eq!(
        client
            .classify_batch(&slices)
            .expect("legacy batch")
            .classes,
        want
    );
    for model in MODELS {
        let got = client
            .classify_batch_with(model, &slices)
            .expect("v2 batch");
        assert_eq!(got.classes, want, "{model}");
    }
    (samples.len() * (2 + 2 * MODELS.len())) as u64
}

/// One reply on a raw stream: `Ok(class)` or `Err(error code)`.
fn read_reply(mut stream: &UnixStream) -> Result<u32, u8> {
    let payload = read_frame(&mut stream).expect("reads").expect("a frame");
    if !is_v2(&payload) {
        return Ok(ClassifyResponse::decode(&payload).expect("decodes").class);
    }
    match V2Response::decode(&payload).expect("decodes") {
        V2Response::Classify(response) => Ok(response.class),
        V2Response::Error(frame) => Err(frame.code),
        other => panic!("unexpected reply {other:?}"),
    }
}

fn short_samples_are_refused_and_the_daemon_keeps_serving(mode: ServingMode, tag: &str) {
    let (forest, bolt, samples) = fixture();
    let n_features = bolt.universe().n_features();
    assert_eq!(n_features, 11);
    let path =
        std::env::temp_dir().join(format!("bolt-test-short-{tag}-{}.sock", std::process::id()));
    let server = server(mode, &bolt, &path);
    let connect = || {
        let stream = UnixStream::connect(&path).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("sets a timeout");
        stream
    };

    let stream = connect();
    for i in 0..100 {
        let short = samples[i % samples.len()][..i % n_features].to_vec();
        let model = MODELS[i % 2].to_owned();
        let (what, frame) = match i % 5 {
            0 => (
                "legacy single",
                ClassifyRequest { features: short }.encode(),
            ),
            1 => (
                "v2 single",
                ClassifyWithRequest {
                    model,
                    features: short,
                }
                .encode()
                .expect("encodes"),
            ),
            2 => (
                "legacy batch",
                ClassifyBatchRequest {
                    samples: vec![short],
                }
                .encode()
                .expect("encodes"),
            ),
            3 => (
                "v2 batch",
                ClassifyBatchWithRequest {
                    model,
                    samples: vec![short; 3],
                }
                .encode()
                .expect("encodes"),
            ),
            // The size of the micro-batch flush threshold, which the event
            // loop runs on its own thread.
            _ => (
                "inline batch",
                ClassifyBatchWithRequest {
                    model,
                    samples: vec![short; 64],
                }
                .encode()
                .expect("encodes"),
            ),
        };
        assert_eq!(
            refusal(&stream, &frame, what),
            ERR_MALFORMED_REQUEST,
            "{what}"
        );
    }

    // On the same connection, pipelined singles coalesce into one
    // micro-batch group: the short one is refused alone, and the valid ones
    // around it are answered.
    let mut wire = Vec::new();
    for (i, sample) in samples[..9].iter().enumerate() {
        let features = if i == 4 {
            sample[..3].to_vec()
        } else {
            sample.clone()
        };
        wire.extend_from_slice(&ClassifyRequest { features }.encode());
    }
    (&stream).write_all(&wire).expect("writes");
    for (i, sample) in samples[..9].iter().enumerate() {
        let want = if i == 4 {
            Err(ERR_MALFORMED_REQUEST)
        } else {
            Ok(forest.predict(sample))
        };
        assert_eq!(read_reply(&stream), want, "pipelined request {i}");
    }

    // New connections are served too, and longer samples stay accepted:
    // the engines read the prefix.
    let mut client = ClassificationClient::connect(&path).expect("connects");
    let long: Vec<f32> = samples[0].iter().copied().chain([7.0, f32::NAN]).collect();
    assert_eq!(
        client.classify(&long).expect("long sample").class,
        forest.predict(&samples[0])
    );

    let mut served = 8 + 1 + assert_served(&mut client, &forest, &samples);
    let mut fresh = ClassificationClient::connect(&path).expect("connects");
    served += assert_served(&mut fresh, &forest, &samples);
    assert_eq!(
        server.stats().requests,
        served,
        "refused samples are not booked"
    );
    server.shutdown();
}

#[test]
fn thread_per_connection_refuses_short_samples() {
    short_samples_are_refused_and_the_daemon_keeps_serving(ServingMode::ThreadPerConnection, "tpc");
}

#[test]
fn event_loop_with_one_worker_refuses_short_samples() {
    short_samples_are_refused_and_the_daemon_keeps_serving(
        ServingMode::EventLoop(EventLoopOptions {
            workers: 1,
            ..EventLoopOptions::default()
        }),
        "loop",
    );
}
