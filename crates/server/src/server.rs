//! The classification front-end (Fig. 7), serving a [`ModelStore`] on
//! every listener it was bound with.

use crate::event_loop::{self, EventLoopHandle, Listener};
use crate::proto::{
    ErrorFrame, ERR_INTERNAL, ERR_MALFORMED_REQUEST, ERR_NO_DEFAULT_MODEL, ERR_RETIRED_MODEL,
    ERR_UNKNOWN_MODEL,
};
use crate::store::{ModelHandle, ModelStore, RouteError};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Aggregate service statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests answered.
    pub requests: u64,
    /// Total service-side latency across requests, in nanoseconds.
    pub total_latency_ns: u64,
}

impl ServerStats {
    /// Mean service-side latency in nanoseconds.
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_ns as f64 / self.requests as f64
        }
    }
}

pub(crate) struct Shared {
    /// The model store every request resolves through.
    pub(crate) store: ModelStore,
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn new(store: ModelStore) -> Self {
        Self {
            store,
            shutdown: AtomicBool::new(false),
        }
    }
}

/// A classification server: one non-blocking event loop over every
/// listener it was bound with — a Unix socket, TCP addresses, and the
/// control-plane socket — classifying each request on the loop thread and
/// serving every model in its [`ModelStore`]. Construct it with
/// [`ServerBuilder`](crate::ServerBuilder).
///
/// # Examples
///
/// ```no_run
/// use bolt_server::{BoltEngine, ServerBuilder};
/// # use bolt_core::{BoltConfig, BoltForest};
/// # use bolt_forest::{Dataset, ForestConfig, RandomForest};
/// # use std::sync::Arc;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let data = Dataset::from_rows(vec![vec![0.0]], vec![0], 1)?;
/// # let forest = RandomForest::train(&data, &ForestConfig::new(1));
/// # let bolt = Arc::new(BoltForest::compile(&forest, &BoltConfig::default())?);
/// let server = ServerBuilder::new()
///     .register("bolt", Arc::new(BoltEngine::new(bolt)))
///     .tcp("127.0.0.1:0")
///     .bind_uds("/tmp/bolt.sock")?;
/// println!("serving on /tmp/bolt.sock and {:?}", server.local_addr());
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct ClassificationServer {
    shared: Arc<Shared>,
    /// The Unix socket path, when one was bound; removed on stop.
    path: Option<PathBuf>,
    /// The first TCP listener's bound address, when one was bound.
    local_addr: Option<SocketAddr>,
    /// The control-plane socket path, when one was bound; removed on stop.
    admin_path: Option<PathBuf>,
    front: EventLoopHandle,
}

impl ClassificationServer {
    /// Binds every listener — each TCP address, then the Unix socket
    /// (removing any stale file), then the mode-0600 control socket
    /// ([`crate::admin`]) — and starts one event loop over them, serving
    /// the store's models: in-memory engines and lazily mapped directory
    /// artifacts alike.
    pub(crate) fn bind(
        store: ModelStore,
        uds: Option<PathBuf>,
        tcp: Vec<Vec<SocketAddr>>,
        admin: Option<PathBuf>,
    ) -> std::io::Result<Self> {
        let mut listeners = Vec::with_capacity(tcp.len() + 1);
        let mut local_addr = None;
        for addrs in tcp {
            let listener = TcpListener::bind(addrs.as_slice())?;
            local_addr.get_or_insert(listener.local_addr()?);
            listeners.push(Listener::Tcp(listener));
        }
        if let Some(path) = &uds {
            let _ = std::fs::remove_file(path);
            listeners.push(Listener::Uds(UnixListener::bind(path)?));
        }
        let admin_listener = match &admin {
            Some(admin_path) => Some(crate::admin::bind(admin_path)?),
            None => None,
        };
        let shared = Arc::new(Shared::new(store));
        let front = event_loop::spawn(listeners, admin_listener, Arc::clone(&shared))?;
        Ok(Self {
            shared,
            path: uds,
            local_addr,
            admin_path: admin,
            front,
        })
    }

    /// The Unix socket path clients connect to, when one is bound.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The first TCP listener's bound address (useful with port 0), when
    /// one is bound.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The control-plane socket path, when one is bound.
    #[must_use]
    pub fn admin_path(&self) -> Option<&Path> {
        self.admin_path.as_deref()
    }

    /// A handle to the live model store, for hot-swapping, retiring,
    /// activating and re-defaulting models while the server runs.
    #[must_use]
    pub fn store(&self) -> ModelStore {
        self.shared.store.clone()
    }

    /// Snapshot of the aggregate statistics across every model (including
    /// retired ones) and every listener.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.store.total_stats()
    }

    /// Snapshot of one model's statistics.
    #[must_use]
    pub fn stats_for(&self, model: &str) -> Option<ServerStats> {
        self.shared.store.stats(model)
    }

    /// Stops accepting, joins the event loop and its control thread, and
    /// removes the socket files.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.front.stop();
        for path in [&self.path, &self.admin_path].into_iter().flatten() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ClassificationServer {
    fn drop(&mut self) {
        // Infallible teardown; `shutdown` is the checked variant.
        self.stop();
    }
}

impl std::fmt::Debug for ClassificationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassificationServer")
            .field("path", &self.path)
            .field("local_addr", &self.local_addr)
            .field("store", &self.shared.store)
            .finish()
    }
}

/// Translates a routing failure into its structured wire error.
pub(crate) fn route_error_frame(error: &RouteError) -> ErrorFrame {
    let code = match error {
        RouteError::UnknownModel(_) => ERR_UNKNOWN_MODEL,
        RouteError::RetiredModel(_) => ERR_RETIRED_MODEL,
        RouteError::NoDefaultModel => ERR_NO_DEFAULT_MODEL,
        RouteError::LoadFailed(_) => ERR_INTERNAL,
    };
    ErrorFrame {
        code,
        detail: error.to_string(),
    }
}

/// Resolves a classify request's model and checks its samples against it:
/// the one dispatch-time gate every classify request passes through. A
/// sample shorter than the model's feature count is refused with
/// [`ERR_MALFORMED_REQUEST`] (the connection stays up) before it reaches an
/// engine, whose contract is to panic on it — which would take down the
/// event loop and with it every connection. Longer samples are accepted;
/// engines read the prefix.
pub(crate) fn resolve_classify<'s>(
    shared: &Shared,
    model: Option<&str>,
    samples: impl IntoIterator<Item = &'s [f32]>,
) -> Result<Arc<ModelHandle>, ErrorFrame> {
    let model = shared
        .store
        .resolve(model)
        .map_err(|e| route_error_frame(&e))?;
    let need = model.engine().n_features();
    match samples
        .into_iter()
        .enumerate()
        .find(|(_, s)| s.len() < need)
    {
        Some((i, short)) => Err(ErrorFrame {
            code: ERR_MALFORMED_REQUEST,
            detail: format!(
                "sample {i} has {} features, model expects {need}",
                short.len()
            ),
        }),
        None => Ok(model),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ServerBuilder;
    use crate::client::ClassificationClient;
    use crate::engine::BoltEngine;
    use crate::proto::{read_frame, ClassifyResponse, ProtoError, ERR_UNSUPPORTED_VERSION};
    use bolt_baselines::{RangerLikeForest, ScikitLikeForest};
    use bolt_core::{BoltConfig, BoltForest};
    use bolt_forest::{Dataset, ForestConfig, RandomForest};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    fn unique_socket(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bolt-test-{tag}-{}.sock", std::process::id()))
    }

    fn fixture() -> (Dataset, RandomForest, Arc<BoltForest>) {
        let rows: Vec<Vec<f32>> = (0..80)
            .map(|i| vec![(i % 8) as f32, (i % 3) as f32])
            .collect();
        let labels: Vec<u32> = rows.iter().map(|r| u32::from(r[0] > 3.0)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        let forest =
            RandomForest::train(&data, &ForestConfig::new(5).with_max_height(3).with_seed(3));
        let bolt =
            Arc::new(BoltForest::compile(&forest, &BoltConfig::default()).expect("compiles"));
        (data, forest, bolt)
    }

    fn bolt_server(path: &Path, bolt: Arc<BoltForest>) -> ClassificationServer {
        ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .bind_uds(path)
            .expect("binds")
    }

    #[test]
    fn end_to_end_roundtrip() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("roundtrip");
        let server = bolt_server(&path, bolt);
        let mut client = ClassificationClient::connect(&path).expect("connects");
        for (sample, _) in data.iter().take(30) {
            let response = client.classify(sample).expect("classifies");
            assert_eq!(response.class, forest.predict(sample));
            assert!(response.latency_ns > 0);
        }
        let stats = server.stats();
        assert_eq!(stats.requests, 30);
        assert!(stats.mean_latency_ns() > 0.0);
        // The single registered model is the default and carries the
        // whole count.
        assert_eq!(server.stats_for("bolt").expect("registered").requests, 30);
        assert_eq!(server.path(), Some(path.as_path()));
        assert_eq!(server.local_addr(), None);
        server.shutdown();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn batched_roundtrip_matches_singles() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("batch");
        let server = bolt_server(&path, bolt);
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let samples: Vec<&[f32]> = (0..40).map(|i| data.sample(i)).collect();
        let response = client.classify_batch(&samples).expect("classifies");
        assert_eq!(response.classes.len(), samples.len());
        for (i, &class) in response.classes.iter().enumerate() {
            assert_eq!(class, forest.predict(samples[i]));
        }
        // Singles still work on the same connection, before and after.
        let single = client.classify(samples[0]).expect("classifies");
        assert_eq!(single.class, forest.predict(samples[0]));
        // Every batched sample counts as a request.
        assert_eq!(server.stats().requests, 41);
        server.shutdown();
    }

    #[test]
    fn empty_batch_roundtrip() {
        let (_, _, bolt) = fixture();
        let path = unique_socket("batch-empty");
        let server = bolt_server(&path, bolt);
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let response = client.classify_batch(&[]).expect("classifies");
        assert!(response.classes.is_empty());
        // Empty batches must not move the stats at all: latency booked
        // without a request count would skew the mean.
        assert_eq!(server.stats(), ServerStats::default());
        server.shutdown();
    }

    #[test]
    fn multiple_concurrent_clients() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("concurrent");
        let server = bolt_server(&path, bolt);
        let expected: Vec<u32> = (0..20).map(|i| forest.predict(data.sample(i))).collect();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let path = path.clone();
                let data = data.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut client = ClassificationClient::connect(&path).expect("connects");
                    for (i, &want) in expected.iter().enumerate() {
                        let response = client.classify(data.sample(i)).expect("classifies");
                        assert_eq!(response.class, want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        assert_eq!(server.stats().requests, 60);
        server.shutdown();
    }

    #[test]
    fn malformed_client_does_not_take_down_the_service() {
        use std::io::Write as _;
        let (data, forest, bolt) = fixture();
        let path = unique_socket("malformed");
        let server = bolt_server(&path, bolt);
        // A hostile client: declares an oversized frame, then hangs up.
        {
            let mut bad = UnixStream::connect(&path).expect("connects");
            bad.write_all(&(u32::MAX).to_le_bytes()).expect("writes");
            // The server may drop the connection as soon as it reads the
            // declaration, so this write can meet a closed socket.
            let _ = bad.write_all(&[0u8; 16]);
        }
        // A second hostile client: truncated frame.
        {
            let mut bad = UnixStream::connect(&path).expect("connects");
            bad.write_all(&100u32.to_le_bytes()).expect("writes");
            bad.write_all(&[1, 2, 3]).expect("writes");
        }
        // A well-behaved client still gets answers.
        let mut client = ClassificationClient::connect(&path).expect("connects");
        for (sample, _) in data.iter().take(5) {
            let response = client.classify(sample).expect("classifies");
            assert_eq!(response.class, forest.predict(sample));
        }
        server.shutdown();
    }

    #[test]
    fn slow_client_dribbling_across_timeouts_is_served() {
        use std::io::Write as _;
        let (data, forest, bolt) = fixture();
        let path = unique_socket("dribble");
        let server = bolt_server(&path, bolt);
        let mut raw = UnixStream::connect(&path).expect("connects");
        let sample = data.sample(0);
        let framed = crate::proto::ClassifyRequest {
            features: sample.to_vec(),
        }
        .encode();
        // Trickle the frame across several idle polls: once inside the
        // length header, once inside the payload. A reader that restarts
        // the frame on `WouldBlock` would lose the consumed bytes and
        // desync the connection.
        raw.write_all(&framed[..2]).expect("writes");
        std::thread::sleep(Duration::from_millis(350));
        raw.write_all(&framed[2..6]).expect("writes");
        std::thread::sleep(Duration::from_millis(350));
        raw.write_all(&framed[6..]).expect("writes");
        let reply = read_frame(&mut raw).expect("read").expect("frame");
        let response = ClassifyResponse::decode(&reply).expect("decodes");
        assert_eq!(response.class, forest.predict(sample));
        // The same connection still serves a full-speed request after.
        raw.write_all(&framed).expect("writes");
        let reply = read_frame(&mut raw).expect("read").expect("frame");
        assert_eq!(
            ClassifyResponse::decode(&reply).expect("decodes").class,
            forest.predict(sample)
        );
        server.shutdown();
    }

    #[test]
    fn stale_socket_file_is_replaced() {
        let (_, _, bolt) = fixture();
        let path = unique_socket("stale");
        std::fs::write(&path, b"stale").expect("write stale file");
        let server = bolt_server(&path, bolt);
        server.shutdown();
    }

    #[test]
    fn named_routing_and_model_listing() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("routing");
        let server = ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .register("scikit", Arc::new(ScikitLikeForest::from_forest(&forest)))
            .default_model("bolt")
            .bind_uds(&path)
            .expect("binds");
        let mut client = ClassificationClient::connect(&path).expect("connects");
        for (i, (sample, _)) in data.iter().take(10).enumerate() {
            let want = forest.predict(sample);
            // Both engines answer identically through their names, and
            // the legacy (unrouted) frame hits the default.
            assert_eq!(
                client.classify_with("bolt", sample).expect("bolt").class,
                want
            );
            assert_eq!(
                client
                    .classify_with("scikit", sample)
                    .expect("scikit")
                    .class,
                want
            );
            assert_eq!(client.classify(sample).expect("default").class, want);
            let _ = i;
        }
        let models = client.list_models().expect("lists").models;
        assert_eq!(
            models.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["bolt", "scikit"]
        );
        assert!(models[0].is_default);
        assert_eq!(models[0].engine, "BOLT");
        assert_eq!(models[1].engine, "Scikit");
        // 10 named + 10 legacy (default) on bolt, 10 named on scikit.
        assert_eq!(models[0].requests, 20);
        assert_eq!(models[1].requests, 10);
        assert_eq!(server.stats().requests, 30);
        server.shutdown();
    }

    #[test]
    fn unknown_and_retired_models_answer_structured_errors() {
        let (data, _, bolt) = fixture();
        let path = unique_socket("route-errors");
        let server = ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .bind_uds(&path)
            .expect("binds");
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let sample = data.sample(0);
        match client.classify_with("ghost", sample) {
            Err(ProtoError::Rejected { code, detail }) => {
                assert_eq!(code, ERR_UNKNOWN_MODEL);
                assert!(detail.contains("ghost"));
            }
            other => panic!("expected unknown-model rejection, got {other:?}"),
        }
        // Retire the only model: the store refuses while it is the
        // default (clients would silently lose service), so clear the
        // default first. Named lookups then say *retired*, and legacy
        // frames get a structured no-default error.
        server
            .store()
            .retire("bolt")
            .expect_err("the default cannot be retired in place");
        server.store().clear_default();
        server.store().retire("bolt").expect("retires");
        match client.classify_with("bolt", sample) {
            Err(ProtoError::Rejected { code, .. }) => assert_eq!(code, ERR_RETIRED_MODEL),
            other => panic!("expected retired-model rejection, got {other:?}"),
        }
        match client.classify(sample) {
            Err(ProtoError::Rejected { code, .. }) => assert_eq!(code, ERR_NO_DEFAULT_MODEL),
            other => panic!("expected no-default rejection, got {other:?}"),
        }
        // The connection survived all three rejections; registering the
        // name anew revives it.
        server
            .store()
            .register(
                "bolt",
                Arc::new(BoltEngine::new(fixture().2)) as Arc<dyn bolt_baselines::InferenceEngine>,
            )
            .expect("revives the retired name");
        server.store().set_default("bolt").expect("revived");
        assert!(client.classify(sample).is_ok());
        server.shutdown();
    }

    #[test]
    fn batch_routes_by_name() {
        let (data, forest, bolt) = fixture();
        let path = unique_socket("batch-routing");
        let server = ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .register("scikit", Arc::new(ScikitLikeForest::from_forest(&forest)))
            .bind_uds(&path)
            .expect("binds");
        let mut client = ClassificationClient::connect(&path).expect("connects");
        let samples: Vec<&[f32]> = (0..20).map(|i| data.sample(i)).collect();
        for model in ["bolt", "scikit"] {
            let response = client
                .classify_batch_with(model, &samples)
                .expect("classifies");
            for (i, &class) in response.classes.iter().enumerate() {
                assert_eq!(class, forest.predict(samples[i]));
            }
        }
        assert_eq!(server.stats_for("bolt").expect("bolt").requests, 20);
        assert_eq!(server.stats_for("scikit").expect("scikit").requests, 20);
        // Empty named batches answer without moving stats.
        let empty = client.classify_batch_with("bolt", &[]).expect("answers");
        assert!(empty.classes.is_empty());
        assert_eq!(server.stats().requests, 40);
        server.shutdown();
    }

    #[test]
    fn future_protocol_version_is_answered_not_fatal() {
        use std::io::Write as _;
        let (data, _, bolt) = fixture();
        let path = unique_socket("version");
        let server = bolt_server(&path, bolt);
        let mut raw = UnixStream::connect(&path).expect("connects");
        // A frame from the future: v2 magic, version 9.
        let mut payload = Vec::new();
        payload.extend_from_slice(&crate::proto::V2_MAGIC.to_le_bytes());
        payload.push(9);
        payload.push(crate::proto::OP_LIST_MODELS);
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        raw.write_all(&framed).expect("writes");
        let reply = read_frame(&mut raw).expect("read").expect("frame");
        match crate::proto::V2Response::decode(&reply).expect("decodes") {
            crate::proto::V2Response::Error(e) => {
                assert_eq!(e.code, ERR_UNSUPPORTED_VERSION);
                assert!(e.detail.contains('3'), "names the supported version");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        // Same connection still serves v2 requests afterwards.
        let mut client = ClassificationClient::connect(&path).expect("connects");
        assert!(client.classify(data.sample(0)).is_ok());
        server.shutdown();
    }

    fn tcp_server(bolt: Arc<BoltForest>) -> ClassificationServer {
        ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .bind_tcp("127.0.0.1:0")
            .expect("binds")
    }

    fn tcp_addr(server: &ClassificationServer) -> SocketAddr {
        server.local_addr().expect("a TCP listener is bound")
    }

    #[test]
    fn tcp_round_trip() {
        let (data, forest, bolt) = fixture();
        let server = tcp_server(bolt);
        assert_eq!(server.path(), None);
        let mut client = ClassificationClient::connect_tcp(tcp_addr(&server)).expect("connects");
        for (sample, _) in data.iter().take(25) {
            let response = client.classify(sample).expect("classifies");
            assert_eq!(response.class, forest.predict(sample));
        }
        assert_eq!(server.stats().requests, 25);
        server.shutdown();
    }

    #[test]
    fn tcp_batched_round_trip() {
        let (data, forest, bolt) = fixture();
        let server = tcp_server(bolt);
        let mut client = ClassificationClient::connect_tcp(tcp_addr(&server)).expect("connects");
        let samples: Vec<&[f32]> = (0..30).map(|i| data.sample(i)).collect();
        let response = client.classify_batch(&samples).expect("classifies");
        for (i, &class) in response.classes.iter().enumerate() {
            assert_eq!(class, forest.predict(samples[i]));
        }
        assert_eq!(server.stats().requests, 30);
        server.shutdown();
    }

    #[test]
    fn concurrent_tcp_clients() {
        let (data, forest, bolt) = fixture();
        let server = tcp_server(bolt);
        let addr = tcp_addr(&server);
        let expected: Vec<u32> = (0..15).map(|i| forest.predict(data.sample(i))).collect();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let data = data.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut client = ClassificationClient::connect_tcp(addr).expect("connects");
                    for (i, &want) in expected.iter().enumerate() {
                        let response = client.classify(data.sample(i)).expect("classifies");
                        assert_eq!(response.class, want);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        assert_eq!(server.stats().requests, 45);
        server.shutdown();
    }

    #[test]
    fn tcp_named_routing() {
        let (data, forest, bolt) = fixture();
        let server = ServerBuilder::new()
            .register("bolt", Arc::new(BoltEngine::new(bolt)))
            .register("ranger", Arc::new(RangerLikeForest::from_forest(&forest)))
            .default_model("ranger")
            .bind_tcp("127.0.0.1:0")
            .expect("binds");
        let mut client = ClassificationClient::connect_tcp(tcp_addr(&server)).expect("connects");
        let sample = data.sample(0);
        let want = forest.predict(sample);
        assert_eq!(
            client.classify_with("bolt", sample).expect("bolt").class,
            want
        );
        assert_eq!(client.classify(sample).expect("default").class, want);
        assert_eq!(
            server.stats_for("ranger").expect("default model").requests,
            1
        );
        let models = client.list_models().expect("lists").models;
        assert_eq!(models.len(), 2);
        assert!(models.iter().any(|m| m.name == "ranger" && m.is_default));
        server.shutdown();
    }

    #[test]
    fn tcp_connection_churn_keeps_serving() {
        let (data, _, bolt) = fixture();
        let server = tcp_server(bolt);
        let addr = tcp_addr(&server);
        // Open and close many short-lived connections: every close frees
        // its slab slot, and the server stays healthy and still serves.
        for _ in 0..8 {
            let mut client = ClassificationClient::connect_tcp(addr).expect("connects");
            let _ = client.classify(data.sample(0)).expect("classifies");
            drop(client);
        }
        let mut client = ClassificationClient::connect_tcp(addr).expect("connects");
        assert!(client.classify(data.sample(1)).is_ok());
        assert_eq!(server.stats().requests, 9);
        server.shutdown();
    }
}
