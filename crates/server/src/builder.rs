//! One builder for every transport: assemble a [`ModelStore`], pick a
//! default model, then bind one server over a Unix socket, TCP addresses,
//! or both.

use crate::server::ClassificationServer;
use crate::store::ModelStore;
use bolt_baselines::InferenceEngine;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Builds a classification server over one model store.
///
/// Engines are registered as `Arc<dyn InferenceEngine>`, so one compiled
/// forest can back multiple registered names without re-compilation. The first registered model becomes the default
/// unless [`default_model`](Self::default_model) picks another; the
/// default is what legacy (unrouted) `Classify`/`ClassifyBatch` frames
/// fall back to.
///
/// Beyond in-memory engines, [`model_dir`](Self::model_dir) attaches a
/// directory of compiled `NAME@VERSION.blt` artifacts: they are cataloged
/// at bind time, mapped lazily on first request, and evicted
/// least-recently-used when [`resident_bytes`](Self::resident_bytes) sets
/// a budget. Lifecycle operations on such a store are journaled to a
/// write-ahead log and survive a crash (see [`ModelStore`]).
///
/// # Examples
///
/// ```no_run
/// use bolt_server::{BoltEngine, ServerBuilder};
/// use bolt_baselines::ScikitLikeForest;
/// # use bolt_core::{BoltConfig, BoltForest};
/// # use bolt_forest::{Dataset, ForestConfig, RandomForest};
/// # use std::sync::Arc;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let data = Dataset::from_rows(vec![vec![0.0]], vec![0], 1)?;
/// # let forest = RandomForest::train(&data, &ForestConfig::new(1));
/// # let bolt = Arc::new(BoltForest::compile(&forest, &BoltConfig::default())?);
/// let server = ServerBuilder::new()
///     .register("bolt", Arc::new(BoltEngine::new(bolt)))
///     .register("scikit", Arc::new(ScikitLikeForest::from_forest(&forest)))
///     .default_model("bolt")
///     .bind_tcp("127.0.0.1:0")?;
/// let addr = server.local_addr().expect("bound on TCP");
/// println!("serving {} models on {addr}", server.store().list().len());
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct ServerBuilder {
    pending: Vec<(String, Arc<dyn InferenceEngine>)>,
    default_model: Option<String>,
    model_dir: Option<PathBuf>,
    resident_bytes: Option<u64>,
    keep_versions: usize,
    /// TCP listeners to bind, each an address resolved at the call to
    /// [`tcp`](Self::tcp); a resolution error surfaces from the bind.
    tcp: Vec<std::io::Result<Vec<SocketAddr>>>,
    admin_socket: Option<PathBuf>,
    warm_top: usize,
}

impl ServerBuilder {
    /// A builder over a fresh, empty store; reach the bound server's
    /// store with [`ClassificationServer::store`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `engine` for registration under `name` at bind time (see
    /// [`ModelStore::register`]). Registration is deferred so errors
    /// (duplicate or unaddressable names) surface as `InvalidInput` from
    /// the bind call instead of panicking mid-chain.
    #[must_use]
    pub fn register(mut self, name: impl Into<String>, engine: Arc<dyn InferenceEngine>) -> Self {
        self.pending.push((name.into(), engine));
        self
    }

    /// Attaches a directory of compiled `NAME@VERSION.blt` artifacts: the
    /// directory is scanned at bind time and each model is mapped lazily
    /// on its first request. Lifecycle operations are journaled to
    /// `registry.wal` inside the directory and replayed on restart.
    #[must_use]
    pub fn model_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.model_dir = Some(dir.into());
        self
    }

    /// Caps the bytes of artifact data kept mapped at once; the
    /// least-recently-used model is evicted when the budget overflows.
    /// In-flight requests pin their engine alive regardless. No budget
    /// (the default) means nothing is ever evicted.
    #[must_use]
    pub fn resident_bytes(mut self, budget: u64) -> Self {
        self.resident_bytes = Some(budget);
        self
    }

    /// How many superseded versions of each model
    /// [`ModelStore::compact`] keeps on disk (beyond the serving
    /// version). Default 0: compaction rewrites the log but deletes no
    /// artifact files.
    #[must_use]
    pub fn keep_versions(mut self, n: usize) -> Self {
        self.keep_versions = n;
        self
    }

    /// Picks the model legacy (unrouted) frames fall back to. Without
    /// this, the first registered model is the default.
    #[must_use]
    pub fn default_model(mut self, name: impl Into<String>) -> Self {
        self.default_model = Some(name.into());
        self
    }

    /// Adds a TCP listener on `addr` (port 0 picks an ephemeral port) to
    /// the server being bound. Every listener shares the one event loop
    /// and store; [`ClassificationServer::local_addr`] reports
    /// the first TCP listener's address.
    #[must_use]
    pub fn tcp(mut self, addr: impl ToSocketAddrs) -> Self {
        self.tcp.push(addr.to_socket_addrs().map(Iterator::collect));
        self
    }

    /// Binds a local-only, mode-0600 admin socket alongside the data
    /// socket and serves the control plane on it ([`crate::admin`]):
    /// `boltctl` drives activate/retire/set-default/compact/rescan/status
    /// against a live server without a restart.
    #[must_use]
    pub fn admin_socket(mut self, path: impl Into<PathBuf>) -> Self {
        self.admin_socket = Some(path.into());
        self
    }

    /// Pre-maps up to `k` directory artifacts — most recently activated
    /// first, per the WAL-recovered activation order — before the
    /// listener starts accepting, so a restarted daemon's first requests
    /// do not pay the page-in cost ([`ModelStore::warm`]).
    #[must_use]
    pub fn warm_top(mut self, k: usize) -> Self {
        self.warm_top = k;
        self
    }

    /// Assembles the store, applies queued registrations and the chosen
    /// default, warms it, and binds one server over the Unix socket (when
    /// given) and every TCP listener.
    fn bind(self, uds: Option<PathBuf>) -> std::io::Result<ClassificationServer> {
        let invalid = |e: crate::store::StoreError| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
        };
        let tcp = self.tcp.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        let store = match self.model_dir {
            Some(dir) => ModelStore::open(
                ModelStore::new(),
                &dir,
                self.resident_bytes,
                self.keep_versions,
            )?,
            None => ModelStore::new(),
        };
        for (name, engine) in self.pending {
            store.register(name, engine).map_err(invalid)?;
        }
        if let Some(name) = &self.default_model {
            store.set_default(name).map_err(invalid)?;
        }
        if self.warm_top > 0 {
            // Warm before the listeners exist: the first accepted request
            // finds its pages mapped.
            let _ = store.warm(self.warm_top);
        }
        ClassificationServer::bind(store, uds, tcp, self.admin_socket)
    }

    /// Binds a server on a Unix domain socket (removing any stale socket
    /// file), plus every [`tcp`](Self::tcp) listener, serving the
    /// assembled store.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if a queued registration or the chosen
    /// default model is rejected, or the I/O error if the model directory
    /// cannot be opened or a socket cannot be bound.
    pub fn bind_uds(self, path: impl AsRef<Path>) -> std::io::Result<ClassificationServer> {
        self.bind(Some(path.as_ref().to_path_buf()))
    }

    /// Binds a server on a TCP address (use port 0 for an ephemeral
    /// port), plus every [`tcp`](Self::tcp) listener, serving the
    /// assembled store.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if a queued registration or the chosen
    /// default model is rejected, or the I/O error if the model directory
    /// cannot be opened or an address cannot be bound.
    pub fn bind_tcp(self, addr: impl ToSocketAddrs) -> std::io::Result<ClassificationServer> {
        self.tcp(addr).bind(None)
    }
}

impl std::fmt::Debug for ServerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerBuilder")
            .field(
                "pending",
                &self.pending.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field("default_model", &self.default_model)
            .field("model_dir", &self.model_dir)
            .field("resident_bytes", &self.resident_bytes)
            .field("keep_versions", &self.keep_versions)
            .field("tcp", &self.tcp)
            .field("admin_socket", &self.admin_socket)
            .field("warm_top", &self.warm_top)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClassificationClient;
    use bolt_baselines::{RangerLikeForest, ScikitLikeForest};
    use bolt_forest::{Dataset, ForestConfig, RandomForest};

    fn forest() -> RandomForest {
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
        let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
        let data = Dataset::from_rows(rows, labels, 2).expect("valid");
        RandomForest::train(&data, &ForestConfig::new(3).with_seed(5))
    }

    #[test]
    fn unknown_default_is_rejected_at_bind() {
        let f = forest();
        let err = ServerBuilder::new()
            .register("a", Arc::new(ScikitLikeForest::from_forest(&f)))
            .default_model("nope")
            .bind_tcp("127.0.0.1:0")
            .expect_err("unknown default");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn duplicate_registration_is_rejected_at_bind() {
        let f = forest();
        let err = ServerBuilder::new()
            .register("m", Arc::new(ScikitLikeForest::from_forest(&f)))
            .register("m", Arc::new(RangerLikeForest::from_forest(&f)))
            .bind_tcp("127.0.0.1:0")
            .expect_err("duplicate name");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains('m'), "names the duplicate: {err}");
    }

    #[test]
    fn one_store_backs_both_transports() {
        let f = forest();
        let uds_path = std::env::temp_dir().join(format!(
            "bolt-test-builder-shared-{}.sock",
            std::process::id()
        ));
        let server = ServerBuilder::new()
            .register("m", Arc::new(ScikitLikeForest::from_forest(&f)))
            .tcp("127.0.0.1:0")
            .bind_uds(&uds_path)
            .expect("binds uds + tcp");
        assert_eq!(server.path(), Some(uds_path.as_path()));
        let addr = server.local_addr().expect("tcp listener bound");
        let mut uds_client = ClassificationClient::connect(&uds_path).expect("connects");
        let mut tcp_client = ClassificationClient::connect_tcp(addr).expect("connects");
        let want = f.predict(&[3.0]);
        assert_eq!(uds_client.classify(&[3.0]).expect("uds").class, want);
        assert_eq!(tcp_client.classify(&[3.0]).expect("tcp").class, want);
        // Both transports booked into the same per-model stats.
        let store = server.store();
        assert_eq!(store.stats("m").expect("stats").requests, 2);
        assert_eq!(server.stats().requests, 2);
        // Hot-swapping through the server's handle affects both listeners.
        store
            .swap("m", Arc::new(RangerLikeForest::from_forest(&f)))
            .expect("swaps");
        assert_eq!(uds_client.classify(&[3.0]).expect("uds").class, want);
        assert_eq!(tcp_client.classify(&[3.0]).expect("tcp").class, want);
        assert_eq!(
            store.resolve(Some("m")).expect("m").engine().name(),
            "Ranger"
        );
        server.shutdown();
        assert!(!uds_path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn unresolvable_tcp_address_is_an_error_at_bind() {
        let f = forest();
        let path = std::env::temp_dir().join(format!(
            "bolt-test-builder-badaddr-{}.sock",
            std::process::id()
        ));
        ServerBuilder::new()
            .register("m", Arc::new(ScikitLikeForest::from_forest(&f)))
            .tcp("not an address")
            .bind_uds(&path)
            .expect_err("unresolvable address");
        assert!(!path.exists(), "nothing bound on error");
    }
}
