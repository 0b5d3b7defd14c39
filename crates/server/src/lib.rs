//! Networked classification service over Unix domain sockets and TCP.
//!
//! Reproduces the paper's evaluation harness (§5–6, Fig. 7): "Input data is
//! sent via network to a front-end. The front-end calls the inference
//! processing engine ... input samples are executed sequentially without
//! batching." Requests and responses travel as length-prefixed binary
//! frames; the response carries the engine's classification and the
//! service-side latency measured "from the time input samples are received
//! to the moment inference finishes, not including network delays".
//!
//! Beyond the paper's sequential methodology, the protocol also accepts
//! batch frames ([`ClassifyBatchRequest`]): many samples in one round trip,
//! served by the engine's batched kernel
//! ([`InferenceEngine::classify_batch`](bolt_baselines::InferenceEngine::classify_batch),
//! Bolt's batch encode + index match for [`BoltEngine`]).
//!
//! # Model registry
//!
//! One server process hosts *many* engines behind one socket: a
//! [`ModelRegistry`] maps model names to shared
//! `Arc<dyn InferenceEngine>`s with per-model statistics, supports atomic
//! hot-swap and retirement under live traffic, and designates a *default*
//! model that legacy (unrouted) frames fall back to — §4.5's "the
//! front-end can connect to other forest implementations", made
//! first-class. Model-routed requests travel in versioned protocol-v2
//! frames (see [`proto`]); [`ServerBuilder`] assembles a registry and
//! binds either transport over it.
//!
//! # Examples
//!
//! ```no_run
//! use bolt_server::{BoltEngine, ClassificationClient, ServerBuilder};
//! use bolt_baselines::ScikitLikeForest;
//! use bolt_core::{BoltConfig, BoltForest};
//! use bolt_forest::{Dataset, ForestConfig, RandomForest};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![(i % 4) as f32]).collect();
//! let labels: Vec<u32> = (0..40).map(|i| u32::from(i % 4 > 1)).collect();
//! let data = Dataset::from_rows(rows, labels, 2)?;
//! let forest = RandomForest::train(&data, &ForestConfig::new(3).with_seed(1));
//! let bolt = Arc::new(BoltForest::compile(&forest, &BoltConfig::default())?);
//!
//! let server = ServerBuilder::new()
//!     .register("bolt", Arc::new(BoltEngine::new(bolt)))
//!     .register("scikit", Arc::new(ScikitLikeForest::from_forest(&forest)))
//!     .default_model("bolt")
//!     .bind_uds("/tmp/bolt.sock")?;
//! let mut client = ClassificationClient::connect("/tmp/bolt.sock")?;
//! let fast = client.classify_with("bolt", &[3.0])?;       // routed
//! let slow = client.classify_with("scikit", &[3.0])?;     // same socket
//! assert_eq!(fast.class, slow.class);
//! let default = client.classify(&[3.0])?;                 // legacy frame
//! assert_eq!(default.class, fast.class);
//! for model in client.list_models()?.models {
//!     println!("{} ({}) served {}", model.name, model.engine, model.requests);
//! }
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
mod builder;
mod client;
mod engine;
mod event_loop;
mod microbatch;
pub mod proto;
mod registry;
mod server;
pub mod store;
mod tcp;

pub use admin::{AdminClient, AdminError, AdminReply, AdminRequest, StatsReport, StatusReport};
pub use builder::ServerBuilder;
pub use client::ClassificationClient;
pub use engine::{ArtifactEngine, BoltEngine};
pub use event_loop::{EventLoopOptions, ServingMode};
pub use microbatch::MicroBatchConfig;
pub use proto::{
    ClassifyBatchRequest, ClassifyBatchResponse, ClassifyBatchWithRequest, ClassifyRequest,
    ClassifyResponse, ClassifyWithRequest, ErrorFrame, ListModelsResponse, ModelInfo, ProtoError,
    MAX_BATCH_SAMPLES, MAX_BATCH_SAMPLES_V2, MAX_FRAME_BYTES, MAX_MODEL_NAME_BYTES,
    PROTOCOL_VERSION,
};
pub use registry::{ModelHandle, ModelRegistry, RouteError};
pub use server::{ClassificationServer, ServerStats};
pub use store::{ModelStore, RescanStats, StoreError, StoreMetrics};
pub use tcp::TcpClassificationServer;
