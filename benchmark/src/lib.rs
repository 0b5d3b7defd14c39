//! The repo benchmark: eight closed-loop workloads from one library call
//! to a `boltd` fleet, gated end-to-end metrics, a per-layer probe and a
//! traced run. See `README.md` for every definition; `main.rs` is the
//! command `run.sh` builds and executes.

#![warn(missing_docs)]

pub mod daemon;
pub mod host;
pub mod models;
pub mod probe;
pub mod report;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod wire;
pub mod workload;
