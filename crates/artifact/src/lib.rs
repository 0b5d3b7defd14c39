//! Zero-copy model artifact store for Bolt (`BLT1` format).
//!
//! A compiled [`BoltForest`](bolt_core::BoltForest), whatever its
//! [`Head`](bolt_core::Head), serializes into a single
//! `.blt` file ([`ArtifactWriter`]) whose sections are exactly the arrays
//! the scan kernels consume: dictionary mask/key lane words, the flattened
//! uncommon-predicate gather, the recombined table's slot and vote columns,
//! and the bloom filter words. Loading ([`Artifact::map`]) memory-maps the
//! file, validates header and per-section CRCs plus the structural
//! invariants the kernels rely on, and then builds the same
//! [`ForestView`](bolt_core::ForestView) the in-memory engine uses —
//! borrowed straight from the mapped bytes, so inference never copies the
//! model onto the heap and results are bit-identical by construction.
//!
//! ```no_run
//! use bolt_artifact::{ArtifactWriter, MappedForest};
//! # fn demo(bolt: &bolt_core::BoltForest) -> Result<(), Box<dyn std::error::Error>> {
//! ArtifactWriter::write_forest(bolt, "model.blt")?;
//! let mapped = MappedForest::open("model.blt")?;   // mmap, no heap copy
//! assert_eq!(mapped.classify(&[0.0; 8]), bolt.classify(&[0.0; 8]));
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

mod artifact;
mod cast;
pub mod format;
mod model;
mod writer;

pub use artifact::{section_name, Artifact};
pub use model::{MappedForest, ModelMeta};
pub use writer::ArtifactWriter;

use std::fmt;

/// Why a `.blt` file could not be loaded.
///
/// Every failure mode is a structured error — hostile or corrupt bytes must
/// never panic the loader and must never be silently accepted (the fuzz leg
/// in `tests/hostile.rs` pins this).
#[derive(Debug)]
pub enum ArtifactError {
    /// The underlying file could not be opened, read, or mapped.
    Io(std::io::Error),
    /// The file does not start with the `BLT1` magic.
    NotBlt,
    /// The header parsed but announces a format version this reader does
    /// not speak. Version negotiation is deliberately blunt: v1 readers
    /// accept v1 files only; additive changes must bump the version.
    UnsupportedVersion(u16),
    /// The header's `model_kind` byte is not a known kind.
    UnsupportedKind(u8),
    /// A CRC-32 check failed (`what` names the header or section).
    ChecksumMismatch(&'static str),
    /// The file is shorter than its own header or section table claims.
    Truncated {
        /// Bytes required by the header / section table.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A structural invariant the scan kernels rely on does not hold
    /// (non-monotone offsets, out-of-range ids, bad shapes...).
    Invalid(String),
    /// The host cannot run the zero-copy path (e.g. big-endian).
    UnsupportedHost(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "artifact i/o error: {e}"),
            Self::NotBlt => write!(f, "not a BLT1 artifact (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported BLT format version {v} (reader speaks {})",
                    format::FORMAT_VERSION
                )
            }
            Self::UnsupportedKind(k) => write!(f, "unknown model kind {k}"),
            Self::ChecksumMismatch(what) => write!(f, "checksum mismatch in {what}"),
            Self::Truncated { needed, actual } => {
                write!(f, "artifact truncated: need {needed} bytes, have {actual}")
            }
            Self::Invalid(msg) => write!(f, "invalid artifact: {msg}"),
            Self::UnsupportedHost(msg) => write!(f, "unsupported host: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
