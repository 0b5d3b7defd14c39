//! The control plane: local-only fleet administration over an admin
//! socket.
//!
//! The data plane ([`crate::event_loop`], [`crate::server`]) answers
//! classification traffic; this module is everything an *operator* does
//! to a live daemon — activate a freshly dropped artifact, retire a name,
//! move the default route, compact the registry log, rescan the model
//! directory — without a restart and without touching the data sockets.
//!
//! # Admin frame format
//!
//! Admin frames reuse the wire discipline of the data protocol (`u32`
//! little-endian length prefix, [`FrameReader`]-compatible) with their own
//! magic so a data frame written to the admin socket (or vice versa) is
//! rejected as malformed instead of misparsed:
//!
//! ```text
//! request:  ┌─────────┬─────────────────┬────────────┬───────────┬────────┐
//!           │ u32 len │ u32 ADMIN_MAGIC │ u8 version │ u8 opcode │ body … │
//!           └─────────┴─────────────────┴────────────┴───────────┴────────┘
//! reply:    ┌─────────┬─────────────────┬────────────┬─────────┬──────────┐
//!           │ u32 len │ u32 ADMIN_MAGIC │ u8 version │ u8 kind │ body …   │
//!           └─────────┴─────────────────┴────────────┴─────────┴──────────┘
//! ```
//!
//! Opcodes: `Activate` (name + version), `Retire`, `SetDefault`,
//! `Compact`, `Rescan`, `Status`, `DrainStats`. Every refusal is a typed
//! [`AdminError`] whose code mirrors the [`StoreError`] taxonomy — a
//! `boltctl` invocation can distinguish *missing artifact* from *retired*
//! from *default in use* without parsing prose.
//!
//! # Socket permissions model
//!
//! The admin socket is a Unix domain socket created mode **0600**
//! ([`bind`]): only the daemon's own user (and root) can connect. There
//! is no in-protocol authentication — possession of the socket *is* the
//! credential, exactly like a database's local control socket. Never
//! place it on a world-writable path.
//!
//! # Scheduling
//!
//! In the event-loop serving mode the admin listener is registered with
//! the same poller as the data listener but under its **own reserved
//! token**, and decoded admin ops are executed on a **dedicated control
//! thread** — never on the loop thread (a WAL fsync or compaction would
//! stall every connection) and never behind the inference worker queue
//! (a saturated data plane must not delay an emergency `retire`).
//! Replies flow back through the ordinary completion path. In
//! thread-per-connection mode a separate accept loop serves admin
//! connections with the same handler.
//!
//! Background maintenance rides the same store API: [`spawn_rescan`]
//! polls the directory mtime and rescans on change, [`spawn_compactor`]
//! compacts the WAL on a fixed period. Both are plain threads with a stop
//! flag ([`BackgroundTask`]), cheap enough to leave running for the life
//! of the daemon.

use crate::proto::{write_frame, ModelInfo};
use crate::proto::{FrameReader, ProtoError, MAX_MODEL_NAME_BYTES};
use crate::server::ServerStats;
use crate::store::{CompactStats, ModelStore, RescanStats, StoreError, StoreMetrics};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// First payload word of every admin frame. Far outside the feature
/// counts, batch magic, and v2 magic of the data protocol, so frames that
/// land on the wrong socket are rejected, not misparsed.
pub const ADMIN_MAGIC: u32 = 0xB017_AD01;

/// The admin protocol version this build speaks.
pub const ADMIN_VERSION: u8 = 1;

/// Opcode: activate `name@version` from the model directory.
pub const ADMIN_OP_ACTIVATE: u8 = 0x01;
/// Opcode: retire a model.
pub const ADMIN_OP_RETIRE: u8 = 0x02;
/// Opcode: make a model the default route.
pub const ADMIN_OP_SET_DEFAULT: u8 = 0x03;
/// Opcode: compact the registry WAL (and prune superseded versions).
pub const ADMIN_OP_COMPACT: u8 = 0x04;
/// Opcode: rescan the model directory for dropped artifacts.
pub const ADMIN_OP_RESCAN: u8 = 0x05;
/// Opcode: report store metrics and the model fleet.
pub const ADMIN_OP_STATUS: u8 = 0x06;
/// Opcode: report per-model request/latency counters.
pub const ADMIN_OP_DRAIN_STATS: u8 = 0x07;

/// Reply kind: the operation succeeded, no payload.
pub const ADMIN_RESP_OK: u8 = 0x80;
/// Reply kind: compaction result ([`CompactStats`]).
pub const ADMIN_RESP_COMPACTED: u8 = 0x81;
/// Reply kind: rescan result ([`RescanStats`]).
pub const ADMIN_RESP_RESCANNED: u8 = 0x82;
/// Reply kind: status report ([`StatusReport`]).
pub const ADMIN_RESP_STATUS: u8 = 0x83;
/// Reply kind: stats report ([`StatsReport`]).
pub const ADMIN_RESP_STATS: u8 = 0x84;
/// Reply kind: the operation was refused ([`AdminError`]).
pub const ADMIN_RESP_REFUSED: u8 = 0xEE;

/// Refusal code: empty or over-long model name ([`StoreError::InvalidName`]).
pub const ADMIN_ERR_INVALID_NAME: u8 = 1;
/// Refusal code: already active at that version ([`StoreError::Duplicate`]).
pub const ADMIN_ERR_DUPLICATE: u8 = 2;
/// Refusal code: the name was never seen ([`StoreError::Unknown`]).
pub const ADMIN_ERR_UNKNOWN: u8 = 3;
/// Refusal code: the name is retired ([`StoreError::Retired`]).
pub const ADMIN_ERR_RETIRED: u8 = 4;
/// Refusal code: retiring the default route ([`StoreError::DefaultInUse`]).
pub const ADMIN_ERR_DEFAULT_IN_USE: u8 = 5;
/// Refusal code: no `NAME@VERSION.blt` on disk ([`StoreError::MissingArtifact`]).
pub const ADMIN_ERR_MISSING_ARTIFACT: u8 = 6;
/// Refusal code: the store has no model directory ([`StoreError::NoDirectory`]).
pub const ADMIN_ERR_NO_DIRECTORY: u8 = 7;
/// Refusal code: a durability or file operation failed ([`StoreError::Io`]).
pub const ADMIN_ERR_IO: u8 = 8;
/// Refusal code: the admin frame decoded as no known request.
pub const ADMIN_ERR_MALFORMED: u8 = 9;
/// Refusal code: the server could not build the reply.
pub const ADMIN_ERR_INTERNAL: u8 = 255;

/// Longest refusal detail carried on the wire; longer messages truncate.
const MAX_DETAIL_BYTES: usize = 1024;

/// One admin operation, as decoded from (or encoded into) an admin frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdminRequest {
    /// Activate `name@version` from the model directory, durably.
    Activate {
        /// Model name.
        name: String,
        /// Artifact version to serve.
        version: u32,
    },
    /// Retire a model, durably when directory-backed.
    Retire(String),
    /// Make a model the default route, durably when directory-backed.
    SetDefault(String),
    /// Compact the registry WAL and prune superseded artifact versions.
    Compact,
    /// Rescan the model directory for dropped artifacts.
    Rescan,
    /// Report store metrics and the model fleet.
    Status,
    /// Report per-model request/latency counters.
    DrainStats,
}

impl AdminRequest {
    /// Serializes into a framed admin request (length prefix included).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for a wire-invalid model name.
    pub fn encode(&self) -> Result<Bytes, ProtoError> {
        let (opcode, name, version) = match self {
            Self::Activate { name, version } => (ADMIN_OP_ACTIVATE, Some(name), Some(*version)),
            Self::Retire(name) => (ADMIN_OP_RETIRE, Some(name), None),
            Self::SetDefault(name) => (ADMIN_OP_SET_DEFAULT, Some(name), None),
            Self::Compact => (ADMIN_OP_COMPACT, None, None),
            Self::Rescan => (ADMIN_OP_RESCAN, None, None),
            Self::Status => (ADMIN_OP_STATUS, None, None),
            Self::DrainStats => (ADMIN_OP_DRAIN_STATS, None, None),
        };
        if let Some(name) = name {
            if name.is_empty() || name.len() > MAX_MODEL_NAME_BYTES {
                return Err(ProtoError::Malformed {
                    detail: format!(
                        "model name must be 1..={MAX_MODEL_NAME_BYTES} bytes, got {}",
                        name.len()
                    ),
                });
            }
        }
        let payload_len =
            6 + name.map_or(0, |n| 1 + n.len()) + if version.is_some() { 4 } else { 0 };
        let mut buf = BytesMut::with_capacity(4 + payload_len);
        buf.put_u32_le(payload_len as u32);
        buf.put_u32_le(ADMIN_MAGIC);
        buf.put_u8(ADMIN_VERSION);
        buf.put_u8(opcode);
        if let Some(name) = name {
            buf.put_u8(name.len() as u8);
            buf.put_slice(name.as_bytes());
        }
        if let Some(version) = version {
            buf.put_u32_le(version);
        }
        Ok(buf.freeze())
    }

    /// Decodes an admin request payload (everything after the length
    /// prefix).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] if the payload is not a well-formed
    /// admin frame of a known opcode.
    pub fn decode(mut payload: &[u8]) -> Result<Self, ProtoError> {
        let (version, opcode) = admin_header(&mut payload)?;
        if version != ADMIN_VERSION {
            return Err(ProtoError::Malformed {
                detail: format!(
                    "admin protocol version {version} not supported; this build speaks {ADMIN_VERSION}"
                ),
            });
        }
        let request = match opcode {
            ADMIN_OP_ACTIVATE => {
                let name = get_admin_name(&mut payload)?;
                if payload.remaining() < 4 {
                    return Err(ProtoError::Malformed {
                        detail: "activate request ends before its version".into(),
                    });
                }
                Self::Activate {
                    name,
                    version: payload.get_u32_le(),
                }
            }
            ADMIN_OP_RETIRE => Self::Retire(get_admin_name(&mut payload)?),
            ADMIN_OP_SET_DEFAULT => Self::SetDefault(get_admin_name(&mut payload)?),
            ADMIN_OP_COMPACT => Self::Compact,
            ADMIN_OP_RESCAN => Self::Rescan,
            ADMIN_OP_STATUS => Self::Status,
            ADMIN_OP_DRAIN_STATS => Self::DrainStats,
            other => {
                return Err(ProtoError::Malformed {
                    detail: format!("unknown admin opcode {other:#04x}"),
                })
            }
        };
        if !payload.is_empty() {
            return Err(ProtoError::Malformed {
                detail: "trailing bytes after admin request".into(),
            });
        }
        Ok(request)
    }
}

/// A typed refusal: the admin-protocol projection of [`StoreError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdminError {
    /// One of the `ADMIN_ERR_*` codes.
    pub code: u8,
    /// Human-readable detail naming the model/version involved.
    pub detail: String,
}

impl std::fmt::Display for AdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "refused (code {}): {}", self.code, self.detail)
    }
}

impl From<&StoreError> for AdminError {
    fn from(e: &StoreError) -> Self {
        // StoreError is non_exhaustive; the wildcard covers variants a
        // future store adds before this mapping learns their codes.
        #[allow(unreachable_patterns)]
        let code = match e {
            StoreError::InvalidName(_) => ADMIN_ERR_INVALID_NAME,
            StoreError::Duplicate(_) => ADMIN_ERR_DUPLICATE,
            StoreError::Unknown(_) => ADMIN_ERR_UNKNOWN,
            StoreError::Retired(_) => ADMIN_ERR_RETIRED,
            StoreError::DefaultInUse(_) => ADMIN_ERR_DEFAULT_IN_USE,
            StoreError::MissingArtifact { .. } => ADMIN_ERR_MISSING_ARTIFACT,
            StoreError::NoDirectory => ADMIN_ERR_NO_DIRECTORY,
            StoreError::Io(_) => ADMIN_ERR_IO,
            _ => ADMIN_ERR_INTERNAL,
        };
        Self {
            code,
            detail: e.to_string(),
        }
    }
}

/// The `Status` reply: store metrics plus one row per servable model (the
/// same coherent snapshot [`ModelStore::list`] produces).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Eviction-pressure counters and the residency footprint.
    pub metrics: StoreMetrics,
    /// One row per model, sorted by name.
    pub models: Vec<ModelInfo>,
    /// How the daemon matches dictionary entries:
    /// [`bolt_core::index::MATCH_MECHANISM`] from current daemons, a SIMD
    /// scan kernel name (`scalar`/`sse2`/`avx2`/`avx512`/`neon`) from
    /// PR 10–16 ones. Empty when the serving daemon predates this field —
    /// it rides at the end of the reply so old and new peers interoperate.
    pub kernel: String,
}

/// The `DrainStats` reply: cumulative request/latency counters, totaled
/// and per model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Aggregate across every model, including retired and evicted ones.
    pub total: ServerStats,
    /// Per-model counters, sorted by name.
    pub models: Vec<(String, ServerStats)>,
}

/// Every admin reply shape.
#[derive(Clone, Debug, PartialEq)]
pub enum AdminReply {
    /// The operation succeeded (activate / retire / set-default).
    Ok,
    /// Compaction result.
    Compacted(CompactStats),
    /// Rescan result.
    Rescanned(RescanStats),
    /// Status report.
    Status(StatusReport),
    /// Stats report.
    Stats(StatsReport),
    /// The operation was refused.
    Refused(AdminError),
}

impl AdminReply {
    /// Serializes into a framed admin reply. Infallible: detail strings
    /// truncate to [`MAX_DETAIL_BYTES`] and oversized fleet listings
    /// degrade to a refusal naming the overflow instead of a torn frame.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        match self.try_encode() {
            Ok(frame) => frame,
            Err(e) => Self::Refused(AdminError {
                code: ADMIN_ERR_INTERNAL,
                detail: format!("reply does not fit in a frame: {e}"),
            })
            .try_encode()
            .expect("refusal replies always fit"),
        }
    }

    fn try_encode(&self) -> Result<Bytes, ProtoError> {
        let mut body = BytesMut::new();
        let kind = match self {
            Self::Ok => ADMIN_RESP_OK,
            Self::Compacted(stats) => {
                body.put_u64_le(stats.wal_bytes_before);
                body.put_u64_le(stats.wal_bytes_after);
                body.put_u64_le(stats.files_deleted as u64);
                ADMIN_RESP_COMPACTED
            }
            Self::Rescanned(stats) => {
                body.put_u32_le(stats.names_added);
                body.put_u32_le(stats.versions_added);
                ADMIN_RESP_RESCANNED
            }
            Self::Status(report) => {
                body.put_u64_le(report.metrics.evictions);
                body.put_u64_le(report.metrics.thrash_reloads);
                body.put_u64_le(report.metrics.resident_bytes);
                body.put_u64_le(report.metrics.resident_bytes_hwm);
                body.put_u64_le(report.metrics.resident_models);
                put_count(&mut body, report.models.len())?;
                for m in &report.models {
                    put_short_str(&mut body, &m.name)?;
                    put_short_str(&mut body, &m.engine)?;
                    body.put_u64_le(m.requests);
                    body.put_u8(u8::from(m.is_default) | (u8::from(m.resident) << 1));
                    body.put_u32_le(m.version);
                    body.put_u64_le(m.bytes);
                }
                put_short_str(&mut body, &report.kernel)?;
                ADMIN_RESP_STATUS
            }
            Self::Stats(report) => {
                body.put_u64_le(report.total.requests);
                body.put_u64_le(report.total.total_latency_ns);
                put_count(&mut body, report.models.len())?;
                for (name, stats) in &report.models {
                    put_short_str(&mut body, name)?;
                    body.put_u64_le(stats.requests);
                    body.put_u64_le(stats.total_latency_ns);
                }
                ADMIN_RESP_STATS
            }
            Self::Refused(error) => {
                let detail: String = error.detail.chars().take(MAX_DETAIL_BYTES / 4).collect();
                body.put_u8(error.code);
                body.put_u16_le(detail.len() as u16);
                body.put_slice(detail.as_bytes());
                ADMIN_RESP_REFUSED
            }
        };
        let payload_len = 6 + body.len();
        if payload_len > crate::proto::MAX_FRAME_BYTES {
            return Err(ProtoError::FrameTooLarge {
                declared: payload_len,
            });
        }
        let mut buf = BytesMut::with_capacity(4 + payload_len);
        buf.put_u32_le(payload_len as u32);
        buf.put_u32_le(ADMIN_MAGIC);
        buf.put_u8(ADMIN_VERSION);
        buf.put_u8(kind);
        buf.put_slice(&body);
        Ok(buf.freeze())
    }

    /// Decodes an admin reply payload (everything after the length
    /// prefix).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] if the payload is not a well-formed
    /// admin reply of a known kind.
    pub fn decode(mut payload: &[u8]) -> Result<Self, ProtoError> {
        let (_, kind) = admin_header(&mut payload)?;
        match kind {
            ADMIN_RESP_OK => Ok(Self::Ok),
            ADMIN_RESP_COMPACTED => {
                need(payload, 24, "compaction reply")?;
                Ok(Self::Compacted(CompactStats {
                    wal_bytes_before: payload.get_u64_le(),
                    wal_bytes_after: payload.get_u64_le(),
                    files_deleted: payload.get_u64_le() as usize,
                }))
            }
            ADMIN_RESP_RESCANNED => {
                need(payload, 8, "rescan reply")?;
                Ok(Self::Rescanned(RescanStats {
                    names_added: payload.get_u32_le(),
                    versions_added: payload.get_u32_le(),
                }))
            }
            ADMIN_RESP_STATUS => {
                need(payload, 42, "status reply")?;
                let metrics = StoreMetrics {
                    evictions: payload.get_u64_le(),
                    thrash_reloads: payload.get_u64_le(),
                    resident_bytes: payload.get_u64_le(),
                    resident_bytes_hwm: payload.get_u64_le(),
                    resident_models: payload.get_u64_le(),
                };
                let n = payload.get_u16_le() as usize;
                let mut models = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = get_short_str(&mut payload, "model name")?;
                    let engine = get_short_str(&mut payload, "engine name")?;
                    need(payload, 21, "status row")?;
                    let requests = payload.get_u64_le();
                    let flags = payload.get_u8();
                    models.push(ModelInfo {
                        name,
                        engine,
                        requests,
                        is_default: flags & 1 != 0,
                        resident: flags & 2 != 0,
                        version: payload.get_u32_le(),
                        bytes: payload.get_u64_le(),
                    });
                }
                // Trailing kernel string: absent from daemons predating
                // the field, so an exhausted payload decodes as empty
                // rather than malformed.
                let kernel = if payload.is_empty() {
                    String::new()
                } else {
                    get_short_str(&mut payload, "kernel name")?
                };
                Ok(Self::Status(StatusReport {
                    metrics,
                    models,
                    kernel,
                }))
            }
            ADMIN_RESP_STATS => {
                need(payload, 18, "stats reply")?;
                let total = ServerStats {
                    requests: payload.get_u64_le(),
                    total_latency_ns: payload.get_u64_le(),
                };
                let n = payload.get_u16_le() as usize;
                let mut models = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = get_short_str(&mut payload, "model name")?;
                    need(payload, 16, "stats row")?;
                    models.push((
                        name,
                        ServerStats {
                            requests: payload.get_u64_le(),
                            total_latency_ns: payload.get_u64_le(),
                        },
                    ));
                }
                Ok(Self::Stats(StatsReport { total, models }))
            }
            ADMIN_RESP_REFUSED => {
                need(payload, 3, "refusal reply")?;
                let code = payload.get_u8();
                let len = payload.get_u16_le() as usize;
                need(payload, len, "refusal detail")?;
                let mut bytes = vec![0u8; len];
                payload.copy_to_slice(&mut bytes);
                let detail = String::from_utf8(bytes).map_err(|_| ProtoError::Malformed {
                    detail: "refusal detail is not UTF-8".into(),
                })?;
                Ok(Self::Refused(AdminError { code, detail }))
            }
            other => Err(ProtoError::Malformed {
                detail: format!("unknown admin reply kind {other:#04x}"),
            }),
        }
    }
}

/// Consumes and validates the shared admin header (magic, version byte),
/// returning `(version, opcode-or-kind)`.
fn admin_header(payload: &mut &[u8]) -> Result<(u8, u8), ProtoError> {
    if payload.remaining() < 6 {
        return Err(ProtoError::Malformed {
            detail: "admin frame shorter than its header".into(),
        });
    }
    let magic = payload.get_u32_le();
    if magic != ADMIN_MAGIC {
        return Err(ProtoError::Malformed {
            detail: format!("not an admin frame (magic {magic:#010x})"),
        });
    }
    Ok((payload.get_u8(), payload.get_u8()))
}

fn need(payload: &[u8], n: usize, what: &str) -> Result<(), ProtoError> {
    if payload.remaining() < n {
        return Err(ProtoError::Malformed {
            detail: format!("{what} ends early"),
        });
    }
    Ok(())
}

fn put_count(body: &mut BytesMut, n: usize) -> Result<(), ProtoError> {
    let n = u16::try_from(n).map_err(|_| ProtoError::FrameTooLarge { declared: n })?;
    body.put_u16_le(n);
    Ok(())
}

fn put_short_str(body: &mut BytesMut, s: &str) -> Result<(), ProtoError> {
    if s.len() > u8::MAX as usize {
        return Err(ProtoError::Malformed {
            detail: format!("string {s:?} too long for the admin wire"),
        });
    }
    body.put_u8(s.len() as u8);
    body.put_slice(s.as_bytes());
    Ok(())
}

fn get_short_str(payload: &mut &[u8], what: &str) -> Result<String, ProtoError> {
    need(payload, 1, what)?;
    let len = payload.get_u8() as usize;
    need(payload, len, what)?;
    let mut bytes = vec![0u8; len];
    payload.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| ProtoError::Malformed {
        detail: format!("{what} is not UTF-8"),
    })
}

/// Reads a length-prefixed admin name (same shape as the data protocol's
/// model names).
fn get_admin_name(payload: &mut &[u8]) -> Result<String, ProtoError> {
    need(payload, 1, "admin model name")?;
    let len = payload.get_u8() as usize;
    if len == 0 || len > MAX_MODEL_NAME_BYTES {
        return Err(ProtoError::Malformed {
            detail: format!("model name of {len} bytes outside 1..={MAX_MODEL_NAME_BYTES}"),
        });
    }
    need(payload, len, "admin model name")?;
    let mut bytes = vec![0u8; len];
    payload.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| ProtoError::Malformed {
        detail: "model name is not UTF-8".into(),
    })
}

/// Executes one admin request against the store. Every mutation flows
/// through the store's WAL-first commit discipline, so a `kill -9` at any
/// point recovers to either *before* or *after* the op — never between.
pub fn handle(store: &ModelStore, request: &AdminRequest) -> AdminReply {
    let refused = |e: StoreError| AdminReply::Refused(AdminError::from(&e));
    match request {
        AdminRequest::Activate { name, version } => store
            .activate(name, *version)
            .map_or_else(refused, |()| AdminReply::Ok),
        AdminRequest::Retire(name) => store.retire(name).map_or_else(refused, |()| AdminReply::Ok),
        AdminRequest::SetDefault(name) => store
            .set_default(name)
            .map_or_else(refused, |()| AdminReply::Ok),
        AdminRequest::Compact => store.compact().map_or_else(refused, AdminReply::Compacted),
        AdminRequest::Rescan => store.rescan().map_or_else(refused, AdminReply::Rescanned),
        AdminRequest::Status => AdminReply::Status(StatusReport {
            metrics: store.metrics(),
            models: store.list(),
            kernel: bolt_core::index::MATCH_MECHANISM.to_string(),
        }),
        AdminRequest::DrainStats => {
            let registry = store.registry();
            let models = store
                .list()
                .into_iter()
                .map(|m| {
                    let stats = registry.stats(&m.name).unwrap_or_default();
                    (m.name, stats)
                })
                .collect();
            AdminReply::Stats(StatsReport {
                total: registry.total_stats(),
                models,
            })
        }
    }
}

/// The reply to an admin frame that failed to decode: a typed refusal,
/// and the connection survives (the frame was well-delimited).
pub(crate) fn malformed_reply(e: &ProtoError) -> AdminReply {
    AdminReply::Refused(AdminError {
        code: ADMIN_ERR_MALFORMED,
        detail: e.to_string(),
    })
}

/// Binds the admin socket: removes a stale file, binds, and restricts the
/// socket to mode 0600 — the owner (and root) is the only principal that
/// can drive the control plane.
///
/// # Errors
///
/// The bind or `set_permissions` error.
pub fn bind(path: impl AsRef<Path>) -> std::io::Result<UnixListener> {
    use std::os::unix::fs::PermissionsExt;
    let path = path.as_ref();
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o600))?;
    Ok(listener)
}

/// Serves admin frames on one blocking connection until EOF (the
/// thread-per-connection admin path; the event loop has its own
/// non-blocking integration). The caller configures the read timeout.
pub(crate) fn handle_admin_stream<S: Read + Write>(
    mut stream: S,
    store: &ModelStore,
    shutdown: &AtomicBool,
) -> Result<(), ProtoError> {
    let mut frames = FrameReader::new();
    loop {
        if shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        let payload = match frames.read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()),
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        let reply = match AdminRequest::decode(&payload) {
            Ok(request) => handle(store, &request),
            Err(e) => malformed_reply(&e),
        };
        write_frame(&mut stream, &reply.encode())?;
    }
}

/// A synchronous admin-socket client: one connection, one in-flight
/// request. This is what `boltctl` and the integration tests drive.
#[derive(Debug)]
pub struct AdminClient {
    stream: UnixStream,
    frames: FrameReader,
}

impl AdminClient {
    /// Connects to the daemon's admin socket.
    ///
    /// # Errors
    ///
    /// The connect error (daemon down, wrong path, or — by design — a
    /// permissions refusal for any user but the daemon's own).
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            stream: UnixStream::connect(path)?,
            frames: FrameReader::new(),
        })
    }

    /// Sends one request and waits for its reply. A [`AdminReply::Refused`]
    /// is a *successful* call — the refusal is the answer.
    ///
    /// # Errors
    ///
    /// Transport failures and undecodable replies.
    pub fn call(&mut self, request: &AdminRequest) -> Result<AdminReply, ProtoError> {
        write_frame(&mut self.stream, &request.encode()?)?;
        match self.frames.read_frame(&mut self.stream)? {
            Some(payload) => AdminReply::decode(&payload),
            None => Err(ProtoError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "admin socket closed before the reply",
            ))),
        }
    }
}

/// A background maintenance thread with a stop flag. Dropping the handle
/// stops and joins the thread; a daemon can also leak it for the process
/// lifetime.
#[derive(Debug)]
pub struct BackgroundTask {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl BackgroundTask {
    fn spawn(body: impl FnMut() + Send + 'static, period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let mut body = body;
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(100).min(period);
            let mut elapsed = Duration::ZERO;
            loop {
                // Sleep in small ticks so stop() returns promptly even
                // under a long maintenance period.
                while elapsed < period {
                    if thread_stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(tick);
                    elapsed += tick;
                }
                elapsed = Duration::ZERO;
                if thread_stop.load(Ordering::Acquire) {
                    return;
                }
                body();
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BackgroundTask {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Spawns the directory watcher: every `period` it polls the model
/// directory's mtime and, when it moved, rescans ([`ModelStore::rescan`])
/// so freshly dropped `NAME@VERSION.blt` files become servable without a
/// restart. An explicit admin `Rescan` op remains available for operators
/// who want the pickup *now*.
#[must_use]
pub fn spawn_rescan(store: ModelStore, period: Duration) -> BackgroundTask {
    let mut last_seen: Option<SystemTime> = None;
    BackgroundTask::spawn(
        move || {
            let Some(dir) = store.model_dir() else {
                return;
            };
            let modified = std::fs::metadata(&dir).and_then(|m| m.modified()).ok();
            if modified == last_seen {
                return;
            }
            match store.rescan() {
                Ok(stats) => {
                    last_seen = modified;
                    if stats.names_added > 0 || stats.versions_added > 0 {
                        println!(
                            "boltd rescan: {} new model(s), {} new artifact version(s) cataloged",
                            stats.names_added, stats.versions_added
                        );
                    }
                }
                Err(e) => eprintln!("boltd rescan failed: {e}"),
            }
        },
        period,
    )
}

/// Spawns the background compactor: every `period` the registry WAL is
/// rewritten to its minimal record set and superseded artifact versions
/// beyond the retention are pruned ([`ModelStore::compact`]) — the
/// scheduled replacement for PR 8's startup-only compaction.
#[must_use]
pub fn spawn_compactor(store: ModelStore, period: Duration) -> BackgroundTask {
    BackgroundTask::spawn(
        move || match store.compact() {
            Ok(stats) if stats.files_deleted > 0 => println!(
                "boltd compaction: wal {} -> {} bytes, {} superseded artifact(s) deleted",
                stats.wal_bytes_before, stats.wal_bytes_after, stats.files_deleted
            ),
            Ok(_) => {}
            Err(e) => eprintln!("boltd compaction failed: {e}"),
        },
        period,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for request in [
            AdminRequest::Activate {
                name: "fraud".into(),
                version: 7,
            },
            AdminRequest::Retire("spam".into()),
            AdminRequest::SetDefault("tricky@name".into()),
            AdminRequest::Compact,
            AdminRequest::Rescan,
            AdminRequest::Status,
            AdminRequest::DrainStats,
        ] {
            let framed = request.encode().expect("encodes");
            let (len, payload) = framed.split_at(4);
            assert_eq!(
                u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize,
                payload.len()
            );
            assert_eq!(AdminRequest::decode(payload).expect("decodes"), request);
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            AdminReply::Ok,
            AdminReply::Compacted(CompactStats {
                wal_bytes_before: 4096,
                wal_bytes_after: 128,
                files_deleted: 3,
            }),
            AdminReply::Rescanned(RescanStats {
                names_added: 2,
                versions_added: 5,
            }),
            AdminReply::Status(StatusReport {
                metrics: StoreMetrics {
                    evictions: 10,
                    thrash_reloads: 4,
                    resident_bytes: 1 << 20,
                    resident_bytes_hwm: 2 << 20,
                    resident_models: 3,
                },
                models: vec![ModelInfo {
                    name: "fraud".into(),
                    engine: "BOLT-BLT".into(),
                    requests: 42,
                    is_default: true,
                    version: 7,
                    resident: true,
                    bytes: 9000,
                }],
                kernel: "avx512".into(),
            }),
            AdminReply::Stats(StatsReport {
                total: ServerStats {
                    requests: 99,
                    total_latency_ns: 12345,
                },
                models: vec![(
                    "fraud".into(),
                    ServerStats {
                        requests: 99,
                        total_latency_ns: 12345,
                    },
                )],
            }),
            AdminReply::Refused(AdminError {
                code: ADMIN_ERR_MISSING_ARTIFACT,
                detail: "no artifact file for fraud@9".into(),
            }),
        ];
        for reply in replies {
            let framed = reply.encode();
            assert_eq!(AdminReply::decode(&framed[4..]).expect("decodes"), reply);
        }
    }

    #[test]
    fn hostile_admin_payloads_are_rejected_not_panics() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0xFF; 3],
            ADMIN_MAGIC.to_le_bytes().to_vec(), // header cut short
            {
                // Wrong magic entirely (a data frame on the admin socket).
                let mut v = crate::proto::V2_MAGIC.to_le_bytes().to_vec();
                v.extend_from_slice(&[2, 0x03]);
                v
            },
            {
                // Unknown opcode.
                let mut v = ADMIN_MAGIC.to_le_bytes().to_vec();
                v.extend_from_slice(&[ADMIN_VERSION, 0x77]);
                v
            },
            {
                // Activate with a truncated name.
                let mut v = ADMIN_MAGIC.to_le_bytes().to_vec();
                v.extend_from_slice(&[ADMIN_VERSION, ADMIN_OP_ACTIVATE, 12, b'x']);
                v
            },
            {
                // Trailing garbage after a well-formed compact.
                let mut v = ADMIN_MAGIC.to_le_bytes().to_vec();
                v.extend_from_slice(&[ADMIN_VERSION, ADMIN_OP_COMPACT, 0xAA]);
                v
            },
            {
                // A version from the future.
                let mut v = ADMIN_MAGIC.to_le_bytes().to_vec();
                v.extend_from_slice(&[9, ADMIN_OP_STATUS]);
                v
            },
        ];
        for payload in cases {
            assert!(
                AdminRequest::decode(&payload).is_err(),
                "payload {payload:?} must be rejected"
            );
            assert!(AdminReply::decode(&payload).is_err());
        }
    }

    #[test]
    fn oversized_detail_truncates_instead_of_tearing() {
        let reply = AdminReply::Refused(AdminError {
            code: ADMIN_ERR_IO,
            detail: "x".repeat(1 << 16),
        });
        let framed = reply.encode();
        match AdminReply::decode(&framed[4..]).expect("decodes") {
            AdminReply::Refused(e) => {
                assert_eq!(e.code, ADMIN_ERR_IO);
                assert!(e.detail.len() <= MAX_DETAIL_BYTES);
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }
}
