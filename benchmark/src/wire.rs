//! The generator's own frame codec, so the served workloads keep running
//! across a rewrite of `bolt_server::proto`. It speaks exactly the frames
//! listed in README.md ("measured surface"):
//!
//! * every frame: `u32le length`, then the payload;
//! * legacy single request: `u32le n`, `n × f32le`; reply `u32le class`,
//!   `u64le service_ns`;
//! * v2 header: `u32le 0xB017C0DE`, `u8 version = 2`, `u8 opcode`;
//!   `ClassifyWith` (0x01): `u8 len`, name, `u32le n`, features;
//!   `ClassifyBatchWith` (0x02): `u8 len`, name, `u32le samples`,
//!   `u32le features`, dense `f32le` matrix; replies 0x81 (class +
//!   service_ns), 0x82 (`u32le n`, classes, `u64le service_ns`) and 0xEE
//!   (`u8 code`, `u16le len`, detail);
//! * admin header: `u32le 0xB017AD01`, `u8 version = 1`, `u8 opcode`;
//!   `Activate` (0x01): `u8 len`, name, `u32le version`; `Status` (0x06);
//!   replies are recognised by their kind byte only (0x80 ok, 0xEE refused).

use std::io::{self, Read};

const V2_MAGIC: u32 = 0xB017_C0DE;
const ADMIN_MAGIC: u32 = 0xB017_AD01;
const MAX_FRAME_BYTES: usize = 1 << 20;

/// The server's "queue full, request shed" error code.
pub const ERR_OVERLOADED: u8 = 6;
/// The server's "no such model" error code.
pub const ERR_UNKNOWN_MODEL: u8 = 1;

/// What a data-plane reply said. Classes are written to the caller's
/// buffer so a batch reply costs no allocation per request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `classes` now holds one class per sample of the request.
    Classes {
        /// Server-reported service time for the frame.
        service_ns: u64,
    },
    /// A structured error frame.
    Error {
        /// Machine-readable code.
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
}

/// What an admin reply said.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdminReply {
    /// The operation was applied (kind 0x80).
    Ok,
    /// The daemon refused it (kind 0xEE) with this code.
    Refused(u8),
    /// Any other well-formed reply (status, stats, ...), by kind byte.
    Other(u8),
}

fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Back-patches the length prefix reserved at `buf[at..at + 4]`.
fn finish(buf: &mut [u8], at: usize) {
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Reserves the length prefix and writes a versioned header; returns where
/// the frame starts. Every encoder *appends* one frame, so a pipelined
/// client can put several in one write.
fn start(buf: &mut Vec<u8>, magic: u32, version: u8, opcode: u8) -> usize {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    buf.extend_from_slice(&magic.to_le_bytes());
    buf.push(version);
    buf.push(opcode);
    at
}

fn put_name(buf: &mut Vec<u8>, name: &str) {
    assert!(
        (1..=64).contains(&name.len()),
        "model name must be 1..=64 bytes"
    );
    buf.push(name.len() as u8);
    buf.extend_from_slice(name.as_bytes());
}

/// Legacy single-sample request (routes to the daemon's default model).
pub fn encode_single(buf: &mut Vec<u8>, features: &[f32]) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    buf.extend_from_slice(&(features.len() as u32).to_le_bytes());
    put_f32s(buf, features);
    finish(buf, at);
}

/// v2 `ClassifyWith`: one sample for a named model.
pub fn encode_classify_with(buf: &mut Vec<u8>, model: &str, features: &[f32]) {
    let at = start(buf, V2_MAGIC, 2, 0x01);
    put_name(buf, model);
    buf.extend_from_slice(&(features.len() as u32).to_le_bytes());
    put_f32s(buf, features);
    finish(buf, at);
}

/// v2 `ClassifyBatchWith`: many equally long samples for a named model.
pub fn encode_batch_with(buf: &mut Vec<u8>, model: &str, samples: &[&[f32]]) {
    let n_features = samples.first().map_or(0, |s| s.len());
    let at = start(buf, V2_MAGIC, 2, 0x02);
    put_name(buf, model);
    buf.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(n_features as u32).to_le_bytes());
    for sample in samples {
        assert_eq!(sample.len(), n_features, "ragged batch");
        put_f32s(buf, sample);
    }
    finish(buf, at);
}

/// Admin `Activate NAME@VERSION`.
pub fn encode_admin_activate(buf: &mut Vec<u8>, name: &str, version: u32) {
    let at = start(buf, ADMIN_MAGIC, 1, 0x01);
    put_name(buf, name);
    buf.extend_from_slice(&version.to_le_bytes());
    finish(buf, at);
}

/// Admin `Status`.
pub fn encode_admin_status(buf: &mut Vec<u8>) {
    let at = start(buf, ADMIN_MAGIC, 1, 0x06);
    finish(buf, at);
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

/// Decodes a data-plane reply payload (length prefix stripped), writing
/// the classes it carries into `classes`.
///
/// # Errors
///
/// A description of the first thing that does not parse; the caller counts
/// it as a protocol error.
pub fn decode_reply(payload: &[u8], classes: &mut Vec<u32>) -> Result<Reply, String> {
    classes.clear();
    if u32_at(payload, 0) != Some(V2_MAGIC) {
        // Legacy reply: class + service time, nothing else.
        return match (payload.len(), u32_at(payload, 0), u64_at(payload, 4)) {
            (12, Some(class), Some(service_ns)) => {
                classes.push(class);
                Ok(Reply::Classes { service_ns })
            }
            _ => Err(format!("legacy reply of {} bytes", payload.len())),
        };
    }
    let (Some(&opcode), body) = (payload.get(5), payload.get(6..).unwrap_or_default()) else {
        return Err("v2 reply shorter than its header".into());
    };
    match opcode {
        0x81 if body.len() == 12 => {
            classes.push(u32_at(body, 0).expect("length checked"));
            Ok(Reply::Classes {
                service_ns: u64_at(body, 4).expect("length checked"),
            })
        }
        0x82 => {
            let n = u32_at(body, 0).ok_or("batch reply without a count")? as usize;
            if body.len() != 4 + n * 4 + 8 {
                return Err(format!("batch reply: {n} classes in {} bytes", body.len()));
            }
            classes.extend((0..n).map(|i| u32_at(body, 4 + i * 4).expect("length checked")));
            Ok(Reply::Classes {
                service_ns: u64_at(body, 4 + n * 4).expect("length checked"),
            })
        }
        0xEE => {
            let (Some(&code), Some(len)) = (body.first(), body.get(1..3)) else {
                return Err("error frame shorter than its header".into());
            };
            let len = usize::from(u16::from_le_bytes([len[0], len[1]]));
            let detail = body.get(3..3 + len).ok_or("error detail truncated")?;
            Ok(Reply::Error {
                code,
                detail: String::from_utf8_lossy(detail).into_owned(),
            })
        }
        other => Err(format!("unexpected v2 reply opcode {other:#04x}")),
    }
}

/// Decodes an admin reply payload down to its kind.
///
/// # Errors
///
/// The payload is not an admin frame.
pub fn decode_admin_reply(payload: &[u8]) -> Result<AdminReply, String> {
    if u32_at(payload, 0) != Some(ADMIN_MAGIC) || payload.len() < 6 {
        return Err(format!("not an admin reply ({} bytes)", payload.len()));
    }
    Ok(match payload[5] {
        0x80 => AdminReply::Ok,
        0xEE => AdminReply::Refused(payload.get(6).copied().unwrap_or(0)),
        kind => AdminReply::Other(kind),
    })
}

/// Reads one length-prefixed frame into `payload` (resized to fit).
///
/// # Errors
///
/// Socket errors, EOF, or a declared length over the 1 MiB frame cap.
pub fn read_frame(stream: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<()> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the 1 MiB cap"),
        ));
    }
    payload.resize(len, 0);
    stream.read_exact(payload)
}

/// The payload of the first frame in a receive buffer, once all of it has
/// arrived (the frame then occupies `4 + payload.len()` bytes). Used by the
/// pipelined client, which reads whatever the socket has in one call.
#[must_use]
pub fn next_frame(buffered: &[u8]) -> Option<&[u8]> {
    let len = u32_at(buffered, 0)? as usize;
    buffered.get(4..4 + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_server::proto::{
        ClassifyBatchResponse, ClassifyResponse, ErrorFrame, Request, ERR_OVERLOADED as SRV_SHED,
    };

    /// The codec is pinned against the server's decoder here and against a
    /// live daemon in `tests/live.rs`.
    #[test]
    fn requests_decode_as_the_server_reads_them() {
        let mut buf = Vec::new();
        encode_single(&mut buf, &[1.0, 2.5]);
        match Request::decode(&buf[4..]).expect("decodes") {
            Request::Single(r) => assert_eq!(r.features, vec![1.0, 2.5]),
            other => panic!("{other:?}"),
        }
        buf.clear();
        encode_classify_with(&mut buf, "svc", &[3.0]);
        match Request::decode(&buf[4..]).expect("decodes") {
            Request::SingleWith(r) => {
                assert_eq!((r.model.as_str(), r.features), ("svc", vec![3.0]))
            }
            other => panic!("{other:?}"),
        }
        // Encoders append: a second frame lands behind the first.
        let first = buf.len();
        encode_batch_with(&mut buf, "deep", &[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(next_frame(&buf).map(<[u8]>::len), Some(first - 4));
        let buf = buf.split_off(first);
        assert_eq!(u32_at(&buf, 0), Some(buf.len() as u32 - 4));
        match Request::decode(&buf[4..]).expect("decodes") {
            Request::BatchWith(r) => {
                assert_eq!(r.model, "deep");
                assert_eq!(r.samples, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replies_decode_as_the_server_writes_them() {
        let mut classes = Vec::new();
        let legacy = ClassifyResponse {
            class: 3,
            latency_ns: 1234,
        };
        for frame in [legacy.encode(), legacy.encode_v2()] {
            let reply = decode_reply(&frame[4..], &mut classes).expect("decodes");
            assert_eq!(reply, Reply::Classes { service_ns: 1234 });
            assert_eq!(classes, [3]);
        }
        let batch = ClassifyBatchResponse {
            classes: vec![1, 0, 2],
            latency_ns: 99,
        };
        let frame = batch.encode_v2();
        assert_eq!(next_frame(&frame), Some(&frame[4..]));
        assert_eq!(next_frame(&frame[..frame.len() - 1]), None);
        let reply = decode_reply(&frame[4..], &mut classes).expect("decodes");
        assert_eq!(reply, Reply::Classes { service_ns: 99 });
        assert_eq!(classes, [1, 0, 2]);
        let shed = ErrorFrame {
            code: SRV_SHED,
            detail: "queue full".into(),
        }
        .encode();
        assert_eq!(
            decode_reply(&shed[4..], &mut classes),
            Ok(Reply::Error {
                code: ERR_OVERLOADED,
                detail: "queue full".into()
            })
        );
        assert!(classes.is_empty());
        assert!(decode_reply(&[1, 2, 3], &mut classes).is_err());
        assert!(decode_reply(&frame[4..frame.len() - 2], &mut classes).is_err());
    }

    #[test]
    fn admin_frames_match_the_server_codec() {
        use bolt_server::{AdminReply as Srv, AdminRequest};
        let mut buf = Vec::new();
        encode_admin_activate(&mut buf, "svc", 2);
        assert_eq!(
            AdminRequest::decode(&buf[4..]).expect("decodes"),
            AdminRequest::Activate {
                name: "svc".into(),
                version: 2
            }
        );
        buf.clear();
        encode_admin_status(&mut buf);
        assert_eq!(
            AdminRequest::decode(&buf[4..]).expect("decodes"),
            AdminRequest::Status
        );
        assert_eq!(
            decode_admin_reply(&Srv::Ok.encode()[4..]),
            Ok(AdminReply::Ok)
        );
        let refused = Srv::Refused(bolt_server::AdminError {
            code: 2,
            detail: "dup".into(),
        });
        assert_eq!(
            decode_admin_reply(&refused.encode()[4..]),
            Ok(AdminReply::Refused(2))
        );
        assert!(decode_admin_reply(&[0; 12]).is_err());
    }
}
