//! Blocking client for the classification service.

use crate::proto::{
    is_v2, read_frame, write_frame, ClassifyBatchRequest, ClassifyBatchResponse,
    ClassifyBatchWithRequest, ClassifyRequest, ClassifyResponse, ClassifyWithRequest,
    ListModelsResponse, ProtoError, V2Response,
};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Object-safe byte stream the client can ride (Unix or TCP transport).
trait Transport: Read + Write + Send + std::fmt::Debug {}
impl<T: Read + Write + Send + std::fmt::Debug> Transport for T {}

/// A blocking client holding one connection to a
/// [`ClassificationServer`], over its Unix socket or a TCP listener.
///
/// Legacy methods ([`classify`](Self::classify),
/// [`classify_batch`](Self::classify_batch)) route to the server's
/// *default* model; the `_with` variants route to a named model in the
/// server's [`ModelStore`](crate::ModelStore), and
/// [`list_models`](Self::list_models) enumerates what is currently
/// served. Structured server rejections (unknown model, retired model,
/// unsupported protocol version) surface as [`ProtoError::Rejected`].
///
/// [`ClassificationServer`]: crate::ClassificationServer
#[derive(Debug)]
pub struct ClassificationClient {
    stream: Box<dyn Transport>,
}

impl ClassificationClient {
    /// Connects to a server's Unix domain socket.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the socket is absent or refuses.
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            stream: Box::new(UnixStream::connect(path)?),
        })
    }

    /// Connects to a server's TCP address (Nagle disabled for
    /// latency-sensitive single-sample requests).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the address refuses.
    pub fn connect_tcp(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Self> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: Box::new(stream),
        })
    }

    /// Reads one response frame and fails it if it is a structured error.
    fn read_response(&mut self) -> Result<Vec<u8>, ProtoError> {
        let payload = read_frame(&mut self.stream)?.ok_or(ProtoError::UnexpectedEof)?;
        if is_v2(&payload) {
            if let V2Response::Error(frame) = V2Response::decode(&payload)? {
                return Err(frame.into_error());
            }
        }
        Ok(payload)
    }

    /// Sends one sample to the server's default model and waits for its
    /// classification.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] on socket failure, a malformed response,
    /// the server closing mid-request, or [`ProtoError::Rejected`] when
    /// the server has no default model.
    pub fn classify(&mut self, features: &[f32]) -> Result<ClassifyResponse, ProtoError> {
        let request = ClassifyRequest {
            features: features.to_vec(),
        };
        write_frame(&mut self.stream, &request.encode())?;
        let payload = self.read_response()?;
        ClassifyResponse::decode(&payload)
    }

    /// Sends one sample to a *named* model and waits for its
    /// classification.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Rejected`] when the model is unknown or
    /// retired, plus every failure mode of [`classify`](Self::classify).
    pub fn classify_with(
        &mut self,
        model: &str,
        features: &[f32],
    ) -> Result<ClassifyResponse, ProtoError> {
        let request = ClassifyWithRequest {
            model: model.to_owned(),
            features: features.to_vec(),
        };
        write_frame(&mut self.stream, &request.encode()?)?;
        let payload = self.read_response()?;
        match V2Response::decode(&payload)? {
            V2Response::Classify(response) => Ok(response),
            other => Err(ProtoError::Malformed {
                detail: format!("expected a classify response, got {other:?}"),
            }),
        }
    }

    /// Sends a whole batch in one frame to the server's default model and
    /// waits for its classifications (one class per sample, in order).
    ///
    /// The server runs the batch through the engine's batched kernel, so
    /// this amortizes both the round trip and the per-sample scan cost.
    ///
    /// One frame carries at most [`MAX_BATCH_SAMPLES`] samples and
    /// [`MAX_FRAME_BYTES`] bytes (~262k floats); split larger batches
    /// across multiple calls.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] on socket failure, a malformed response,
    /// the server closing mid-request, [`ProtoError::Rejected`] when the
    /// server has no default model, or [`ProtoError::FrameTooLarge`] when
    /// the batch exceeds the per-frame limits (nothing is sent in that
    /// case).
    ///
    /// # Panics
    ///
    /// Panics if the samples do not all share one feature count.
    ///
    /// [`MAX_BATCH_SAMPLES`]: crate::proto::MAX_BATCH_SAMPLES
    /// [`MAX_FRAME_BYTES`]: crate::proto::MAX_FRAME_BYTES
    pub fn classify_batch(
        &mut self,
        samples: &[&[f32]],
    ) -> Result<ClassifyBatchResponse, ProtoError> {
        let request = ClassifyBatchRequest {
            samples: samples.iter().map(|s| s.to_vec()).collect(),
        };
        write_frame(&mut self.stream, &request.encode()?)?;
        let payload = self.read_response()?;
        ClassifyBatchResponse::decode(&payload)
    }

    /// Sends a whole batch to a *named* model and waits for its
    /// classifications.
    ///
    /// One v2 frame carries at most [`MAX_BATCH_SAMPLES_V2`] samples and
    /// [`MAX_FRAME_BYTES`] bytes; split larger batches across multiple
    /// calls.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Rejected`] when the model is unknown or
    /// retired, plus every failure mode of
    /// [`classify_batch`](Self::classify_batch).
    ///
    /// # Panics
    ///
    /// Panics if the samples do not all share one feature count.
    ///
    /// [`MAX_BATCH_SAMPLES_V2`]: crate::proto::MAX_BATCH_SAMPLES_V2
    /// [`MAX_FRAME_BYTES`]: crate::proto::MAX_FRAME_BYTES
    pub fn classify_batch_with(
        &mut self,
        model: &str,
        samples: &[&[f32]],
    ) -> Result<ClassifyBatchResponse, ProtoError> {
        let request = ClassifyBatchWithRequest {
            model: model.to_owned(),
            samples: samples.iter().map(|s| s.to_vec()).collect(),
        };
        write_frame(&mut self.stream, &request.encode()?)?;
        let payload = self.read_response()?;
        match V2Response::decode(&payload)? {
            V2Response::Batch(response) => Ok(response),
            other => Err(ProtoError::Malformed {
                detail: format!("expected a batch response, got {other:?}"),
            }),
        }
    }

    /// Asks the server which models it currently serves (sorted by name,
    /// with engine platform, live request count, and the default flag).
    ///
    /// Asks in protocol v3 first, which additionally carries each model's
    /// artifact version, residency, and on-disk size; a server that only
    /// speaks v2 answers *unsupported version* and the client silently
    /// retries in v2 — the extended fields then hold their defaults
    /// (`version` 0, `resident` true, `bytes` 0).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] on socket failure or a malformed
    /// response.
    pub fn list_models(&mut self) -> Result<ListModelsResponse, ProtoError> {
        write_frame(
            &mut self.stream,
            &crate::proto::encode_list_models_extended(),
        )?;
        let payload = match self.read_response() {
            Ok(payload) => payload,
            Err(ProtoError::Rejected { code, .. })
                if code == crate::proto::ERR_UNSUPPORTED_VERSION =>
            {
                // Pre-v3 server: fall back to the legacy listing shape.
                write_frame(&mut self.stream, &crate::proto::encode_list_models())?;
                self.read_response()?
            }
            Err(e) => return Err(e),
        };
        match V2Response::decode(&payload)? {
            V2Response::Models(response) => Ok(response),
            other => Err(ProtoError::Malformed {
                detail: format!("expected a model list, got {other:?}"),
            }),
        }
    }
}
