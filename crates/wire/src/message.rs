//! Request/response envelopes and the protocol-version check.
//!
//! Requests carry tags `0x01..=0x05`, responses `0x81..=0x86` — disjoint
//! ranges so a peer that confuses the two directions fails loudly with
//! [`WireError::UnknownTag`] instead of misparsing. Every `decode_*`
//! consumes the whole payload and rejects trailing bytes.

use crate::payload::{
    get_kernel, get_outcome, get_policy, get_stats, put_kernel, put_outcome, put_policy, put_stats,
    WireOutcome,
};
use crate::{read_frame, write_frame, WireError, PROTOCOL_VERSION};
use accel::codec::{ByteReader, ByteWriter};
use accel::host::DispatchPolicy;
use accel::kernel::Kernel;
use runtime::RuntimeStats;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens a connection: the client's supported protocol-version range.
    Hello {
        /// Lowest protocol version the client speaks.
        min_version: u16,
        /// Highest protocol version the client speaks.
        max_version: u16,
    },
    /// Liveness probe; the server echoes `token` in a `Pong`.
    Ping {
        /// Opaque echo token.
        token: u64,
    },
    /// Submits a kernel for execution.
    Submit {
        /// Client-chosen id echoed in the matching [`Response::JobResult`].
        request_id: u64,
        /// Optional queue deadline in milliseconds.
        timeout_ms: Option<u64>,
        /// Optional explicit backend seed (for cross-run determinism).
        seed: Option<u64>,
        /// Optional per-job dispatch-policy override.
        policy: Option<DispatchPolicy>,
        /// The kernel to execute.
        kernel: Kernel,
    },
    /// Requests cancellation of an in-flight submission.
    Cancel {
        /// The id passed to the original `Submit`.
        request_id: u64,
    },
    /// Requests a [`RuntimeStats`] snapshot.
    GetStats {
        /// Client-chosen id echoed in the matching [`Response::Stats`].
        request_id: u64,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Accepts the connection.
    HelloAck {
        /// The version both sides speak ([`PROTOCOL_VERSION`]).
        version: u16,
    },
    /// Echo of a [`Request::Ping`].
    Pong {
        /// The token from the ping.
        token: u64,
    },
    /// Terminal outcome of a submitted job.
    JobResult {
        /// The id from the originating `Submit`.
        request_id: u64,
        /// What happened to the job.
        outcome: WireOutcome,
    },
    /// Result of a [`Request::Cancel`].
    CancelResult {
        /// The id from the originating `Submit`.
        request_id: u64,
        /// Whether the cancel landed before the job finished.
        cancelled: bool,
    },
    /// A [`RuntimeStats`] snapshot.
    Stats {
        /// The id from the originating `GetStats`.
        request_id: u64,
        /// The snapshot.
        stats: RuntimeStats,
    },
    /// A request- or connection-level error.
    Error {
        /// The offending request's id, or 0 for connection-level errors.
        request_id: u64,
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Machine-readable error categories carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The server is at its connection limit.
    Busy,
    /// The request could not be decoded.
    Malformed,
    /// The peer's version range does not contain this build's version.
    UnsupportedVersion,
    /// The kernel failed submission-time validation.
    InvalidKernel,
    /// The job queue rejected the submission.
    QueueFull,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Busy => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::UnsupportedVersion => 3,
            ErrorCode::InvalidKernel => 4,
            ErrorCode::QueueFull => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Internal => 7,
        }
    }

    fn from_u8(code: u8) -> Result<Self, WireError> {
        match code {
            1 => Ok(ErrorCode::Busy),
            2 => Ok(ErrorCode::Malformed),
            3 => Ok(ErrorCode::UnsupportedVersion),
            4 => Ok(ErrorCode::InvalidKernel),
            5 => Ok(ErrorCode::QueueFull),
            6 => Ok(ErrorCode::ShuttingDown),
            7 => Ok(ErrorCode::Internal),
            tag => Err(WireError::UnknownTag {
                context: "error code",
                tag,
            }),
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedVersion => "unsupported version",
            ErrorCode::InvalidKernel => "invalid kernel",
            ErrorCode::QueueFull => "queue full",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

const TAG_HELLO: u8 = 0x01;
const TAG_PING: u8 = 0x02;
const TAG_SUBMIT: u8 = 0x03;
const TAG_CANCEL: u8 = 0x04;
const TAG_GET_STATS: u8 = 0x05;

const TAG_HELLO_ACK: u8 = 0x81;
const TAG_PONG: u8 = 0x82;
const TAG_JOB_RESULT: u8 = 0x83;
const TAG_CANCEL_RESULT: u8 = 0x84;
const TAG_STATS: u8 = 0x85;
const TAG_ERROR: u8 = 0x86;

/// Encodes one request to a frame payload.
///
/// # Errors
///
/// [`WireError::TooLarge`] for out-of-bounds field sizes.
pub fn encode_request(request: &Request) -> Result<Vec<u8>, WireError> {
    let mut w = ByteWriter::new();
    match request {
        Request::Hello {
            min_version,
            max_version,
        } => {
            w.put_u8(TAG_HELLO);
            w.put_u16(*min_version);
            w.put_u16(*max_version);
        }
        Request::Ping { token } => {
            w.put_u8(TAG_PING);
            w.put_u64(*token);
        }
        Request::Submit {
            request_id,
            timeout_ms,
            seed,
            policy,
            kernel,
        } => {
            w.put_u8(TAG_SUBMIT);
            w.put_u64(*request_id);
            w.put_opt_u64(*timeout_ms);
            w.put_opt_u64(*seed);
            put_policy(&mut w, *policy);
            put_kernel(&mut w, kernel)?;
        }
        Request::Cancel { request_id } => {
            w.put_u8(TAG_CANCEL);
            w.put_u64(*request_id);
        }
        Request::GetStats { request_id } => {
            w.put_u8(TAG_GET_STATS);
            w.put_u64(*request_id);
        }
    }
    Ok(w.into_bytes())
}

/// Decodes one request from a frame payload, rejecting trailing bytes.
///
/// # Errors
///
/// Any [`WireError`] decoding variant; never panics on hostile input.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let mut r = ByteReader::new(bytes);
    let request = match r.get_u8("request tag")? {
        TAG_HELLO => Request::Hello {
            min_version: r.get_u16("hello min version")?,
            max_version: r.get_u16("hello max version")?,
        },
        TAG_PING => Request::Ping {
            token: r.get_u64("ping token")?,
        },
        TAG_SUBMIT => {
            let request_id = r.get_u64("submit request id")?;
            let timeout_ms = r.get_opt_u64("submit timeout")?;
            let seed = r.get_opt_u64("submit seed")?;
            let policy = get_policy(&mut r)?;
            let kernel = get_kernel(&mut r)?;
            Request::Submit {
                request_id,
                timeout_ms,
                seed,
                policy,
                kernel,
            }
        }
        TAG_CANCEL => Request::Cancel {
            request_id: r.get_u64("cancel request id")?,
        },
        TAG_GET_STATS => Request::GetStats {
            request_id: r.get_u64("stats request id")?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                context: "request",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(request)
}

/// Encodes one response to a frame payload.
///
/// # Errors
///
/// [`WireError::TooLarge`] for out-of-bounds field sizes.
pub fn encode_response(response: &Response) -> Result<Vec<u8>, WireError> {
    let mut w = ByteWriter::new();
    match response {
        Response::HelloAck { version } => {
            w.put_u8(TAG_HELLO_ACK);
            w.put_u16(*version);
        }
        Response::Pong { token } => {
            w.put_u8(TAG_PONG);
            w.put_u64(*token);
        }
        Response::JobResult {
            request_id,
            outcome,
        } => {
            w.put_u8(TAG_JOB_RESULT);
            w.put_u64(*request_id);
            put_outcome(&mut w, outcome)?;
        }
        Response::CancelResult {
            request_id,
            cancelled,
        } => {
            w.put_u8(TAG_CANCEL_RESULT);
            w.put_u64(*request_id);
            w.put_u8(u8::from(*cancelled));
        }
        Response::Stats { request_id, stats } => {
            w.put_u8(TAG_STATS);
            w.put_u64(*request_id);
            put_stats(&mut w, stats)?;
        }
        Response::Error {
            request_id,
            code,
            message,
        } => {
            w.put_u8(TAG_ERROR);
            w.put_u64(*request_id);
            w.put_u8(code.to_u8());
            w.put_str(message)?;
        }
    }
    Ok(w.into_bytes())
}

/// Decodes one response from a frame payload, rejecting trailing bytes.
///
/// # Errors
///
/// Any [`WireError`] decoding variant; never panics on hostile input.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let mut r = ByteReader::new(bytes);
    let response = match r.get_u8("response tag")? {
        TAG_HELLO_ACK => Response::HelloAck {
            version: r.get_u16("ack version")?,
        },
        TAG_PONG => Response::Pong {
            token: r.get_u64("pong token")?,
        },
        TAG_JOB_RESULT => Response::JobResult {
            request_id: r.get_u64("result request id")?,
            outcome: get_outcome(&mut r)?,
        },
        TAG_CANCEL_RESULT => Response::CancelResult {
            request_id: r.get_u64("cancel request id")?,
            cancelled: match r.get_u8("cancelled flag")? {
                0 => false,
                1 => true,
                flag => {
                    return Err(WireError::Invalid {
                        context: "cancelled flag",
                        detail: format!("expected 0 or 1, got {flag}"),
                    })
                }
            },
        },
        TAG_STATS => Response::Stats {
            request_id: r.get_u64("stats request id")?,
            stats: get_stats(&mut r)?,
        },
        TAG_ERROR => Response::Error {
            request_id: r.get_u64("error request id")?,
            code: ErrorCode::from_u8(r.get_u8("error code")?)?,
            message: r.get_str("error message")?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                context: "response",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(response)
}

/// Checks a client's advertised version range: `Some(PROTOCOL_VERSION)`
/// when the range contains the one version this build speaks, `None`
/// otherwise (older-only, newer-only, or inverted ranges).
#[must_use]
pub fn negotiate(client_min: u16, client_max: u16) -> Option<u16> {
    (client_min..=client_max)
        .contains(&PROTOCOL_VERSION)
        .then_some(PROTOCOL_VERSION)
}

/// Why [`handshake`] did not end in a `HelloAck` for [`PROTOCOL_VERSION`].
#[derive(Debug)]
pub enum HandshakeError {
    /// The transport or the codec failed.
    Wire(WireError),
    /// The peer answered with anything else: a `HelloAck` for another
    /// version, an `Error` frame (`Busy`, `UnsupportedVersion`, …), or a
    /// response that has no place in a handshake.
    Refused(Box<Response>),
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let response = match self {
            HandshakeError::Wire(e) => return write!(f, "{e}"),
            HandshakeError::Refused(response) => response.as_ref(),
        };
        match response {
            Response::HelloAck { version } => write!(
                f,
                "peer acknowledged version {version}, this build speaks only {PROTOCOL_VERSION}"
            ),
            Response::Error { code, message, .. } => write!(f, "{code}: {message}"),
            other => write!(f, "handshake answered with {other:?}"),
        }
    }
}

impl From<WireError> for HandshakeError {
    fn from(e: WireError) -> Self {
        HandshakeError::Wire(e)
    }
}

/// The client side of the version handshake, over any blocking stream:
/// sends `Hello` for exactly [`PROTOCOL_VERSION`], reads one frame, and
/// accepts only a `HelloAck` for that version.
///
/// A server at its connection limit writes its `Busy` refusal and hangs
/// up without reading, so the `Hello` write can fail (broken pipe) with
/// the refusal already buffered: when the write fails, a refusal that
/// can still be read is the error reported.
///
/// # Errors
///
/// [`HandshakeError::Wire`] for transport and codec failures,
/// [`HandshakeError::Refused`] carrying whatever else the peer said.
pub fn handshake<S: std::io::Read + std::io::Write>(stream: &mut S) -> Result<(), HandshakeError> {
    let hello = encode_request(&Request::Hello {
        min_version: PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
    })?;
    if let Err(sent) = write_frame(stream, &hello) {
        return match read_frame(stream).and_then(|payload| decode_response(&payload)) {
            Ok(refusal @ Response::Error { .. }) => Err(HandshakeError::Refused(Box::new(refusal))),
            _ => Err(sent.into()),
        };
    }
    match decode_response(&read_frame(stream)?)? {
        Response::HelloAck {
            version: PROTOCOL_VERSION,
        } => Ok(()),
        other => Err(HandshakeError::Refused(Box::new(other))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::family::{ColoringSpec, FamilyKernel, FamilyResult};
    use accel::kernel::{CostReport, KernelResult};

    fn round_trip_request(request: &Request) -> Request {
        decode_request(&encode_request(request).unwrap()).unwrap()
    }

    fn round_trip_response(response: &Response) -> Response {
        decode_response(&encode_response(response).unwrap()).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Hello {
                min_version: 1,
                max_version: 3,
            },
            Request::Ping { token: 0xDEAD_BEEF },
            Request::Submit {
                request_id: 7,
                timeout_ms: Some(250),
                seed: Some(42),
                policy: Some(DispatchPolicy::MinPredictedLatency),
                kernel: Kernel::Factor { n: 77 },
            },
            Request::Submit {
                request_id: 8,
                timeout_ms: None,
                seed: None,
                policy: None,
                kernel: Kernel::Compare { x: 0.1, y: 0.9 },
            },
            Request::Cancel { request_id: 7 },
            Request::GetStats { request_id: 9 },
        ];
        for request in &requests {
            assert_eq!(&round_trip_request(request), request);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::HelloAck { version: 1 },
            Response::Pong { token: 3 },
            Response::JobResult {
                request_id: 7,
                outcome: WireOutcome::Completed {
                    backend: "oscillator".into(),
                    result: KernelResult::Similarity(0.5),
                    cost: CostReport {
                        device_seconds: 2e-6,
                        operations: 64,
                    },
                    wall_nanos: 1_234,
                },
            },
            Response::JobResult {
                request_id: 8,
                outcome: WireOutcome::TimedOut,
            },
            Response::CancelResult {
                request_id: 7,
                cancelled: true,
            },
            Response::Stats {
                request_id: 9,
                stats: RuntimeStats::default(),
            },
            Response::Error {
                request_id: 0,
                code: ErrorCode::Busy,
                message: "server at connection limit".into(),
            },
        ];
        for response in &responses {
            assert_eq!(&round_trip_response(response), response);
        }
    }

    #[test]
    fn direction_confusion_fails_loudly() {
        let request = encode_request(&Request::Ping { token: 1 }).unwrap();
        assert!(matches!(
            decode_response(&request),
            Err(WireError::UnknownTag {
                context: "response",
                ..
            })
        ));
        let response = encode_response(&Response::Pong { token: 1 }).unwrap();
        assert!(matches!(
            decode_request(&response),
            Err(WireError::UnknownTag {
                context: "request",
                ..
            })
        ));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Busy,
            ErrorCode::Malformed,
            ErrorCode::UnsupportedVersion,
            ErrorCode::InvalidKernel,
            ErrorCode::QueueFull,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()).unwrap(), code);
            assert!(!code.to_string().is_empty());
        }
        assert!(ErrorCode::from_u8(0).is_err());
        assert!(ErrorCode::from_u8(200).is_err());
    }

    #[test]
    fn negotiation_accepts_only_ranges_containing_the_version() {
        assert_eq!(
            negotiate(PROTOCOL_VERSION, PROTOCOL_VERSION),
            Some(PROTOCOL_VERSION)
        );
        assert_eq!(negotiate(1, 99), Some(PROTOCOL_VERSION));
        // Client only speaks versions newer than ours.
        assert_eq!(negotiate(PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 5), None);
        // Client only speaks versions older than ours.
        assert_eq!(negotiate(1, PROTOCOL_VERSION - 1), None);
        // Inverted range is nonsense.
        assert_eq!(negotiate(PROTOCOL_VERSION + 1, PROTOCOL_VERSION - 1), None);
    }

    /// A peer that has already answered and hung up: every write fails
    /// with a broken pipe, reads return what it sent before closing.
    struct HungUp(std::io::Cursor<Vec<u8>>);

    impl std::io::Read for HungUp {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl std::io::Write for HungUp {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn hung_up_after(response: Option<&Response>) -> HungUp {
        let mut sent = Vec::new();
        if let Some(response) = response {
            write_frame(&mut sent, &encode_response(response).unwrap()).unwrap();
        }
        HungUp(std::io::Cursor::new(sent))
    }

    #[test]
    fn a_refusal_buffered_before_the_hangup_beats_the_failed_hello() {
        let busy = Response::Error {
            request_id: 0,
            code: ErrorCode::Busy,
            message: "server at its 1-connection limit".into(),
        };
        match handshake(&mut hung_up_after(Some(&busy))) {
            Err(HandshakeError::Refused(response)) => assert_eq!(*response, busy),
            other => panic!("expected the Busy refusal, got {other:?}"),
        }
        // Nothing buffered, or an ack that cannot count after a failed
        // Hello: the write error stands.
        let ack = Response::HelloAck {
            version: PROTOCOL_VERSION,
        };
        for mut peer in [hung_up_after(None), hung_up_after(Some(&ack))] {
            match handshake(&mut peer) {
                Err(HandshakeError::Wire(WireError::Io(e))) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe);
                }
                other => panic!("expected the write error, got {other:?}"),
            }
        }
    }

    fn family_submit() -> Request {
        Request::Submit {
            request_id: 21,
            timeout_ms: None,
            seed: Some(9),
            policy: None,
            kernel: Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                n_vertices: 3,
                n_colors: 2,
                edges: vec![(0, 1), (1, 2)],
            })),
        }
    }

    #[test]
    fn family_submit_round_trips() {
        let submit = family_submit();
        let bytes = encode_request(&submit).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), submit);
        let result = Response::JobResult {
            request_id: 21,
            outcome: WireOutcome::Completed {
                backend: "oscillator".into(),
                result: KernelResult::Family(FamilyResult::Coloring {
                    colors: vec![0, 1, 0],
                    conflicts: 0,
                }),
                cost: CostReport {
                    device_seconds: 5.6e-6,
                    operations: 3,
                },
                wall_nanos: 900,
            },
        };
        let bytes = encode_response(&result).unwrap();
        assert_eq!(decode_response(&bytes).unwrap(), result);
    }

    #[test]
    fn truncated_envelopes_error_not_panic() {
        let full = encode_request(&Request::Submit {
            request_id: 3,
            timeout_ms: Some(100),
            seed: None,
            policy: Some(DispatchPolicy::PreferSpecialized),
            kernel: Kernel::Factor { n: 33 },
        })
        .unwrap();
        for cut in 0..full.len() {
            assert!(
                decode_request(&full[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        let full = encode_response(&Response::Error {
            request_id: 1,
            code: ErrorCode::Internal,
            message: "boom".into(),
        })
        .unwrap();
        for cut in 0..full.len() {
            assert!(
                decode_response(&full[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }
}
