//! The wire protocol of the network serving layer.
//!
//! The paper's system view (Figs. 1–2) — and Britt & Humble's HPC framing —
//! treat exotic accelerators as *services reached across a host boundary*,
//! not linked libraries. This crate defines the boundary: a hand-rolled,
//! versioned, length-prefixed binary protocol that carries kernels to a
//! remote [`runtime::Runtime`] and results back, using only `std`.
//!
//! # Frame layout
//!
//! Every frame on the socket is
//!
//! ```text
//! +----------+----------------+------------------+
//! | magic    | payload length | payload          |
//! | 4 bytes  | u32 big-endian | ≤ MAX_FRAME_LEN  |
//! +----------+----------------+------------------+
//! ```
//!
//! and the payload starts with a one-byte message tag (see `message`).
//! A connection opens with a `Hello { min_version, max_version }` request;
//! the server answers `HelloAck { version }` when the range contains
//! [`PROTOCOL_VERSION`], or an `UnsupportedVersion` error frame and a close.
//!
//! # Robustness contract
//!
//! Decoding is total: *no* input — truncated, oversized, wrong-magic,
//! wrong-version, or random bytes — may panic or trigger an unbounded
//! allocation. Every length field is bounds-checked against both a
//! protocol maximum and the bytes actually remaining in the frame before
//! any allocation happens.
//!
//! * [`accel::codec`] — the bounds-checked primitive reader/writer (one
//!   copy for the workspace), which every module here builds on;
//! * `frame` — magic + length-prefix framing: the writer, the blocking
//!   one-frame reader, and [`FrameBuffer`], the incremental reader
//!   non-blocking sockets fill, sharing one header check;
//! * `payload` — the one kernel/result frame writer and reader (the
//!   body inside a frame is its family's, [`accel::family`]), plus codecs
//!   for [`accel::kernel::CostReport`], job outcomes and the
//!   self-describing [`runtime::RuntimeStats`] row;
//! * `message` — the request/response envelopes, the version check and
//!   the client side of the handshake ([`handshake`]).
//!
//! # Example
//!
//! ```
//! use accel::kernel::Kernel;
//! use wire::{decode_request, encode_request, Request};
//!
//! let req = Request::Submit {
//!     request_id: 7,
//!     timeout_ms: Some(250),
//!     seed: None,
//!     policy: None,
//!     kernel: Kernel::Factor { n: 21 },
//! };
//! let bytes = encode_request(&req)?;
//! assert_eq!(decode_request(&bytes)?, req);
//! # Ok::<(), wire::WireError>(())
//! ```

mod chaos;
mod frame;
mod message;
mod payload;

use accel::codec::CodecError;
pub use accel::codec::{MAX_CLAUSES, MAX_CLAUSE_WIDTH, MAX_SEQUENCE_LEN, MAX_STRING_LEN};
pub use chaos::{ChaosStream, StreamFault};
pub use frame::{read_frame, write_frame, Fill, FrameBuffer};
pub use message::{
    decode_request, decode_response, encode_request, encode_response, handshake, negotiate,
    ErrorCode, HandshakeError, Request, Response,
};
pub use payload::{
    decode_kernel, decode_kernel_result, encode_kernel, encode_kernel_result, WireOutcome,
};

/// Magic bytes opening every frame ("ReBooting Computing Models").
pub const MAGIC: [u8; 4] = *b"RBCM";

/// The protocol version this build speaks — the only one.
///
/// One layout: `Submit` carries an optional per-job dispatch-policy byte;
/// `Stats` carries a counted row of `(name, kind, value)` entries — `u64`,
/// `f64`, histogram, or one named group per backend row — written from
/// the field tables in [`runtime::stats`] (see `payload`); a kernel and
/// a result each travel in one frame opened by their family's frame byte
/// ([`accel::family::FamilyInfo::frame`], a row of
/// [`accel::family::FAMILIES`]): `0`–`4` with the body inline for the
/// five families that predate the generic frame, `5` followed by the u16
/// family tag and a u32 length-prefixed body for every later one. The
/// bodies are written and read by `accel::family`'s body codecs — this
/// crate owns the frame, not what is in it.
///
/// Adding a stats counter is one field plus one table row: a field at its
/// default is not written, a missing entry reads as its default, and an
/// unknown name is skipped, so it needs no version bump and moves no
/// golden byte. The system is pre-1.0 and has no down-level peers: a
/// `Hello` whose range does not contain this version is refused with
/// [`WireError::UnsupportedVersion`] / [`ErrorCode::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u16 = 7;

/// Hard cap on a frame's payload length. A length prefix beyond this is
/// rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// Hard cap on the body of one generic frame (frame byte `5`).
/// Individual families enforce their own serving caps inside the body;
/// this one admits the largest body they allow, a QUBO at
/// [`accel::family::MAX_QUBO_TERMS`] linear and quadratic terms
/// (2 621 456 bytes), and leaves room for the rest of a request inside
/// [`MAX_FRAME_LEN`].
pub(crate) const MAX_FAMILY_BODY: u32 = 3 << 20;

/// Everything that can go wrong encoding, decoding, or framing.
#[derive(Debug)]
pub enum WireError {
    /// An underlying socket/stream error.
    Io(std::io::Error),
    /// The input ended before the field being decoded.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// A frame payload decoded cleanly but left unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// The frame did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually read.
        found: [u8; 4],
    },
    /// A length prefix exceeded its protocol maximum.
    TooLarge {
        /// What was being decoded.
        context: &'static str,
        /// The claimed length.
        len: u64,
        /// The maximum the protocol allows.
        max: u64,
    },
    /// The peer requested a protocol version range we do not speak.
    UnsupportedVersion {
        /// The peer's minimum version.
        min: u16,
        /// The peer's maximum version.
        max: u16,
    },
    /// An unknown message/variant tag.
    UnknownTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A field decoded but failed semantic validation (bad UTF-8, invalid
    /// formula, out-of-range count).
    Invalid {
        /// What was being decoded.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Truncated { context } => {
                write!(f, "truncated input while decoding {context}")
            }
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete message")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected {MAGIC:02x?})")
            }
            WireError::TooLarge { context, len, max } => {
                write!(f, "{context} length {len} exceeds protocol maximum {max}")
            }
            WireError::UnsupportedVersion { min, max } => write!(
                f,
                "peer speaks protocol versions {min}..={max}; this build speaks \
                 only {PROTOCOL_VERSION}"
            ),
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {context}")
            }
            WireError::Invalid { context, detail } => {
                write!(f, "invalid {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { context } => WireError::Truncated { context },
            CodecError::TrailingBytes { count } => WireError::TrailingBytes { count },
            CodecError::TooLarge { context, len, max } => WireError::TooLarge { context, len, max },
            CodecError::Invalid { context, detail } => WireError::Invalid { context, detail },
        }
    }
}

impl WireError {
    /// Whether this error is a clean end-of-stream (the peer closed the
    /// connection between frames), as opposed to a protocol violation.
    #[must_use]
    pub fn is_disconnect(&self) -> bool {
        matches!(self, WireError::Io(e) if matches!(
            e.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = WireError::Truncated { context: "kernel" };
        assert!(e.to_string().contains("kernel"));
        let e = WireError::BadMagic { found: *b"HTTP" };
        assert!(e.to_string().contains("48"));
        let e = WireError::UnsupportedVersion { min: 9, max: 12 };
        assert!(e.to_string().contains("9..=12"));
        let e = WireError::TooLarge {
            context: "string",
            len: 1 << 30,
            max: u64::from(MAX_STRING_LEN),
        };
        assert!(e.to_string().contains("maximum"));
    }

    #[test]
    fn disconnect_classification() {
        let eof = WireError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "eof",
        ));
        assert!(eof.is_disconnect());
        assert!(!WireError::Truncated { context: "x" }.is_disconnect());
        assert!(!WireError::BadMagic { found: [0; 4] }.is_disconnect());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WireError>();
    }
}
