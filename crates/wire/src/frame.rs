//! Framing: magic + length prefix over `io::Read` / `io::Write`.
//!
//! A frame is `[MAGIC (4 bytes)][payload length (u32 BE)][payload]`. Two
//! readers parse it: [`read_frame`] reads exactly one frame off a
//! blocking stream (the handshake's, which the caller goes on reading),
//! and [`FrameBuffer`] reassembles frames from whatever chunks a
//! non-blocking socket delivers. Both take the header through
//! `frame_len`, which refuses a wrong magic and then a length beyond
//! [`MAX_FRAME_LEN`] *before* any payload buffer
//! exists, so a hostile length prefix cannot OOM the receiver.

use crate::{WireError, MAGIC, MAX_FRAME_LEN};
use std::io::{self, ErrorKind, Read, Write};

/// Frame header size: 4 magic bytes plus a `u32` big-endian length.
const HEADER_LEN: usize = 8;

/// Read chunk size per [`FrameBuffer::fill_from`] call.
const READ_CHUNK: usize = 8192;

/// Compact the buffer (shift surviving bytes to the front) once this many
/// consumed bytes accumulate at the head.
const COMPACT_THRESHOLD: usize = 4096;

/// Writes one frame (magic, length, payload) and flushes.
///
/// # Errors
///
/// [`WireError::TooLarge`] when the payload exceeds
/// [`MAX_FRAME_LEN`]; [`WireError::Io`] on stream
/// failure.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let len = u64::try_from(payload.len()).unwrap_or(u64::MAX);
    if len > u64::from(MAX_FRAME_LEN) {
        return Err(WireError::TooLarge {
            context: "frame payload",
            len,
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    w.write_all(&MAGIC)?;
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// The payload length a frame header announces: a wrong magic fails
/// first, then a length beyond the cap.
fn frame_len(header: [u8; HEADER_LEN]) -> Result<usize, WireError> {
    let [m0, m1, m2, m3, l0, l1, l2, l3] = header;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let len = u32::from_be_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::TooLarge {
            context: "frame payload",
            len: u64::from(len),
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    Ok(len as usize)
}

/// Reads exactly one frame, returning its payload. Nothing past the
/// frame is consumed.
///
/// # Errors
///
/// [`WireError::BadMagic`] when the stream does not start with [`MAGIC`];
/// [`WireError::TooLarge`] for a length prefix beyond
/// [`MAX_FRAME_LEN`]; [`WireError::Io`] on stream
/// failure (an `UnexpectedEof` before the header completes is the peer
/// closing between frames — see [`WireError::is_disconnect`]).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let mut payload = vec![0u8; frame_len(header)?];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// What one non-blocking fill observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// This many bytes were appended to the buffer.
    Bytes(usize),
    /// The peer closed its write side; no more bytes will ever arrive.
    Eof,
    /// No bytes were available right now (`WouldBlock`).
    WouldBlock,
}

/// Buffered reassembly of frames from partial, non-blocking reads:
/// complete frames are peeled off as they finish, and truncation simply
/// waits for more bytes.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends up to one read's worth of bytes from a non-blocking
    /// source. `Err` is a real socket error; `WouldBlock` and
    /// `Interrupted` are normal non-blocking idioms and map to
    /// [`Fill::WouldBlock`].
    ///
    /// # Errors
    ///
    /// Any other read error.
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<Fill> {
        let mut chunk = [0u8; READ_CHUNK];
        match r.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                Ok(Fill::Bytes(n))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(Fill::WouldBlock),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(Fill::WouldBlock),
            Err(e) => Err(e),
        }
    }

    /// Peels off the next complete frame payload, if one has fully
    /// arrived.
    ///
    /// * `Ok(Some(payload))` — one frame, magic and length already
    ///   validated and stripped;
    /// * `Ok(None)` — the buffer holds only a partial frame so far;
    /// * `Err(..)` — the byte stream is unsalvageable (bad magic or an
    ///   oversized length prefix); the owner should drop the connection.
    ///
    /// # Errors
    ///
    /// As [`read_frame`] for the header.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Some(&header) = self
            .buf
            .get(self.start..)
            .and_then(<[u8]>::first_chunk::<HEADER_LEN>)
        else {
            return Ok(None);
        };
        let end = self.start + HEADER_LEN + frame_len(header)?;
        let Some(payload) = self
            .buf
            .get(self.start + HEADER_LEN..end)
            .map(<[u8]>::to_vec)
        else {
            return Ok(None);
        };
        self.start = end;
        self.compact();
        Ok(Some(payload))
    }

    /// Appends bytes directly.
    #[cfg(test)]
    fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn compact(&mut self) {
        if self.start >= self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{decode_request, encode_request, Request};

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    fn hello() -> Request {
        Request::Hello {
            min_version: 1,
            max_version: 5,
        }
    }

    #[test]
    fn frame_round_trip() {
        let buf = framed(b"hello frames");
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(payload, b"hello frames");
    }

    #[test]
    fn empty_payload_round_trips() {
        let buf = framed(b"");
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn back_to_back_frames() {
        let mut buf = framed(b"one");
        buf.extend_from_slice(&framed(b"two"));
        let mut cursor = buf.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap(), b"one");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"two");
        // A third read is a clean disconnect.
        assert!(read_frame(&mut cursor).unwrap_err().is_disconnect());
    }

    /// Which `WireError` variant a result carries, or "waits" for a
    /// reader that is still expecting bytes.
    fn verdict<T>(result: Result<Option<T>, WireError>) -> &'static str {
        match result {
            Ok(Some(_)) => "frame",
            Ok(None) => "waits",
            Err(WireError::BadMagic { .. }) => "bad-magic",
            Err(WireError::TooLarge { .. }) => "too-large",
            Err(WireError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => "truncated",
            Err(other) => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hostile_headers_fail_alike_in_both_readers() {
        let header = |magic: &[u8; 4], len: u32| {
            let mut h = magic.to_vec();
            h.extend_from_slice(&len.to_be_bytes());
            h
        };
        // (header bytes, blocking verdict, incremental verdict)
        let cases = [
            (b"HTTP/1.1 GET /".to_vec(), "bad-magic", "bad-magic"),
            (header(&MAGIC, MAX_FRAME_LEN + 1), "too-large", "too-large"),
            (header(&MAGIC, u32::MAX), "too-large", "too-large"),
            // At the cap with no payload: the blocking read runs out of
            // bytes; the incremental one waits for them.
            (header(&MAGIC, MAX_FRAME_LEN), "truncated", "waits"),
        ];
        for (bytes, blocking, incremental) in cases {
            let read = read_frame(&mut bytes.as_slice()).map(Some);
            assert_eq!(verdict(read), blocking, "read_frame on {bytes:?}");
            let mut fb = FrameBuffer::new();
            fb.push_bytes(&bytes);
            assert_eq!(
                verdict(fb.next_frame()),
                incremental,
                "next_frame on {bytes:?}"
            );
        }
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let full = framed(b"payload bytes");
        for cut in 0..full.len() {
            let err = read_frame(&mut &full[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_write_refused() {
        // Construct a frame just past the cap without allocating 4 GiB:
        // the check happens before any write.
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &payload),
            Err(WireError::TooLarge { .. })
        ));
        assert!(sink.is_empty());
    }

    #[test]
    fn reassembles_across_byte_at_a_time_delivery() {
        let bytes = framed(&encode_request(&hello()).unwrap());
        let mut fb = FrameBuffer::new();
        for (i, b) in bytes.iter().enumerate() {
            fb.push_bytes(&[*b]);
            let got = fb.next_frame().unwrap();
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "frame complete after {} bytes?", i + 1);
            } else {
                let payload = got.expect("frame should complete on final byte");
                assert_eq!(decode_request(&payload).unwrap(), hello());
            }
        }
        assert_eq!(fb.buf.len(), fb.start, "bytes left unconsumed");
    }

    #[test]
    fn peels_multiple_frames_from_one_fill() {
        let mut combined = framed(&encode_request(&hello()).unwrap());
        combined.extend_from_slice(&framed(
            &encode_request(&Request::GetStats { request_id: 9 }).unwrap(),
        ));
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&combined);
        assert!(fb.next_frame().unwrap().is_some());
        assert!(fb.next_frame().unwrap().is_some());
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn fill_from_reports_eof_and_bytes() {
        let bytes = framed(&encode_request(&hello()).unwrap());
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.fill_from(&mut cursor).unwrap(), Fill::Bytes(bytes.len()));
        assert_eq!(fb.fill_from(&mut cursor).unwrap(), Fill::Eof);
        assert!(fb.next_frame().unwrap().is_some());
    }

    #[test]
    fn compaction_preserves_pending_frames() {
        let frame = framed(&encode_request(&hello()).unwrap());
        let mut fb = FrameBuffer::new();
        // Enough consumed frames to cross the compaction threshold, with
        // a partial frame straddling the boundary.
        let rounds = COMPACT_THRESHOLD / frame.len() + 2;
        for _ in 0..rounds {
            fb.push_bytes(&frame);
        }
        let half = frame.len() / 2;
        fb.push_bytes(&frame[..half]);
        for _ in 0..rounds {
            assert!(fb.next_frame().unwrap().is_some());
        }
        assert!(fb.next_frame().unwrap().is_none());
        fb.push_bytes(&frame[half..]);
        assert!(fb.next_frame().unwrap().is_some());
        assert_eq!(fb.buf.len(), fb.start, "bytes left unconsumed");
    }
}
