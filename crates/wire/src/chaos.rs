//! Deterministic stream-fault injection for the framed protocol.
//!
//! The transport-level half of the chaos story: where
//! `accel::fault::FaultPlan` makes *devices* lie, [`ChaosStream`] makes
//! the *socket* lie — frames truncate mid-payload, connections reset
//! between bytes, reads dribble in one-byte chunks. Wrapping any
//! `io::Read + io::Write` (a `TcpStream`, a test cursor) with a
//! [`StreamFault`] exercises the decoder's robustness contract and the
//! client's reconnect path under reproducible, seed-derived schedules.
//!
//! Faults are injected *below* the framing layer, so the peer observes
//! exactly what a flaky network produces: a clean `UnexpectedEof`, an
//! abrupt `ConnectionReset`, or byte-at-a-time progress — never a panic.

use numerics::rng::{Rng, SeedStream};
use std::io::{self, Read, Write};

/// One transport fault schedule, applied to a wrapped stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// The stream dies silently after this many bytes have crossed it in
    /// each direction: writes beyond the budget are swallowed (reported
    /// as written, never delivered) and reads beyond it return `Ok(0)` —
    /// the peer sees a truncated frame followed by a clean EOF.
    TruncateAfter(usize),
    /// The stream errors with [`io::ErrorKind::ConnectionReset`] once
    /// this many bytes have crossed it in the faulted direction — the
    /// mid-frame disconnect case.
    DisconnectAfter(usize),
    /// Reads make progress at most this many bytes at a time (writes are
    /// untouched) — the slow-read case. The framing layer must loop, not
    /// assume one `read` fills the buffer.
    SlowChunks(usize),
}

impl StreamFault {
    /// Derives a fault deterministically from a seed: same `(seed, span)`
    /// → same fault, every time. `span` bounds the byte offsets drawn for
    /// the truncate/disconnect variants (a span near the encoded traffic
    /// size lands faults mid-frame).
    #[must_use]
    pub fn seeded(seed: u64, span: usize) -> Self {
        let mut rng = SeedStream::new(seed ^ 0x57495245).next_rng();
        let cutoff = rng.gen_range(0..=span.max(1));
        match rng.gen_range(0u32..3) {
            0 => StreamFault::TruncateAfter(cutoff),
            1 => StreamFault::DisconnectAfter(cutoff),
            _ => StreamFault::SlowChunks(rng.gen_range(1..=3usize)),
        }
    }
}

/// A stream wrapper that injects one [`StreamFault`] into the byte flow.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    fault: StreamFault,
    read_bytes: usize,
    write_bytes: usize,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under the given fault schedule.
    pub fn new(inner: S, fault: StreamFault) -> Self {
        ChaosStream {
            inner,
            fault,
            read_bytes: 0,
            write_bytes: 0,
        }
    }
}

fn reset_error() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let budget = match self.fault {
            StreamFault::TruncateAfter(n) => {
                let left = n.saturating_sub(self.read_bytes);
                if left == 0 {
                    return Ok(0); // clean EOF past the truncation point
                }
                left
            }
            StreamFault::DisconnectAfter(n) => {
                let left = n.saturating_sub(self.read_bytes);
                if left == 0 {
                    return Err(reset_error());
                }
                left
            }
            StreamFault::SlowChunks(chunk) => chunk.max(1),
        };
        let want = buf.len().min(budget);
        #[expect(
            clippy::indexing_slicing,
            reason = "want is clamped to buf.len() on the previous line"
        )]
        let got = self.inner.read(&mut buf[..want])?;
        self.read_bytes += got;
        Ok(got)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.fault {
            StreamFault::TruncateAfter(n) => {
                let left = n.saturating_sub(self.write_bytes);
                if left == 0 {
                    // Swallow silently: the writer believes it succeeded,
                    // the peer never sees the bytes.
                    return Ok(buf.len());
                }
                let want = buf.len().min(left);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "want is clamped to buf.len() on the previous line"
                )]
                let wrote = self.inner.write(&buf[..want])?;
                self.write_bytes += wrote;
                // Report full success so the truncation is invisible to
                // the writer, exactly like a buffered kernel socket.
                if wrote == want {
                    self.write_bytes += buf.len() - want;
                    Ok(buf.len())
                } else {
                    Ok(wrote)
                }
            }
            StreamFault::DisconnectAfter(n) => {
                let left = n.saturating_sub(self.write_bytes);
                if left == 0 {
                    return Err(reset_error());
                }
                let want = buf.len().min(left);
                #[expect(
                    clippy::indexing_slicing,
                    reason = "want is clamped to buf.len() on the previous line"
                )]
                let wrote = self.inner.write(&buf[..want])?;
                self.write_bytes += wrote;
                Ok(wrote)
            }
            StreamFault::SlowChunks(_) => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::WireError;
    use std::io::Cursor;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn truncation_surfaces_as_wire_error_not_panic() {
        let bytes = framed(b"hello fault world");
        for cut in 0..bytes.len() {
            let mut stream =
                ChaosStream::new(Cursor::new(bytes.clone()), StreamFault::TruncateAfter(cut));
            let err = read_frame(&mut stream).unwrap_err();
            assert!(
                matches!(err, WireError::Io(_) | WireError::Truncated { .. }),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn disconnect_surfaces_as_connection_reset() {
        let bytes = framed(b"payload");
        let mut stream =
            ChaosStream::new(Cursor::new(bytes.clone()), StreamFault::DisconnectAfter(5));
        let err = read_frame(&mut stream).unwrap_err();
        match err {
            WireError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            other => panic!("unexpected {other:?}"),
        }
        // The classification helper treats it as a disconnect.
        let mut stream = ChaosStream::new(Cursor::new(bytes), StreamFault::DisconnectAfter(5));
        assert!(read_frame(&mut stream).unwrap_err().is_disconnect());
    }

    #[test]
    fn slow_reads_still_deliver_complete_frames() {
        let payload = b"slow but intact payload".to_vec();
        let bytes = framed(&payload);
        for chunk in 1..4 {
            let mut stream =
                ChaosStream::new(Cursor::new(bytes.clone()), StreamFault::SlowChunks(chunk));
            let got = read_frame(&mut stream).unwrap();
            assert_eq!(got, payload, "chunk size {chunk}");
        }
    }

    #[test]
    fn truncated_writes_are_silently_swallowed() {
        let mut sink = Vec::new();
        {
            let mut stream = ChaosStream::new(&mut sink, StreamFault::TruncateAfter(6));
            write_frame(&mut stream, b"doomed payload").unwrap();
        }
        assert_eq!(sink.len(), 6, "only the budgeted prefix reaches the peer");
        // A reader of that prefix sees a truncated frame, never a panic.
        let mut cursor = Cursor::new(sink);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn seeded_faults_are_reproducible_and_varied() {
        let a = StreamFault::seeded(42, 100);
        let b = StreamFault::seeded(42, 100);
        assert_eq!(a, b);
        // Across seeds all three variants appear.
        let mut saw = [false; 3];
        for seed in 0..64 {
            match StreamFault::seeded(seed, 100) {
                StreamFault::TruncateAfter(_) => saw[0] = true,
                StreamFault::DisconnectAfter(_) => saw[1] = true,
                StreamFault::SlowChunks(k) => {
                    assert!((1..=3).contains(&k));
                    saw[2] = true;
                }
            }
        }
        assert_eq!(saw, [true; 3]);
    }

    #[test]
    fn zero_budget_faults_fail_immediately() {
        let bytes = framed(b"x");
        let mut stream =
            ChaosStream::new(Cursor::new(bytes.clone()), StreamFault::TruncateAfter(0));
        assert!(read_frame(&mut stream).is_err());
        let mut stream = ChaosStream::new(Cursor::new(bytes), StreamFault::DisconnectAfter(0));
        assert!(read_frame(&mut stream).unwrap_err().is_disconnect());
    }
}
