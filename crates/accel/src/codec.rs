//! Bounds-checked primitive encoding: the one byte-level reader and writer
//! every codec in the workspace is built on — the wire crate's envelope
//! and payload codecs and the
//! family-owned bodies in [`crate::family`].
//!
//! All multi-byte integers are big-endian. Floats travel as their IEEE-754
//! bit patterns, so a value that round-trips the wire is *byte-identical*
//! to the original — the property the serving layer's cross-wire
//! determinism check relies on.
//!
//! [`ByteReader`] is total: every accessor checks the remaining input and
//! returns [`CodecError::Truncated`] instead of slicing out of bounds, and
//! collection counts are validated against both a protocol maximum and the
//! bytes actually remaining *before* any allocation.

// Dispatch and byte parsing face hostile input: panic hygiene (DESIGN.md §8).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// Hard cap on any encoded string (backend names, error messages, DNA
/// sequences).
pub const MAX_STRING_LEN: u32 = 1 << 20;

/// Hard cap on any encoded sequence (marked search items, SAT assignment
/// bits, histogram buckets, backend table rows).
pub const MAX_SEQUENCE_LEN: u32 = 1 << 20;

/// Hard cap on the clause count of an encoded formula.
pub const MAX_CLAUSES: u32 = 1 << 20;

/// Hard cap on the width (literal count) of one encoded clause.
pub const MAX_CLAUSE_WIDTH: u32 = 1 << 10;

/// Everything that can go wrong encoding or decoding bytes. The wire crate
/// converts these one-to-one onto the `WireError` variants of the same
/// names.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The input ended before the field being decoded.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// The input decoded cleanly but left unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// A length prefix exceeded its maximum.
    TooLarge {
        /// What was being decoded.
        context: &'static str,
        /// The claimed length.
        len: u64,
        /// The maximum allowed.
        max: u64,
    },
    /// A field decoded but failed semantic validation (bad UTF-8, an
    /// out-of-range flag, an unregistered family tag).
    Invalid {
        /// What was being decoded.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { context } => {
                write!(f, "truncated input while decoding {context}")
            }
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete message")
            }
            CodecError::TooLarge { context, len, max } => {
                write!(f, "{context} length {len} exceeds maximum {max}")
            }
            CodecError::Invalid { context, detail } => {
                write!(f, "invalid {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an optional `u64` as a presence flag plus the value.
    #[inline]
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends raw bytes with no length prefix. Callers write a
    /// cap-validated length field first (the generic family frame does).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a collection count (or any size that must fit its `u32`
    /// field) after checking it against `max` — the writer-side twin of
    /// [`ByteReader::get_count`].
    ///
    /// # Errors
    ///
    /// [`CodecError::TooLarge`] above `max`.
    pub fn put_count(
        &mut self,
        len: usize,
        max: u32,
        context: &'static str,
    ) -> Result<(), CodecError> {
        match u32::try_from(len) {
            Ok(count) if count <= max => {
                self.put_u32(count);
                Ok(())
            }
            _ => Err(CodecError::TooLarge {
                context,
                len: len as u64,
                max: u64::from(max),
            }),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooLarge`] when the string exceeds
    /// [`MAX_STRING_LEN`] bytes.
    pub fn put_str(&mut self, s: &str) -> Result<(), CodecError> {
        self.put_count(s.len(), MAX_STRING_LEN, "string")?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// A checked decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — strict decoders call
    /// this last so a frame cannot smuggle trailing garbage.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when input remains.
    #[inline]
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }

    #[inline]
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        let slice = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(CodecError::Truncated { context })?;
        self.pos += n;
        Ok(slice)
    }

    /// Reads exactly `N` bytes as an array. The length mismatch arm is
    /// unreachable — `take` already returned an `N`-byte slice — but it
    /// degrades to a `Truncated` error rather than a panic.
    #[inline]
    fn take_arr<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CodecError> {
        self.take(N, context)?
            .try_into()
            .map_err(|_| CodecError::Truncated { context })
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    #[inline]
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(u8::from_be_bytes(self.take_arr(context)?))
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    #[inline]
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_be_bytes(self.take_arr(context)?))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    #[inline]
    pub(crate) fn get_u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take_arr(context)?))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    #[inline]
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take_arr(context)?))
    }

    /// Reads a big-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    #[inline]
    pub(crate) fn get_i64(&mut self, context: &'static str) -> Result<i64, CodecError> {
        Ok(i64::from_be_bytes(self.take_arr(context)?))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    #[inline]
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    /// Reads a `u64` decoded into `usize`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input; [`CodecError::Invalid`]
    /// when the value does not fit a `usize`.
    #[inline]
    pub(crate) fn get_usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.get_u64(context)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid {
            context,
            detail: format!("{v} does not fit a usize"),
        })
    }

    /// Reads an optional `u64` (presence flag plus value).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input; [`CodecError::Invalid`]
    /// for a flag byte other than 0/1.
    #[inline]
    pub fn get_opt_u64(&mut self, context: &'static str) -> Result<Option<u64>, CodecError> {
        match self.get_u8(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64(context)?)),
            flag => Err(CodecError::Invalid {
                context,
                detail: format!("option flag must be 0 or 1, got {flag}"),
            }),
        }
    }

    /// Reads a collection count, rejecting counts above `max` or counts
    /// whose elements (at `min_elem_bytes` each) could not possibly fit in
    /// the remaining input. This makes `Vec::with_capacity(count)` safe:
    /// a hostile length prefix can never trigger a large allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooLarge`] above `max`; [`CodecError::Truncated`] when
    /// the remaining input is provably too short.
    #[inline]
    pub fn get_count(
        &mut self,
        max: u32,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, CodecError> {
        let count = self.get_u32(context)?;
        if count > max {
            return Err(CodecError::TooLarge {
                context,
                len: u64::from(count),
                max: u64::from(max),
            });
        }
        let count = count as usize;
        if count.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(CodecError::Truncated { context });
        }
        Ok(count)
    }

    /// Reads exactly `len` raw bytes. Callers must have validated `len`
    /// against a protocol cap *and* the remaining input first (via
    /// [`ByteReader::get_count`]); this only re-checks the input bound.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `len` bytes remain.
    #[inline]
    pub fn get_bytes(&mut self, len: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        self.take(len, context)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError::TooLarge`], [`CodecError::Truncated`], or
    /// [`CodecError::Invalid`] for non-UTF-8 bytes.
    pub fn get_str(&mut self, context: &'static str) -> Result<String, CodecError> {
        let len = self.get_u32(context)?;
        if len > MAX_STRING_LEN {
            return Err(CodecError::TooLarge {
                context,
                len: u64::from(len),
                max: u64::from(MAX_STRING_LEN),
            });
        }
        let bytes = self.take(len as usize, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError::Invalid {
            context,
            detail: format!("invalid utf-8: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(std::f64::consts::PI);
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        w.put_str("héllo").unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("t").unwrap(), 7);
        assert_eq!(r.get_u16("t").unwrap(), 300);
        assert_eq!(r.get_u32("t").unwrap(), 70_000);
        assert_eq!(r.get_u64("t").unwrap(), u64::MAX);
        assert_eq!(r.get_i64("t").unwrap(), -42);
        assert_eq!(r.get_f64("t").unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_opt_u64("t").unwrap(), Some(9));
        assert_eq!(r.get_opt_u64("t").unwrap(), None);
        assert_eq!(r.get_str("t").unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let mut w = ByteWriter::new();
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_f64("t").unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32("field"),
            Err(CodecError::Truncated { context: "field" })
        ));
        // The failed read consumed nothing usable but the reader is still safe.
        assert!(r.get_u16("field").is_ok());
    }

    #[test]
    fn string_limits_enforced() {
        // Claimed length far beyond the buffer.
        let mut w = ByteWriter::new();
        w.put_u32(1000);
        w.put_u8(b'x');
        let bytes = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&bytes).get_str("s"),
            Err(CodecError::Truncated { .. })
        ));
        // Claimed length beyond the protocol cap.
        let mut w = ByteWriter::new();
        w.put_u32(MAX_STRING_LEN + 1);
        let bytes = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&bytes).get_str("s"),
            Err(CodecError::TooLarge { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xff);
        w.put_u8(0xfe);
        let bytes = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&bytes).get_str("s"),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn hostile_count_rejected_before_allocation() {
        // A count of ~4 billion with 2 bytes of input must fail fast.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_count(u32::MAX, 8, "list"),
            Err(CodecError::Truncated { .. })
        ));
        // And a count above the protocol cap fails even if bytes remain.
        let mut w = ByteWriter::new();
        w.put_u32(100);
        for _ in 0..100 {
            w.put_u8(0);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_count(10, 1, "list"),
            Err(CodecError::TooLarge { .. })
        ));
    }

    #[test]
    fn bad_option_flag_rejected() {
        let bytes = [2u8];
        assert!(matches!(
            ByteReader::new(&bytes).get_opt_u64("opt"),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn finish_rejects_trailing() {
        let bytes = [0u8; 3];
        let mut r = ByteReader::new(&bytes);
        let _ = r.get_u8("t").unwrap();
        assert!(matches!(
            r.finish(),
            Err(CodecError::TrailingBytes { count: 2 })
        ));
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = ByteWriter::new();
        assert!(w.buf.is_empty());
        w.put_u32(1);
        assert_eq!(w.into_bytes().len(), 4);
    }
}
