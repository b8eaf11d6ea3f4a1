//! FNV-1a, the workspace's one non-cryptographic hash: canonical kernel
//! keys, consistent-hash ring points, fault and probe-phase seeds, and the
//! outcome digests of the determinism checks all fold bytes through it, so
//! a value computed in one crate can be recomputed in another.

/// An incremental 64-bit FNV-1a over a structured byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one byte in.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }

    /// Folds a byte slice in, in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Folds a `u64` in as its eight big-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }

    /// The hash of everything folded in so far.
    #[must_use]
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of one byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // A `u64` folds in as its big-endian bytes.
        let mut h = Fnv1a::new();
        h.u64(0x666f_6f62_6172_0000);
        assert_eq!(h.finish(), fnv1a(b"foobar\0\0"));
    }
}
