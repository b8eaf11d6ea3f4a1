//! FNV-1a, the workspace's one non-cryptographic hash: canonical kernel
//! keys, consistent-hash ring points, fault and probe-phase seeds, and the
//! outcome digests of the determinism checks all fold bytes through it, so
//! a value computed in one crate can be recomputed in another.

/// The FNV-1a prime.
const PRIME: u64 = 0x100_0000_01b3;

/// `PRIME^k` for `k` in `0..=8`: folding in `k` zero bytes multiplies the
/// state by `PRIME` `k` times (the XOR with zero changes nothing).
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    powers
};

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
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
    }

    /// Folds a byte slice in, in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Folds a `u64` in as its eight big-endian bytes. The leading zero
    /// bytes of a small value fold in as one multiplication.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        let zeros = (v.leading_zeros() / 8) as usize;
        self.0 = self.0.wrapping_mul(PRIME_POWERS[zeros]);
        self.bytes(&v.to_be_bytes()[zeros..]);
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

    #[test]
    fn a_u64_folds_in_byte_by_byte() {
        // Every count of leading zero bytes, then a spread of values.
        let mut values: Vec<u64> = (0..64).map(|shift| 1u64 << shift).collect();
        values.extend([0, 255, 256, u64::MAX, 0x00ff_0000_0000_0001]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(x >> (x % 64));
        }
        let (mut fast, mut by_bytes) = (Fnv1a::new(), Fnv1a::new());
        for v in values {
            fast.u64(v);
            by_bytes.bytes(&v.to_be_bytes());
            assert_eq!(fast.finish(), by_bytes.finish(), "{v:#x}");
        }
    }
}
