//! FNV-1a, 64-bit: the workspace's one digest for canonical texts, ε-spend
//! logs and the collector's shard assignment.
//!
//! Not a cryptographic hash and not a `HashMap` hasher: a stable,
//! dependency-free fingerprint whose value is part of every committed
//! `BENCH_*.json` digest, so its constants never change.

/// An FNV-1a 64-bit digest in progress.
///
/// ```
/// use ulp_obs::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), Fnv64::hash(b"foobar"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a 64-bit offset basis (the digest of no bytes).
    const OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    /// The FNV 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A digest over no bytes yet.
    #[inline]
    pub const fn new() -> Fnv64 {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Folds `bytes` into the digest, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of every byte written so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.0
    }

    /// The digest of `bytes` alone.
    #[inline]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors_are_pinned() {
        assert_eq!(Fnv64::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn split_writes_equal_one_write() {
        let mut h = Fnv64::default();
        for chunk in [&b"fo"[..], b"", b"oba", b"r"] {
            h.write(chunk);
        }
        assert_eq!(h.finish(), Fnv64::hash(b"foobar"));
    }
}
