//! The combined Tausworthe generator (Taus88) used by the DP-Box.
//!
//! The paper's uniform random numbers come from "a Tausworthe random number
//! generator" (Section IV-B, citing the fixed-point RNG literature). Taus88
//! is L'Ecuyer's three-component maximally equidistributed combined LFSR
//! with period ≈ 2^88 — small state, shift/xor only, which is why it is the
//! standard choice for ULP hardware.

use ulp_obs::Counter;

use crate::source::{RandomBits, SplitMix64};

/// Uniform words drawn from Taus88 generators, process-wide.
static WORDS_DRAWN: Counter = Counter::new("rng.taus88.words_drawn");

/// L'Ecuyer's three-component combined Tausworthe generator (period ≈ 2^88).
///
/// # Examples
///
/// ```
/// use ulp_rng::{RandomBits, Taus88};
///
/// let mut rng = Taus88::from_seed(2018);
/// let a = rng.next_u32();
/// let b = rng.next_u32();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taus88 {
    s1: u32,
    s2: u32,
    s3: u32,
}

impl Taus88 {
    /// Creates a generator from explicit component states.
    ///
    /// States below the per-component minima (2, 8, 16) would land in the
    /// degenerate all-zero LFSR cycle and are bumped up automatically, as
    /// hardware seeding logic does.
    fn from_state(s1: u32, s2: u32, s3: u32) -> Self {
        Taus88 {
            s1: s1.max(2),
            s2: s2.max(8),
            s3: s3.max(16),
        }
    }

    /// Creates a generator by expanding a 64-bit seed with SplitMix64.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self::from_state(
            (sm.next() >> 32) as u32,
            (sm.next() >> 32) as u32,
            (sm.next() >> 32) as u32,
        )
    }

    #[inline]
    fn step(&mut self) -> u32 {
        [self.s1, self.s2, self.s3] = next_state([self.s1, self.s2, self.s3]);
        self.s1 ^ self.s2 ^ self.s3
    }

    /// The component states `[s1, s2, s3]`, for stepping many generators
    /// as state columns with [`next_state`].
    pub(crate) fn state(&self) -> [u32; 3] {
        [self.s1, self.s2, self.s3]
    }

    /// Moves the generator to component states reached from
    /// [`Taus88::state`] by [`next_state`] steps. Draws made that way are
    /// not counted: credit them with [`Taus88::note_words_drawn`].
    pub(crate) fn set_state(&mut self, [s1, s2, s3]: [u32; 3]) {
        (self.s1, self.s2, self.s3) = (s1, s2, s3);
    }

    /// Credits `n` words to the process-wide draw counter, for draws made
    /// on state columns (see [`Taus88::set_state`]).
    pub(crate) fn note_words_drawn(n: u64) {
        WORDS_DRAWN.add(n);
    }
}

/// `N` [`Taus88`] generators held as lanes — one column per component
/// state, one lane per generator — that step together, so the compiler
/// can keep each column in vector registers. Lane `i` draws exactly the
/// words its generator would, and every step counts its `N` words in
/// `rng.taus88.words_drawn`, as `N` [`RandomBits::next_u32`] calls do.
///
/// # Examples
///
/// ```
/// use ulp_rng::{RandomBits, Taus88, Taus88Lanes};
///
/// let mut lanes = Taus88Lanes::new([Taus88::from_seed(1), Taus88::from_seed(2)]);
/// let (mut a, mut b) = (Taus88::from_seed(1), Taus88::from_seed(2));
/// assert_eq!(lanes.next_words(), [a.next_u32(), b.next_u32()]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taus88Lanes<const N: usize> {
    s: [[u32; N]; 3],
}

impl<const N: usize> Taus88Lanes<N> {
    /// Lanes that continue the streams of `rngs`, lane `i` that of
    /// `rngs[i]`.
    pub fn new(rngs: [Taus88; N]) -> Self {
        let mut s = [[0; N]; 3];
        for (lane, rng) in rngs.iter().enumerate() {
            for (column, state) in s.iter_mut().zip(rng.state()) {
                column[lane] = state;
            }
        }
        Taus88Lanes { s }
    }

    /// Steps every lane once and returns each lane's word.
    #[inline(always)]
    pub fn next_words(&mut self) -> [u32; N] {
        WORDS_DRAWN.add(N as u64);
        let [s1, s2, s3] = &mut self.s;
        let mut words = [0; N];
        for (lane, word) in words.iter_mut().enumerate() {
            let s = next_state([s1[lane], s2[lane], s3[lane]]);
            [s1[lane], s2[lane], s3[lane]] = s;
            *word = s[0] ^ s[1] ^ s[2];
        }
        words
    }
}

/// One Taus88 step of the component states `[s1, s2, s3]`; the step's
/// output word is the XOR of the three new states.
#[inline(always)]
pub(crate) fn next_state([s1, s2, s3]: [u32; 3]) -> [u32; 3] {
    // L'Ecuyer (1996), "Maximally equidistributed combined Tausworthe
    // generators", Table 1 parameters.
    let b1 = ((s1 << 13) ^ s1) >> 19;
    let b2 = ((s2 << 2) ^ s2) >> 25;
    let b3 = ((s3 << 3) ^ s3) >> 11;
    [
        ((s1 & 0xFFFF_FFFE) << 12) ^ b1,
        ((s2 & 0xFFFF_FFF8) << 4) ^ b2,
        ((s3 & 0xFFFF_FFF0) << 17) ^ b3,
    ]
}

impl RandomBits for Taus88 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        WORDS_DRAWN.inc();
        self.step()
    }

    fn fill_u32(&mut self, out: &mut [u32]) {
        WORDS_DRAWN.add(out.len() as u64);
        // Same word sequence as repeated `next_u32`; the local copy lets
        // the compiler keep the LFSR state in registers across the chunk.
        let mut s = self.state();
        for w in out.iter_mut() {
            s = next_state(s);
            *w = s[0] ^ s[1] ^ s[2];
        }
        self.set_state(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Taus88::from_seed(99);
        let mut b = Taus88::from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Taus88::from_seed(1);
        let mut b = Taus88::from_seed(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "seeds 1 and 2 produced {same}/64 equal words");
    }

    #[test]
    fn lanes_draw_each_generators_words() {
        let seeds = [3, 5, 8, 13, 21, 34];
        let mut lanes = Taus88Lanes::new(seeds.map(Taus88::from_seed));
        let mut rngs = seeds.map(Taus88::from_seed);
        for _ in 0..1000 {
            assert_eq!(lanes.next_words(), rngs.each_mut().map(|r| r.next_u32()));
        }
    }

    #[test]
    fn degenerate_states_are_repaired() {
        let mut rng = Taus88::from_state(0, 0, 0);
        // Must not get stuck at zero.
        let outputs: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert!(outputs.iter().any(|&w| w != 0));
    }

    #[test]
    fn mean_of_outputs_is_near_half_range() {
        let mut rng = Taus88::from_seed(7);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.next_u32() as f64).sum::<f64>() / n as f64;
        let expected = (u32::MAX as f64) / 2.0;
        assert!(
            (mean - expected).abs() / expected < 0.01,
            "mean {mean} too far from {expected}"
        );
    }

    #[test]
    fn bit_balance_per_position() {
        let mut rng = Taus88::from_seed(11);
        let n = 50_000;
        let mut ones = [0u32; 32];
        for _ in 0..n {
            let w = rng.next_u32();
            for (i, count) in ones.iter_mut().enumerate() {
                *count += (w >> i) & 1;
            }
        }
        for (i, &count) in ones.iter().enumerate() {
            let frac = count as f64 / n as f64;
            assert!(
                (frac - 0.5).abs() < 0.02,
                "bit {i} is biased: p(1) = {frac}"
            );
        }
    }

    #[test]
    fn serial_correlation_is_low() {
        let mut rng = Taus88::from_seed(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| rng.next_u32() as f64 / u32::MAX as f64 - 0.5)
            .collect();
        let var: f64 = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
        let cov: f64 = xs.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (n - 1) as f64;
        assert!(
            (cov / var).abs() < 0.02,
            "lag-1 autocorrelation too high: {}",
            cov / var
        );
    }
}
