//! Fault-injection wrappers for uniform bit sources.
//!
//! The DP-Box's guarantee has two legs: the *structural* window bound
//! (holds for any bit source whatsoever) and the *distributional* ε bound
//! (requires the URNG to actually be uniform). Hardware RNGs fail —
//! stuck-at bits, bias, correlated stages — and a privacy module that
//! silently keeps "working" under a degraded URNG is a real deployment
//! hazard. These wrappers inject such faults so tests can check both that
//! the structural leg survives and that the continuous health tests in
//! [`crate::health`] catch the distributional failure.

use crate::source::RandomBits;

/// A bit source with one output bit stuck at a constant value.
///
/// # Examples
///
/// ```
/// use ulp_rng::{RandomBits, StuckAtBits, Taus88};
///
/// // Bit 31 (the MSB every `bit()` call reads) stuck at 1.
/// let mut faulty = StuckAtBits::new(Taus88::from_seed(1), 31, true);
/// for _ in 0..100 {
///     assert!(faulty.bit(), "stuck MSB forces every coin flip");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StuckAtBits<R> {
    inner: R,
    bit: u8,
    value: bool,
}

impl<R: RandomBits> StuckAtBits<R> {
    /// Wraps `inner`, forcing output bit `bit` (0 = LSB, 31 = MSB of each
    /// 32-bit word) to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bit > 31`.
    pub fn new(inner: R, bit: u8, value: bool) -> Self {
        assert!(bit <= 31, "bit index must be within a 32-bit word");
        StuckAtBits { inner, bit, value }
    }
}

impl<R: RandomBits> RandomBits for StuckAtBits<R> {
    fn next_u32(&mut self) -> u32 {
        let w = self.inner.next_u32();
        if self.value {
            w | (1 << self.bit)
        } else {
            w & !(1 << self.bit)
        }
    }
}

/// A bit source whose bits are biased toward 1 with probability `p`
/// (independently per bit), modelling a degraded entropy source.
#[derive(Debug, Clone)]
pub struct BiasedBits<R> {
    inner: R,
    /// Threshold in 1/256ths: each output bit is OR'd in with prob ≈ extra.
    extra_256: u8,
}

impl<R: RandomBits> BiasedBits<R> {
    /// Wraps `inner`, adding a bias toward 1: each bit is independently
    /// forced to 1 with probability `extra_256 / 256` (on top of the fair
    /// coin).
    pub fn new(inner: R, extra_256: u8) -> Self {
        BiasedBits { inner, extra_256 }
    }
}

impl<R: RandomBits> RandomBits for BiasedBits<R> {
    fn next_u32(&mut self) -> u32 {
        let base = self.inner.next_u32();
        // Build a mask where each bit is 1 with prob extra/256, from 8
        // auxiliary words (one per bit of the threshold comparison) — cheap
        // approximation: compare per-bit bytes drawn pairwise.
        let mut force = 0u32;
        if self.extra_256 > 0 {
            for _ in 0..2 {
                // Each AND of two uniform words has p(1) = 1/4 per bit;
                // accumulate until the closest power-of-two-ish approximation
                // of the requested bias is reached.
                force |= self.inner.next_u32() & self.inner.next_u32();
                if self.extra_256 <= 64 {
                    force &= self.inner.next_u32();
                }
                if self.extra_256 <= 16 {
                    force &= self.inner.next_u32();
                }
            }
        }
        base | force
    }
}

/// A bit source whose output is lag-`k` correlated: each output bit equals
/// the corresponding bit of the word emitted `lag` draws earlier with
/// probability `1/2 + rho_256/512`, and is fresh otherwise.
///
/// The marginal distribution of every bit stays exactly uniform (the
/// lagged bit and the fresh bit are both fair coins), so per-position
/// frequency tests and the adaptive proportion test cannot see this fault
/// — only a lag-correlation test can. This models a real failure mode of
/// multi-stage hardware generators whose stages couple.
///
/// # Examples
///
/// ```
/// use ulp_rng::{CorrelatedBits, RandomBits, Taus88};
///
/// // Lag-1 correlation with ρ = 128/256 = 0.5: successive words agree on
/// // roughly 75% of their bits instead of 50%.
/// let mut src = CorrelatedBits::new(Taus88::from_seed(1), 1, 128);
/// let mut agree = 0u32;
/// let mut prev = src.next_u32();
/// for _ in 0..1_000 {
///     let w = src.next_u32();
///     agree += (!(w ^ prev)).count_ones();
///     prev = w;
/// }
/// assert!(agree > 22_000, "expected ~24k/32k agreements, got {agree}");
/// ```
#[derive(Debug, Clone)]
pub struct CorrelatedBits<R> {
    inner: R,
    lag: u8,
    rho_256: u8,
    /// Last `lag` emitted words, indexed by `emitted % lag`.
    ring: [u32; 8],
    emitted: u64,
}

impl<R: RandomBits> CorrelatedBits<R> {
    /// Wraps `inner`, correlating each output word with the output `lag`
    /// draws earlier: every bit independently copies the lagged bit with
    /// probability `rho_256 / 256` and takes a fresh uniform bit otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `lag` is zero or greater than 8.
    pub fn new(inner: R, lag: u8, rho_256: u8) -> Self {
        assert!((1..=8).contains(&lag), "lag must be in 1..=8, got {lag}");
        CorrelatedBits {
            inner,
            lag,
            rho_256,
            ring: [0; 8],
            emitted: 0,
        }
    }

    /// A mask whose bits are independently 1 with probability exactly
    /// `rho_256 / 256`, built by a bit-sliced `byte < rho_256` comparison
    /// across eight auxiliary words (MSB-first).
    fn copy_mask(&mut self) -> u32 {
        let mut lt = 0u32;
        let mut eq = u32::MAX;
        for j in (0..8).rev() {
            let a = self.inner.next_u32();
            let r = if (self.rho_256 >> j) & 1 == 1 {
                u32::MAX
            } else {
                0
            };
            lt |= eq & !a & r;
            eq &= !(a ^ r);
        }
        lt
    }
}

impl<R: RandomBits> RandomBits for CorrelatedBits<R> {
    fn next_u32(&mut self) -> u32 {
        let fresh = self.inner.next_u32();
        let out = if self.emitted < u64::from(self.lag) || self.rho_256 == 0 {
            fresh
        } else {
            let lagged =
                self.ring[((self.emitted - u64::from(self.lag)) % u64::from(self.lag)) as usize];
            let copy = self.copy_mask();
            (lagged & copy) | (fresh & !copy)
        };
        self.ring[(self.emitted % u64::from(self.lag)) as usize] = out;
        self.emitted += 1;
        out
    }
}

/// A bit source that switches from one source to another after a set number
/// of draws — modelling a URNG that degrades mid-mission (and optionally
/// recovers), for measuring detection latency from fault onset.
///
/// # Examples
///
/// ```
/// use ulp_rng::{OnsetBits, RandomBits, ScriptedBits, Taus88};
///
/// // Healthy for 10 words, then a constant stream.
/// let mut src = OnsetBits::new(
///     Taus88::from_seed(1),
///     ScriptedBits::new(vec![0xFFFF_FFFF]),
///     10,
///     None,
/// );
/// for _ in 0..10 {
///     src.next_u32();
/// }
/// assert_eq!(src.next_u32(), 0xFFFF_FFFF);
/// ```
#[derive(Debug, Clone)]
pub struct OnsetBits<A, B> {
    healthy: A,
    faulty: B,
    onset: u64,
    recovery: Option<u64>,
    drawn: u64,
}

impl<A: RandomBits, B: RandomBits> OnsetBits<A, B> {
    /// Wraps two sources: draws `0..onset` come from `healthy`, draws
    /// `onset..` from `faulty`. If `recovery` is `Some(r)` (with `r >
    /// onset`), draws from `r` onward come from `healthy` again.
    ///
    /// # Panics
    ///
    /// Panics if `recovery` is not after `onset`.
    pub fn new(healthy: A, faulty: B, onset: u64, recovery: Option<u64>) -> Self {
        if let Some(r) = recovery {
            assert!(r > onset, "recovery must come after onset");
        }
        OnsetBits {
            healthy,
            faulty,
            onset,
            recovery,
            drawn: 0,
        }
    }
}

impl<A: RandomBits, B: RandomBits> RandomBits for OnsetBits<A, B> {
    fn next_u32(&mut self) -> u32 {
        let i = self.drawn;
        self.drawn += 1;
        let faulted = i >= self.onset && self.recovery.is_none_or(|r| i < r);
        if faulted {
            self.faulty.next_u32()
        } else {
            self.healthy.next_u32()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tausworthe::Taus88;

    #[test]
    fn stuck_bit_is_stuck() {
        let mut s = StuckAtBits::new(Taus88::from_seed(1), 7, false);
        for _ in 0..1_000 {
            assert_eq!(s.next_u32() & (1 << 7), 0);
        }
        let mut s = StuckAtBits::new(Taus88::from_seed(1), 0, true);
        for _ in 0..1_000 {
            assert_eq!(s.next_u32() & 1, 1);
        }
    }

    #[test]
    fn correlated_bits_marginal_frequency_stays_fair() {
        // Copying a fair lagged bit keeps every position marginally uniform.
        // Note the tolerance: lag-1 correlation at ρ inflates the variance of
        // the empirical frequency by (1+ρ)/(1−ρ), so the band must be wider
        // than for an i.i.d. source.
        let mut src = CorrelatedBits::new(Taus88::from_seed(21), 1, 128);
        let mut ones = [0u64; 32];
        let n = 50_000u64;
        for _ in 0..n {
            let w = src.next_u32();
            for (i, count) in ones.iter_mut().enumerate() {
                *count += u64::from((w >> i) & 1);
            }
        }
        for (i, &count) in ones.iter().enumerate() {
            let f = count as f64 / n as f64;
            assert!((f - 0.5).abs() < 0.025, "bit {i} frequency {f}");
        }
    }

    #[test]
    fn correlated_bits_agreement_matches_rho() {
        // Agreement probability at the configured lag is (1 + ρ)/2.
        for rho in [64u8, 128, 255] {
            let mut src = CorrelatedBits::new(Taus88::from_seed(22), 3, rho);
            let mut prev = [0u32; 3];
            let mut agree = 0u64;
            let mut pairs = 0u64;
            for i in 0..30_000u64 {
                let w = src.next_u32();
                if i >= 3 {
                    agree += u64::from((!(w ^ prev[(i % 3) as usize])).count_ones());
                    pairs += 32;
                }
                prev[(i % 3) as usize] = w;
            }
            let expected = 0.5 + f64::from(rho) / 512.0;
            let observed = agree as f64 / pairs as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "rho {rho}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn correlated_bits_rho_zero_is_transparent() {
        let mut plain = Taus88::from_seed(23);
        let mut wrapped = CorrelatedBits::new(Taus88::from_seed(23), 2, 0);
        for _ in 0..1_000 {
            assert_eq!(plain.next_u32(), wrapped.next_u32());
        }
    }

    #[test]
    fn onset_bits_switches_and_recovers() {
        let healthy = crate::source::ScriptedBits::new(vec![0x1111_1111]);
        let faulty = crate::source::ScriptedBits::new(vec![0xFFFF_FFFF]);
        let mut src = OnsetBits::new(healthy, faulty, 3, Some(5));
        let words: Vec<u32> = (0..7).map(|_| src.next_u32()).collect();
        assert_eq!(
            words,
            vec![
                0x1111_1111,
                0x1111_1111,
                0x1111_1111,
                0xFFFF_FFFF,
                0xFFFF_FFFF,
                0x1111_1111,
                0x1111_1111,
            ]
        );
        assert_eq!(src.drawn, 7);
    }
}
