//! O(1) table-driven exact sampling via the Walker/Vose alias method.
//!
//! The privacy analysis already computes the *exact* integer PMF of the
//! fixed-point Laplace RNG ([`FxpNoisePmf`], paper Eq. 11). The alias method
//! turns any finite integer-weighted PMF into a table of `n2 = 2^b` buckets,
//! each holding a cut point and two outcomes, such that one uniform word
//! (bucket index ‖ intra-bucket offset) selects an outcome with *exactly*
//! the source probabilities — no CORDIC `ln`, no rejection loop, one table
//! lookup per draw.
//!
//! Construction is done entirely in integer arithmetic (`u128`
//! intermediates), so the table's implied PMF equals the source PMF
//! bit-for-bit; [`AliasTable::verify_exact`] re-derives the per-outcome
//! weights from the finished buckets and checks this identity, and the
//! workspace equivalence tests assert it for full and conditional
//! (windowed) tables.
//!
//! Windowed tables ([`AliasTable::from_pmf_window`]) build the table from
//! the *unnormalized* in-window weights, which is automatically the
//! renormalized conditional law — resampling-to-a-window therefore folds
//! into the table and needs zero rejections.

use std::collections::HashMap;

use ulp_obs::Counter;

use crate::error::RngError;
use crate::pmf::FxpNoisePmf;
use crate::source::RandomBits;

/// One alias bucket: offsets below `cut` yield `self_k`, the rest `alias_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    cut: u64,
    self_k: i64,
    alias_k: i64,
}

/// A Walker/Vose alias table for O(1) exact draws from a finite integer PMF.
///
/// # Examples
///
/// ```
/// use ulp_rng::{AliasTable, FxpLaplaceConfig, FxpNoisePmf, Taus88};
///
/// let cfg = FxpLaplaceConfig::new(10, 12, 0.25, 5.0)?;
/// let pmf = FxpNoisePmf::closed_form(cfg);
/// let table = AliasTable::from_pmf(&pmf)?;
/// assert!(table.verify_exact());
///
/// let mut rng = Taus88::from_seed(2018);
/// let k = table.draw(&mut rng);
/// assert!(k.abs() <= pmf.support_max_k());
/// # Ok::<(), ulp_rng::RngError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasTable {
    buckets: Vec<Bucket>,
    /// log2 of the bucket count.
    bucket_bits: u32,
    /// Bits drawn for the intra-bucket offset (`2^cap_bits >= capacity`).
    cap_bits: u32,
    /// Mask selecting the low `cap_bits` of a draw word.
    cap_mask: u64,
    /// Per-bucket capacity = total source weight.
    capacity: u64,
    /// Power-of-two capacity means offset draws never reject.
    cap_is_pow2: bool,
    /// Total bits consumed per accepted draw (0 = degenerate, no draw).
    word_bits: u32,
    /// The positive-weight source outcomes, for verification.
    outcomes: Vec<(i64, u128)>,
}

impl AliasTable {
    /// Builds a table from explicit `(outcome, weight)` pairs. Zero-weight
    /// entries are dropped; the implied probability of outcome `k` is
    /// `weight(k) / Σ weights`, exactly.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] if no outcome has positive weight, the
    /// total weight exceeds `u64::MAX`, or the combined bucket + offset
    /// width exceeds 64 bits.
    fn from_weights(outcomes: &[(i64, u128)]) -> Result<Self, RngError> {
        let outcomes: Vec<(i64, u128)> = outcomes.iter().copied().filter(|&(_, w)| w > 0).collect();
        if outcomes.is_empty() {
            return Err(RngError::InvalidConfig(
                "alias table needs at least one positive-weight outcome",
            ));
        }
        let total: u128 = outcomes.iter().map(|&(_, w)| w).sum();
        if total > u64::MAX as u128 {
            return Err(RngError::InvalidConfig(
                "alias table total weight exceeds u64",
            ));
        }
        let capacity = total as u64;

        let n = outcomes.len();
        let n2 = n.next_power_of_two();
        let bucket_bits = n2.trailing_zeros();
        let cap_bits = if capacity <= 1 {
            0
        } else {
            64 - (capacity - 1).leading_zeros()
        };
        let cap_is_pow2 = capacity.is_power_of_two();
        let word_bits = if n == 1 { 0 } else { bucket_bits + cap_bits };
        if word_bits > 64 {
            return Err(RngError::InvalidConfig(
                "alias table bucket + offset width exceeds 64 bits",
            ));
        }
        let cap_mask = if cap_bits == 0 {
            0
        } else {
            (1u64 << (cap_bits - 1) << 1).wrapping_sub(1)
        };

        // Vose worklists over scaled weights s_i = w_i · n2; each of the n2
        // buckets has capacity `total` and Σ s_i = total · n2, so the split
        // is exact — every bucket ends exactly full, no rounding slack.
        let mut scaled: Vec<u128> = outcomes.iter().map(|&(_, w)| w * n2 as u128).collect();
        scaled.resize(n2, 0);
        let mut ks: Vec<i64> = outcomes.iter().map(|&(k, _)| k).collect();
        ks.resize(n2, outcomes[0].0);

        let cap = capacity as u128;
        let mut small: Vec<usize> = Vec::with_capacity(n2);
        let mut large: Vec<usize> = Vec::with_capacity(n2);
        for (i, &s) in scaled.iter().enumerate() {
            if s < cap {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut buckets = vec![
            Bucket {
                cut: capacity,
                self_k: 0,
                alias_k: 0,
            };
            n2
        ];
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            buckets[s] = Bucket {
                cut: scaled[s] as u64,
                self_k: ks[s],
                alias_k: ks[l],
            };
            scaled[l] -= cap - scaled[s];
            if scaled[l] < cap {
                large.pop();
                small.push(l);
            }
        }
        for &i in large.iter().chain(small.iter()) {
            debug_assert_eq!(scaled[i], cap, "exact integer split leaves full buckets");
            buckets[i] = Bucket {
                cut: capacity,
                self_k: ks[i],
                alias_k: ks[i],
            };
        }

        // All public constructors (from_pmf, from_pmf_window, laplace_grid)
        // funnel through here, so this counts every build.
        static BUILDS: Counter = Counter::new("rng.alias.builds");
        BUILDS.inc();

        Ok(AliasTable {
            buckets,
            bucket_bits,
            cap_bits,
            cap_mask,
            capacity,
            cap_is_pow2,
            word_bits,
            outcomes,
        })
    }

    /// Builds a table over the full signed support of an exact noise PMF.
    ///
    /// The total weight is `2^(Bu+1)` — a power of two — so draws consume
    /// exactly one word and never reject.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] if the table cannot be built (a valid
    /// [`FxpNoisePmf`] cannot trigger it in practice).
    pub fn from_pmf(pmf: &FxpNoisePmf) -> Result<Self, RngError> {
        let outcomes: Vec<(i64, u128)> = pmf.iter().filter(|&(_, w)| w > 0).collect();
        Self::from_weights(&outcomes)
    }

    /// Builds a table over the conditional law of the PMF restricted to
    /// `lo ..= hi` (inclusive, signed grid indices).
    ///
    /// The table is built from the unnormalized in-window weights, which *is*
    /// the renormalized conditional distribution — exactly what resampling
    /// converges to, with zero rejections.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] if the window carries no probability mass.
    pub fn from_pmf_window(pmf: &FxpNoisePmf, lo: i64, hi: i64) -> Result<Self, RngError> {
        let outcomes: Vec<(i64, u128)> = (lo..=hi)
            .map(|k| (k, pmf.weight(k)))
            .filter(|&(_, w)| w > 0)
            .collect();
        if outcomes.is_empty() {
            return Err(RngError::InvalidConfig(
                "conditional window carries no probability mass",
            ));
        }
        Self::from_weights(&outcomes)
    }

    /// Builds a table for the *rounded* continuous Laplace: the law of
    /// `round(L)` for `L ~ Lap(lambda)` on the integer grid, i.e.
    /// `P(j) = F(j+1/2) − F(j−1/2)`.
    ///
    /// Weights are quantized to a total of exactly `2^48` (the mode absorbs
    /// the sub-ULP rounding residual), so draws are rejection-free and
    /// consume exactly one `u64`. Relative quantization error is `O(2^-48)`
    /// per outcome — below the fidelity of any `f64` continuous sampler —
    /// and the truncated tail mass is below the quantization step.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] if `lambda` is not finite and positive,
    /// or exceeds 1024 (wider scales would need more than 2^16 buckets at
    /// this mass resolution; callers fall back to their reference sampler).
    pub fn laplace_grid(lambda: f64) -> Result<Self, RngError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(RngError::InvalidConfig(
                "laplace_grid needs a positive finite scale",
            ));
        }
        if lambda > 1024.0 {
            return Err(RngError::InvalidConfig(
                "laplace_grid scale too wide to tabulate",
            ));
        }
        const MASS_BITS: u32 = 48;
        let mass = (1u128 << MASS_BITS) as f64;
        // Entries beyond ~(48·ln2)·λ quantize to zero weight anyway; 34λ
        // leaves headroom without over-building.
        let half = ((lambda * 34.0).ceil() as i64).max(1);
        // P(round(L) = j): 1 − exp(−1/(2λ)) at the mode,
        // exp(−|j|/λ)·sinh(1/(2λ)) elsewhere (both sides sum to 1 with the
        // geometric tails).
        let w_mode = -(-0.5 / lambda).exp_m1();
        let w_off = (0.5 / lambda).sinh();
        let mut outcomes: Vec<(i64, u128)> = Vec::with_capacity(2 * half as usize + 1);
        let mut total: u128 = 0;
        for j in -half..=half {
            let w = if j == 0 {
                w_mode
            } else {
                (-(j.abs() as f64) / lambda).exp() * w_off
            };
            let q = (w * mass).round() as u128;
            if q > 0 {
                outcomes.push((j, q));
                total += q;
            }
        }
        // Pin the total to exactly 2^48 by absorbing the rounding residual
        // (|residual| ≤ support size ≪ mode weight) into the mode, keeping
        // the table rejection-free.
        let mode = outcomes
            .iter_mut()
            .find(|&&mut (j, _)| j == 0)
            .expect("mode weight is always positive");
        let adjusted = mode.1 as i128 + ((1i128 << MASS_BITS) - total as i128);
        if adjusted <= 0 {
            // Unreachable for correctly-summed weights (the residual is sub-
            // ULP); fail loudly rather than build a skewed table.
            return Err(RngError::InvalidConfig(
                "laplace_grid rounding residual exceeds the mode weight",
            ));
        }
        mode.1 = adjusted as u128;
        Self::from_weights(&outcomes)
    }

    /// Number of alias buckets (a power of two).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The positive-weight `(outcome, weight)` pairs the table was built
    /// from, in construction order.
    pub fn outcomes(&self) -> &[(i64, u128)] {
        &self.outcomes
    }

    #[inline]
    fn decode(&self, word: u64) -> Option<i64> {
        let r = word & self.cap_mask;
        if r >= self.capacity {
            return None;
        }
        let b = &self.buckets[(word >> self.cap_bits) as usize];
        Some(if r < b.cut { b.self_k } else { b.alias_k })
    }

    /// Draws one outcome. Consumes one `u32` word when the bucket and
    /// offset bits total ≤ 32 (else one `u64`) per attempt; with a
    /// power-of-two total weight the first attempt always succeeds.
    #[inline]
    pub fn draw<R: RandomBits + ?Sized>(&self, rng: &mut R) -> i64 {
        if self.word_bits == 0 {
            return self.buckets[0].self_k;
        }
        loop {
            let word = if self.word_bits <= 32 {
                (rng.next_u32() as u64) >> (32 - self.word_bits)
            } else {
                rng.next_u64() >> (64 - self.word_bits)
            };
            if let Some(k) = self.decode(word) {
                return k;
            }
        }
    }

    /// Fills `out` with draws, buffering the underlying word generation
    /// (one [`RandomBits::fill_u32`] call per chunk instead of one virtual
    /// call per draw).
    ///
    /// The word stream consumed is **identical** to calling
    /// [`AliasTable::draw`] `out.len()` times on the same source, so batched
    /// and one-at-a-time sampling produce the same outputs for the same
    /// seed (asserted by the workspace equivalence proptests).
    pub fn fill_batch<R: RandomBits + ?Sized>(&self, rng: &mut R, out: &mut [i64]) {
        if self.word_bits == 0 {
            out.fill(self.buckets[0].self_k);
            return;
        }
        if self.word_bits <= 32 && self.cap_is_pow2 {
            // Rejection-free narrow path: exactly one u32 per draw, so the
            // chunk size is known in advance and no word is ever discarded.
            let mut buf = [0u32; 512];
            let shift = 32 - self.word_bits;
            let mut filled = 0;
            while filled < out.len() {
                let n = (out.len() - filled).min(buf.len());
                rng.fill_u32(&mut buf[..n]);
                for (slot, &w) in out[filled..filled + n].iter_mut().zip(buf[..n].iter()) {
                    let word = (w as u64) >> shift;
                    let b = &self.buckets[(word >> self.cap_bits) as usize];
                    *slot = if word & self.cap_mask < b.cut {
                        b.self_k
                    } else {
                        b.alias_k
                    };
                }
                filled += n;
            }
        } else if self.cap_is_pow2 {
            // Rejection-free wide path: exactly one u64 — two u32 words,
            // high word first, matching `RandomBits::next_u64` — per draw.
            let mut buf = [0u32; 512];
            let shift = 64 - self.word_bits;
            let mut filled = 0;
            while filled < out.len() {
                let n = (out.len() - filled).min(buf.len() / 2);
                rng.fill_u32(&mut buf[..2 * n]);
                for (slot, pair) in out[filled..filled + n]
                    .iter_mut()
                    .zip(buf[..2 * n].chunks_exact(2))
                {
                    let word = (((pair[0] as u64) << 32) | pair[1] as u64) >> shift;
                    let b = &self.buckets[(word >> self.cap_bits) as usize];
                    *slot = if word & self.cap_mask < b.cut {
                        b.self_k
                    } else {
                        b.alias_k
                    };
                }
                filled += n;
            }
        } else {
            // Rejecting path: per-draw word count is data-dependent, so
            // draw one at a time to keep the stream identical to `draw`.
            for slot in out.iter_mut() {
                *slot = self.draw(rng);
            }
        }
    }

    /// Re-derives each outcome's total weight from the finished buckets and
    /// checks it equals the source weight exactly (both scaled by the bucket
    /// count). This is the constructive proof that the table samples the
    /// source PMF bit-for-bit.
    pub fn verify_exact(&self) -> bool {
        let mut rebuilt: HashMap<i64, u128> = HashMap::new();
        for b in &self.buckets {
            *rebuilt.entry(b.self_k).or_insert(0) += b.cut as u128;
            *rebuilt.entry(b.alias_k).or_insert(0) += (self.capacity - b.cut) as u128;
        }
        let n2 = self.buckets.len() as u128;
        let mut matched = 0usize;
        for &(k, w) in &self.outcomes {
            if rebuilt.get(&k).copied().unwrap_or(0) != w * n2 {
                return false;
            }
            matched += 1;
        }
        // No mass may leak onto outcomes outside the source support.
        rebuilt.retain(|_, &mut v| v > 0);
        matched == rebuilt.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxp::FxpLaplaceConfig;
    use crate::source::ScriptedBits;
    use crate::tausworthe::Taus88;

    fn small_pmf() -> FxpNoisePmf {
        let cfg = FxpLaplaceConfig::new(10, 12, 0.25, 5.0).unwrap();
        FxpNoisePmf::closed_form(cfg)
    }

    #[test]
    fn full_pmf_table_is_exact_and_rejection_free() {
        let pmf = small_pmf();
        let t = AliasTable::from_pmf(&pmf).unwrap();
        assert!(t.verify_exact());
        assert!(t.cap_is_pow2, "2^(Bu+1) total weight is pow2");
        assert!(t.word_bits <= 32);
    }

    #[test]
    fn window_table_is_exact_conditional() {
        let pmf = small_pmf();
        let t = AliasTable::from_pmf_window(&pmf, -10, 25).unwrap();
        assert!(t.verify_exact());
        let total: u128 = (-10..=25).map(|k| pmf.weight(k)).sum();
        assert_eq!(t.capacity as u128, total);
    }

    #[test]
    fn empty_window_is_rejected() {
        let pmf = small_pmf();
        let far = pmf.support_max_k() + 100;
        assert!(AliasTable::from_pmf_window(&pmf, far, far + 5).is_err());
        assert!(AliasTable::from_weights(&[(3, 0)]).is_err());
    }

    #[test]
    fn single_outcome_is_degenerate_and_free() {
        let t = AliasTable::from_weights(&[(42, 7)]).unwrap();
        assert_eq!(t.word_bits, 0);
        // Draw must not consume randomness.
        let mut src = ScriptedBits::new(vec![0xDEAD_BEEF]);
        assert_eq!(t.draw(&mut src), 42);
        assert_eq!(src.next_u32(), 0xDEAD_BEEF);
        let mut out = [0i64; 5];
        t.fill_batch(&mut src, &mut out);
        assert_eq!(out, [42; 5]);
    }

    #[test]
    fn two_outcome_draws_follow_the_cut() {
        // weights 3:1 over outcomes {0, 1}: capacity 4 (pow2), 2 buckets.
        let t = AliasTable::from_weights(&[(0, 3), (1, 1)]).unwrap();
        assert!(t.verify_exact());
        let mut rng = Taus88::from_seed(9);
        let n = 200_000;
        let ones = (0..n).filter(|_| t.draw(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "P(1) = {frac}");
    }

    #[test]
    fn non_pow2_capacity_rejects_and_stays_exact() {
        // Total weight 5: draws need 3 offset bits with rejection of r ≥ 5.
        let t = AliasTable::from_weights(&[(-1, 2), (0, 2), (1, 1)]).unwrap();
        assert!(!t.cap_is_pow2);
        assert!(t.verify_exact());
        let mut rng = Taus88::from_seed(10);
        let n = 250_000;
        let mut hist = HashMap::new();
        for _ in 0..n {
            *hist.entry(t.draw(&mut rng)).or_insert(0u64) += 1;
        }
        for (k, expect) in [(-1, 0.4), (0, 0.4), (1, 0.2)] {
            let emp = *hist.get(&k).unwrap_or(&0) as f64 / n as f64;
            assert!((emp - expect).abs() < 0.01, "k={k}: {emp} vs {expect}");
        }
    }

    #[test]
    fn fill_batch_matches_repeated_draws() {
        let pmf = small_pmf();
        for t in [
            AliasTable::from_pmf(&pmf).unwrap(),
            AliasTable::from_pmf_window(&pmf, -7, 19).unwrap(),
            AliasTable::from_weights(&[(-1, 2), (0, 2), (1, 1)]).unwrap(),
        ] {
            let mut a = Taus88::from_seed(77);
            let mut b = a.clone();
            let mut batched = vec![0i64; 1111];
            t.fill_batch(&mut a, &mut batched);
            let singles: Vec<i64> = (0..1111).map(|_| t.draw(&mut b)).collect();
            assert_eq!(batched, singles);
            // Both generators must have consumed the same word count.
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn draw_frequencies_match_pmf() {
        let pmf = small_pmf();
        let t = AliasTable::from_pmf(&pmf).unwrap();
        let mut rng = Taus88::from_seed(31);
        let n = 400_000usize;
        let mut hist = HashMap::new();
        for _ in 0..n {
            *hist.entry(t.draw(&mut rng)).or_insert(0u64) += 1;
        }
        for k in -20i64..=20 {
            let p = pmf.prob(k);
            if p > 1e-3 {
                let emp = *hist.get(&k).unwrap_or(&0) as f64 / n as f64;
                assert!(
                    (emp - p).abs() < 4.0 * (p / n as f64).sqrt() + 1e-4,
                    "k={k}: empirical {emp}, exact {p}"
                );
            }
        }
    }

    #[test]
    fn wide_table_uses_u64_words() {
        // Capacity 2^40 forces word_bits > 32.
        let t = AliasTable::from_weights(&[(0, 1u128 << 39), (1, 1u128 << 39)]).unwrap();
        assert!(t.word_bits > 32);
        let mut a = Taus88::from_seed(5);
        let mut b = a.clone();
        // One draw consumes one u64 = two u32 words.
        let _ = t.draw(&mut a);
        let _ = b.next_u64();
        assert_eq!(a.next_u32(), b.next_u32());
    }
}
