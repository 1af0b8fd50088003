//! Timing-channel mitigation for resampling (Section IV-C).
//!
//! Plain resampling's latency equals the number of redraws, which depends
//! on the sensor value — a timing side channel. The paper's "straightforward
//! solution" is to "sample noise multiple times instead of only one and
//! choose one of them in the required region": draw a fixed-size batch every
//! time and take the first in-window sample, so the consumed randomness and
//! the datapath activity are constant per request.
//!
//! Taking the *first* accepted sample of an i.i.d. batch yields exactly the
//! resampling distribution conditioned on the batch containing at least one
//! hit; batches are retried in the (exponentially rare) all-miss case, which
//! is the only residual timing variation.

use ulp_rng::RandomBits;

use crate::error::LdpError;
use crate::mechanism::{Guarantee, Mechanism, NoisedOutput, ResamplingMechanism};

/// A constant-activity wrapper around [`ResamplingMechanism`].
///
/// # Examples
///
/// ```
/// use ldp_core::{exact_threshold, ConstantTimeResampling, LimitMode, Mechanism,
///                QuantizedRange, ResamplingMechanism};
/// use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};
///
/// let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
/// let range = QuantizedRange::new(0, 32, cfg.delta())?;
/// let pmf = FxpNoisePmf::closed_form(cfg);
/// let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling)?;
/// let inner = ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, spec)?;
/// let ct = ConstantTimeResampling::new(inner, 8)?;
///
/// let mut rng = Taus88::from_seed(1);
/// let out = ct.privatize(5.0, &mut rng)?;
/// // `resamples` counts *batches* beyond the first — almost always 0.
/// assert_eq!(out.resamples, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConstantTimeResampling {
    inner: ResamplingMechanism,
    batch: u32,
}

impl ConstantTimeResampling {
    /// Wraps a resampling mechanism with a fixed per-request batch size.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] if `batch` is zero (no draws per
    /// request is meaningless).
    pub fn new(inner: ResamplingMechanism, batch: u32) -> Result<Self, LdpError> {
        if batch == 0 {
            return Err(LdpError::InvalidEpsilon(0.0));
        }
        Ok(ConstantTimeResampling { inner, batch })
    }

    /// The fixed number of noise draws consumed per request round.
    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// The wrapped mechanism.
    pub fn inner(&self) -> &ResamplingMechanism {
        &self.inner
    }

    /// Privatizes on the grid, returning `(y_k, extra_batches)`.
    ///
    /// Exactly `batch` noise indices are drawn per round; the first
    /// in-window one is used. Additional rounds happen only if all `batch`
    /// draws miss.
    ///
    /// # Errors
    ///
    /// [`LdpError::ResampleBudgetExhausted`] if 10 000 consecutive rounds
    /// all miss the window (broken threshold/range configuration).
    pub fn privatize_index(
        &self,
        x_k: i64,
        rng: &mut dyn RandomBits,
    ) -> Result<(i64, u32), LdpError> {
        let range = self.inner.range();
        let n_th = self.inner.threshold().n_th_k;
        let (lo, hi) = (range.min_k() - n_th, range.max_k() + n_th);
        let mut rounds = 0u32;
        loop {
            let mut chosen = None;
            for _ in 0..self.batch {
                // Draw unconditionally: constant randomness consumption.
                let y = x_k + self.inner.privatize_index_raw_draw(rng);
                if chosen.is_none() && y >= lo && y <= hi {
                    chosen = Some(y);
                }
            }
            if let Some(y) = chosen {
                return Ok((y, rounds));
            }
            rounds += 1;
            if rounds >= 10_000 {
                return Err(LdpError::ResampleBudgetExhausted);
            }
        }
    }
}

impl Mechanism for ConstantTimeResampling {
    fn privatize(&self, x: f64, rng: &mut dyn RandomBits) -> Result<NoisedOutput, LdpError> {
        let x_k = self.inner.range().quantize(x);
        let (y, rounds) = self.privatize_index(x_k, rng)?;
        Ok(NoisedOutput {
            value: self.inner.range().to_value(y),
            resamples: rounds,
        })
    }

    fn guarantee(&self) -> Guarantee {
        self.inner.guarantee()
    }

    fn name(&self) -> &'static str {
        "resampling-constant-time"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{conditional, LimitMode};
    use crate::range::QuantizedRange;
    use crate::threshold::exact_threshold;
    use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};

    fn build(batch: u32) -> (ConstantTimeResampling, FxpNoisePmf, QuantizedRange) {
        let cfg = FxpLaplaceConfig::new(14, 14, 0.25, 8.0).unwrap();
        let range = QuantizedRange::new(0, 16, 0.25).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).unwrap();
        let inner = ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, spec).unwrap();
        (
            ConstantTimeResampling::new(inner, batch).unwrap(),
            pmf,
            range,
        )
    }

    #[test]
    fn zero_batch_is_rejected() {
        let (ct, _, _) = build(4);
        assert!(ConstantTimeResampling::new(ct.inner().clone(), 0).is_err());
    }

    #[test]
    fn outputs_respect_window() {
        let (ct, _, range) = build(8);
        let n_th = ct.inner().threshold().n_th_k;
        let mut rng = Taus88::from_seed(1);
        for _ in 0..10_000 {
            let (y, _) = ct.privatize_index(range.min_k(), &mut rng).unwrap();
            assert!(y >= range.min_k() - n_th && y <= range.max_k() + n_th);
        }
    }

    #[test]
    fn distribution_matches_plain_resampling() {
        // First-accepted-of-batch = resampling distribution; compare
        // empirical frequencies against the exact conditional distribution.
        let (ct, pmf, range) = build(8);
        let n_th = ct.inner().threshold().n_th_k;
        let x_k = range.max_k();
        let dist = conditional(&pmf, range, LimitMode::Resampling, Some(n_th), x_k);
        let mut rng = Taus88::from_seed(2);
        let n = 300_000usize;
        let mut hist = std::collections::HashMap::new();
        for _ in 0..n {
            *hist
                .entry(ct.privatize_index(x_k, &mut rng).unwrap().0)
                .or_insert(0u64) += 1;
        }
        for (y, w) in dist.iter() {
            let p = w as f64 / dist.norm() as f64;
            if p > 2e-3 {
                let emp = *hist.get(&y).unwrap_or(&0) as f64 / n as f64;
                assert!(
                    (emp - p).abs() < 5.0 * (p / n as f64).sqrt() + 2e-4,
                    "y={y}: empirical {emp} vs exact {p}"
                );
            }
        }
    }

    #[test]
    fn extra_rounds_are_rare_with_healthy_batch() {
        let (ct, _, range) = build(16);
        let mut rng = Taus88::from_seed(3);
        let rounds: u32 = (0..20_000)
            .map(|_| ct.privatize_index(range.min_k(), &mut rng).unwrap().1)
            .sum();
        assert_eq!(rounds, 0, "16-draw batches should never all miss here");
    }

    #[test]
    fn guarantee_passes_through() {
        let (ct, _, _) = build(4);
        assert_eq!(ct.guarantee(), ct.inner().guarantee());
        assert_eq!(ct.name(), "resampling-constant-time");
    }
}
