//! The discrete-Laplace (two-sided geometric) mechanism — the ablation
//! baseline from modern DP practice.
//!
//! Where the paper repairs a *continuous-targeting* ICDF datapath, OpenDP
//! and Google's DP libraries instead target a **discrete** distribution from
//! the start: `Pr[K = k] ∝ α^|k|` on the integer grid, which a
//! finite-precision machine can (in principle) sample exactly. Combined with
//! the same window-by-rejection trick the paper uses for resampling, it
//! gives a clean `ε` bound with no `n·ε` slack. The ablation quantifies
//! what the paper's fixed-point-Laplace-plus-threshold approach gives up
//! against it.

use ulp_rng::{DiscreteLaplace, RandomBits};

use crate::error::LdpError;
use crate::mechanism::{
    reference_batch, same_len, Guarantee, Mechanism, NoisedOutput, RESAMPLE_LIMIT,
};
use crate::range::QuantizedRange;

/// A window-limited discrete-Laplace LDP mechanism on the sensor grid.
///
/// Noise is drawn from the two-sided geometric with per-step ratio
/// `e^(ε/s)` (`s` = range span in grid units) and rejected until the output
/// lies in `[m − n_th, M + n_th]` — the discrete analogue of
/// [`crate::ResamplingMechanism`].
///
/// # Examples
///
/// ```
/// use ldp_core::{DiscreteLaplaceMechanism, Mechanism, QuantizedRange};
/// use ulp_rng::Taus88;
///
/// let range = QuantizedRange::new(0, 32, 10.0 / 32.0)?;
/// let mech = DiscreteLaplaceMechanism::new(range, 0.5, 300)?;
/// // The guarantee is essentially ε itself — no n·ε slack.
/// let bound = mech.guarantee().bound().expect("bounded");
/// assert!(bound < 0.55);
/// let mut rng = Taus88::from_seed(3);
/// let out = mech.privatize(5.0, &mut rng)?;
/// # let _ = out;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DiscreteLaplaceMechanism {
    dl: DiscreteLaplace,
    range: QuantizedRange,
    n_th_k: i64,
    exact_loss: f64,
}

impl DiscreteLaplaceMechanism {
    /// Creates the mechanism for a total privacy target `ε` over the range
    /// and a window extension `n_th_k` (grid units).
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] for a non-positive ε;
    /// [`LdpError::InvalidRange`] for a negative threshold.
    pub fn new(range: QuantizedRange, eps: f64, n_th_k: i64) -> Result<Self, LdpError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(LdpError::InvalidEpsilon(eps));
        }
        if n_th_k < 0 {
            return Err(LdpError::InvalidRange {
                min_k: n_th_k,
                max_k: n_th_k,
            });
        }
        let scale_k = range.span_k() as f64 / eps;
        // Truncation far beyond the window: the window rejection dominates.
        let dl = DiscreteLaplace::new(scale_k, i64::MAX / 4).map_err(LdpError::Rng)?;
        let exact_loss = Self::worst_loss(&dl, range, n_th_k);
        Ok(DiscreteLaplaceMechanism {
            dl,
            range,
            n_th_k,
            exact_loss,
        })
    }

    fn worst_loss(dl: &DiscreteLaplace, range: QuantizedRange, n_th_k: i64) -> f64 {
        let (lo, hi) = (range.min_k() - n_th_k, range.max_k() + n_th_k);
        let z = |x: i64| -> f64 { (lo - x..=hi - x).map(|k| dl.pmf(k)).sum() };
        let (x1, x2) = (range.min_k(), range.max_k());
        let (z1, z2) = (z(x1), z(x2));
        let mut worst = 0.0f64;
        for y in lo..=hi {
            let p1 = dl.pmf(y - x1) / z1;
            let p2 = dl.pmf(y - x2) / z2;
            worst = worst.max((p1 / p2).ln().abs());
        }
        worst
    }
}

impl Mechanism for DiscreteLaplaceMechanism {
    fn privatize(&self, x: f64, rng: &mut dyn RandomBits) -> Result<NoisedOutput, LdpError> {
        let x_k = self.range.quantize(x);
        let (lo, hi) = (
            self.range.min_k() - self.n_th_k,
            self.range.max_k() + self.n_th_k,
        );
        let mut resamples = 0u32;
        loop {
            let y = x_k + self.dl.sample_index(rng);
            if y >= lo && y <= hi {
                return Ok(NoisedOutput {
                    value: self.range.to_value(y),
                    resamples,
                });
            }
            resamples += 1;
            if resamples >= RESAMPLE_LIMIT {
                return Err(LdpError::ResampleBudgetExhausted);
            }
        }
    }

    /// Always the reference batch: this mechanism carries no
    /// [`SamplerPath`](crate::SamplerPath), so it has no table to draw
    /// from and no Secure mode to certify.
    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<u64, LdpError> {
        same_len(xs_k, out);
        reference_batch(self, self.range, xs_k, rng, out)
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::EpsLdp(self.exact_loss)
    }

    fn name(&self) -> &'static str {
        "discrete-laplace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::Taus88;

    fn paper_range() -> QuantizedRange {
        QuantizedRange::new(0, 32, 10.0 / 32.0).unwrap()
    }

    #[test]
    fn validation() {
        let r = paper_range();
        assert!(DiscreteLaplaceMechanism::new(r, 0.0, 10).is_err());
        assert!(DiscreteLaplaceMechanism::new(r, 0.5, -1).is_err());
        assert!(DiscreteLaplaceMechanism::new(r, 0.5, 10).is_ok());
    }

    #[test]
    fn loss_is_essentially_eps() {
        // The clean discrete mechanism's loss is ε plus only the window
        // renormalization slack — no resolution-driven n·ε multiple.
        let r = paper_range();
        let eps = 0.5;
        let m = DiscreteLaplaceMechanism::new(r, eps, 300).unwrap();
        let loss = m.guarantee().bound().unwrap();
        assert!(loss >= eps - 1e-6, "loss {loss} below ε");
        assert!(loss < eps * 1.1, "loss {loss} should be within 10% of ε");
    }

    #[test]
    fn window_is_respected() {
        let r = paper_range();
        let m = DiscreteLaplaceMechanism::new(r, 0.5, 100).unwrap();
        let mut rng = Taus88::from_seed(4);
        for _ in 0..20_000 {
            let out = m.privatize(10.0, &mut rng).unwrap();
            let y_k = (out.value / r.delta()).round() as i64;
            assert!(y_k >= r.min_k() - 100 && y_k <= r.max_k() + 100);
        }
    }

    #[test]
    fn tighter_window_increases_renormalization_slack() {
        let r = paper_range();
        let loose = DiscreteLaplaceMechanism::new(r, 0.5, 500)
            .unwrap()
            .guarantee()
            .bound()
            .unwrap();
        let tight = DiscreteLaplaceMechanism::new(r, 0.5, 5)
            .unwrap()
            .guarantee()
            .bound()
            .unwrap();
        // Very tight windows distort the conditional distributions more.
        assert!(
            tight <= loose + 1e-9 || tight < 0.5,
            "tight {tight} vs loose {loose}"
        );
    }

    #[test]
    fn index_batch_respects_the_window_and_tracks_the_mean() {
        let r = paper_range();
        let m = DiscreteLaplaceMechanism::new(r, 0.5, 300).unwrap();
        let mut rng = Taus88::from_seed(6);
        let xs_k = vec![r.quantize(5.0); 20_000];
        let mut out = vec![0i64; xs_k.len()];
        m.privatize_index_batch(&xs_k, &mut rng, &mut out).unwrap();
        let (lo, hi) = (r.min_k() - 300, r.max_k() + 300);
        assert!(out.iter().all(|&y| y >= lo && y <= hi));
        let mean = out.iter().map(|&y| r.to_value(y)).sum::<f64>() / out.len() as f64;
        assert!((mean - 5.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn utility_is_comparable_to_scale() {
        let r = paper_range();
        let m = DiscreteLaplaceMechanism::new(r, 0.5, 300).unwrap();
        let mut rng = Taus88::from_seed(5);
        let n = 50_000;
        let x = 5.0;
        let mean: f64 = (0..n)
            .map(|_| m.privatize(x, &mut rng).unwrap().value)
            .sum::<f64>()
            / n as f64;
        // Unbiased up to window asymmetry; λ = d/ε = 20.
        assert!((mean - x).abs() < 2.0, "mean {mean}");
    }
}
