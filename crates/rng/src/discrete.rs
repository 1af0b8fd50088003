//! Discrete Laplace (two-sided geometric) sampling — the extension baseline.
//!
//! The paper's fix keeps the *continuous* Laplace ICDF datapath and repairs
//! its tail. The modern alternative (used by OpenDP and by Google's DP
//! libraries) is to target a **discrete** distribution in the first place:
//! the two-sided geometric with `Pr[K = k] ∝ α^|k|`, `α = exp(-Δ/λ)`, which
//! is exactly sampleable from uniform bits and gives ε-DP on the integer
//! grid directly. We include it as an ablation baseline: how close does the
//! paper's thresholded FxP Laplace get to a mechanism designed for finite
//! precision?

use crate::error::RngError;
use crate::source::RandomBits;

/// A two-sided geometric ("discrete Laplace") sampler on grid indices,
/// `Pr[K = k] = (1-α)/(1+α) · α^|k|` with `α = exp(-Δ/λ)`.
///
/// Sampling is inversion on a 64-bit uniform against the closed-form CDF —
/// no transcendental evaluation at sample time, mirroring how a hardware
/// implementation would use a small comparison network. The sampler is
/// truncated at `max_k` (mass beyond is redrawn), making the output word
/// width explicit like the FxP samplers.
///
/// # Examples
///
/// ```
/// use ulp_rng::{DiscreteLaplace, Taus88};
///
/// // λ/Δ = 64: same effective scale as the paper's Fig. 4 FxP RNG.
/// let dl = DiscreteLaplace::new(64.0, 2047)?;
/// let mut rng = Taus88::from_seed(3);
/// let k = dl.sample_index(&mut rng);
/// assert!(k.abs() <= 2047);
/// # Ok::<(), ulp_rng::RngError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteLaplace {
    /// Scale in grid units, `t = λ/Δ`.
    scale_k: f64,
    /// Decay per step, `α = exp(-1/t)`.
    alpha: f64,
    max_k: i64,
}

impl DiscreteLaplace {
    /// Creates a sampler with scale `scale_k = λ/Δ` grid steps, truncated to
    /// `|k| ≤ max_k` by rejection.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] if `scale_k` is not finite/positive or
    /// `max_k < 1`.
    pub fn new(scale_k: f64, max_k: i64) -> Result<Self, RngError> {
        if !(scale_k.is_finite() && scale_k > 0.0) {
            return Err(RngError::InvalidConfig("scale must be finite and positive"));
        }
        if max_k < 1 {
            return Err(RngError::InvalidConfig("max_k must be at least 1"));
        }
        Ok(DiscreteLaplace {
            scale_k,
            alpha: (-1.0 / scale_k).exp(),
            max_k,
        })
    }

    /// Exact PMF on the *untruncated* lattice.
    pub fn pmf(self, k: i64) -> f64 {
        (1.0 - self.alpha) / (1.0 + self.alpha) * self.alpha.powi(k.unsigned_abs() as i32)
    }

    /// Draws a signed grid index, rejecting values beyond `max_k`.
    pub fn sample_index<R: RandomBits + ?Sized>(self, rng: &mut R) -> i64 {
        loop {
            let negative = rng.bit();
            // Geometric magnitude by inversion: smallest k with
            // CDF(k) ≥ u where Pr[|K| = 0] = (1-α)/(1+α) and each further
            // step multiplies by α. Equivalent closed form below.
            let u = (rng.bits(53) + 1) as f64 * 2f64.powi(-53);
            // Magnitude via the folded distribution: |K| = 0 w.p. p0,
            // else 1 + Geom(α). Sample the fold directly:
            let p0 = (1.0 - self.alpha) / (1.0 + self.alpha);
            let k = if u <= p0 {
                0
            } else {
                // Remaining mass is α·p0·α^(k-1)·2 over signs; invert the
                // geometric tail: k = ceil(ln((1-u)/ (1-p0)) / ln α) … do it
                // numerically robustly with logs.
                let rest = (u - p0) / (1.0 - p0);
                1 + ((1.0 - rest).ln() / self.alpha.ln()).floor() as i64
            };
            if k <= self.max_k {
                return if negative && k != 0 { -k } else { k };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tausworthe::Taus88;

    #[test]
    fn validates_config() {
        assert!(DiscreteLaplace::new(0.0, 10).is_err());
        assert!(DiscreteLaplace::new(f64::INFINITY, 10).is_err());
        assert!(DiscreteLaplace::new(10.0, 0).is_err());
        assert!(DiscreteLaplace::new(10.0, 1).is_ok());
    }

    #[test]
    fn pmf_sums_to_one() {
        let dl = DiscreteLaplace::new(8.0, 1_000).unwrap();
        let sum: f64 = (-200..=200).map(|k| dl.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn pmf_ratio_is_exactly_one_over_scale() {
        // `ln(Pr[k]/Pr[k+1]) = 1/scale_k`: the ε consumed per unit of
        // sensitivity measured in grid steps.
        let dl = DiscreteLaplace::new(64.0, 2047).unwrap();
        for k in [0i64, 1, 10, 100] {
            let ratio = (dl.pmf(k) / dl.pmf(k + 1)).ln();
            assert!((ratio - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_respect_truncation() {
        let dl = DiscreteLaplace::new(20.0, 15).unwrap();
        let mut rng = Taus88::from_seed(9);
        for _ in 0..20_000 {
            assert!(dl.sample_index(&mut rng).abs() <= 15);
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let dl = DiscreteLaplace::new(5.0, 10_000).unwrap();
        let mut rng = Taus88::from_seed(21);
        let n = 300_000;
        let mut hist = std::collections::HashMap::new();
        for _ in 0..n {
            *hist.entry(dl.sample_index(&mut rng)).or_insert(0u64) += 1;
        }
        for k in -5i64..=5 {
            let p = dl.pmf(k);
            let emp = *hist.get(&k).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (emp - p).abs() < 5.0 * (p / n as f64).sqrt() + 1e-4,
                "k={k}: emp {emp}, pmf {p}"
            );
        }
    }

    #[test]
    fn symmetry_of_samples() {
        let dl = DiscreteLaplace::new(10.0, 1000).unwrap();
        let mut rng = Taus88::from_seed(33);
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| dl.sample_index(&mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
    }
}
