//! The central (trusted-curator) model, for comparison with local DP.
//!
//! Fig. 2 contrasts the two settings: central DP noises the *query output*
//! with sensitivity-scaled noise (`GS(mean) = d/n`), local DP noises every
//! *report* (`GS = d`). The price of removing the trusted curator is the
//! classic `√n` utility gap — quantified here so deployments can weigh the
//! DP-Box's trust model against its accuracy cost.

use ulp_rng::{IdealLaplace, RandomBits};

use crate::error::LdpError;

/// Global sensitivity of the mean query over `n` values in a range of
/// length `d` (Section II-A): changing one value moves the mean by at most
/// `d/n`.
fn mean_sensitivity(range_length: f64, n: usize) -> f64 {
    assert!(n > 0, "need at least one value");
    range_length / n as f64
}

/// A trusted-curator Laplace mechanism for the mean query.
///
/// # Examples
///
/// ```
/// use ldp_core::CentralLaplaceMean;
/// use ulp_rng::Taus88;
///
/// let mech = CentralLaplaceMean::new(0.0, 100.0, 0.5)?;
/// let data = vec![40.0, 60.0, 50.0];
/// let mut rng = Taus88::from_seed(1);
/// let answer = mech.answer(&data, &mut rng);
/// assert!(answer.is_finite());
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentralLaplaceMean {
    min: f64,
    max: f64,
    eps: f64,
}

impl CentralLaplaceMean {
    /// Creates the mechanism for data in `[min, max]` at privacy `ε`.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidRange`] for an empty range;
    /// [`LdpError::InvalidEpsilon`] for a non-positive ε.
    pub fn new(min: f64, max: f64, eps: f64) -> Result<Self, LdpError> {
        if !(min.is_finite() && max.is_finite() && min < max) {
            return Err(LdpError::InvalidRange { min_k: 0, max_k: 0 });
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(LdpError::InvalidEpsilon(eps));
        }
        Ok(CentralLaplaceMean { min, max, eps })
    }

    /// The privacy parameter ε.
    pub fn epsilon(self) -> f64 {
        self.eps
    }

    /// The noise scale used for `n` values: `λ = GS/ε = d/(n·ε)`.
    fn noise_scale(self, n: usize) -> f64 {
        mean_sensitivity(self.max - self.min, n) / self.eps
    }

    /// Answers the mean query over the (trusted, raw) data with
    /// sensitivity-scaled Laplace noise.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn answer<R: RandomBits + ?Sized>(self, data: &[f64], rng: &mut R) -> f64 {
        assert!(!data.is_empty(), "mean of empty data");
        let mean = data
            .iter()
            .map(|x| x.clamp(self.min, self.max))
            .sum::<f64>()
            / data.len() as f64;
        let lap =
            IdealLaplace::new(self.noise_scale(data.len())).expect("scale > 0 by construction");
        mean + lap.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::Taus88;

    #[test]
    fn validation() {
        assert!(CentralLaplaceMean::new(1.0, 1.0, 0.5).is_err());
        assert!(CentralLaplaceMean::new(0.0, 1.0, 0.0).is_err());
        assert!(CentralLaplaceMean::new(0.0, 1.0, 0.5).is_ok());
    }

    #[test]
    fn sensitivity_shrinks_with_n() {
        assert_eq!(mean_sensitivity(100.0, 10), 10.0);
        assert_eq!(mean_sensitivity(100.0, 1000), 0.1);
    }

    #[test]
    fn answers_concentrate_around_the_true_mean() {
        let mech = CentralLaplaceMean::new(0.0, 100.0, 0.5).unwrap();
        let data: Vec<f64> = (0..1_000).map(|i| (i % 100) as f64).collect();
        let truth = data.iter().sum::<f64>() / data.len() as f64;
        let mut rng = Taus88::from_seed(2);
        let trials = 2_000;
        let mae: f64 = (0..trials)
            .map(|_| (mech.answer(&data, &mut rng) - truth).abs())
            .sum::<f64>()
            / trials as f64;
        // E|Lap(λ)| = λ = 100/(1000·0.5) = 0.2.
        assert!((mae - 0.2).abs() < 0.03, "mae {mae}");
    }

    #[test]
    fn out_of_range_data_is_clamped_for_sensitivity() {
        let mech = CentralLaplaceMean::new(0.0, 10.0, 1.0).unwrap();
        let mut rng = Taus88::from_seed(3);
        // A wild outlier cannot drag the answer beyond the clamped mean —
        // that is what makes the advertised sensitivity honest.
        let data = vec![5.0, 5.0, 1e9];
        let ans = mech.answer(&data, &mut rng);
        assert!(ans < 50.0, "clamping must bound the outlier: {ans}");
    }

    #[test]
    fn central_beats_local_by_about_sqrt_n() {
        // The textbook gap: central error ∝ 1/n, local mean error ∝ 1/√n.
        let mech = CentralLaplaceMean::new(0.0, 100.0, 0.5).unwrap();
        let n = 10_000;
        // Central: one answer over n values has E|Lap(λ)| = λ = d/(n·ε).
        let central = mech.noise_scale(n);
        // Local: each report carries Lap(d/ε) noise, σ = √2·d/ε, and the
        // mean of n such reports has E|err| = √(2/π)·σ/√n.
        let local = (2.0 / std::f64::consts::PI).sqrt() * (std::f64::consts::SQRT_2 * 100.0 / 0.5)
            / (n as f64).sqrt();
        let gap = local / central;
        let sqrt_n = (n as f64).sqrt();
        assert!(
            gap > 0.5 * sqrt_n && gap < 2.0 * sqrt_n,
            "gap {gap} should be Θ(√n) = {sqrt_n}"
        );
    }
}
