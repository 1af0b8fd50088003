//! Ideal (continuous, double-precision) Laplace sampling via inversion.
//!
//! This models the *mathematical* Laplace mechanism the paper compares
//! against ("Ideal Local DP" columns in Tables II–V): inversion sampling at
//! `f64` precision with a 53-bit uniform. It is the reference distribution;
//! the point of the paper is that real ULP hardware cannot realize it.

use crate::source::RandomBits;

/// An inversion-method sampler for the zero-mean Laplace distribution
/// `Lap(λ)` with density `f(x) = exp(-|x|/λ) / (2λ)`.
///
/// # Examples
///
/// ```
/// use ulp_rng::{IdealLaplace, Taus88};
///
/// let lap = IdealLaplace::new(20.0)?;
/// let mut rng = Taus88::from_seed(1);
/// let n = lap.sample(&mut rng);
/// assert!(n.is_finite());
/// # Ok::<(), ulp_rng::RngError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealLaplace {
    lambda: f64,
}

impl IdealLaplace {
    /// Creates a sampler with scale `λ`.
    ///
    /// # Errors
    ///
    /// [`crate::RngError::InvalidConfig`] if `λ` is not finite and positive.
    pub fn new(lambda: f64) -> Result<Self, crate::RngError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(crate::RngError::InvalidConfig(
                "Laplace scale must be finite and positive",
            ));
        }
        Ok(IdealLaplace { lambda })
    }

    /// The scale parameter `λ`.
    pub fn lambda(self) -> f64 {
        self.lambda
    }

    /// Draws one sample using two independent uniforms (sign + magnitude),
    /// matching the paper's Eq. (8): `n = λ·sgn(u1 − 0.5)·log(u2)`.
    pub fn sample<R: RandomBits + ?Sized>(self, rng: &mut R) -> f64 {
        let sign = if rng.bit() { 1.0 } else { -1.0 };
        // u2 ∈ (0, 1]: 53 uniform bits, +1 so ln never sees zero.
        let m = rng.bits(53) + 1;
        let u2 = m as f64 * 2f64.powi(-53);
        sign * (-self.lambda * u2.ln())
    }

    /// Probability density at `x`.
    pub fn pdf(self, x: f64) -> f64 {
        (-x.abs() / self.lambda).exp() / (2.0 * self.lambda)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.lambda).exp()
        } else {
            1.0 - 0.5 * (-x / self.lambda).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tausworthe::Taus88;

    /// The inverse CDF (quantile) of `lap` at `p ∈ (0, 1)`.
    fn icdf(lap: IdealLaplace, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "icdf domain is (0,1), got {p}");
        if p < 0.5 {
            lap.lambda * (2.0 * p).ln()
        } else {
            -lap.lambda * (2.0 * (1.0 - p)).ln()
        }
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(IdealLaplace::new(0.0).is_err());
        assert!(IdealLaplace::new(-1.0).is_err());
        assert!(IdealLaplace::new(f64::NAN).is_err());
    }

    #[test]
    fn sample_moments_match_theory() {
        let lap = IdealLaplace::new(20.0).unwrap();
        let mut rng = Taus88::from_seed(42);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| lap.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        // Lap(λ): mean 0, variance 2λ².
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!((var / 800.0 - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn cdf_icdf_roundtrip() {
        let lap = IdealLaplace::new(3.0).unwrap();
        for &p in &[0.01, 0.1, 0.4, 0.5, 0.6, 0.9, 0.99] {
            let x = icdf(lap, p);
            assert!((lap.cdf(x) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn cdf_is_monotone_and_symmetric() {
        let lap = IdealLaplace::new(2.0).unwrap();
        assert!((lap.cdf(0.0) - 0.5).abs() < 1e-15);
        for &x in &[0.5, 1.0, 5.0] {
            assert!((lap.cdf(-x) + lap.cdf(x) - 1.0).abs() < 1e-12);
            assert!(lap.cdf(x) > lap.cdf(x - 0.1));
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let lap = IdealLaplace::new(1.5).unwrap();
        let (a, b, steps) = (-40.0, 40.0, 100_000);
        let h = (b - a) / steps as f64;
        let integral: f64 = (0..steps)
            .map(|i| lap.pdf(a + (i as f64 + 0.5) * h) * h)
            .sum();
        assert!((integral - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empirical_cdf_matches_analytic() {
        let lap = IdealLaplace::new(10.0).unwrap();
        let mut rng = Taus88::from_seed(7);
        let n = 100_000;
        let mut xs: Vec<f64> = (0..n).map(|_| lap.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Kolmogorov-Smirnov style check at a few quantiles.
        for &q in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let idx = (q * n as f64) as usize;
            let emp = xs[idx];
            let want = icdf(lap, q);
            assert!(
                (lap.cdf(emp) - q).abs() < 0.01,
                "quantile {q}: sample {emp}, expected near {want}"
            );
        }
    }
}
