//! Gaussian samplers — the generalization of Section III-A4.
//!
//! The paper argues the infinite-loss problem is not Laplace-specific:
//! *any* DP noise distribution (Laplace, Gaussian, staircase) realized on
//! finite-precision hardware has bounded support and quantized tail
//! probabilities. This module provides an inversion-method fixed-point
//! Gaussian; its exact PMF plugs into the same loss analysis via [`crate::FxpNoisePmf::from_magnitude_counts`],
//! and the workspace tests show the same break-and-fix story holds.

use crate::error::RngError;
use crate::pmf::FxpNoisePmf;
use crate::source::RandomBits;

/// Standard normal CDF `Φ(x)`, via the Abramowitz–Stegun 7.1.26 erf
/// approximation (|error| < 1.5e-7 — far below any grid resolution used
/// here).
fn normal_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * z.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf_abs = 1.0 - poly * (-z * z).exp();
    let erf = if z >= 0.0 { erf_abs } else { -erf_abs };
    0.5 * (1.0 + erf)
}

/// Standard normal inverse CDF `Φ⁻¹(p)` for `p ∈ (0, 1)`, Acklam's rational
/// approximation refined by one Halley step against [`normal_cdf`].
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
fn normal_icdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "icdf domain is (0,1), got {p}");
    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Configuration of the fixed-point Gaussian RNG: same structure as the
/// Laplace one (`Bu`-bit magnitude uniform, `By`-bit output, grid `Δ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FxpGaussianConfig {
    bu: u8,
    by: u8,
    delta: f64,
    sigma: f64,
}

impl FxpGaussianConfig {
    /// Creates a configuration (same bounds as the Laplace config).
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] for out-of-range word widths or
    /// non-positive `Δ`/`σ`.
    pub fn new(bu: u8, by: u8, delta: f64, sigma: f64) -> Result<Self, RngError> {
        if !(1..=26).contains(&bu) {
            return Err(RngError::InvalidConfig(
                "Bu must be in 1..=26 (PMF is built by enumeration)",
            ));
        }
        if !(2..=62).contains(&by) {
            return Err(RngError::InvalidConfig("By must be in 2..=62"));
        }
        if !(delta.is_finite() && delta > 0.0) {
            return Err(RngError::InvalidConfig("Δ must be finite and positive"));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(RngError::InvalidConfig("σ must be finite and positive"));
        }
        Ok(FxpGaussianConfig {
            bu,
            by,
            delta,
            sigma,
        })
    }

    /// URNG magnitude width `Bu`.
    pub fn bu(self) -> u8 {
        self.bu
    }

    /// Output word width `By`.
    pub fn by(self) -> u8 {
        self.by
    }

    /// Grid step `Δ`.
    pub fn delta(self) -> f64 {
        self.delta
    }

    /// Standard deviation `σ`.
    pub fn sigma(self) -> f64 {
        self.sigma
    }

    /// Largest representable magnitude index.
    pub fn max_output_k(self) -> i64 {
        (1i64 << (self.by - 1)) - 1
    }

    /// The magnitude map: uniform index `m ∈ [1, 2^Bu]` to grid index, via
    /// the half-normal ICDF `σ·Φ⁻¹(1 − u/2)`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn magnitude_index(self, m: u64) -> i64 {
        assert!(
            m >= 1 && m <= (1u64 << self.bu),
            "uniform index out of range"
        );
        let u = m as f64 * 2f64.powi(-(self.bu as i32));
        let mag = if u >= 1.0 {
            0.0
        } else {
            self.sigma * normal_icdf(1.0 - u / 2.0)
        };
        ((mag / self.delta).round() as i64).min(self.max_output_k())
    }
}

/// The fixed-point Gaussian RNG (sign bit + ICDF magnitude path).
///
/// # Examples
///
/// ```
/// use ulp_rng::{FxpGaussian, FxpGaussianConfig, Taus88};
///
/// let cfg = FxpGaussianConfig::new(16, 12, 0.25, 8.0)?;
/// let g = FxpGaussian::new(cfg);
/// let mut rng = Taus88::from_seed(7);
/// let k = g.sample_index(&mut rng);
/// // Bounded support — the same nonideality as the Laplace RNG.
/// assert!(k.abs() <= g.pmf().support_max_k());
/// # Ok::<(), ulp_rng::RngError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FxpGaussian {
    cfg: FxpGaussianConfig,
    pmf: FxpNoisePmf,
}

impl FxpGaussian {
    /// Creates the sampler and builds its exact PMF by enumeration.
    pub fn new(cfg: FxpGaussianConfig) -> Self {
        let mut counts = vec![0u64; (cfg.max_output_k() + 1) as usize];
        let mut top = 0usize;
        for m in 1..=(1u64 << cfg.bu) {
            let k = cfg.magnitude_index(m) as usize;
            counts[k] += 1;
            top = top.max(k);
        }
        counts.truncate(top + 1);
        FxpGaussian {
            cfg,
            pmf: FxpNoisePmf::from_magnitude_counts(cfg.bu(), counts),
        }
    }

    /// The configuration.
    pub fn config(&self) -> FxpGaussianConfig {
        self.cfg
    }

    /// The exact output PMF (shared analysis machinery with the Laplace
    /// sampler).
    pub fn pmf(&self) -> &FxpNoisePmf {
        &self.pmf
    }

    /// Draws one signed magnitude index.
    pub fn sample_index<R: RandomBits + ?Sized>(&self, rng: &mut R) -> i64 {
        let negative = rng.bit();
        let m = rng.bits(self.cfg.bu) + 1;
        let k = self.cfg.magnitude_index(m);
        if negative {
            -k
        } else {
            k
        }
    }

    /// Draws one noise value `kΔ`.
    pub fn sample<R: RandomBits + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_index(rng) as f64 * self.cfg.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tausworthe::Taus88;

    #[test]
    fn icdf_cdf_roundtrip() {
        for &p in &[1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6] {
            let x = normal_icdf(p);
            assert!((normal_cdf(x) - p).abs() < 2e-7, "p={p}: x={x}");
        }
    }

    #[test]
    fn icdf_known_values() {
        // Accuracy is limited by the A-S erf approximation (~1.5e-7).
        assert!(normal_icdf(0.5).abs() < 1e-6);
        assert!((normal_icdf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((normal_icdf(0.025) + 1.959_964).abs() < 1e-4);
    }

    #[test]
    fn fxp_gaussian_support_is_bounded() {
        let cfg = FxpGaussianConfig::new(16, 14, 0.25, 8.0).unwrap();
        let g = FxpGaussian::new(cfg);
        // Deepest uniform: magnitude σ·Φ⁻¹(1 − 2^-17) ≈ σ·4.2.
        let expected_max = (8.0 * normal_icdf(1.0 - 2f64.powi(-17)) / 0.25).round() as i64;
        assert_eq!(g.pmf().support_max_k(), expected_max);
    }

    #[test]
    fn fxp_gaussian_pmf_matches_sampler() {
        let cfg = FxpGaussianConfig::new(12, 12, 0.5, 4.0).unwrap();
        let g = FxpGaussian::new(cfg);
        let mut rng = Taus88::from_seed(8);
        let n = 300_000;
        let mut hist = std::collections::HashMap::new();
        for _ in 0..n {
            *hist.entry(g.sample_index(&mut rng)).or_insert(0u64) += 1;
        }
        for k in -8i64..=8 {
            let p = g.pmf().prob(k);
            let emp = *hist.get(&k).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (emp - p).abs() < 5.0 * (p / n as f64).sqrt() + 1e-4,
                "k={k}: emp {emp} vs pmf {p}"
            );
        }
    }

    #[test]
    fn fxp_gaussian_tracks_ideal_density_in_body() {
        let cfg = FxpGaussianConfig::new(16, 14, 0.25, 8.0).unwrap();
        let g = FxpGaussian::new(cfg);
        for k in [0i64, 8, 16, 32, 64] {
            let x = k as f64 * 0.25;
            let ideal =
                0.25 * (-x * x / (2.0 * 64.0)).exp() / (8.0 * (2.0 * std::f64::consts::PI).sqrt());
            let got = g.pmf().prob(k);
            assert!(
                (got - ideal).abs() / ideal < 0.03,
                "k={k}: got {got}, ideal {ideal}"
            );
        }
    }

    #[test]
    fn gaussian_tail_has_gaps_like_laplace() {
        // The paper's generalization: any finite-precision RNG shows the
        // same tail pathology.
        let cfg = FxpGaussianConfig::new(16, 14, 0.1, 4.0).unwrap();
        let g = FxpGaussian::new(cfg);
        assert!(g.pmf().interior_gap_count() > 0);
    }

    #[test]
    fn config_validation() {
        assert!(FxpGaussianConfig::new(0, 12, 0.5, 1.0).is_err());
        assert!(FxpGaussianConfig::new(27, 12, 0.5, 1.0).is_err());
        assert!(FxpGaussianConfig::new(16, 1, 0.5, 1.0).is_err());
        assert!(FxpGaussianConfig::new(16, 12, 0.0, 1.0).is_err());
        assert!(FxpGaussianConfig::new(16, 12, 0.5, -1.0).is_err());
    }
}
