//! The fixed-point Laplace RNG of Section III-A2 (Fig. 3).
//!
//! The hardware pipeline is: a `Bu`-bit uniform word `u = m·2^-Bu`
//! (`m ∈ {1, …, 2^Bu}`), mapped through the half-ICDF `-λ·ln u`, rounded to
//! the nearest output grid point `kΔ` (a `By`-bit signed word), and given a
//! random sign. Because `u ≥ 2^-Bu`, the largest magnitude the unit can emit
//! is `λ·Bu·ln 2` — the bounded support that breaks the naive Laplace
//! mechanism's privacy guarantee.

use crate::error::RngError;
use crate::source::RandomBits;

/// Static configuration of a fixed-point Laplace RNG.
///
/// `Bu` is the uniform generator's output width, `By` the signed output word
/// width, `Δ` the output quantization step, and `λ` the Laplace scale
/// (`λ = d/ε` for the local-DP mechanism over a sensor range of length `d`).
///
/// # Examples
///
/// ```
/// use ulp_rng::FxpLaplaceConfig;
///
/// // The paper's Fig. 4 setting: Bu=17, By=12, Δ=10/2^5, Lap(20).
/// let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
/// // Largest generatable magnitude ≈ λ·Bu·ln2 ≈ 235.7, on the Δ grid.
/// assert_eq!(cfg.max_magnitude(), 754.0 * 10.0 / 32.0);
/// # Ok::<(), ulp_rng::RngError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FxpLaplaceConfig {
    bu: u8,
    by: u8,
    delta: f64,
    lambda: f64,
}

impl FxpLaplaceConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] unless `1 ≤ Bu ≤ 52` (so `2^Bu` counts
    /// stay exact in `f64`/`u64` arithmetic), `2 ≤ By ≤ 62`, and `Δ`, `λ`
    /// are finite and positive.
    pub fn new(bu: u8, by: u8, delta: f64, lambda: f64) -> Result<Self, RngError> {
        if !(1..=52).contains(&bu) {
            return Err(RngError::InvalidConfig("Bu must be in 1..=52"));
        }
        if !(2..=62).contains(&by) {
            return Err(RngError::InvalidConfig("By must be in 2..=62"));
        }
        if !(delta.is_finite() && delta > 0.0) {
            return Err(RngError::InvalidConfig("Δ must be finite and positive"));
        }
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(RngError::InvalidConfig("λ must be finite and positive"));
        }
        Ok(FxpLaplaceConfig {
            bu,
            by,
            delta,
            lambda,
        })
    }

    /// URNG output width `Bu`.
    pub fn bu(self) -> u8 {
        self.bu
    }

    /// Output word width `By` (signed).
    pub fn by(self) -> u8 {
        self.by
    }

    /// Output quantization step `Δ`.
    pub fn delta(self) -> f64 {
        self.delta
    }

    /// Laplace scale `λ`.
    pub fn lambda(self) -> f64 {
        self.lambda
    }

    /// Number of distinct URNG outputs, `2^Bu`.
    pub fn urng_cardinality(self) -> u64 {
        1u64 << self.bu
    }

    /// Largest representable magnitude index in the `By`-bit signed output
    /// word: `2^(By-1) - 1` (sign-magnitude generation yields a symmetric
    /// range).
    fn max_output_k(self) -> i64 {
        (1i64 << (self.by - 1)) - 1
    }

    /// The magnitude index produced by the rarest uniform (`m = 1`), before
    /// output-word saturation: `round(λ·Bu·ln2 / Δ)`.
    fn natural_max_k(self) -> i64 {
        (self.lambda * self.bu as f64 * std::f64::consts::LN_2 / self.delta).round() as i64
    }

    /// Largest magnitude index actually emitted.
    pub fn support_max_k(self) -> i64 {
        self.natural_max_k().min(self.max_output_k())
    }

    /// Largest magnitude value the RNG can emit, `support_max_k() · Δ`
    /// (`L` in the paper's Fig. 4 discussion; ≈ `λ·Bu·ln2` when the output
    /// word is wide enough).
    pub fn max_magnitude(self) -> f64 {
        self.support_max_k() as f64 * self.delta
    }

    /// Whether the `By`-bit output word clips the URNG-limited range
    /// (`natural_max_k > max_output_k`).
    pub fn saturates(self) -> bool {
        self.natural_max_k() > self.max_output_k()
    }

    /// The deterministic magnitude map of the inversion datapath: URNG index
    /// `m ∈ [1, 2^Bu]` to output magnitude index `k` (before saturation the
    /// value is `round(λ·(Bu·ln2 − ln m)/Δ)`).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `[1, 2^Bu]`.
    pub fn magnitude_index(self, m: u64) -> i64 {
        assert!(
            m >= 1 && m <= self.urng_cardinality(),
            "URNG index m={m} out of range [1, 2^{}]",
            self.bu
        );
        let neg_ln_u = self.bu as f64 * std::f64::consts::LN_2 - (m as f64).ln();
        let k = (self.lambda * neg_ln_u / self.delta).round() as i64;
        k.min(self.max_output_k())
    }
}

/// The fixed-point Laplace RNG (Fig. 3): URNG → ICDF → rounder → sign.
///
/// # Examples
///
/// ```
/// use ulp_rng::{FxpLaplace, FxpLaplaceConfig, Taus88};
///
/// let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
/// let sampler = FxpLaplace::analytic(cfg);
/// let mut rng = Taus88::from_seed(2018);
/// let k = sampler.sample_index(&mut rng);
/// // Bounded support — this is the nonideality the paper exploits.
/// assert!(k.abs() <= cfg.support_max_k());
/// # Ok::<(), ulp_rng::RngError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FxpLaplace {
    cfg: FxpLaplaceConfig,
}

impl FxpLaplace {
    /// Creates a sampler using double-precision `ln`, the exact
    /// mathematical model of Section III-A2: its output distribution is
    /// exactly [`crate::FxpNoisePmf`].
    pub fn analytic(cfg: FxpLaplaceConfig) -> Self {
        FxpLaplace { cfg }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> FxpLaplaceConfig {
        self.cfg
    }

    /// Draws one signed magnitude index `k` (so the noise value is `kΔ`).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ScriptedBits;
    use crate::tausworthe::Taus88;

    fn paper_cfg() -> FxpLaplaceConfig {
        // Fig. 4: Bu=17, By=12, Δ=10/2^5, Lap(20).
        FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(FxpLaplaceConfig::new(0, 12, 0.1, 1.0).is_err());
        assert!(FxpLaplaceConfig::new(53, 12, 0.1, 1.0).is_err());
        assert!(FxpLaplaceConfig::new(17, 1, 0.1, 1.0).is_err());
        assert!(FxpLaplaceConfig::new(17, 63, 0.1, 1.0).is_err());
        assert!(FxpLaplaceConfig::new(17, 12, 0.0, 1.0).is_err());
        assert!(FxpLaplaceConfig::new(17, 12, 0.1, -1.0).is_err());
        assert!(FxpLaplaceConfig::new(17, 12, 0.1, 1.0).is_ok());
    }

    #[test]
    fn paper_setting_has_expected_bounds() {
        let cfg = paper_cfg();
        // L = λ·Bu·ln2 = 20·17·ln2 ≈ 235.67; k_nat = round(235.67/0.3125).
        assert_eq!(cfg.natural_max_k(), 754);
        assert_eq!(cfg.max_output_k(), 2047);
        assert!(!cfg.saturates());
        assert_eq!(cfg.support_max_k(), 754);
    }

    #[test]
    fn extreme_uniform_maps_to_max_magnitude() {
        let cfg = paper_cfg();
        assert_eq!(cfg.magnitude_index(1), cfg.natural_max_k());
        // The most likely uniform (m = 2^Bu, u = 1) maps to zero noise.
        assert_eq!(cfg.magnitude_index(cfg.urng_cardinality()), 0);
    }

    #[test]
    fn magnitude_is_monotone_in_m() {
        let cfg = FxpLaplaceConfig::new(10, 12, 0.25, 5.0).unwrap();
        let mut prev = i64::MAX;
        for m in 1..=cfg.urng_cardinality() {
            let k = cfg.magnitude_index(m);
            assert!(k <= prev, "magnitude must decrease as m grows");
            prev = k;
        }
    }

    #[test]
    fn narrow_output_word_saturates() {
        // By=6 → max_output_k = 31 while natural max is much larger.
        let cfg = FxpLaplaceConfig::new(17, 6, 10.0 / 32.0, 20.0).unwrap();
        assert!(cfg.saturates());
        assert_eq!(cfg.magnitude_index(1), 31);
    }

    #[test]
    fn sample_respects_support_bound() {
        let cfg = paper_cfg();
        let s = FxpLaplace::analytic(cfg);
        let mut rng = Taus88::from_seed(5);
        for _ in 0..10_000 {
            let k = s.sample_index(&mut rng);
            assert!(k.abs() <= cfg.support_max_k());
        }
    }

    #[test]
    fn scripted_bits_hit_the_deepest_tail() {
        let cfg = paper_cfg();
        let s = FxpLaplace::analytic(cfg);
        // First word: sign bit (MSB=0 → positive). Second: Bu bits all zero
        // → m = 1 → deepest tail.
        let mut src = ScriptedBits::new(vec![0x0000_0000, 0x0000_0000]);
        let k = s.sample_index(&mut src);
        assert_eq!(k, cfg.natural_max_k());
    }

    #[test]
    fn sign_bit_controls_sign() {
        let cfg = paper_cfg();
        let s = FxpLaplace::analytic(cfg);
        let mut src = ScriptedBits::new(vec![0x8000_0000, 0x0000_0000]);
        let k = s.sample_index(&mut src);
        assert_eq!(k, -cfg.natural_max_k());
    }

    #[test]
    fn empirical_distribution_tracks_ideal_in_the_body() {
        let cfg = paper_cfg();
        let s = FxpLaplace::analytic(cfg);
        let mut rng = Taus88::from_seed(1);
        let n = 200_000;
        let within_one_lambda = (0..n)
            .map(|_| s.sample_index(&mut rng) as f64 * cfg.delta())
            .filter(|x| x.abs() <= 20.0)
            .count();
        // Ideal Lap(20): P(|X| ≤ λ) = 1 − e^-1 ≈ 0.632.
        let frac = within_one_lambda as f64 / n as f64;
        assert!((frac - 0.632).abs() < 0.01, "got {frac}");
    }
}
