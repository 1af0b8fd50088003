//! The staircase mechanism (Geng–Viswanath) — the third noise family the
//! paper names in its generalization (Section III-A4).
//!
//! The staircase distribution is the utility-optimal ε-DP noise for ℓ₁
//! error: a geometrically decaying stack of two-level steps of period `d`
//! (the sensitivity). Like Laplace and Gaussian, its ideal form guarantees
//! ε-DP — and like them, its fixed-point realization has bounded support
//! and quantized tail probabilities, so naive FxP staircase noising is not
//! private either. Both facts are machine-checked by the workspace tests.
//!
//! The survival function of `|X|` is piecewise linear with the clean
//! property `S(k·d) = e^{-kε}`, which gives closed-form inversion — the
//! hardware-friendliest of the three families (no transcendental
//! evaluation in the datapath at all).

use crate::error::RngError;
use crate::pmf::{FxpNoisePmf, MAX_PMF_SUPPORT};

/// The continuous staircase distribution with privacy parameter `ε`,
/// period (sensitivity) `d`, and step-split `γ ∈ (0, 1)`.
///
/// Density for `x ≥ 0`, with `b = e^{-ε}` and
/// `a = (1-b) / (2d(γ + b(1-γ)))`:
/// `f(x) = a·b^k` on `[kd, (k+γ)d)` and `a·b^{k+1}` on `[(k+γ)d, (k+1)d)`,
/// mirrored for `x < 0`.
///
/// # Examples
///
/// ```
/// use ulp_rng::IdealStaircase;
///
/// // The utility-optimal split γ* for ε = 0.5 over a period of 10.
/// assert!(IdealStaircase::optimal(0.5, 10.0).is_ok());
/// assert!(IdealStaircase::optimal(0.0, 10.0).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealStaircase {
    eps: f64,
    d: f64,
    gamma: f64,
}

impl IdealStaircase {
    /// Creates a staircase distribution.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] unless `ε > 0`, `d > 0`, and
    /// `0 < γ < 1` (all finite).
    fn new(eps: f64, d: f64, gamma: f64) -> Result<Self, RngError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(RngError::InvalidConfig("ε must be finite and positive"));
        }
        if !(d.is_finite() && d > 0.0) {
            return Err(RngError::InvalidConfig("d must be finite and positive"));
        }
        if !(gamma.is_finite() && gamma > 0.0 && gamma < 1.0) {
            return Err(RngError::InvalidConfig("γ must be in (0, 1)"));
        }
        Ok(IdealStaircase { eps, d, gamma })
    }

    /// The utility-optimal split for ℓ₁ error, `γ* = 1/(1 + e^{ε/2})`.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] unless `ε > 0` and `d > 0` (both
    /// finite).
    pub fn optimal(eps: f64, d: f64) -> Result<Self, RngError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(RngError::InvalidConfig("ε must be finite and positive"));
        }
        Self::new(eps, d, 1.0 / (1.0 + (eps / 2.0).exp()))
    }

    fn b(self) -> f64 {
        (-self.eps).exp()
    }

    /// The density normalizer `a(γ)`.
    fn a(self) -> f64 {
        let b = self.b();
        (1.0 - b) / (2.0 * self.d * (self.gamma + b * (1.0 - self.gamma)))
    }

    /// Survival of the magnitude, `S(x) = Pr[|X| ≥ x]` for `x ≥ 0`, with
    /// the closed form `S(kd) = e^{-kε}`.
    ///
    /// # Errors
    ///
    /// [`RngError::OutOfDomain`] if `x < 0` or `x` is NaN.
    fn survival(self, x: f64) -> Result<f64, RngError> {
        if x < 0.0 || x.is_nan() {
            return Err(RngError::OutOfDomain("survival is defined for x ≥ 0"));
        }
        let b = self.b();
        let k = (x / self.d).floor();
        let t = x - k * self.d;
        let rem = if t < self.gamma * self.d {
            (self.gamma * self.d - t) + b * (1.0 - self.gamma) * self.d
        } else {
            b * (self.d - t)
        };
        let c = self.gamma + b * (1.0 - self.gamma);
        Ok(2.0 * self.a() * b.powf(k) * (rem + b * self.d * c / (1.0 - b)))
    }

    /// Inverse of [`IdealStaircase::survival`]: the magnitude `x` with
    /// `S(x) = u`, for `u ∈ (0, 1]`. Piecewise linear — no transcendentals
    /// beyond one logarithm for the period index.
    ///
    /// # Errors
    ///
    /// [`RngError::OutOfDomain`] if `u` is outside `(0, 1]` or NaN.
    fn survival_inverse(self, u: f64) -> Result<f64, RngError> {
        if !(u > 0.0 && u <= 1.0) {
            return Err(RngError::OutOfDomain("survival inverse domain is (0,1]"));
        }
        let b = self.b();
        // Period: u ∈ (b^{k+1}, b^k].
        let k = (u.ln() / b.ln()).floor().max(0.0);
        let k = if b.powf(k) < u { k - 1.0 } else { k };
        let s = u / b.powf(k); // ∈ (b, 1]
        let rem = (s - b) / (2.0 * self.a() * self.d) * self.d; // rem in value units
        let boundary = b * (1.0 - self.gamma) * self.d;
        let t = if rem > boundary {
            self.gamma * self.d + boundary - rem
        } else {
            self.d - rem / b
        };
        Ok(k * self.d + t.clamp(0.0, self.d))
    }
}

/// Configuration of the fixed-point staircase RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FxpStaircaseConfig {
    bu: u8,
    by: u8,
    delta: f64,
}

impl FxpStaircaseConfig {
    /// Creates a configuration (`Bu`-bit magnitude uniform, `By`-bit
    /// output word, grid step `Δ`).
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] for out-of-range widths or non-positive
    /// `Δ`.
    pub fn new(bu: u8, by: u8, delta: f64) -> Result<Self, RngError> {
        if !(1..=52).contains(&bu) {
            return Err(RngError::InvalidConfig("Bu must be in 1..=52"));
        }
        if !(2..=62).contains(&by) {
            return Err(RngError::InvalidConfig("By must be in 2..=62"));
        }
        if !(delta.is_finite() && delta > 0.0) {
            return Err(RngError::InvalidConfig("Δ must be finite and positive"));
        }
        Ok(FxpStaircaseConfig { bu, by, delta })
    }

    /// Largest representable magnitude index.
    fn max_output_k(self) -> i64 {
        (1i64 << (self.by - 1)) - 1
    }
}

/// The fixed-point staircase RNG: `Bu`-bit uniform → piecewise-linear
/// inverse survival → round to `kΔ` → sign, as its exact output PMF.
///
/// # Examples
///
/// ```
/// use ulp_rng::{FxpStaircase, FxpStaircaseConfig, IdealStaircase};
///
/// let st = IdealStaircase::optimal(0.5, 10.0)?;
/// let cfg = FxpStaircaseConfig::new(17, 14, 10.0 / 32.0)?;
/// let fxp = FxpStaircase::new(cfg, st)?;
/// assert!(fxp.pmf().interior_gap_count() > 0); // tail gaps, like Laplace
/// # Ok::<(), ulp_rng::RngError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FxpStaircase {
    pmf: FxpNoisePmf,
}

impl FxpStaircase {
    /// Derives the sampler's exact PMF from the survival function: the
    /// number of uniforms mapping to magnitude `k` is
    /// `⌊2^Bu·S((k-½)Δ)⌋ − ⌊2^Bu·S((k+½)Δ)⌋` — the same interval-count
    /// structure as the Laplace Eq. 11.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] if the support reaches 2^26 magnitudes.
    pub fn new(cfg: FxpStaircaseConfig, dist: IdealStaircase) -> Result<Self, RngError> {
        let two_bu = (1u64 << cfg.bu) as f64;
        let s = |x: f64| -> f64 {
            if x <= 0.0 {
                1.0
            } else {
                dist.survival(x).expect("x > 0 is in the survival domain")
            }
        };
        // Support top: deepest magnitude reachable from u = 2^-Bu.
        let top_val = dist
            .survival_inverse(1.0 / two_bu)
            .expect("2^-Bu is in (0, 1] for Bu in 1..=52");
        let top = ((top_val / cfg.delta).round() as i64).min(cfg.max_output_k());
        if top.unsigned_abs() >= MAX_PMF_SUPPORT {
            return Err(RngError::InvalidConfig(
                "staircase support exceeds 2^26 magnitudes: Δ too small for the output word",
            ));
        }
        let mut counts = vec![0u64; (top + 1) as usize];
        if top == 0 {
            counts[0] = 1u64 << cfg.bu;
        } else {
            counts[0] = (1u64 << cfg.bu) - (two_bu * s(0.5 * cfg.delta)).floor() as u64;
            for k in 1..top {
                let hi = (two_bu * s((k as f64 - 0.5) * cfg.delta)).floor() as u64;
                let lo = (two_bu * s((k as f64 + 0.5) * cfg.delta)).floor() as u64;
                counts[k as usize] = hi.saturating_sub(lo);
            }
            counts[top as usize] = (two_bu * s((top as f64 - 0.5) * cfg.delta)).floor() as u64;
            // Repair any floor-rounding drift so the counts partition 2^Bu
            // exactly (drift can only be ±1 on the top bin).
            let sum: u64 = counts.iter().sum();
            let want = 1u64 << cfg.bu;
            let top_idx = top as usize;
            if sum > want {
                counts[top_idx] -= sum - want;
            } else {
                counts[top_idx] += want - sum;
            }
        }
        Ok(FxpStaircase {
            pmf: FxpNoisePmf::from_magnitude_counts(cfg.bu, counts),
        })
    }

    /// The exact output PMF.
    pub fn pmf(&self) -> &FxpNoisePmf {
        &self.pmf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> IdealStaircase {
        IdealStaircase::new(0.5, 10.0, 0.5).unwrap()
    }

    /// The hardware datapath's magnitude map: uniform index `m ∈ [1, 2^Bu]`
    /// to magnitude index, by inverse survival.
    fn magnitude_index(cfg: FxpStaircaseConfig, dist: IdealStaircase, m: u64) -> i64 {
        let u = m as f64 * 2f64.powi(-(cfg.bu as i32));
        let mag = dist.survival_inverse(u).unwrap();
        ((mag / cfg.delta).round() as i64).min(cfg.max_output_k())
    }

    #[test]
    fn validation() {
        assert!(IdealStaircase::new(0.0, 1.0, 0.5).is_err());
        assert!(IdealStaircase::new(1.0, 0.0, 0.5).is_err());
        assert!(IdealStaircase::new(1.0, 1.0, 0.0).is_err());
        assert!(IdealStaircase::new(1.0, 1.0, 1.0).is_err());
        assert!(FxpStaircaseConfig::new(0, 12, 0.5).is_err());
        assert!(FxpStaircaseConfig::new(17, 12, -1.0).is_err());
    }

    #[test]
    fn survival_at_period_boundaries_is_geometric() {
        let st = dist();
        for k in 0..8 {
            let s = st.survival(k as f64 * 10.0).unwrap();
            let want = (-0.5 * k as f64).exp();
            assert!((s - want).abs() < 1e-12, "k={k}: {s} vs {want}");
        }
        assert!((st.survival(0.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn survival_domain_violations_are_typed_errors() {
        // Regression: these used to be `assert!`s, so a caller handing in a
        // negative magnitude or an out-of-range uniform crashed the process
        // instead of getting a recoverable error.
        let st = dist();
        assert!((st.survival(0.0).unwrap() - 1.0).abs() < 1e-12);
        for bad in [-1.0, -f64::MIN_POSITIVE, f64::NEG_INFINITY, f64::NAN] {
            assert!(
                matches!(st.survival(bad), Err(RngError::OutOfDomain(_))),
                "survival({bad}) should be out of domain"
            );
        }
        assert!((st.survival_inverse(1.0).unwrap()).abs() < 1e-12);
        assert!(st.survival_inverse(1e-300).unwrap().is_finite());
        for bad in [0.0, -0.5, 1.0 + 1e-9, 2.0, f64::INFINITY, f64::NAN] {
            assert!(
                matches!(st.survival_inverse(bad), Err(RngError::OutOfDomain(_))),
                "survival_inverse({bad}) should be out of domain"
            );
        }
    }

    #[test]
    fn survival_inverse_roundtrips() {
        let st = dist();
        for &u in &[1.0, 0.9, 0.7, 0.5, 0.25, 0.1, 1e-3, 1e-6] {
            let x = st.survival_inverse(u).unwrap();
            let back = st.survival(x).unwrap();
            assert!((back - u).abs() < 1e-9, "u={u}: x={x}, S(x)={back}");
        }
    }

    #[test]
    fn fxp_pmf_mass_is_exact() {
        let cfg = FxpStaircaseConfig::new(14, 14, 10.0 / 32.0).unwrap();
        let fxp = FxpStaircase::new(cfg, dist()).unwrap();
        let total: u128 = fxp.pmf().iter().map(|(_, w)| w).sum();
        assert_eq!(total, fxp.pmf().total_weight());
    }

    #[test]
    fn fxp_pmf_matches_enumerated_sampler() {
        let cfg = FxpStaircaseConfig::new(12, 14, 0.5).unwrap();
        let st = IdealStaircase::new(1.0, 4.0, 0.5).unwrap();
        let fxp = FxpStaircase::new(cfg, st).unwrap();
        // Enumerate the sampler's deterministic magnitude map and compare
        // with the survival-derived counts.
        let mut counts = vec![0u64; (fxp.pmf().support_max_k() + 1) as usize];
        for m in 1..=(1u64 << cfg.bu) {
            counts[magnitude_index(cfg, st, m) as usize] += 1;
        }
        let mut mismatch = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            let w = fxp.pmf().weight(k as i64);
            let w = if k == 0 { w / 2 } else { w };
            mismatch += (c as i64 - w as i64).unsigned_abs();
        }
        // Boundary-rounding disagreements only: a vanishing fraction.
        assert!(
            mismatch <= (1u64 << cfg.bu) / 500,
            "{mismatch} count mismatches"
        );
    }

    #[test]
    fn fxp_support_is_bounded_with_tail_gaps() {
        let cfg = FxpStaircaseConfig::new(17, 16, 10.0 / 64.0).unwrap();
        let fxp = FxpStaircase::new(cfg, dist()).unwrap();
        // Bounded support: ~ d·Bu·ε⁻¹·ln2 periods deep.
        assert!(fxp.pmf().support_max_k() > 0);
        assert!(fxp.pmf().interior_gap_count() > 0, "expected tail gaps");
    }

    #[test]
    fn optimal_gamma_formula() {
        let st = IdealStaircase::optimal(2.0, 1.0).unwrap();
        assert!((st.gamma - 1.0 / (1.0 + 1.0f64.exp())).abs() < 1e-12);
    }

    #[test]
    fn a_support_too_wide_to_enumerate_is_a_typed_error() {
        let cfg = FxpStaircaseConfig::new(17, 62, 1e-30).unwrap();
        let st = IdealStaircase::optimal(0.5, 10.0).unwrap();
        assert!(matches!(
            FxpStaircase::new(cfg, st),
            Err(RngError::InvalidConfig(_))
        ));
    }
}
