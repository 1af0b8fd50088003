//! Rényi differential privacy accounting on exact fixed-point
//! distributions (extension beyond the paper).
//!
//! The paper budgets with pure-ε composition. Modern accountants track the
//! Rényi divergence `D_α` instead: it composes additively and converts to
//! `(ε, δ)`-DP tighter than basic composition for long query sequences.
//! Because this workspace carries *exact* output distributions, `D_α` is
//! computed exactly — no moment-generating-function bounds needed.

use crate::loss::{conditional, ConditionalDist, LimitMode, PrivacyLoss};
use crate::range::QuantizedRange;
use ulp_rng::FxpNoisePmf;

/// Exact Rényi divergence `D_α(P ‖ Q)` between two conditional output
/// distributions, in nats.
///
/// Returns [`PrivacyLoss::Infinite`] if `P` assigns mass to an output `Q`
/// cannot produce (the α-divergence diverges — exactly the naive FxP
/// failure mode).
///
/// # Panics
///
/// Panics unless `α > 1`.
///
/// # Examples
///
/// ```
/// use ldp_core::{renyi_divergence, ConditionalDist, QuantizedRange};
/// use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};
///
/// let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
/// let pmf = FxpNoisePmf::closed_form(cfg);
/// let range = QuantizedRange::new(0, 32, cfg.delta())?;
/// let p = ConditionalDist::thresholded(&pmf, range, 300, range.min_k());
/// let q = ConditionalDist::thresholded(&pmf, range, 300, range.max_k());
/// let d = renyi_divergence(&p, &q, 2.0);
/// assert!(d.finite().expect("bounded") > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn renyi_divergence(p: &ConditionalDist, q: &ConditionalDist, alpha: f64) -> PrivacyLoss {
    assert!(alpha > 1.0, "Rényi order must exceed 1, got {alpha}");
    // Work in log space (log-sum-exp) so large α cannot underflow.
    let mut terms = Vec::new();
    for (y, wp) in p.iter() {
        let wq = q.weight(y);
        if wq == 0 {
            return PrivacyLoss::Infinite;
        }
        let ln_p = (wp as f64).ln() - (p.norm() as f64).ln();
        let ln_q = (wq as f64).ln() - (q.norm() as f64).ln();
        terms.push(alpha * ln_p + (1.0 - alpha) * ln_q);
    }
    let m = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = terms.iter().map(|t| (t - m).exp()).sum();
    PrivacyLoss::Finite((m + sum.ln()) / (alpha - 1.0))
}

/// Worst-case exact Rényi divergence of a window-limited mechanism over the
/// extreme input pair (both directions).
pub fn worst_case_renyi(
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: Option<i64>,
    alpha: f64,
) -> PrivacyLoss {
    let p = conditional(pmf, range, mode, n_th_k, range.min_k());
    let q = conditional(pmf, range, mode, n_th_k, range.max_k());
    renyi_divergence(&p, &q, alpha).max(renyi_divergence(&q, &p, alpha))
}

/// An additive Rényi-DP accountant at a fixed order `α`.
///
/// Record the per-query `D_α` (e.g. from [`worst_case_renyi`]); the total
/// converts to `(ε, δ)`-DP via `ε = total + ln(1/δ)/(α−1)`.
///
/// # Examples
///
/// ```
/// use ldp_core::RdpAccountant;
///
/// let mut acc = RdpAccountant::new(8.0)?;
/// for _ in 0..100 {
///     acc.record(0.02);
/// }
/// let eps = acc.to_approx_dp(1e-6);
/// assert!(eps < 100.0 * 0.25); // far below what 100 pure-ε charges allow
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RdpAccountant {
    alpha: f64,
    total: f64,
    queries: u64,
}

impl RdpAccountant {
    /// Creates an accountant at order `α`.
    ///
    /// # Errors
    ///
    /// [`crate::LdpError::InvalidEpsilon`] unless `α > 1` and finite.
    pub fn new(alpha: f64) -> Result<Self, crate::LdpError> {
        if !(alpha.is_finite() && alpha > 1.0) {
            return Err(crate::LdpError::InvalidEpsilon(alpha));
        }
        Ok(RdpAccountant {
            alpha,
            total: 0.0,
            queries: 0,
        })
    }

    /// The fixed Rényi order.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records one query's `D_α` (nats).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values.
    pub fn record(&mut self, d_alpha: f64) {
        assert!(
            d_alpha.is_finite() && d_alpha >= 0.0,
            "Rényi charge must be finite and non-negative, got {d_alpha}"
        );
        self.total += d_alpha;
        self.queries += 1;
    }

    /// The composed `D_α` total.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of recorded queries.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Converts the running total to an `(ε, δ)`-DP guarantee:
    /// `ε = total + ln(1/δ)/(α−1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `δ ∈ (0, 1)`.
    pub fn to_approx_dp(&self, delta: f64) -> f64 {
        assert!(
            delta > 0.0 && delta < 1.0,
            "δ must be in (0,1), got {delta}"
        );
        self.total + (1.0 / delta).ln() / (self.alpha - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::FxpLaplaceConfig;

    fn setup() -> (FxpNoisePmf, QuantizedRange) {
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        (
            FxpNoisePmf::closed_form(cfg),
            QuantizedRange::new(0, 32, cfg.delta()).unwrap(),
        )
    }

    #[test]
    fn naive_mechanism_has_infinite_renyi() {
        let (pmf, range) = setup();
        let d = worst_case_renyi(&pmf, range, LimitMode::Thresholding, None, 2.0);
        assert_eq!(d, PrivacyLoss::Infinite);
    }

    #[test]
    fn renyi_is_monotone_in_alpha() {
        let (pmf, range) = setup();
        let mut prev = 0.0;
        for alpha in [1.5, 2.0, 4.0, 16.0, 64.0] {
            let d = worst_case_renyi(&pmf, range, LimitMode::Thresholding, Some(300), alpha)
                .finite()
                .unwrap();
            assert!(d >= prev - 1e-12, "α={alpha}: {d} < {prev}");
            prev = d;
        }
    }

    #[test]
    fn large_alpha_approaches_worst_case_loss() {
        use crate::loss::worst_case_loss;
        let (pmf, range) = setup();
        let worst = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(300))
            .finite()
            .unwrap();
        let d = worst_case_renyi(&pmf, range, LimitMode::Thresholding, Some(300), 512.0)
            .finite()
            .unwrap();
        assert!(d <= worst + 1e-9, "D_∞ bound violated: {d} > {worst}");
        assert!(
            d > 0.6 * worst,
            "α=512 should approach the sup-loss: {d} vs {worst}"
        );
    }

    #[test]
    fn divergence_of_identical_distributions_is_zero() {
        let (pmf, range) = setup();
        let p = conditional(&pmf, range, LimitMode::Thresholding, Some(200), 5);
        let d = renyi_divergence(&p, &p, 2.0).finite().unwrap();
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn rdp_accounting_beats_pure_composition() {
        // 500 queries: best RDP order vs pure-ε composition.
        let (pmf, range) = setup();
        let worst = crate::loss::worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(300))
            .finite()
            .unwrap();
        let eps_pure = 500.0 * worst;
        let eps_rdp = [2.0, 4.0, 8.0, 16.0]
            .iter()
            .map(|&alpha| {
                let d = worst_case_renyi(&pmf, range, LimitMode::Thresholding, Some(300), alpha)
                    .finite()
                    .unwrap();
                let mut acc = RdpAccountant::new(alpha).unwrap();
                for _ in 0..500 {
                    acc.record(d);
                }
                acc.to_approx_dp(1e-6)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            eps_rdp < 0.75 * eps_pure,
            "best RDP ε {eps_rdp} should beat pure ε {eps_pure}"
        );
    }

    #[test]
    #[should_panic(expected = "Rényi order must exceed 1")]
    fn alpha_one_is_rejected() {
        let (pmf, range) = setup();
        let p = conditional(&pmf, range, LimitMode::Thresholding, Some(200), 0);
        renyi_divergence(&p, &p, 1.0);
    }

    #[test]
    fn accountant_validation() {
        assert!(RdpAccountant::new(1.0).is_err());
        assert!(RdpAccountant::new(f64::NAN).is_err());
        let mut acc = RdpAccountant::new(2.0).unwrap();
        acc.record(0.1);
        assert_eq!(acc.queries(), 1);
        assert!((acc.total() - 0.1).abs() < 1e-15);
    }
}
