//! The support-gap distinguisher.
//!
//! Section III-A's privacy failure is a *support asymmetry*: an output `y`
//! reachable under input `x₁` but not under `x₂` has infinite Eq. 4 loss,
//! and an attacker who observes it identifies the input with certainty.
//! The optimal test against that failure needs no likelihood ratios — just
//! the two distinguishing regions
//!
//! * `D₁ = supp(P₁) \ supp(P₂)` → guess `x₁`,
//! * `D₂ = supp(P₂) \ supp(P₁)` → guess `x₂`,
//!
//! with a fair coin anywhere else. Its advantage over blind guessing is
//! `A = (P₁(D₁) + P₂(D₂)) / 2` — exactly the mean disjoint mass the loss
//! machinery computes, which is what lets the campaign compare *empirical*
//! attack performance against the *exact* prediction.

use std::collections::BTreeSet;

use ldp_core::ConditionalDist;

/// Result of an empirical distinguishing campaign: `trials_per_side` draws
/// under each input, scored against a planned support-gap test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// Draws taken under each of the two inputs.
    pub trials_per_side: u64,
    /// Draws from `P₁` that landed in the distinguishing region `D₁`.
    pub hits_x1: u64,
    /// Draws from `P₂` that landed in `D₂`.
    pub hits_x2: u64,
    /// Empirical advantage `(hits_x1 + hits_x2) / (2·trials_per_side)`.
    pub advantage: f64,
    /// Standard deviation of the advantage estimator under the null
    /// hypothesis (no support gap, coin-flip guessing): `1 / √(2N)` for
    /// `N` trials per side.
    pub sigma_null: f64,
    /// Whether the empirical advantage exceeds `3·sigma_null` — the
    /// campaign's "attack works" flag.
    pub flagged: bool,
}

impl AttackOutcome {
    /// Scores hit counts into an outcome.
    pub fn from_hits(trials_per_side: u64, hits_x1: u64, hits_x2: u64) -> Self {
        let n = trials_per_side as f64;
        let advantage = (hits_x1 + hits_x2) as f64 / (2.0 * n);
        let sigma_null = 1.0 / (2.0 * n).sqrt();
        AttackOutcome {
            trials_per_side,
            hits_x1,
            hits_x2,
            advantage,
            sigma_null,
            flagged: advantage > 3.0 * sigma_null,
        }
    }
}

/// A planned support-gap test over outputs of an ordered type `Y` (grid
/// indices `i64`, or `u64` double bit-patterns for the float attack).
///
/// # Examples
///
/// ```
/// use ldp_core::{conditional, LimitMode, QuantizedRange};
/// use ulp_attack::SupportGapAttack;
/// use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};
///
/// let cfg = FxpLaplaceConfig::new(8, 12, 0.5, 2.0)?;
/// let pmf = FxpNoisePmf::closed_form(cfg);
/// let range = QuantizedRange::new(0, 8, cfg.delta())?;
/// let p1 = conditional(&pmf, range, LimitMode::Thresholding, None, range.min_k());
/// let p2 = conditional(&pmf, range, LimitMode::Thresholding, None, range.max_k());
/// let attack = SupportGapAttack::from_dists(&p1, &p2);
/// // Bounded support under adjacent-by-range inputs ⇒ a real gap.
/// assert!(attack.exact_advantage() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SupportGapAttack<Y: Ord + Copy> {
    d1: BTreeSet<Y>,
    d2: BTreeSet<Y>,
    mass1: f64,
    mass2: f64,
}

impl<Y: Ord + Copy> SupportGapAttack<Y> {
    /// Plans a test from explicit distinguishing regions and their exact
    /// masses `P₁(D₁)`, `P₂(D₂)` (the [`float`](crate::float) attack
    /// computes these by enumeration).
    pub fn from_regions(d1: BTreeSet<Y>, d2: BTreeSet<Y>, mass1: f64, mass2: f64) -> Self {
        SupportGapAttack {
            d1,
            d2,
            mass1,
            mass2,
        }
    }

    /// The exact distinguishing advantage `(P₁(D₁) + P₂(D₂)) / 2`.
    pub fn exact_advantage(&self) -> f64 {
        (self.mass1 + self.mass2) / 2.0
    }

    /// The attacker's guess on observing `y`: `Some(true)` identifies
    /// `x₁`, `Some(false)` identifies `x₂`, `None` means the output
    /// carries no support-gap information (coin flip).
    pub fn guess(&self, y: Y) -> Option<bool> {
        if self.d1.contains(&y) {
            Some(true)
        } else if self.d2.contains(&y) {
            Some(false)
        } else {
            None
        }
    }

    /// Scores two equal-length sample sets — draws under `x₁` and under
    /// `x₂` respectively — against the planned test.
    ///
    /// # Panics
    ///
    /// Panics if the sample sets have different lengths (the campaign
    /// always draws symmetric sides).
    pub fn measure_samples(&self, ys1: &[Y], ys2: &[Y]) -> AttackOutcome {
        assert_eq!(ys1.len(), ys2.len(), "asymmetric attack sides");
        let hits_x1 = ys1.iter().filter(|&&y| self.d1.contains(&y)).count() as u64;
        let hits_x2 = ys2.iter().filter(|&&y| self.d2.contains(&y)).count() as u64;
        AttackOutcome::from_hits(ys1.len() as u64, hits_x1, hits_x2)
    }
}

impl SupportGapAttack<i64> {
    /// Plans the test from two exact conditional distributions on the
    /// output grid, taking regions and masses straight from the integer
    /// weights (no floating-point thresholds involved in membership).
    pub fn from_dists(p1: &ConditionalDist, p2: &ConditionalDist) -> Self {
        let d1: BTreeSet<i64> = p1
            .iter()
            .filter(|&(y, _)| p2.weight(y) == 0)
            .map(|(y, _)| y)
            .collect();
        let d2: BTreeSet<i64> = p2
            .iter()
            .filter(|&(y, _)| p1.weight(y) == 0)
            .map(|(y, _)| y)
            .collect();
        SupportGapAttack {
            d1,
            d2,
            mass1: p1.disjoint_mass(p2),
            mass2: p2.disjoint_mass(p1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::{conditional, LimitMode, QuantizedRange};
    use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};

    fn lowres() -> (FxpNoisePmf, QuantizedRange) {
        // Bu = 8: coarse URNG, large disjoint mass — the empirically
        // flaggable naive configuration the campaign uses.
        let cfg = FxpLaplaceConfig::new(8, 12, 0.5, 2.0).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, 8, cfg.delta()).unwrap();
        (pmf, range)
    }

    #[test]
    fn naive_gap_matches_disjoint_mass_and_symmetry() {
        let (pmf, range) = lowres();
        let p1 = conditional(&pmf, range, LimitMode::Thresholding, None, range.min_k());
        let p2 = conditional(&pmf, range, LimitMode::Thresholding, None, range.max_k());
        let attack = SupportGapAttack::from_dists(&p1, &p2);
        let want = (p1.disjoint_mass(&p2) + p2.disjoint_mass(&p1)) / 2.0;
        assert!((attack.exact_advantage() - want).abs() < 1e-15);
        // Symmetric noise, symmetric extremes: both regions nonempty.
        assert!(!attack.d1.is_empty() && !attack.d2.is_empty());
        // Region membership classifies correctly.
        let lo_tail = *attack.d2.iter().next().unwrap();
        assert_eq!(attack.guess(lo_tail), Some(false));
    }

    #[test]
    fn certified_window_has_zero_advantage() {
        // Inside a certified window both conditionals share support, so the
        // support-gap attacker is blind.
        let (pmf, range) = lowres();
        let spec =
            ldp_core::exact_threshold_for_bound(&pmf, range, 2.0, LimitMode::Thresholding).unwrap();
        let p1 = conditional(
            &pmf,
            range,
            LimitMode::Thresholding,
            Some(spec.n_th_k),
            range.min_k(),
        );
        let p2 = conditional(
            &pmf,
            range,
            LimitMode::Thresholding,
            Some(spec.n_th_k),
            range.max_k(),
        );
        let attack = SupportGapAttack::from_dists(&p1, &p2);
        assert_eq!(attack.exact_advantage(), 0.0);
        assert!(attack.d1.is_empty() && attack.d2.is_empty());
    }

    #[test]
    fn outcome_scoring_and_null_sigma() {
        let outcome = AttackOutcome::from_hits(5000, 500, 300);
        assert!((outcome.advantage - 0.08).abs() < 1e-12);
        assert!((outcome.sigma_null - 1.0 / 10000f64.sqrt()).abs() < 1e-15);
        assert!(outcome.flagged);
        let null = AttackOutcome::from_hits(5000, 0, 0);
        assert!(!null.flagged);
    }

    #[test]
    fn measured_samples_count_hits() {
        let d1: BTreeSet<i64> = [10, 11].into_iter().collect();
        let d2: BTreeSet<i64> = [-10].into_iter().collect();
        let attack = SupportGapAttack::from_regions(d1, d2, 0.5, 0.25);
        let out = attack.measure_samples(&[10, 0, 11, 5], &[-10, -10, 0, 1]);
        assert_eq!(out.hits_x1, 2);
        assert_eq!(out.hits_x2, 2);
        assert!((out.advantage - 0.5).abs() < 1e-12);
    }
}
