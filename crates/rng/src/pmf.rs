//! The exact probability mass function of the fixed-point Laplace RNG
//! (paper Eq. 11).
//!
//! Every probability is an integer count of URNG outcomes over the
//! denominator `2^(Bu+1)` (the `+1` is the sign bit), so privacy-loss ratios
//! computed from this module are *exact integer ratios* — no floating-point
//! smoothing can hide a zero-probability gap. This is what lets the test
//! suite machine-check the paper's central claim (naive FxP noising has
//! infinite privacy loss) and the fix (thresholding/resampling bound it).

use crate::error::RngError;
use crate::fxp::FxpLaplaceConfig;

/// The most magnitudes an exact PMF may hold: 2^26, the bound
/// [`FxpNoisePmf::by_enumeration`] puts on its evaluations. A PMF keeps two
/// 8-byte words per magnitude, so the cap bounds one at 1 GiB; a
/// configuration past it (a tiny ε over a wide output word) is refused by
/// [`FxpNoisePmf::check_support`] before anything is allocated.
pub(crate) const MAX_PMF_SUPPORT: u64 = 1 << 26;

/// Exact PMF of the fixed-point Laplace RNG output `n = kΔ`.
///
/// Probabilities are stored as exact counts: `Pr[n = kΔ] = weight(k) /
/// 2^(Bu+1)`.
///
/// # Examples
///
/// ```
/// use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};
///
/// let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
/// let pmf = FxpNoisePmf::closed_form(cfg);
/// // Total mass is exactly one.
/// assert_eq!(pmf.total_weight(), 1u128 << 18);
/// // The support is bounded — the first nonideality of Fig. 4(b).
/// assert!(pmf.weight(pmf.support_max_k() + 1) == 0);
/// # Ok::<(), ulp_rng::RngError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FxpNoisePmf {
    bu: u8,
    support_max_k: i64,
    /// `counts[k]` = number of URNG indices `m` mapping to magnitude `k`.
    counts: Vec<u64>,
    /// Suffix sums of `counts` for O(1) tail queries.
    suffix: Vec<u64>,
    /// `Σ k·counts[k]`, precomputed so `mean_magnitude_k` is O(1).
    weighted_magnitude_sum: u128,
}

impl FxpNoisePmf {
    /// Builds the PMF from the closed-form interval counts of Eq. (11):
    /// with `A(t) = 2^Bu · exp(−tΔ/λ)`, the number of uniforms mapping to
    /// magnitude `k ≥ 1` is `⌊A(k−½)⌋ − ⌊A(k+½)⌋`, and the top magnitude
    /// absorbs `⌊A(k_top−½)⌋` (which also models `By`-word saturation).
    ///
    /// # Panics
    ///
    /// If [`check_support`](Self::check_support) refuses `cfg`;
    /// [`cached_pmf`](crate::cached_pmf) returns that refusal as an error.
    pub fn closed_form(cfg: FxpLaplaceConfig) -> Self {
        if let Err(e) = Self::check_support(cfg) {
            panic!("{e}");
        }
        let two_bu = cfg.urng_cardinality() as f64;
        let rate = cfg.delta() / cfg.lambda();
        let a = |t: f64| -> f64 { two_bu * (-t * rate).exp() };
        let top = cfg.support_max_k();
        let mut counts = vec![0u64; (top + 1) as usize];
        if top == 0 {
            counts[0] = cfg.urng_cardinality();
        } else {
            counts[0] = cfg.urng_cardinality() - a(0.5).floor() as u64;
            for k in 1..top {
                let hi = a(k as f64 - 0.5).floor() as u64;
                let lo = a(k as f64 + 0.5).floor() as u64;
                counts[k as usize] = hi - lo;
            }
            counts[top as usize] = a(top as f64 - 0.5).floor() as u64;
        }
        Self::from_counts(cfg.bu(), counts)
    }

    /// Builds the PMF by exhaustively enumerating every URNG outcome through
    /// the configured magnitude map — exact with respect to the sampler by
    /// construction.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] if `Bu > 26` (enumeration would exceed
    /// 2^26 evaluations; use [`FxpNoisePmf::closed_form`] instead) or the
    /// support is too wide ([`check_support`](Self::check_support)).
    pub fn by_enumeration(cfg: FxpLaplaceConfig) -> Result<Self, RngError> {
        if cfg.bu() > 26 {
            return Err(RngError::InvalidConfig(
                "enumeration is only supported for Bu ≤ 26",
            ));
        }
        Self::check_support(cfg)?;
        let mut counts = vec![0u64; (cfg.support_max_k() + 1) as usize];
        for m in 1..=cfg.urng_cardinality() {
            let k = cfg.magnitude_index(m);
            counts[k as usize] += 1;
        }
        Ok(Self::from_counts(cfg.bu(), counts))
    }

    /// Whether `cfg`'s PMF fits in memory: its support, magnitudes
    /// `0..=support_max_k`, must hold at most 2^26 magnitudes. Every
    /// configuration the reproduction ships holds a few thousand.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] above the cap.
    pub fn check_support(cfg: FxpLaplaceConfig) -> Result<(), RngError> {
        if cfg.support_max_k().unsigned_abs() >= MAX_PMF_SUPPORT {
            return Err(RngError::InvalidConfig(
                "noise support exceeds 2^26 magnitudes: ε too small for the output word",
            ));
        }
        Ok(())
    }

    /// Builds a PMF from raw magnitude counts — the generic entry point for
    /// *other* symmetric sign-magnitude fixed-point RNGs (e.g. the Gaussian
    /// sampler), so their outputs plug into the same privacy-loss analysis.
    ///
    /// `counts[k]` is the number of the `2^bu` magnitude-uniform outcomes
    /// that map to magnitude index `k`; a separate sign bit is assumed, so
    /// probabilities are `counts[k] / 2^(bu+1)` per signed output (doubled
    /// at zero).
    ///
    /// # Panics
    ///
    /// Panics if the counts do not sum to `2^bu` or are empty.
    pub fn from_magnitude_counts(bu: u8, counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "counts must be nonempty");
        assert_eq!(
            counts.iter().sum::<u64>(),
            1u64 << bu,
            "counts must partition the 2^Bu uniform outcomes"
        );
        Self::from_counts(bu, counts)
    }

    fn from_counts(bu: u8, counts: Vec<u64>) -> Self {
        debug_assert_eq!(
            counts.iter().sum::<u64>(),
            1u64 << bu,
            "counts must partition the URNG range"
        );
        let mut suffix = vec![0u64; counts.len() + 1];
        let mut weighted_magnitude_sum: u128 = 0;
        for k in (0..counts.len()).rev() {
            suffix[k] = suffix[k + 1] + counts[k];
            weighted_magnitude_sum += k as u128 * counts[k] as u128;
        }
        FxpNoisePmf {
            bu,
            support_max_k: counts.len() as i64 - 1,
            counts,
            suffix,
            weighted_magnitude_sum,
        }
    }

    /// URNG width `Bu` this PMF was built for.
    pub fn bu(&self) -> u8 {
        self.bu
    }

    /// Largest magnitude index with (possibly zero) allocated mass.
    pub fn support_max_k(&self) -> i64 {
        self.support_max_k
    }

    /// The denominator all weights are expressed over, `2^(Bu+1)`.
    pub fn total_weight(&self) -> u128 {
        1u128 << (self.bu + 1)
    }

    /// Exact weight of the signed output `kΔ`, in units of `2^-(Bu+1)`:
    /// `Pr[n = kΔ] = weight(k) / 2^(Bu+1)`. Zero outside the support *and*
    /// in interior gaps (magnitudes no uniform maps to — the second
    /// nonideality of Fig. 4(b)).
    pub fn weight(&self, k: i64) -> u128 {
        let mag = k.unsigned_abs() as usize;
        if mag >= self.counts.len() {
            0
        } else if k == 0 {
            // Both signs collapse onto zero.
            2 * self.counts[0] as u128
        } else {
            self.counts[mag] as u128
        }
    }

    /// `Pr[n = kΔ]` as `f64`.
    pub fn prob(&self, k: i64) -> f64 {
        self.weight(k) as f64 / self.total_weight() as f64
    }

    /// Exact weight of the one-sided tail `Pr[n ≥ kΔ]` (for `k ≥ 1`) in
    /// units of `2^-(Bu+1)`: the quantity `⌊m₁(k)⌋ / 2^(Bu+1)` used in the
    /// paper's thresholding analysis (Eq. 14).
    ///
    /// # Panics
    ///
    /// Panics if `k < 1`; two-sided or signed-negative tails are composed by
    /// the caller from symmetry.
    pub fn tail_weight_ge(&self, k: i64) -> u128 {
        assert!(k >= 1, "tail_weight_ge requires k ≥ 1, got {k}");
        let mag = k as usize;
        if mag >= self.suffix.len() {
            0
        } else {
            self.suffix[mag] as u128
        }
    }

    /// `Pr[n ≥ kΔ]` as `f64` (for `k ≥ 1`).
    pub fn tail_prob_ge(&self, k: i64) -> f64 {
        self.tail_weight_ge(k) as f64 / self.total_weight() as f64
    }

    /// Iterates over `(k, weight)` for all signed outputs with the convention
    /// of [`FxpNoisePmf::weight`], from `-support_max_k` to `+support_max_k`.
    pub fn iter(&self) -> impl Iterator<Item = (i64, u128)> + '_ {
        (-self.support_max_k..=self.support_max_k).map(move |k| (k, self.weight(k)))
    }

    /// Number of interior magnitudes `1 ≤ k ≤ support_max_k` with zero
    /// probability — grid points the hardware can *never* emit even though
    /// the ideal distribution assigns them positive density.
    pub fn interior_gap_count(&self) -> usize {
        self.counts[1..].iter().filter(|&&c| c == 0).count()
    }

    /// Mean of the |n| magnitude distribution, in grid units (for energy /
    /// resampling-rate analysis). O(1): the weighted sum is precomputed when
    /// the PMF is built.
    pub fn mean_magnitude_k(&self) -> f64 {
        let total = 1u64 << self.bu;
        self.weighted_magnitude_sum as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxp::FxpLaplace;
    use crate::tausworthe::Taus88;

    fn paper_cfg() -> FxpLaplaceConfig {
        FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap()
    }

    #[test]
    fn closed_form_matches_enumeration_exactly() {
        for (bu, by, delta, lambda) in [
            (10u8, 12u8, 0.25, 5.0),
            (12, 12, 0.3125, 20.0),
            (14, 10, 1.0, 8.0),
            (8, 6, 0.5, 3.0), // saturating case
            (17, 12, 10.0 / 32.0, 20.0),
        ] {
            let cfg = FxpLaplaceConfig::new(bu, by, delta, lambda).unwrap();
            let cf = FxpNoisePmf::closed_form(cfg);
            let en = FxpNoisePmf::by_enumeration(cfg).unwrap();
            assert_eq!(
                cf, en,
                "closed form diverged for Bu={bu} By={by} Δ={delta} λ={lambda}"
            );
        }
    }

    #[test]
    fn weights_sum_to_total() {
        let pmf = FxpNoisePmf::closed_form(paper_cfg());
        let sum: u128 = pmf.iter().map(|(_, w)| w).sum();
        assert_eq!(sum, pmf.total_weight());
    }

    #[test]
    fn pmf_is_symmetric() {
        let pmf = FxpNoisePmf::closed_form(paper_cfg());
        for k in 1..=pmf.support_max_k() {
            assert_eq!(pmf.weight(k), pmf.weight(-k));
        }
    }

    #[test]
    fn support_is_bounded() {
        let cfg = paper_cfg();
        let pmf = FxpNoisePmf::closed_form(cfg);
        assert_eq!(pmf.support_max_k(), 754);
        assert_eq!(pmf.weight(755), 0);
        assert_eq!(pmf.weight(-755), 0);
        assert!(pmf.weight(754) > 0);
    }

    #[test]
    fn tail_gaps_exist_in_paper_setting() {
        // Fig. 4(b): near the tail the hardware cannot realize every grid
        // point — some interior magnitudes have zero probability.
        let pmf = FxpNoisePmf::closed_form(paper_cfg());
        assert!(
            pmf.interior_gap_count() > 0,
            "expected zero-probability gaps in the tail"
        );
    }

    #[test]
    fn no_gaps_in_high_probability_body() {
        let pmf = FxpNoisePmf::closed_form(paper_cfg());
        // Body: |n| ≤ 2λ = 40 → k ≤ 128. Every grid point reachable.
        for k in 0..=128 {
            assert!(pmf.weight(k) > 0, "unexpected gap at k={k}");
        }
    }

    #[test]
    fn probabilities_are_multiples_of_resolution() {
        // Fig. 4(b): FxP probabilities are discrete multiples of 2^-(Bu+1).
        let pmf = FxpNoisePmf::closed_form(paper_cfg());
        let p = pmf.prob(400);
        let unit = 1.0 / pmf.total_weight() as f64;
        let multiple = p / unit;
        assert!((multiple - multiple.round()).abs() < 1e-9);
    }

    #[test]
    fn tail_weight_matches_direct_sum() {
        let pmf = FxpNoisePmf::closed_form(paper_cfg());
        for k in [1i64, 10, 100, 500, 754, 755, 10_000] {
            let direct: u128 = (k..=pmf.support_max_k().max(k))
                .map(|j| pmf.weight(j))
                .sum();
            assert_eq!(pmf.tail_weight_ge(k), direct, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "tail_weight_ge requires k ≥ 1")]
    fn tail_weight_rejects_nonpositive_k() {
        let pmf = FxpNoisePmf::closed_form(paper_cfg());
        pmf.tail_weight_ge(0);
    }

    #[test]
    fn pmf_tracks_ideal_laplace_in_body() {
        let cfg = paper_cfg();
        let pmf = FxpNoisePmf::closed_form(cfg);
        // In the body, Pr[n = kΔ] ≈ Δ · LaplacePdf(kΔ).
        for k in [0i64, 10, 50, 100, 200] {
            let x = k as f64 * cfg.delta();
            let ideal = cfg.delta() * (-x.abs() / cfg.lambda()).exp() / (2.0 * cfg.lambda());
            let got = pmf.prob(k);
            let rel = (got - ideal).abs() / ideal;
            assert!(rel < 0.02, "k={k}: got {got}, ideal {ideal}");
        }
    }

    #[test]
    fn sampler_frequencies_match_pmf() {
        let cfg = FxpLaplaceConfig::new(10, 12, 0.25, 5.0).unwrap();
        let pmf = FxpNoisePmf::by_enumeration(cfg).unwrap();
        let s = FxpLaplace::analytic(cfg);
        let mut rng = Taus88::from_seed(77);
        let n = 400_000usize;
        let mut hist = std::collections::HashMap::new();
        for _ in 0..n {
            *hist.entry(s.sample_index(&mut rng)).or_insert(0u64) += 1;
        }
        // Compare empirical frequency with exact probability on the body.
        for k in -20i64..=20 {
            let p = pmf.prob(k);
            let emp = *hist.get(&k).unwrap_or(&0) as f64 / n as f64;
            if p > 1e-3 {
                assert!(
                    (emp - p).abs() < 4.0 * (p / n as f64).sqrt() + 1e-4,
                    "k={k}: empirical {emp}, exact {p}"
                );
            }
        }
    }

    #[test]
    fn saturating_config_piles_mass_at_top() {
        let cfg = FxpLaplaceConfig::new(17, 6, 10.0 / 32.0, 20.0).unwrap();
        assert!(cfg.saturates());
        let pmf = FxpNoisePmf::closed_form(cfg);
        assert_eq!(pmf.support_max_k(), 31);
        // Saturated top bin carries the whole tail: much heavier than its
        // unsaturated neighbour.
        assert!(pmf.weight(31) > 10 * pmf.weight(30));
    }

    #[test]
    fn tiny_lambda_degenerates_to_zero() {
        let cfg = FxpLaplaceConfig::new(8, 4, 100.0, 0.001).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        assert_eq!(pmf.support_max_k(), 0);
        assert_eq!(pmf.weight(0), pmf.total_weight());
    }

    #[test]
    fn mean_magnitude_is_near_lambda_over_delta() {
        // E|Lap(λ)| = λ; in grid units λ/Δ = 64.
        let pmf = FxpNoisePmf::closed_form(paper_cfg());
        let got = pmf.mean_magnitude_k();
        assert!((got - 64.0).abs() < 1.0, "mean magnitude {got}");
    }
}
