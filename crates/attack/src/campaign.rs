//! Campaign plumbing shared by the `attack_campaign` binary.
//!
//! A campaign cell targets one `(mechanism, sampler path, configuration)`
//! triple and produces a [`CellVerdict`]: the exact realized worst-case
//! loss compared against the claimed ε, plus (where the disjoint mass is
//! empirically measurable) a seeded distinguishing run. The binary renders
//! the verdicts into `BENCH_attack.json` and asserts the campaign gates;
//! this module keeps the analysis logic library-testable.

use ldp_core::{worst_case_loss_extremes, LimitMode, PrivacyLoss, QuantizedRange};
use ulp_rng::FxpNoisePmf;

/// Environment variable overriding an attack campaign's master seed.
pub const ATTACK_SEED_ENV: &str = "ULP_ATTACK_SEED";

/// Reads [`ATTACK_SEED_ENV`]: `Ok(None)` if unset, the parsed seed if a
/// valid `u64`, and a typed error otherwise — a misspelled seed must never
/// silently fall back to a default campaign.
///
/// # Errors
///
/// [`ulp_obs::EnvError`] for a set-but-malformed value.
pub fn attack_seed_from_env() -> Result<Option<u64>, ulp_obs::EnvError> {
    ulp_obs::parse_env(ATTACK_SEED_ENV, "an unsigned 64-bit integer", |s| {
        s.parse().ok()
    })
}

/// How a cell's realized loss relates to its claimed bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellVerdict {
    /// The mechanism claims a bound and the exact check confirms it:
    /// realized worst-case loss (nats) ≤ claimed.
    Certified {
        /// The exact realized worst-case loss.
        realized: f64,
        /// The claimed bound.
        claimed: f64,
    },
    /// The mechanism claims a bound the exact check contradicts — the
    /// realized loss is finite but above the claim.
    Violated {
        /// The exact realized worst-case loss.
        realized: f64,
        /// The claimed bound it exceeds.
        claimed: f64,
    },
    /// Some output identifies an input exactly: the realized loss is
    /// infinite regardless of any claim.
    Broken,
}

impl CellVerdict {
    /// Classifies an exact realized loss against a claimed bound
    /// (`None` = the mechanism claims nothing, so any finite loss is still
    /// reported as a violation of ε = 0 semantics — campaign cells always
    /// pass the claim they advertise).
    pub fn classify(realized: PrivacyLoss, claimed: Option<f64>) -> Self {
        match (realized, claimed) {
            (PrivacyLoss::Infinite, _) => CellVerdict::Broken,
            (PrivacyLoss::Finite(l), Some(c)) if l <= c + 1e-12 => CellVerdict::Certified {
                realized: l,
                claimed: c,
            },
            (PrivacyLoss::Finite(l), Some(c)) => CellVerdict::Violated {
                realized: l,
                claimed: c,
            },
            (PrivacyLoss::Finite(l), None) => CellVerdict::Violated {
                realized: l,
                claimed: 0.0,
            },
        }
    }

    /// Classifies a window-limited configuration directly from the exact
    /// PMF: computes the realized worst-case loss over the extreme input
    /// pair and compares it against the claim.
    pub fn for_window(
        pmf: &FxpNoisePmf,
        range: QuantizedRange,
        mode: LimitMode,
        n_th_k: Option<i64>,
        claimed: Option<f64>,
    ) -> Self {
        CellVerdict::classify(worst_case_loss_extremes(pmf, range, mode, n_th_k), claimed)
    }

    /// Whether the verdict certifies the claimed bound.
    pub fn is_certified(&self) -> bool {
        matches!(self, CellVerdict::Certified { .. })
    }

    /// The verdict's JSON tag in `BENCH_attack.json`.
    pub fn tag(&self) -> &'static str {
        match self {
            CellVerdict::Certified { .. } => "certified",
            CellVerdict::Violated { .. } => "violated",
            CellVerdict::Broken => "infinite",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::{exact_threshold, thresholding_threshold};
    use ulp_rng::FxpLaplaceConfig;

    fn paper() -> (FxpLaplaceConfig, FxpNoisePmf, QuantizedRange) {
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        (cfg, pmf, range)
    }

    #[test]
    fn naive_baseline_is_broken() {
        let (_, pmf, range) = paper();
        let v = CellVerdict::for_window(&pmf, range, LimitMode::Thresholding, None, None);
        assert_eq!(v, CellVerdict::Broken);
        assert_eq!(v.tag(), "infinite");
    }

    #[test]
    fn exact_threshold_certifies_and_eq15_does_not() {
        let (cfg, pmf, range) = paper();
        let exact = exact_threshold(cfg, &pmf, range, 1.5, LimitMode::Thresholding).unwrap();
        let good = CellVerdict::for_window(
            &pmf,
            range,
            LimitMode::Thresholding,
            Some(exact.n_th_k),
            Some(exact.guaranteed_loss),
        );
        assert!(good.is_certified());
        // The paper's Eq. 15 threshold overshoots into the gap region.
        let eq15 = thresholding_threshold(cfg, range, 1.5).unwrap();
        let bad = CellVerdict::for_window(
            &pmf,
            range,
            LimitMode::Thresholding,
            Some(eq15.n_th_k),
            Some(eq15.guaranteed_loss),
        );
        assert_eq!(bad, CellVerdict::Broken);
    }

    #[test]
    fn classification_edges() {
        let v = CellVerdict::classify(PrivacyLoss::Finite(1.2), Some(1.0));
        assert_eq!(v.tag(), "violated");
        assert!(!v.is_certified());
        let v = CellVerdict::classify(PrivacyLoss::Finite(0.5), None);
        assert_eq!(v.tag(), "violated");
    }
}
