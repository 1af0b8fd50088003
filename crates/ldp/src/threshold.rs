//! Threshold selection for resampling and thresholding (paper Eqs. 12–15).
//!
//! Both mechanisms limit the noised-output window to `[m − n_th, M + n_th]`;
//! the art is picking the largest `n_th` (for utility and, with resampling,
//! for energy) whose worst-case privacy loss still stays below a target
//! `n·ε`. The paper's **closed forms** (Eqs. 13 and 15), derived by
//! bracketing the floor/ceiling counts of Eq. 11, give a starting point;
//! every window the crate ships comes from the **exact solve**
//! ([`exact_threshold`]) against the all-pairs, per-output loss of
//! [`crate::loss::loss_profile`], which returns the largest threshold that
//! provably meets the bound.
//!
//! Tests assert soundness (closed form ≤ exact for Eq. 13) and tightness
//! (within a few grid steps), and pin where Eq. 15 is unsound.

use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};

use crate::error::LdpError;
use crate::loss::{atom_loss, losses_by_overshoot, output_losses, worst_case_loss, LimitMode};
use crate::range::QuantizedRange;

/// A threshold together with the loss bound it guarantees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSpec {
    /// Window extension beyond the sensor range, in grid units.
    pub n_th_k: i64,
    /// The guaranteed worst-case privacy loss (nats), i.e. the target `n·ε`.
    pub guaranteed_loss: f64,
}

fn validate(
    cfg: FxpLaplaceConfig,
    range: QuantizedRange,
    multiple: f64,
) -> Result<(f64, f64), LdpError> {
    if !(multiple.is_finite() && multiple > 1.0) {
        return Err(LdpError::InvalidEpsilon(multiple));
    }
    // ε implied by the noise scale: λ = d/ε.
    let eps = range.length() / cfg.lambda();
    if !(eps.is_finite() && eps > 0.0) {
        return Err(LdpError::InvalidEpsilon(eps));
    }
    // Per-grid-step decay rate a = Δ/λ.
    let a = cfg.delta() / cfg.lambda();
    Ok((eps, a))
}

/// The paper's closed-form threshold for **thresholding** (Eq. 15).
///
/// Derived from the boundary condition
/// `⌊m₁(k)⌋ / ⌊m₁(k+s)⌋ ≤ exp(nε)` via `m₁(k) − 1 ≤ ⌊m₁(k)⌋ ≤ m₁(k)`:
/// `k ≤ ½ + (1/a)·[Bu·ln2 + ln(e^{-ε} − e^{-nε})]` with `a = Δ/λ`.
///
/// # Reproduction note
///
/// The paper bounds only the **boundary-atom** ratio ("the privacy loss at
/// the boundaries"). That condition is necessary but not sufficient: for
/// typical configurations Eq. 15 lands *inside* the RNG's zero-probability
/// gap region, where interior outputs below the threshold are possible
/// under one extreme input and impossible under the other — infinite loss.
/// Use [`exact_threshold`], which checks every output against the exact
/// PMF, when an end-to-end guarantee is required; a test in this module
/// pins the discrepancy.
///
/// # Errors
///
/// [`LdpError::InvalidEpsilon`] if `multiple ≤ 1` (the bound must exceed the
/// ideal mechanism's ε); [`LdpError::Unsatisfiable`] if no non-negative
/// threshold satisfies the bound for this RNG resolution.
pub fn thresholding_threshold(
    cfg: FxpLaplaceConfig,
    range: QuantizedRange,
    multiple: f64,
) -> Result<ThresholdSpec, LdpError> {
    let (eps, a) = validate(cfg, range, multiple)?;
    let bu_ln2 = cfg.bu() as f64 * std::f64::consts::LN_2;
    let inner = (-eps).exp() - (-multiple * eps).exp();
    if inner <= 0.0 {
        return Err(LdpError::Unsatisfiable(
            "loss target too close to ε for this resolution",
        ));
    }
    let k = 0.5 + (bu_ln2 + inner.ln()) / a;
    let n_th_k = k.floor() as i64;
    if n_th_k < 0 {
        return Err(LdpError::Unsatisfiable(
            "URNG resolution too low: even a zero threshold exceeds the loss target",
        ));
    }
    Ok(ThresholdSpec {
        n_th_k,
        guaranteed_loss: multiple * eps,
    })
}

/// The paper's closed-form threshold for **resampling** (Eq. 13).
///
/// Derived from the boundary condition on interval counts (Eq. 12):
/// `k ≤ (1/a)·[Bu·ln2 + ln((e^{a/2} − e^{-a/2})·(e^{(n-1)ε} − 1)) − ln(e^{nε} + 1)]`.
///
/// # Errors
///
/// Same conditions as [`thresholding_threshold`].
pub fn resampling_threshold(
    cfg: FxpLaplaceConfig,
    range: QuantizedRange,
    multiple: f64,
) -> Result<ThresholdSpec, LdpError> {
    let (eps, a) = validate(cfg, range, multiple)?;
    let bu_ln2 = cfg.bu() as f64 * std::f64::consts::LN_2;
    let sinh_term = (a / 2.0).exp() - (-a / 2.0).exp();
    let grow = ((multiple - 1.0) * eps).exp() - 1.0;
    if sinh_term <= 0.0 || grow <= 0.0 {
        return Err(LdpError::Unsatisfiable(
            "loss target too close to ε for this resolution",
        ));
    }
    let k = (bu_ln2 + (sinh_term * grow).ln() - ((multiple * eps).exp() + 1.0).ln()) / a;
    let n_th_k = k.floor() as i64;
    if n_th_k < 0 {
        return Err(LdpError::Unsatisfiable(
            "URNG resolution too low: even a zero threshold exceeds the loss target",
        ));
    }
    Ok(ThresholdSpec {
        n_th_k,
        guaranteed_loss: multiple * eps,
    })
}

/// Closed-form threshold for either mode.
///
/// # Errors
///
/// See [`thresholding_threshold`] / [`resampling_threshold`].
pub fn closed_form_threshold(
    cfg: FxpLaplaceConfig,
    range: QuantizedRange,
    multiple: f64,
    mode: LimitMode,
) -> Result<ThresholdSpec, LdpError> {
    match mode {
        LimitMode::Thresholding => thresholding_threshold(cfg, range, multiple),
        LimitMode::Resampling => resampling_threshold(cfg, range, multiple),
    }
}

/// The largest threshold whose **exact** worst-case privacy loss, over
/// every output and every input pair, is at most `multiple·ε`.
///
/// # Errors
///
/// [`LdpError::InvalidEpsilon`] for `multiple ≤ 1`;
/// [`LdpError::Unsatisfiable`] if even `n_th = 0` exceeds the bound.
pub fn exact_threshold(
    cfg: FxpLaplaceConfig,
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    multiple: f64,
    mode: LimitMode,
) -> Result<ThresholdSpec, LdpError> {
    let (eps, _) = validate(cfg, range, multiple)?;
    exact_threshold_for_bound(pmf, range, multiple * eps, mode)
}

/// Distribution-agnostic form of [`exact_threshold`]: solves a maximal
/// threshold for *any* exact noise PMF (Laplace, Gaussian, …) against a
/// loss bound given directly in nats.
///
/// Under thresholding an unclamped output loses the same under every
/// window, so one pass over the overshoots finds the largest `t` whose
/// unclamped outputs below `t` and clamp atoms at `t` fit the bound.
/// Resampling renormalizes per window, so it searches.
///
/// # Errors
///
/// [`LdpError::InvalidEpsilon`] for a non-positive bound;
/// [`LdpError::Unsatisfiable`] if even `n_th = 0` exceeds it.
pub fn exact_threshold_for_bound(
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    bound: f64,
    mode: LimitMode,
) -> Result<ThresholdSpec, LdpError> {
    if !(bound.is_finite() && bound > 0.0) {
        return Err(LdpError::InvalidEpsilon(bound));
    }
    let ok = |t: i64| output_losses(pmf, range, mode, Some(t)).all(|(_, l)| l.is_bounded_by(bound));
    if !ok(0) {
        return Err(LdpError::Unsatisfiable(
            "even a zero threshold exceeds the loss target",
        ));
    }
    // Upper limit: the window boundary `M + n_th` must be reachable from
    // the far input `m` (shift `span`), so `n_th ≤ support − span`; beyond
    // that the loss is trivially infinite.
    let hi_cap = (pmf.support_max_k() - range.span_k()).max(0);
    let n_th_k = match mode {
        LimitMode::Thresholding => {
            let unclamped = losses_by_overshoot(pmf, range, mode, hi_cap);
            let mut inside = unclamped[0];
            let mut best = 0;
            for t in 1..=hi_cap {
                if !inside.is_bounded_by(bound) {
                    break;
                }
                if atom_loss(pmf, range, t).is_none_or(|l| l.is_bounded_by(bound)) {
                    best = t;
                }
                inside = inside.max(unclamped[t as usize]);
            }
            best
        }
        LimitMode::Resampling => {
            let (mut lo, mut hi) = (0i64, hi_cap);
            while lo < hi {
                let mid = lo + (hi - lo + 1) / 2;
                if ok(mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            // Raggedness guards: ensure feasibility, then extend through
            // any feasible plateau so the result is locally maximal.
            let mut t = lo;
            while t > 0 && !ok(t) {
                t -= 1;
            }
            while t < hi_cap && ok(t + 1) {
                t += 1;
            }
            t
        }
    };
    Ok(ThresholdSpec {
        n_th_k,
        guaranteed_loss: bound,
    })
}

/// The certificate produced by [`refine_threshold`]: where the refinement
/// started (the paper's closed-form window), the certified final spec, and
/// the exact realized loss the machine check measured there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinedThreshold {
    /// The closed-form starting threshold (Eq. 13 / Eq. 15), or 0 when the
    /// closed form is infeasible for this configuration.
    pub start_n_th_k: i64,
    /// The certified window: `n_th_k` passed the exact Eq. 4 check against
    /// `guaranteed_loss`.
    pub spec: ThresholdSpec,
    /// Net grid steps from the closed-form start to the certified window:
    /// positive when the closed form overshot, negative when it was
    /// conservative.
    pub steps: i64,
    /// The exact realized worst-case loss at the certified window (nats),
    /// always ≤ `spec.guaranteed_loss`.
    pub realized: f64,
}

/// The secure-mode solver: the [`exact_threshold`] window, certified
/// against the paper's closed-form start (Eq. 13 / Eq. 15).
///
/// The certificate records how far the claimed closed-form threshold was
/// from a sound one — Eq. 15 configurations land in the RNG's
/// zero-probability gap region, where the closed form's claimed bound is
/// actually infinite — and the exact realized loss at the certified window.
///
/// # Errors
///
/// [`LdpError::InvalidEpsilon`] for `multiple ≤ 1`;
/// [`LdpError::Unsatisfiable`] if even `n_th = 0` exceeds the bound.
pub fn refine_threshold(
    cfg: FxpLaplaceConfig,
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    multiple: f64,
    mode: LimitMode,
) -> Result<RefinedThreshold, LdpError> {
    let spec = exact_threshold(cfg, pmf, range, multiple, mode)?;
    let start = closed_form_threshold(cfg, range, multiple, mode)
        .map(|s| s.n_th_k)
        .unwrap_or(0);
    let realized = worst_case_loss(pmf, range, mode, Some(spec.n_th_k))
        .finite()
        .expect("the solved window is feasible, so its loss is finite");
    Ok(RefinedThreshold {
        start_n_th_k: start,
        spec,
        steps: start - spec.n_th_k,
        realized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::worst_case_loss;

    fn paper_setup() -> (FxpLaplaceConfig, FxpNoisePmf, QuantizedRange) {
        // d = 10, ε = 0.5 → λ = 20; Δ = 10/32; Bu = 17.
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        (cfg, pmf, range)
    }

    #[test]
    fn resampling_closed_form_is_sound() {
        // Eq. 13 brackets *point* counts at every index, so its threshold
        // must satisfy the loss bound against the exact PMF.
        let (cfg, pmf, range) = paper_setup();
        for multiple in [1.5, 2.0, 3.0] {
            let spec = resampling_threshold(cfg, range, multiple).unwrap();
            let loss = worst_case_loss(&pmf, range, LimitMode::Resampling, Some(spec.n_th_k));
            assert!(
                loss.is_bounded_by(spec.guaranteed_loss + 1e-9),
                "n={multiple}: threshold {} has loss {loss:?} > {}",
                spec.n_th_k,
                spec.guaranteed_loss
            );
        }
    }

    #[test]
    fn resampling_closed_form_is_reasonably_tight() {
        let (cfg, pmf, range) = paper_setup();
        for multiple in [1.5, 2.0, 3.0] {
            let cf = resampling_threshold(cfg, range, multiple).unwrap();
            let ex = exact_threshold(cfg, &pmf, range, multiple, LimitMode::Resampling).unwrap();
            assert!(
                cf.n_th_k <= ex.n_th_k,
                "n={multiple}: closed form {} exceeds exact {}",
                cf.n_th_k,
                ex.n_th_k
            );
            assert!(
                (ex.n_th_k - cf.n_th_k) as f64 <= 0.25 * ex.n_th_k as f64 + 16.0,
                "n={multiple}: closed form {} far below exact {}",
                cf.n_th_k,
                ex.n_th_k
            );
        }
    }

    #[test]
    fn eq15_bounds_the_boundary_atom_ratio() {
        // What Eq. 15 actually guarantees: the ratio of the clipped-tail
        // atoms at the window boundary stays below exp(nε).
        let (cfg, pmf, range) = paper_setup();
        for multiple in [1.5, 2.0, 3.0] {
            let spec = thresholding_threshold(cfg, range, multiple).unwrap();
            let near = pmf.tail_weight_ge(spec.n_th_k);
            let far = pmf.tail_weight_ge(spec.n_th_k + range.span_k());
            assert!(
                far > 0,
                "n={multiple}: boundary atom unreachable from far input"
            );
            let ratio = (near as f64 / far as f64).ln();
            assert!(
                ratio <= spec.guaranteed_loss + 1e-9,
                "n={multiple}: boundary ratio {ratio} > {}",
                spec.guaranteed_loss
            );
        }
    }

    #[test]
    fn reproduction_note_eq15_is_not_globally_sound() {
        // Pin the reproduction finding: the paper's boundary-only Eq. 15
        // lands inside the RNG's zero-probability gap region, where some
        // *interior* output below the threshold is possible under one
        // extreme input and impossible under the other → infinite loss.
        // The exact solver stops well short of the gaps.
        let (cfg, pmf, range) = paper_setup();
        let eq15 = thresholding_threshold(cfg, range, 1.5).unwrap();
        let exact = exact_threshold(cfg, &pmf, range, 1.5, LimitMode::Thresholding).unwrap();
        assert!(
            eq15.n_th_k > exact.n_th_k,
            "Eq. 15 ({}) should overshoot the exact bound ({})",
            eq15.n_th_k,
            exact.n_th_k
        );
        let at_eq15 = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(eq15.n_th_k));
        assert_eq!(at_eq15, crate::loss::PrivacyLoss::Infinite);
    }

    #[test]
    fn refinement_rescues_the_eq15_overshoot() {
        // The secure-mode solver starts at the unsound Eq. 15 window and
        // shrinks it until the exact check passes — landing on the same
        // maximal window the exact solver finds, with a positive shrink
        // count recorded in the certificate.
        let (cfg, pmf, range) = paper_setup();
        let refined = refine_threshold(cfg, &pmf, range, 1.5, LimitMode::Thresholding).unwrap();
        let exact = exact_threshold(cfg, &pmf, range, 1.5, LimitMode::Thresholding).unwrap();
        assert_eq!(refined.spec, exact);
        assert!(refined.steps > 0, "Eq. 15 overshoot must force shrinking");
        assert_eq!(refined.start_n_th_k - refined.steps, refined.spec.n_th_k);
        assert!(refined.realized <= refined.spec.guaranteed_loss);
        assert!(refined.realized > 0.0);
    }

    #[test]
    fn refinement_extends_the_sound_eq13_start() {
        // Eq. 13 (resampling) is sound but conservative: refinement keeps
        // it feasible and extends it to the same maximal window as the
        // exact solver (steps ≤ 0 — never shrunk).
        let (cfg, pmf, range) = paper_setup();
        let refined = refine_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).unwrap();
        let exact = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).unwrap();
        assert_eq!(refined.spec, exact);
        assert!(refined.steps <= 0, "a sound start never shrinks");
        let at = worst_case_loss(
            &pmf,
            range,
            LimitMode::Resampling,
            Some(refined.spec.n_th_k),
        );
        assert!(at.is_bounded_by(refined.spec.guaranteed_loss));
    }

    #[test]
    fn refinement_rejects_infeasible_targets() {
        let (cfg, pmf, range) = paper_setup();
        assert!(matches!(
            refine_threshold(cfg, &pmf, range, 1.0, LimitMode::Thresholding),
            Err(LdpError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn exact_threshold_is_maximal() {
        let (cfg, pmf, range) = paper_setup();
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).unwrap();
        let at = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(spec.n_th_k));
        assert!(at.is_bounded_by(spec.guaranteed_loss));
        // One step further must break the bound (maximality).
        let beyond = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(spec.n_th_k + 1));
        assert!(!beyond.is_bounded_by(spec.guaranteed_loss));
    }

    #[test]
    fn higher_multiple_allows_larger_threshold() {
        let (cfg, pmf, range) = paper_setup();
        for mode in [LimitMode::Thresholding, LimitMode::Resampling] {
            let t15 = exact_threshold(cfg, &pmf, range, 1.5, mode).unwrap().n_th_k;
            let t30 = exact_threshold(cfg, &pmf, range, 3.0, mode).unwrap().n_th_k;
            assert!(t30 > t15, "{mode:?}: {t30} vs {t15}");
        }
    }

    #[test]
    fn resampling_threshold_is_smaller_than_thresholding() {
        // Resampling's interval-count condition (both endpoints bracketed)
        // is stricter than thresholding's tail condition at the same target,
        // so its feasible threshold is at most comparable.
        let (cfg, pmf, range) = paper_setup();
        let tr = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling)
            .unwrap()
            .n_th_k;
        let tt = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding)
            .unwrap()
            .n_th_k;
        // Point-mass ratios decay with a smaller margin than tail ratios,
        // so the resampling threshold is strictly smaller here.
        assert!(tr < tt, "resampling {tr} vs thresholding {tt}");
    }

    #[test]
    fn multiple_of_one_or_less_is_rejected() {
        let (cfg, pmf, range) = paper_setup();
        assert!(matches!(
            thresholding_threshold(cfg, range, 1.0),
            Err(LdpError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            resampling_threshold(cfg, range, 0.5),
            Err(LdpError::InvalidEpsilon(_))
        ));
        assert!(exact_threshold(cfg, &pmf, range, 1.0, LimitMode::Thresholding).is_err());
    }

    #[test]
    fn low_resolution_can_be_unsatisfiable() {
        // Bu = 4: so few uniforms that the count ratios blow past small
        // targets immediately.
        let cfg = FxpLaplaceConfig::new(4, 8, 0.5, 2.0).unwrap();
        let range = QuantizedRange::new(0, 4, 0.5).unwrap(); // d=2, ε=1
        let r = thresholding_threshold(cfg, range, 1.05);
        if let Ok(spec) = r {
            // If the formula returns something it must still be sound.
            let pmf = FxpNoisePmf::closed_form(cfg);
            let loss = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(spec.n_th_k));
            assert!(loss.is_bounded_by(spec.guaranteed_loss + 1e-9));
        }
    }

    #[test]
    fn fig8_style_segments_are_nested() {
        // Fig. 8: thresholds for increasing loss multiples form nested
        // segments of the output range.
        let (cfg, pmf, range) = paper_setup();
        let mut prev = 0i64;
        for multiple in [1.5, 2.0, 2.5, 3.0, 3.5] {
            let t = exact_threshold(cfg, &pmf, range, multiple, LimitMode::Thresholding)
                .unwrap()
                .n_th_k;
            assert!(t >= prev, "thresholds must be nondecreasing");
            prev = t;
        }
    }
}
