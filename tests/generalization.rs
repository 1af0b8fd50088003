//! Section III-A4's generalization, machine-checked across noise families:
//! *any* finite-precision noise distribution breaks naive LDP the same way,
//! and the same window-limiting machinery repairs any of them.

use ulp_ldp::ldp::{
    exact_threshold_for_bound, worst_case_loss, LimitMode, PrivacyLoss, QuantizedRange,
};
use ulp_ldp::rng::{FxpGaussian, FxpGaussianConfig};

#[test]
fn fixed_point_gaussian_breaks_exactly_like_laplace() {
    // Gaussian noise sized for (ε, δ)-style use: σ = 2·d on the grid.
    let cfg = FxpGaussianConfig::new(16, 16, 1.0, 64.0).expect("valid config");
    let g = FxpGaussian::new(cfg);
    let range = QuantizedRange::new(0, 32, 1.0).expect("valid range");
    // Bounded support + tail gaps…
    assert!(g.pmf().support_max_k() > 0);
    assert!(g.pmf().interior_gap_count() > 0);
    // …⇒ infinite naive loss.
    let loss = worst_case_loss(g.pmf(), range, LimitMode::Thresholding, None);
    assert_eq!(loss, PrivacyLoss::Infinite);
}

#[test]
fn window_limiting_repairs_the_gaussian_too() {
    let cfg = FxpGaussianConfig::new(16, 16, 1.0, 64.0).expect("valid config");
    let g = FxpGaussian::new(cfg);
    let range = QuantizedRange::new(0, 32, 1.0).expect("valid range");
    // Target: loss ≤ 1 nat. The distribution-agnostic solver works straight
    // off the Gaussian PMF.
    for mode in [LimitMode::Thresholding, LimitMode::Resampling] {
        let spec = exact_threshold_for_bound(g.pmf(), range, 1.0, mode).expect("solvable");
        assert!(spec.n_th_k > 0, "{mode:?}: nontrivial window expected");
        let loss = worst_case_loss(g.pmf(), range, mode, Some(spec.n_th_k));
        assert!(
            loss.is_bounded_by(1.0 + 1e-12),
            "{mode:?}: {loss:?} exceeds 1 nat"
        );
    }
}

#[test]
fn gaussian_loss_grows_quadratically_not_linearly() {
    // A Gaussian-specific check: the pointwise loss between adjacent
    // inputs grows with |y| (quadratic exponent difference), unlike the
    // constant Laplace ratio — so Gaussian windows must be tighter relative
    // to their tail reach.
    let cfg = FxpGaussianConfig::new(18, 16, 1.0, 64.0).expect("valid config");
    let g = FxpGaussian::new(cfg);
    let range = QuantizedRange::new(0, 16, 1.0).expect("valid range");
    let spec =
        exact_threshold_for_bound(g.pmf(), range, 1.0, LimitMode::Thresholding).expect("solvable");
    // For Lap with same "reach", the window would stretch much further;
    // here it is limited by the quadratically-growing boundary ratio:
    // ln ratio at boundary ≈ s·(n_th + s/2)/σ² = 1 ⇒ n_th ≈ σ²/s − s/2.
    let predicted = (64.0f64 * 64.0 / 16.0 - 8.0).round() as i64;
    assert!(
        (spec.n_th_k - predicted).abs() <= predicted / 5,
        "window {} vs Gaussian-theory prediction {predicted}",
        spec.n_th_k
    );
}

#[test]
fn fixed_point_staircase_breaks_and_repairs_identically() {
    // Third family (Geng–Viswanath staircase, the paper's "[21]"): the
    // utility-optimal ε-DP noise also loses its guarantee in fixed point —
    // and the same distribution-agnostic solver repairs it.
    use ulp_ldp::rng::{FxpStaircase, FxpStaircaseConfig, IdealStaircase};
    let st = IdealStaircase::optimal(0.5, 10.0).expect("valid staircase");
    let cfg = FxpStaircaseConfig::new(17, 16, 10.0 / 32.0).expect("valid config");
    let fxp = FxpStaircase::new(cfg, st);
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("valid range");
    // Break…
    let naive = worst_case_loss(fxp.pmf(), range, LimitMode::Thresholding, None);
    assert_eq!(naive, PrivacyLoss::Infinite);
    // …and repair at a 2ε = 1.0 nat target.
    let spec = exact_threshold_for_bound(fxp.pmf(), range, 1.0, LimitMode::Thresholding)
        .expect("solvable");
    let fixed = worst_case_loss(fxp.pmf(), range, LimitMode::Thresholding, Some(spec.n_th_k));
    assert!(fixed.is_bounded_by(1.0 + 1e-12), "{fixed:?}");
}

#[test]
fn float_laplace_is_vulnerable_as_well() {
    // Section III-A4 cites the floating-point attack: naive f64 Laplace
    // noising also produces input-identifying outputs.
    use ulp_ldp::ldp::float_vuln::distinguishing_fraction;
    let frac = distinguishing_fraction(0.0, 1.0, 20.0, 14).expect("Bu within enumeration range");
    assert!(frac > 0.5, "distinguishing fraction {frac}");
}
