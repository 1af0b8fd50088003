//! Ablation (Section III-A4) — the break-and-fix story across all three
//! noise families the paper names: Laplace, Gaussian, and staircase, on the
//! same sensor and grid.

use ldp_core::{
    exact_threshold_for_bound, worst_case_loss, LimitMode, PrivacyLoss, QuantizedRange,
};
use ldp_eval::TextTable;
use ulp_rng::{
    FxpGaussian, FxpGaussianConfig, FxpLaplaceConfig, FxpNoisePmf, FxpStaircase,
    FxpStaircaseConfig, IdealStaircase,
};

fn main() {
    // Common setting: sensor range [0, 10], Δ = 10/32, Bu = 17, loss target
    // 1.0 nat (= 2ε at ε = 0.5).
    let delta = 10.0 / 32.0;
    let range = QuantizedRange::new(0, 32, delta).expect("valid range");
    let bound = 1.0;

    let laplace = FxpNoisePmf::closed_form(
        FxpLaplaceConfig::new(17, 16, delta, 20.0).expect("laplace config"),
    );
    // Gaussian with σ = 2d (a typical (ε, δ) working point at this range).
    let gaussian =
        FxpGaussian::new(FxpGaussianConfig::new(17, 16, delta, 20.0).expect("gaussian config"));
    let staircase = FxpStaircase::new(
        FxpStaircaseConfig::new(17, 16, delta).expect("staircase config"),
        IdealStaircase::optimal(0.5, 10.0).expect("staircase distribution"),
    )
    .expect("staircase support");

    println!("Noise-family ablation — sensor [0, 10], Δ = 10/32, Bu = 17, target 1.0 nat\n");
    let mut t = TextTable::new(vec![
        "family",
        "support (grid units)",
        "tail gaps",
        "naive loss",
        "repaired window",
        "repaired loss (nats)",
    ]);
    for (name, pmf) in [
        ("Laplace (λ = 20)", &laplace),
        ("Gaussian (σ = 20)", gaussian.pmf()),
        ("staircase (ε = .5, γ*)", staircase.pmf()),
    ] {
        let naive = worst_case_loss(pmf, range, LimitMode::Thresholding, None);
        let naive_txt = match naive {
            PrivacyLoss::Infinite => "∞".to_string(),
            PrivacyLoss::Finite(l) => format!("{l:.3}"),
        };
        let (window, repaired) =
            match exact_threshold_for_bound(pmf, range, bound, LimitMode::Thresholding) {
                Ok(spec) => {
                    let l = worst_case_loss(pmf, range, LimitMode::Thresholding, Some(spec.n_th_k));
                    (
                        format!("±{}", spec.n_th_k),
                        format!("{:.3}", l.finite().expect("bounded")),
                    )
                }
                Err(e) => ("—".into(), format!("{e}")),
            };
        t.row(vec![
            name.to_string(),
            pmf.support_max_k().to_string(),
            pmf.interior_gap_count().to_string(),
            naive_txt,
            window,
            repaired,
        ]);
    }
    println!("{t}");
    println!(
        "=> every finite-precision family has bounded support and tail gaps, so naive \
         noising is never private; one distribution-agnostic window solver repairs all \
         three. (Gaussian windows are tightest: its boundary log-ratio grows \
         quadratically with the overshoot.)"
    );
}
