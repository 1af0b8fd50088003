//! Quickstart: why naive fixed-point noising leaks, and how the DP-Box
//! mechanisms fix it.
//!
//! Run with: `cargo run --example quickstart`

use ulp_ldp::ldp::{
    exact_threshold, worst_case_loss, LimitMode, Mechanism, PrivacyLoss, QuantizedRange,
    ResamplingMechanism, ThresholdingMechanism,
};
use ulp_ldp::rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A sensor measuring values in [0, 10] wants ε = 0.5 local DP, so the
    // Laplace noise scale is λ = d/ε = 20. The ULP hardware has a 17-bit
    // uniform RNG and a Δ = 10/32 output grid (the paper's Fig. 4 setup).
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
    let range = QuantizedRange::new(0, 32, cfg.delta())?;
    let pmf = FxpNoisePmf::closed_form(cfg);
    let eps = range.length() / cfg.lambda();
    println!("sensor range [0, 10], ε = {eps}, λ = {}", cfg.lambda());

    // 1. The naive implementation has INFINITE privacy loss: some outputs
    //    are possible under one sensor value and impossible under another.
    let naive_loss = worst_case_loss(&pmf, range, LimitMode::Thresholding, None);
    println!("naive fixed-point noising: worst-case loss = {naive_loss:?}");
    assert_eq!(naive_loss, PrivacyLoss::Infinite);

    // 2. Solve the largest window threshold with loss ≤ 2ε — exactly,
    //    against the RNG's integer-count PMF.
    let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding)?;
    println!(
        "thresholding window: ±{:.2} beyond the range (loss ≤ {} nats, machine-checked)",
        spec.n_th_k as f64 * cfg.delta(),
        spec.guaranteed_loss
    );

    // 3. Privatize a reading with each fixed mechanism.
    let mut rng = Taus88::from_seed(2018);
    let x = 7.3;
    let thresholding = ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)?;
    let out = thresholding.privatize(x, &mut rng)?;
    println!("thresholding: {x} -> {:.2}", out.value);

    let rspec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling)?;
    let resampling = ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, rspec)?;
    let out = resampling.privatize(x, &mut rng)?;
    println!(
        "resampling:   {x} -> {:.2} ({} redraws)",
        out.value, out.resamples
    );

    // 4. Verify the guarantee end to end.
    for (mode, t) in [
        (LimitMode::Thresholding, spec.n_th_k),
        (LimitMode::Resampling, rspec.n_th_k),
    ] {
        let loss = worst_case_loss(&pmf, range, mode, Some(t));
        println!("{mode:?}: exact worst-case loss = {loss:?}");
        assert!(loss.is_bounded_by(2.0 * eps));
    }
    println!(
        "both mechanisms guarantee {:.1}-LDP on this hardware.",
        2.0 * eps
    );
    Ok(())
}
