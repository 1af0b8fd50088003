//! Auditing a fixed-point privacy configuration before deployment: given a
//! hardware RNG spec and a sensor range, machine-check whether the claimed
//! ε-LDP guarantee actually holds, and solve the windows that make it hold.
//!
//! Run with: `cargo run --example privacy_audit`

use ulp_ldp::ldp::{
    closed_form_threshold, exact_threshold, worst_case_loss, LimitMode, PrivacyLoss, QuantizedRange,
};
use ulp_ldp::rng::{FxpLaplaceConfig, FxpNoisePmf};

fn audit(bu: u8, by: u8, adc_bits: u8, eps: f64) -> Result<(), Box<dyn std::error::Error>> {
    let span = 1i64 << adc_bits;
    let lambda = span as f64 / eps;
    println!("— audit: Bu={bu}, By={by}, {adc_bits}-bit sensor, ε={eps} —");
    let cfg = FxpLaplaceConfig::new(bu, by, 1.0, lambda)?;
    let pmf = FxpNoisePmf::closed_form(cfg);
    let range = QuantizedRange::new(0, span, 1.0)?;

    // Structural red flags.
    println!(
        "  noise support: |n| ≤ {} codes; interior zero-probability gaps: {}",
        pmf.support_max_k(),
        pmf.interior_gap_count()
    );
    if cfg.saturates() {
        println!("  WARNING: output word saturates the URNG range");
    }

    // The naive guarantee check.
    match worst_case_loss(&pmf, range, LimitMode::Thresholding, None) {
        PrivacyLoss::Infinite => {
            println!("  naive noising: worst-case loss ∞ — NOT differentially private")
        }
        PrivacyLoss::Finite(l) => println!("  naive noising: loss {l:.3} nats"),
    }

    // Solve windows for a 2ε target, both mechanisms, both solvers.
    for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
        match exact_threshold(cfg, &pmf, range, 2.0, mode) {
            Ok(spec) => {
                let cf = closed_form_threshold(cfg, range, 2.0, mode)
                    .map(|s| s.n_th_k.to_string())
                    .unwrap_or_else(|_| "unsatisfiable".into());
                println!(
                    "  {mode:?}: exact window ±{} codes (paper closed form: {cf}) → loss ≤ {:.2}",
                    spec.n_th_k, spec.guaranteed_loss
                );
            }
            Err(e) => println!("  {mode:?}: cannot meet 2ε on this hardware ({e})"),
        }
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A healthy configuration (the paper's default operating point).
    audit(17, 20, 8, 0.5)?;
    // An under-resolved URNG: gaps creep toward the body.
    audit(10, 20, 8, 0.5)?;
    // A clipped output word: guarantees survive, utility windows shrink.
    audit(17, 10, 8, 0.5)?;
    // A hopeless configuration: ε target unreachable.
    audit(6, 20, 8, 0.1)?;
    println!(
        "audits run the same exact integer-count analysis the test suite uses; a \
         configuration that passes here is provably ε-LDP on this RNG."
    );
    Ok(())
}
