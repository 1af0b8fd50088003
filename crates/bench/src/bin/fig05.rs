//! Fig. 5 / Section III-A3 — privacy loss of the *naive* fixed-point
//! Laplace mechanism: finite in the body, infinite past the reachable
//! window. This is the paper's central negative result.

use ldp_core::{loss_profile, worst_case_loss, LimitMode, PrivacyLoss, QuantizedRange};
use ldp_eval::TextTable;
use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};

fn main() {
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration");
    let pmf = FxpNoisePmf::closed_form(cfg);
    // Sensor range [0, 10] → ε = d/λ = 0.5.
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("valid range");
    let eps = range.length() / cfg.lambda();

    println!("Fig. 5 — privacy loss of naive FxP noising (ε = {eps})");
    let profile = loss_profile(&pmf, range, LimitMode::Thresholding, None);
    let mut t = TextTable::new(vec!["output y", "loss / ε", "note"]);
    let top = range.max_k() + pmf.support_max_k();
    for y in [
        range.max_k(),
        range.max_k() + 100,
        range.max_k() + 300,
        range.max_k() + 500,
        range.max_k() + 650,
        top - 32,
        top - 10,
        top,
    ] {
        let loss = profile
            .iter()
            .find(|(k, _)| *k == y)
            .map(|(_, l)| *l)
            .unwrap_or(PrivacyLoss::Infinite);
        let (text, note) = match loss {
            PrivacyLoss::Finite(l) => (format!("{:.2}", l / eps), ""),
            PrivacyLoss::Infinite => ("∞".to_string(), "output impossible under one input"),
        };
        t.row(vec![
            format!("{:.1}", range.to_value(y)),
            text,
            note.to_string(),
        ]);
    }
    println!("{t}");
    let worst = worst_case_loss(&pmf, range, LimitMode::Thresholding, None);
    println!("worst-case loss over all outputs: {worst:?}");
    println!("=> the naive implementation does NOT satisfy ε-LDP for any finite ε.");
}
