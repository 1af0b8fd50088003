//! Fig. 6 — noised-output distribution with **resampling**: every input's
//! output is confined to the same window `[m − n_th, M + n_th]`, so the
//! loss is bounded.

use ldp_core::{exact_threshold, worst_case_loss, ConditionalDist, LimitMode, QuantizedRange};
use ldp_eval::TextTable;
use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};

fn main() {
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("valid range");
    let spec = exact_threshold(
        cfg,
        &pmf,
        range,
        ldp_bench::LOSS_MULTIPLE,
        LimitMode::Resampling,
    )
    .expect("solvable threshold");

    println!(
        "Fig. 6 — resampling: n_th = {} grid units ({:.1} in value), loss target {}ε",
        spec.n_th_k,
        spec.n_th_k as f64 * cfg.delta(),
        ldp_bench::LOSS_MULTIPLE
    );
    let d_m = ConditionalDist::resampled(&pmf, range, spec.n_th_k, range.min_k());
    let d_max = ConditionalDist::resampled(&pmf, range, spec.n_th_k, range.max_k());
    let mut t = TextTable::new(vec!["output y", "Pr[y | x=m]", "Pr[y | x=M]"]);
    let (lo, hi) = (range.min_k() - spec.n_th_k, range.max_k() + spec.n_th_k);
    let step = ((hi - lo) / 12).max(1) as usize;
    for y in (lo..=hi).step_by(step) {
        t.row(vec![
            format!("{:.1}", range.to_value(y)),
            format!("{:.5}", d_m.prob(y)),
            format!("{:.5}", d_max.prob(y)),
        ]);
    }
    println!("{t}");
    println!(
        "acceptance probability per draw: {:.3} (x = m)",
        d_m.norm() as f64 / pmf.total_weight() as f64
    );
    let worst = worst_case_loss(&pmf, range, LimitMode::Resampling, Some(spec.n_th_k));
    println!(
        "exact worst-case loss: {worst:?} (target {})",
        spec.guaranteed_loss
    );
}
