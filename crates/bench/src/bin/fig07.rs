//! Fig. 7 — noised-output distribution with **thresholding**: out-of-window
//! outputs are clamped, piling visible probability atoms at the window
//! boundaries.

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
        LimitMode::Thresholding,
    )
    .expect("solvable threshold");

    println!(
        "Fig. 7 — thresholding: n_th = {} grid units ({:.1} in value), loss target {}ε",
        spec.n_th_k,
        spec.n_th_k as f64 * cfg.delta(),
        ldp_bench::LOSS_MULTIPLE
    );
    let d_m = ConditionalDist::thresholded(&pmf, range, spec.n_th_k, range.min_k());
    let d_max = ConditionalDist::thresholded(&pmf, range, spec.n_th_k, range.max_k());
    let (lo, hi) = (range.min_k() - spec.n_th_k, range.max_k() + spec.n_th_k);
    let mut t = TextTable::new(vec!["output y", "Pr[y | x=m]", "Pr[y | x=M]", "note"]);
    let step = ((hi - lo) / 12).max(1) as usize;
    let mut rows: Vec<i64> = (lo..=hi).step_by(step).collect();
    if *rows.last().unwrap() != hi {
        rows.push(hi);
    }
    for y in rows {
        let note = if y == lo || y == hi {
            "boundary atom"
        } else {
            ""
        };
        t.row(vec![
            format!("{:.1}", range.to_value(y)),
            format!("{:.5}", d_m.prob(y)),
            format!("{:.5}", d_max.prob(y)),
            note.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "boundary atoms: Pr[y=hi|x=m] = {:.5}, Pr[y=hi|x=M] = {:.5} — similar, so the \
         adversary cannot tell m from M even at the clamp",
        d_m.prob(hi),
        d_max.prob(hi)
    );
    let worst = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(spec.n_th_k));
    println!(
        "exact worst-case loss: {worst:?} (target {})",
        spec.guaranteed_loss
    );
}
