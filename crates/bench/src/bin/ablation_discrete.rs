//! Ablation (beyond the paper): how close does thresholded/resampled
//! fixed-point Laplace get to a *discrete-targeting* mechanism (OpenDP-style
//! two-sided geometric) that was designed for finite precision from the
//! start?

use ldp_core::{
    exact_threshold, worst_case_loss, DiscreteLaplaceMechanism, LimitMode, Mechanism,
    QuantizedRange,
};
use ldp_eval::TextTable;
use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};

fn mae_of(mech: &dyn Mechanism, x: f64, truth: f64, reps: usize, seed: u64, delta: f64) -> f64 {
    let mut rng = Taus88::from_seed(seed);
    let err: f64 = (0..reps)
        .map(|_| (mech.privatize(x, &mut rng).expect("mechanism").value - truth).abs())
        .sum();
    let _ = delta;
    err / reps as f64
}

fn main() {
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("valid range");
    let eps = range.length() / cfg.lambda();

    println!("Ablation — FxP Laplace + window repair vs discrete-targeting mechanism");
    println!("(sensor range [0, 10], ε = {eps}; windows solved for a 2ε target)\n");

    let t_spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).expect("solvable");
    let r_spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).expect("solvable");
    let thresh = ldp_core::ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, t_spec)
        .expect("constructible");
    let resamp = ldp_core::ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, r_spec)
        .expect("constructible");
    // Give the discrete mechanism the same window as thresholding.
    let discrete = DiscreteLaplaceMechanism::new(range, eps, t_spec.n_th_k).expect("constructible");

    let x = 5.0;
    let reps = 100_000;
    let mut t = TextTable::new(vec![
        "mechanism",
        "window (grid units)",
        "exact worst-case loss (nats)",
        "loss / ε",
        "per-report MAE",
    ]);
    let rows: Vec<(&str, i64, f64, f64)> = vec![
        (
            "FxP thresholding",
            t_spec.n_th_k,
            worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(t_spec.n_th_k))
                .finite()
                .expect("bounded"),
            mae_of(&thresh, x, x, reps, 1, cfg.delta()),
        ),
        (
            "FxP resampling",
            r_spec.n_th_k,
            worst_case_loss(&pmf, range, LimitMode::Resampling, Some(r_spec.n_th_k))
                .finite()
                .expect("bounded"),
            mae_of(&resamp, x, x, reps, 2, cfg.delta()),
        ),
        (
            "discrete Laplace (same window)",
            t_spec.n_th_k,
            discrete.guarantee().bound().expect("bounded"),
            mae_of(&discrete, x, x, reps, 3, cfg.delta()),
        ),
    ];
    for (name, w, loss, mae) in rows {
        t.row(vec![
            name.to_string(),
            w.to_string(),
            format!("{loss:.4}"),
            format!("{:.2}", loss / eps),
            format!("{mae:.2}"),
        ]);
    }
    println!("{t}");
    println!(
        "=> at the same window and noise scale, the discrete-targeting mechanism's loss \
         is essentially ε, while the repaired continuous-ICDF datapath pays the n·ε \
         slack for its quantization raggedness — the price of retrofitting privacy \
         onto a continuous-targeting RNG. Utility is indistinguishable."
    );
}
