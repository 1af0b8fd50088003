//! End-to-end privacy guarantees across a sweep of hardware configurations:
//! the paper's negative result (naive FxP noising has infinite loss) and
//! positive result (solved windows bound the loss) must hold for every
//! configuration, and the *empirical* mechanism behaviour must match the
//! exact analysis it was certified against.

use std::collections::HashMap;

use ulp_ldp::ldp::{
    conditional, exact_threshold, worst_case_loss, LimitMode, PrivacyLoss, QuantizedRange,
    ResamplingMechanism, ThresholdingMechanism,
};
use ulp_ldp::rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};

fn sweep() -> Vec<(FxpLaplaceConfig, QuantizedRange)> {
    // (Bu, By, Δ, λ, range span) across resolutions and scales.
    [
        (17u8, 12u8, 10.0 / 32.0, 20.0, 32i64),
        (14, 14, 0.25, 8.0, 16),
        (12, 16, 1.0, 64.0, 64),
        (20, 20, 0.5, 50.0, 50),
    ]
    .into_iter()
    .map(|(bu, by, delta, lambda, span)| {
        let cfg = FxpLaplaceConfig::new(bu, by, delta, lambda).expect("valid config");
        let range = QuantizedRange::new(0, span, delta).expect("valid range");
        (cfg, range)
    })
    .collect()
}

#[test]
fn naive_noising_is_never_private() {
    for (cfg, range) in sweep() {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let loss = worst_case_loss(&pmf, range, LimitMode::Thresholding, None);
        assert_eq!(
            loss,
            PrivacyLoss::Infinite,
            "naive loss must be infinite for Bu={} By={}",
            cfg.bu(),
            cfg.by()
        );
    }
}

#[test]
fn solved_windows_bound_the_loss_everywhere() {
    for (cfg, range) in sweep() {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let eps = range.length() / cfg.lambda();
        for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
            let spec = match exact_threshold(cfg, &pmf, range, 2.0, mode) {
                Ok(s) => s,
                Err(_) => continue, // configuration cannot meet the target
            };
            let loss = worst_case_loss(&pmf, range, mode, Some(spec.n_th_k));
            assert!(
                loss.is_bounded_by(2.0 * eps + 1e-12),
                "{mode:?} Bu={}: loss {loss:?} > {}",
                cfg.bu(),
                2.0 * eps
            );
        }
    }
}

#[test]
fn empirical_output_frequencies_match_certified_distribution() {
    // The mechanism that was *certified* via ConditionalDist must actually
    // emit outputs with those probabilities — tie the analysis to the
    // implementation.
    let cfg = FxpLaplaceConfig::new(12, 14, 0.5, 8.0).expect("valid config");
    let range = QuantizedRange::new(0, 16, 0.5).expect("valid range");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).expect("solvable");
    let mech =
        ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec).expect("constructible");
    let x_k = range.max_k();
    let dist = conditional(&pmf, range, LimitMode::Thresholding, Some(spec.n_th_k), x_k);

    let mut rng = Taus88::from_seed(404);
    let n = 400_000usize;
    let mut hist: HashMap<i64, u64> = HashMap::new();
    for _ in 0..n {
        *hist.entry(mech.privatize_index(x_k, &mut rng)).or_insert(0) += 1;
    }
    // Every emitted output must be in the certified support…
    for &y in hist.keys() {
        assert!(dist.weight(y) > 0, "emitted uncertified output {y}");
    }
    // …and high-probability outputs must appear at the certified rate.
    for (y, w) in dist.iter() {
        let p = w as f64 / dist.norm() as f64;
        if p > 1e-3 {
            let emp = *hist.get(&y).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (emp - p).abs() < 5.0 * (p / n as f64).sqrt() + 1e-4,
                "y={y}: empirical {emp} vs certified {p}"
            );
        }
    }
}

#[test]
fn resampling_empirical_acceptance_matches_analysis() {
    let cfg = FxpLaplaceConfig::new(14, 14, 0.25, 8.0).expect("valid config");
    let range = QuantizedRange::new(0, 16, 0.25).expect("valid range");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).expect("solvable");
    let mech =
        ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, spec).expect("constructible");
    let x_k = range.min_k();
    let dist = conditional(&pmf, range, LimitMode::Resampling, Some(spec.n_th_k), x_k);
    let accept = dist.norm() as f64 / pmf.total_weight() as f64;

    let mut rng = Taus88::from_seed(405);
    let n = 100_000u32;
    let mut redraws = 0u64;
    for _ in 0..n {
        redraws += mech
            .privatize_index(x_k, &mut rng)
            .expect("in-support window")
            .1 as u64;
    }
    let expected_redraws = 1.0 / accept - 1.0;
    let measured = redraws as f64 / n as f64;
    assert!(
        (measured - expected_redraws).abs() < 0.05 * expected_redraws.max(0.02) + 0.01,
        "measured {measured} vs expected {expected_redraws} redraws/request"
    );
}

#[test]
fn guarantee_survives_any_uniform_source() {
    // The LDP guarantee is a property of the mapping, not the bit source:
    // swapping the URNG family must keep outputs inside the certified
    // support.
    use ulp_ldp::rng::Xorshift64Star;
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration");
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("valid range");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).expect("solvable");
    let mech =
        ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec).expect("constructible");
    let mut rng = Xorshift64Star::from_seed(99);
    for _ in 0..20_000 {
        let y = mech.privatize_index(range.max_k(), &mut rng);
        assert!(y >= range.min_k() - spec.n_th_k && y <= range.max_k() + spec.n_th_k);
    }
}

#[test]
fn post_processing_preserves_the_guarantee() {
    // Section II-B: applying any query to DP outputs preserves privacy.
    // Operationally: aggregates computed from certified outputs depend on
    // the input only through the certified channel — check that two
    // adjacent inputs produce overlapping aggregate distributions.
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration");
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("valid range");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).expect("solvable");
    let mech =
        ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec).expect("constructible");
    let mut rng = Taus88::from_seed(7);
    let rounded_mean = |x_k: i64, rng: &mut Taus88| -> i64 {
        let s: i64 = (0..64).map(|_| mech.privatize_index(x_k, rng)).sum();
        (s as f64 / 64.0 / 16.0).round() as i64 // coarse post-processing
    };
    let mut a = std::collections::HashSet::new();
    let mut b = std::collections::HashSet::new();
    for _ in 0..200 {
        a.insert(rounded_mean(range.min_k(), &mut rng));
        b.insert(rounded_mean(range.max_k(), &mut rng));
    }
    assert!(
        a.intersection(&b).count() > 0,
        "post-processed aggregates must overlap between adjacent inputs"
    );
}
