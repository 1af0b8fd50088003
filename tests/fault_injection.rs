//! Fault injection: how the privacy pipeline behaves when the URNG
//! degrades. The *structural* window bound must survive any bit source;
//! the *distributional* ε bound does not — and the health monitor is what
//! stands between the two.

use ulp_ldp::ldp::{exact_threshold, LimitMode, QuantizedRange, ThresholdingMechanism};
use ulp_ldp::rng::{
    FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, HealthAlarm, HealthTest, RandomBits, StuckAtBits,
    Taus88, UrngHealth,
};

fn mechanism() -> (ThresholdingMechanism, QuantizedRange, i64) {
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("valid range");
    let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).expect("solvable");
    let mech =
        ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec).expect("constructible");
    (mech, range, spec.n_th_k)
}

/// Feeds `words` words of `src` through the continuous health monitor the
/// DP-Box gates on, returning its first alarm.
fn first_alarm(src: &mut dyn RandomBits, words: u32) -> Option<HealthAlarm> {
    let mut health = UrngHealth::default();
    (0..words).find_map(|_| health.observe(src.next_u32()).err())
}

/// The bit lane a repetition-count alarm names.
fn stuck_lane(alarm: Option<HealthAlarm>) -> Option<u8> {
    match alarm?.test {
        HealthTest::RepetitionCount { bit, .. } => Some(bit),
        _ => None,
    }
}

#[test]
fn window_bound_survives_any_bit_source() {
    // Even a massively broken URNG cannot push outputs past the window:
    // the clamp is structural.
    let (mech, range, n_th) = mechanism();
    let mut broken = StuckAtBits::new(Taus88::from_seed(1), 31, true);
    for _ in 0..10_000 {
        let y = mech.privatize_index(range.max_k(), &mut broken);
        assert!(y >= range.min_k() - n_th && y <= range.max_k() + n_th);
    }
}

#[test]
fn stuck_sign_bit_skews_the_output_distribution() {
    // The distributional guarantee, by contrast, is destroyed: a stuck
    // sign bit makes every noise draw one-sided.
    let (mech, _range, _) = mechanism();
    let mut healthy = Taus88::from_seed(2);
    let mut broken = StuckAtBits::new(Taus88::from_seed(2), 31, true);
    let n = 20_000;
    let mean = |rng: &mut dyn RandomBits| -> f64 {
        (0..n)
            .map(|_| mech.privatize_index(16, rng) as f64)
            .sum::<f64>()
            / n as f64
    };
    let m_ok = mean(&mut healthy);
    let m_bad = mean(&mut broken);
    // Healthy noise is symmetric (mean ≈ input); broken noise is
    // one-sided (stuck sign ⇒ every draw negative), shifting the mean by
    // E[mag] = (1 − ln 2)·λ/Δ ≈ 19.6 grid steps.
    assert!((m_ok - 16.0).abs() < 10.0, "healthy mean {m_ok}");
    assert!(m_bad < 16.0 - 15.0, "broken mean {m_bad} not skewed?");
    // And strictly one-sided: no output ever exceeds the input.
    let mut broken2 = StuckAtBits::new(Taus88::from_seed(6), 31, true);
    for _ in 0..5_000 {
        assert!(mech.privatize_index(16, &mut broken2) <= 16);
    }
}

#[test]
fn health_monitor_gates_the_guarantee() {
    // The deployment rule the module docs prescribe: run the URNG through
    // the health monitor; only claim ε-LDP while it reports healthy.
    assert_eq!(first_alarm(&mut Taus88::from_seed(3), 30_000), None);
    let mut stuck = StuckAtBits::new(Taus88::from_seed(3), 5, false);
    assert_eq!(stuck_lane(first_alarm(&mut stuck, 30_000)), Some(5));
}

#[test]
fn magnitude_lsb_fault_is_subtle_but_detectable() {
    // A stuck *low* magnitude bit barely moves the noise moments — exactly
    // the kind of fault only a per-bit monitor catches.
    let (mech, _, _) = mechanism();
    let mut healthy = Taus88::from_seed(4);
    let mut broken = StuckAtBits::new(Taus88::from_seed(4), 0, true);
    let n = 20_000;
    let sd = |rng: &mut dyn RandomBits| -> f64 {
        let xs: Vec<f64> = (0..n)
            .map(|_| mech.privatize_index(16, rng) as f64)
            .collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64).sqrt()
    };
    let rel = (sd(&mut healthy) / sd(&mut broken) - 1.0).abs();
    assert!(rel < 0.05, "LSB fault should barely move σ: {rel}");
    // …but the monitor still flags it.
    let mut stuck = StuckAtBits::new(Taus88::from_seed(5), 0, true);
    assert_eq!(stuck_lane(first_alarm(&mut stuck, 30_000)), Some(0));
}
