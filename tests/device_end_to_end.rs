//! End-to-end DP-Box device scenarios: the full boot → configure → noise →
//! exhaust → replenish lifecycle, and consistency between the device and
//! the analytical models it embeds.

use ulp_ldp::dpbox::{Command, DpBox, DpBoxConfig, Phase};
use ulp_ldp::eval::Adc;

fn booted(seed: u64, budget_units: Option<i64>, period: u64) -> DpBox {
    let cfg = DpBoxConfig {
        frac_bits: 0,
        seed,
        ..DpBoxConfig::default()
    };
    let mut dev = DpBox::new(cfg).expect("valid config");
    if let Some(b) = budget_units {
        dev.issue(Command::SetEpsilon, b).expect("budget");
    }
    if period > 0 {
        dev.issue(Command::SetSensorRangeUpper, period as i64)
            .expect("period");
    }
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev
}

fn configure_statlog(dev: &mut DpBox, adc: Adc) {
    dev.issue(Command::SetEpsilon, 1).expect("ε = 0.5");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, adc.max_code())
        .expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("thresholding");
}

#[test]
fn full_lifecycle_boot_noise_exhaust_replenish() {
    let adc = Adc::new(94.0, 200.0, 8);
    let mut dev = booted(1, Some(30), 100_000);
    configure_statlog(&mut dev, adc);
    assert_eq!(dev.phase(), Phase::Waiting);

    // Noise until the budget runs out.
    let mut fresh = 0u64;
    loop {
        dev.noise_value(adc.encode(131.3)).expect("served");
        if dev.remaining_budget() <= 0.0 {
            break;
        }
        fresh += 1;
        assert!(fresh < 10_000, "budget must eventually exhaust");
    }
    // Cached replies now.
    let before = dev.stats().cached;
    let (y1, _) = dev.noise_value(adc.encode(131.3)).expect("cached");
    let (y2, _) = dev.noise_value(adc.encode(180.0)).expect("cached");
    assert_eq!(y1, y2, "cache replays regardless of the requested value");
    assert_eq!(dev.stats().cached, before + 2);

    // Idle a full replenishment period and noise again.
    for _ in 0..100_000 {
        dev.tick();
    }
    assert!(dev.remaining_budget() > 0.0);
    dev.noise_value(adc.encode(131.3)).expect("fresh again");
    assert_eq!(dev.stats().cached, before + 2, "no more cache hits");
}

#[test]
fn device_threshold_matches_core_solver() {
    // The window the device enforces must be the one the ldp-core exact
    // solver certifies for its induced noise configuration.
    use ulp_ldp::ldp::{exact_threshold, LimitMode, QuantizedRange};
    use ulp_ldp::rng::FxpNoisePmf;

    let adc = Adc::new(94.0, 200.0, 8);
    let mut dev = booted(2, None, 0);
    configure_statlog(&mut dev, adc);
    dev.noise_value(128).expect("first noising builds context");

    let lap_cfg = dev.laplace_config().expect("context built");
    let pmf = FxpNoisePmf::closed_form(lap_cfg);
    let range = QuantizedRange::new(0, adc.max_code(), 1.0).expect("valid range");
    let expected = exact_threshold(lap_cfg, &pmf, range, 3.0, LimitMode::Thresholding)
        .expect("solvable")
        .n_th_k;
    assert_eq!(dev.threshold_k(), Some(expected));
}

#[test]
fn outputs_always_within_certified_window() {
    let adc = Adc::new(94.0, 200.0, 8);
    let mut dev = booted(3, None, 0);
    configure_statlog(&mut dev, adc);
    dev.noise_value(0).expect("context");
    let n_th = dev.threshold_k().expect("threshold solved");
    for code in [0i64, 64, 128, 192, 256] {
        for _ in 0..500 {
            let (y, _) = dev.noise_value(code).expect("served");
            assert!(y >= -n_th && y <= adc.max_code() + n_th, "y={y}");
        }
    }
}

#[test]
fn mode_toggle_changes_latency_profile() {
    let adc = Adc::new(94.0, 200.0, 8);
    // Resampling device (default mode).
    let mut dev = booted(4, None, 0);
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, adc.max_code())
        .expect("upper");
    let mut saw_extra = 0u64;
    for _ in 0..3_000 {
        let (_, cycles) = dev.noise_value(0).expect("served");
        if cycles > 2 {
            saw_extra += cycles - 2;
        }
    }
    assert!(saw_extra > 0, "resampling mode must resample at this range");
    // Thresholding never exceeds 2 cycles.
    let mut dev_t = booted(5, None, 0);
    configure_statlog(&mut dev_t, adc);
    for _ in 0..1_000 {
        let (_, cycles) = dev_t.noise_value(128).expect("served");
        assert_eq!(cycles, 2);
    }
}

#[test]
fn sensor_swap_reconfigures_cleanly() {
    // One DP-Box serving two sensors back to back (range changes rebuild
    // the noising context).
    let mut dev = booted(6, None, 0);
    let bp = Adc::new(94.0, 200.0, 8);
    configure_statlog(&mut dev, bp);
    let (y1, _) = dev.noise_value(bp.encode(140.0)).expect("bp noised");
    // Switch to an accelerometer with a different range.
    let acc = Adc::new(-1.0, 1.0, 8);
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, acc.max_code())
        .expect("upper");
    let (y2, _) = dev.noise_value(acc.encode(0.1)).expect("acc noised");
    let n_th = dev.threshold_k().expect("rebuilt");
    assert!(y2 >= -n_th && y2 <= acc.max_code() + n_th);
    let _ = y1;
}

#[test]
fn device_noise_spread_matches_pmf_prediction() {
    // σ of the device's noise must match the PMF's implied σ within
    // sampling error (ties the CORDIC datapath to the analytic model).
    use ulp_ldp::rng::FxpNoisePmf;

    let adc = Adc::new(94.0, 200.0, 8);
    let mut dev = booted(7, None, 0);
    configure_statlog(&mut dev, adc);
    dev.noise_value(128).expect("context");
    let lap_cfg = dev.laplace_config().expect("built");
    let pmf = FxpNoisePmf::closed_form(lap_cfg);
    let n_th = dev.threshold_k().expect("threshold");

    // PMF σ under thresholding for mid input (window ±(n_th + 128)).
    let x = 128i64;
    let lo = -n_th - x;
    let hi = (adc.max_code() + n_th) - x;
    let mut mean = 0.0;
    let mut m2 = 0.0;
    let total = pmf.total_weight() as f64;
    for k in -pmf.support_max_k()..=pmf.support_max_k() {
        let kk = k.clamp(lo, hi) as f64;
        let p = pmf.weight(k) as f64 / total;
        mean += kk * p;
        m2 += kk * kk * p;
    }
    let sigma_pred = (m2 - mean * mean).sqrt();

    let n = 20_000;
    let mut sum = 0.0;
    let mut sq = 0.0;
    for _ in 0..n {
        let (y, _) = dev.noise_value(x).expect("served");
        let d = (y - x) as f64;
        sum += d;
        sq += d * d;
    }
    let m = sum / n as f64;
    let sigma_dev = (sq / n as f64 - m * m).sqrt();
    assert!(
        (sigma_dev / sigma_pred - 1.0).abs() < 0.05,
        "device σ {sigma_dev} vs PMF σ {sigma_pred}"
    );
}
