//! Cross-crate property-based tests: invariants that must hold for *any*
//! valid configuration, not just the paper's operating points.

use proptest::prelude::*;
use ulp_ldp::eval::Adc;
use ulp_ldp::ldp::{
    exact_threshold, worst_case_loss, LimitMode, PrivacyLoss, QuantizedRange, ResamplingMechanism,
    ThresholdingMechanism,
};
use ulp_ldp::rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, RandomBits, Taus88};

fn arb_cfg() -> impl Strategy<Value = (FxpLaplaceConfig, QuantizedRange)> {
    // Small-but-diverse configurations keep the exact analysis fast.
    (6u8..=14, 8u8..=16, 1i64..=40, 1u8..=4).prop_map(|(bu, by, span, lam_mult)| {
        let delta = 1.0;
        let lambda = (span * lam_mult as i64) as f64;
        let cfg = FxpLaplaceConfig::new(bu, by, delta, lambda).expect("valid config");
        let range = QuantizedRange::new(0, span, delta).expect("valid range");
        (cfg, range)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pmf_total_mass_is_exact((cfg, _) in arb_cfg()) {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let sum: u128 = pmf.iter().map(|(_, w)| w).sum();
        prop_assert_eq!(sum, pmf.total_weight());
    }

    #[test]
    fn pmf_closed_form_equals_enumeration((cfg, _) in arb_cfg()) {
        let cf = FxpNoisePmf::closed_form(cfg);
        let en = FxpNoisePmf::by_enumeration(cfg).expect("Bu ≤ 14");
        prop_assert_eq!(cf, en);
    }

    #[test]
    fn naive_loss_is_infinite((cfg, range) in arb_cfg()) {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let loss = worst_case_loss(&pmf, range, LimitMode::Thresholding, None);
        prop_assert_eq!(loss, PrivacyLoss::Infinite);
    }

    #[test]
    fn exact_threshold_is_sound_and_maximal((cfg, range) in arb_cfg(), mult in 15u8..=40) {
        let multiple = mult as f64 / 10.0;
        let pmf = FxpNoisePmf::closed_form(cfg);
        let eps = range.length() / cfg.lambda();
        for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
            if let Ok(spec) = exact_threshold(cfg, &pmf, range, multiple, mode) {
                let at = worst_case_loss(&pmf, range, mode, Some(spec.n_th_k));
                prop_assert!(at.is_bounded_by(multiple * eps + 1e-12),
                    "{mode:?}: loss {at:?} at solved threshold {}", spec.n_th_k);
                let beyond = worst_case_loss(&pmf, range, mode, Some(spec.n_th_k + 1));
                prop_assert!(!beyond.is_bounded_by(multiple * eps),
                    "{mode:?}: threshold {} not maximal", spec.n_th_k);
            }
        }
    }

    #[test]
    fn mechanisms_never_escape_their_window((cfg, range) in arb_cfg(), seed in any::<u64>()) {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let spec = match exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let mech = ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
            .expect("constructible");
        let mut rng = Taus88::from_seed(seed);
        for _ in 0..200 {
            let x_k = range.min_k() + (rng.bits(16) as i64 % (range.span_k() + 1));
            let y = mech.privatize_index(x_k, &mut rng);
            prop_assert!(y >= range.min_k() - spec.n_th_k);
            prop_assert!(y <= range.max_k() + spec.n_th_k);
        }
    }

    #[test]
    fn resampling_and_thresholding_agree_in_window_interior(
        (cfg, range) in arb_cfg(),
        seed in any::<u64>(),
    ) {
        // For draws that land inside the window, the two mechanisms are the
        // same function of the same noise stream.
        let pmf = FxpNoisePmf::closed_form(cfg);
        let spec = match exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let r = ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
            .expect("constructible");
        let t = ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
            .expect("constructible");
        let mut rng_r = Taus88::from_seed(seed);
        let mut rng_t = Taus88::from_seed(seed);
        let x_k = range.min_k();
        for _ in 0..100 {
            let (yr, redraws) = r.privatize_index(x_k, &mut rng_r).expect("in-support window");
            let yt = t.privatize_index(x_k, &mut rng_t);
            if redraws == 0 {
                prop_assert_eq!(yr, yt, "same stream, in-window draw must agree");
            } else {
                // Streams diverged; realign by recreating both RNGs.
                rng_r = Taus88::from_seed(seed ^ yr as u64);
                rng_t = Taus88::from_seed(seed ^ yr as u64);
            }
        }
    }

    #[test]
    fn adc_roundtrip_within_half_lsb(min in -1000.0f64..1000.0, width in 1.0f64..500.0, bits in 4u8..=12) {
        let adc = Adc::new(min, min + width, bits);
        for i in 0..20 {
            let x = min + width * (i as f64) / 19.0;
            let err = (adc.decode(adc.encode(x)) - x).abs();
            prop_assert!(err <= adc.lsb() / 2.0 + 1e-9);
        }
    }

    #[test]
    fn loss_is_monotone_in_window_size((cfg, range) in arb_cfg()) {
        // A wider window can only increase worst-case loss (more extreme
        // outputs become possible) — up to exact ties.
        let pmf = FxpNoisePmf::closed_form(cfg);
        let cap = (pmf.support_max_k() - range.span_k() - 1).max(1);
        let t1 = cap / 3;
        let t2 = 2 * cap / 3;
        if t1 < 1 || t2 <= t1 { return Ok(()); }
        {
            let mode = LimitMode::Thresholding;
            let l1 = worst_case_loss(&pmf, range, mode, Some(t1));
            let l2 = worst_case_loss(&pmf, range, mode, Some(t2));
            match (l1, l2) {
                (PrivacyLoss::Finite(a), PrivacyLoss::Finite(b)) => {
                    prop_assert!(b >= a - 1e-9, "loss shrank with window: {a} -> {b}")
                }
                (PrivacyLoss::Infinite, PrivacyLoss::Finite(_)) => {
                    prop_assert!(false, "wider window cannot fix infinite loss")
                }
                _ => {}
            }
        }
    }
}
