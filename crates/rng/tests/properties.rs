//! Property-based tests for the RNG substrate.

use proptest::prelude::*;
use ulp_fixed::{Fx, QFormat, Rounding};
use ulp_rng::{
    CordicLn, CorrelatedBits, DiscreteLaplace, FxpGaussian, FxpGaussianConfig, FxpLaplace,
    FxpLaplaceConfig, FxpNoisePmf, HealthConfig, IdealLaplace, OnsetBits, RandomBits, ScriptedBits,
    SplitMix64, StuckAtBits, Taus88, UrngHealth,
};

fn arb_laplace_cfg() -> impl Strategy<Value = FxpLaplaceConfig> {
    (4u8..=16, 4u8..=16, 1u32..=8, 1u32..=64).prop_map(|(bu, by, delta_q, lam_q)| {
        let delta = delta_q as f64 / 4.0;
        let lambda = lam_q as f64;
        FxpLaplaceConfig::new(bu, by, delta, lambda).expect("valid config")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pmf_mass_conserved(cfg in arb_laplace_cfg()) {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let total: u128 = pmf.iter().map(|(_, w)| w).sum();
        prop_assert_eq!(total, pmf.total_weight());
    }

    #[test]
    fn pmf_symmetric_and_decreasing_envelope(cfg in arb_laplace_cfg()) {
        let pmf = FxpNoisePmf::closed_form(cfg);
        // Symmetry is exact.
        for k in 1..=pmf.support_max_k() {
            prop_assert_eq!(pmf.weight(k), pmf.weight(-k));
        }
        // Tail weights are nonincreasing by construction.
        let mut prev = pmf.total_weight();
        for k in 1..=pmf.support_max_k() {
            let t = pmf.tail_weight_ge(k);
            prop_assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn magnitude_map_is_monotone(cfg in arb_laplace_cfg()) {
        let mut prev = i64::MAX;
        for m in 1..=cfg.urng_cardinality().min(1 << 12) {
            let k = cfg.magnitude_index(m);
            prop_assert!(k <= prev);
            prev = k;
        }
    }

    #[test]
    fn sampler_stays_in_support(cfg in arb_laplace_cfg(), seed in any::<u64>()) {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let s = FxpLaplace::analytic(cfg);
        let mut rng = Taus88::from_seed(seed);
        for _ in 0..256 {
            let k = s.sample_index(&mut rng);
            prop_assert!(k.abs() <= pmf.support_max_k());
            prop_assert!(pmf.weight(k) > 0, "sampled zero-probability index {k}");
        }
    }

    #[test]
    fn scripted_worst_case_is_support_max(cfg in arb_laplace_cfg()) {
        // All-zero uniform bits force m = 1: the deepest tail value.
        let s = FxpLaplace::analytic(cfg);
        let mut src = ScriptedBits::new(vec![0, 0, 0]);
        let k = s.sample_index(&mut src);
        prop_assert_eq!(k.abs(), cfg.support_max_k());
    }

    #[test]
    fn cordic_ln_accuracy(raw in 1i64..=(1 << 20)) {
        let fmt = QFormat::new(32, 20).expect("valid");
        let unit = CordicLn::new(32);
        let x = Fx::from_raw(raw, fmt).expect("in range");
        let got = unit.ln(x, fmt).expect("positive").to_f64();
        let want = x.to_f64().ln();
        prop_assert!((got - want).abs() < 2e-5, "ln({}) = {got}, want {want}", x.to_f64());
    }

    #[test]
    fn ideal_laplace_cdf_monotone(lambda in 0.5f64..100.0, a in -50.0f64..50.0, b in -50.0f64..50.0) {
        let lap = IdealLaplace::new(lambda).expect("valid scale");
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(lap.cdf(lo) <= lap.cdf(hi) + 1e-15);
    }

    #[test]
    fn discrete_laplace_ratio_is_constant(scale in 2.0f64..128.0, k in 0i64..200) {
        let dl = DiscreteLaplace::new(scale, 100_000).expect("valid");
        let ratio = (dl.pmf(k) / dl.pmf(k + 1)).ln();
        prop_assert!((ratio - 1.0 / scale).abs() < 1e-9);
    }

    #[test]
    fn gaussian_pmf_mass_conserved(bu in 6u8..=14, sigma_q in 4u32..=64) {
        let cfg = FxpGaussianConfig::new(bu, 16, 1.0, sigma_q as f64).expect("valid");
        let g = FxpGaussian::new(cfg);
        let total: u128 = g.pmf().iter().map(|(_, w)| w).sum();
        prop_assert_eq!(total, g.pmf().total_weight());
    }

    #[test]
    fn urng_streams_are_deterministic(seed in any::<u64>()) {
        let mut a = Taus88::from_seed(seed);
        let mut b = Taus88::from_seed(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u32(), b.next_u32());
        }
        let mut c = SplitMix64::new(seed);
        let mut d = SplitMix64::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(c.next_u64(), d.next_u64());
        }
    }

    #[test]
    fn bits_are_in_range(n in 1u8..=64, seed in any::<u64>()) {
        let mut rng = Taus88::from_seed(seed);
        let v = rng.bits(n);
        if n < 64 {
            prop_assert!(v < (1u64 << n));
        }
    }

    #[test]
    fn correlated_bits_lag_agreement_tracks_rho(
        seed in any::<u64>(),
        lag in 1u8..=8,
        rho in 32u8..=224,
    ) {
        // Agreement at the configured lag is (1 + ρ)/2 for any lag and ρ.
        let mut src = CorrelatedBits::new(Taus88::from_seed(seed), lag, rho);
        let mut ring = [0u32; 8];
        let mut agree = 0u64;
        let mut pairs = 0u64;
        for i in 0..20_000u64 {
            let w = src.next_u32();
            if i >= u64::from(lag) {
                let prev = ring[((i - u64::from(lag)) % u64::from(lag)) as usize];
                agree += u64::from((!(w ^ prev)).count_ones());
                pairs += 32;
            }
            ring[(i % u64::from(lag)) as usize] = w;
        }
        let expected = 0.5 + f64::from(rho) / 512.0;
        let observed = agree as f64 / pairs as f64;
        prop_assert!(
            (observed - expected).abs() < 0.02,
            "lag {lag} rho {rho}: expected {expected}, observed {observed}"
        );
    }

    #[test]
    fn correlated_bits_identity_at_rho_zero(seed in any::<u64>(), lag in 1u8..=8) {
        let mut plain = Taus88::from_seed(seed);
        let mut wrapped = CorrelatedBits::new(Taus88::from_seed(seed), lag, 0);
        for _ in 0..64 {
            prop_assert_eq!(plain.next_u32(), wrapped.next_u32());
        }
    }

    #[test]
    fn onset_bits_is_healthy_before_onset(seed in any::<u64>(), onset in 1u64..=256) {
        let mut plain = Taus88::from_seed(seed);
        let mut staged = OnsetBits::new(
            Taus88::from_seed(seed),
            ScriptedBits::new(vec![0]),
            onset,
            None,
        );
        for _ in 0..onset {
            prop_assert_eq!(plain.next_u32(), staged.next_u32());
        }
        prop_assert_eq!(staged.next_u32(), 0);
    }

    #[test]
    fn health_tests_pass_healthy_sources_at_modest_alpha(seed in any::<u64>()) {
        // Even at a loose α = 2^-32 (trippier than the 2^-40 default — the
        // expected number of chance RCT runs over 16k words × 32 lanes is
        // ~1e-4 per case), a healthy Taus88 must not alarm.
        let cfg = HealthConfig::new(32, 1024, 4).expect("valid");
        let mut health = UrngHealth::new(cfg);
        let mut rng = Taus88::from_seed(seed);
        for _ in 0..16_384 {
            let word = rng.next_u32();
            prop_assert!(health.observe(word).is_ok(), "false alarm: {:?}", health.alarm());
        }
    }

    #[test]
    fn health_detects_any_stuck_bit(seed in any::<u64>(), bit in 0u8..=31, value in any::<bool>()) {
        let mut health = UrngHealth::default();
        let mut src = StuckAtBits::new(Taus88::from_seed(seed), bit, value);
        let mut tripped = None;
        for _ in 0..4_096 {
            if let Err(alarm) = health.observe(src.next_u32()) {
                tripped = Some(alarm);
                break;
            }
        }
        let alarm = tripped.expect("stuck bit must trip within a few cutoffs");
        prop_assert!(
            alarm.word_index < 2 * u64::from(HealthConfig::default().rct_cutoff()),
            "latency {} words", alarm.word_index
        );
    }

    #[test]
    fn rounding_to_narrower_format_loses_at_most_half_step(
        raw in -(1i64 << 20)..(1i64 << 20),
        drop in 1u8..=6,
    ) {
        let wide = QFormat::new(32, 16).expect("valid");
        let narrow = QFormat::new(32, 16 - drop).expect("valid");
        let v = Fx::from_raw(raw, wide).expect("in range");
        let r = v.resize(narrow, Rounding::NearestTiesAway).expect("fits");
        prop_assert!((r.to_f64() - v.to_f64()).abs() <= narrow.delta() / 2.0);
    }
}
