//! Differential support tests: the table-driven fast paths must realize
//! *exactly* the output support the exact integer-count PMF predicts, for
//! random Q-formats and ε — not just at the paper's operating point.
//!
//! This is the defense-side mirror of the `ulp_attack` distinguishers: a
//! support-gap attack succeeds precisely when a sampler's realized support
//! differs from the certified distribution's, so these properties pin the
//! attack surface closed on every tabulated path. (The ideal mechanism has
//! no FxP PMF; its grid-rounded alias table is audited by the
//! `ideal-grid-fast` campaign cell instead.)

use proptest::prelude::*;
use ulp_ldp::attack::{pmf_support, table_matches_dist, table_support};
use ulp_ldp::ldp::{
    conditional, exact_threshold, FxpBaseline, LimitMode, Mechanism, QuantizedRange,
    ResamplingMechanism, SamplerPath, ThresholdingMechanism,
};
use ulp_ldp::rng::{
    cached_alias_full, stream_seed, AliasTable, FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88,
};

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

/// A deterministic per-configuration RNG stream (proptest shrinks inputs,
/// so the stream must derive from the configuration, not a global counter).
fn cfg_rng(cfg: FxpLaplaceConfig, range: QuantizedRange, tag: u64) -> Taus88 {
    Taus88::from_seed(stream_seed(
        2018,
        &[u64::from(cfg.bu()), range.span_k() as u64, tag],
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_alias_table_support_equals_exact_pmf_support((cfg, _) in arb_cfg()) {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let table = cached_alias_full(cfg).expect("tabulable");
        prop_assert!(table.verify_exact(), "alias decomposition must be mass-exact");
        let support = pmf_support(&pmf);
        prop_assert_eq!(&table_support(&table, 0), &support);
        // Sampled draws stay inside the planned support, so the attack's
        // distinguishing regions really are unreachable.
        let mut rng = cfg_rng(cfg, QuantizedRange::new(0, 1, 1.0).unwrap(), 0);
        let mut out = vec![0i64; 512];
        table.fill_batch(&mut rng, &mut out);
        for y in out {
            prop_assert!(support.contains(&y), "draw {y} outside exact support");
        }
    }

    #[test]
    fn resampling_window_tables_match_exact_conditionals(
        (cfg, range) in arb_cfg(),
        mult in 15u8..=40,
    ) {
        let multiple = mult as f64 / 10.0;
        let pmf = FxpNoisePmf::closed_form(cfg);
        let Ok(spec) = exact_threshold(cfg, &pmf, range, multiple, LimitMode::Resampling) else {
            return Ok(()); // target infeasible for this configuration
        };
        let (lo, hi) = (range.min_k() - spec.n_th_k, range.max_k() + spec.n_th_k);
        let mid = (range.min_k() + range.max_k()) / 2;
        for x_k in [range.min_k(), mid, range.max_k()] {
            let Ok(table) = AliasTable::from_pmf_window(&pmf, lo - x_k, hi - x_k) else {
                continue; // window misses the noise support entirely
            };
            let expected =
                conditional(&pmf, range, LimitMode::Resampling, Some(spec.n_th_k), x_k);
            prop_assert!(
                table_matches_dist(&table, x_k, &expected),
                "window table at x_k = {x_k} diverges from the exact conditional"
            );
        }
    }

    #[test]
    fn fast_and_secure_batches_land_in_exact_conditional_support(
        (cfg, range) in arb_cfg(),
        mult in 15u8..=40,
    ) {
        let multiple = mult as f64 / 10.0;
        let pmf = FxpNoisePmf::closed_form(cfg);
        let xs_k = [range.min_k(), (range.min_k() + range.max_k()) / 2, range.max_k()];
        let check = |mech: &dyn Mechanism,
                     mode: LimitMode,
                     n_th_k: Option<i64>,
                     tag: u64|
         -> Result<(), TestCaseError> {
            let mut rng = cfg_rng(cfg, range, tag);
            for x_k in xs_k {
                let input = vec![x_k; 128];
                let mut out = vec![0i64; 128];
                mech.privatize_index_batch(&input, &mut rng, &mut out)
                    .expect("batch succeeds");
                let dist = conditional(&pmf, range, mode, n_th_k, x_k);
                for y in out {
                    prop_assert!(
                        dist.weight(y) > 0,
                        "{}: output {y} at x_k = {x_k} outside the exact support",
                        mech.name()
                    );
                }
            }
            Ok(())
        };

        let naive = FxpBaseline::new(FxpLaplace::analytic(cfg), range)
            .expect("valid baseline")
            .with_sampler_path(SamplerPath::Fast);
        check(&naive, LimitMode::Thresholding, None, 1)?;

        if let Ok(spec) = exact_threshold(cfg, &pmf, range, multiple, LimitMode::Resampling) {
            for path in [SamplerPath::Fast, SamplerPath::Secure] {
                let mech =
                    ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
                        .expect("valid spec")
                        .with_sampler_path(path);
                check(&mech, LimitMode::Resampling, Some(spec.n_th_k), 2)?;
            }
        }
        if let Ok(spec) = exact_threshold(cfg, &pmf, range, multiple, LimitMode::Thresholding) {
            for path in [SamplerPath::Fast, SamplerPath::Secure] {
                let mech =
                    ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
                        .expect("valid spec")
                        .with_sampler_path(path);
                check(&mech, LimitMode::Thresholding, Some(spec.n_th_k), 3)?;
            }
        }
    }
}
