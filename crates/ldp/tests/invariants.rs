//! Property-based invariants for the LDP core: budget accounting,
//! randomized response, and segment tables under arbitrary inputs.

use ldp_core::{
    conditional, BudgetController, CompositionLedger, ConditionalDist, KaryRandomizedResponse,
    LimitMode, QuantizedRange, RandomizedResponse, SegmentTable,
};
use proptest::prelude::*;
use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};

fn small_setup() -> (FxpLaplaceConfig, FxpNoisePmf, QuantizedRange, SegmentTable) {
    let cfg = FxpLaplaceConfig::new(12, 14, 1.0, 32.0).expect("valid config");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let range = QuantizedRange::new(0, 16, 1.0).expect("valid range");
    let table = SegmentTable::build(cfg, &pmf, range, &[1.5, 2.0, 3.0], LimitMode::Thresholding)
        .expect("buildable");
    (cfg, pmf, range, table)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn budget_controller_never_overspends_much(budget_q in 1u32..200, seed in any::<u64>()) {
        // Remaining budget can dip below zero by at most one charge
        // (Algorithm 1 checks before serving, charges after).
        let (cfg, _, range, table) = small_setup();
        let budget = budget_q as f64 / 10.0;
        let max_charge = table.outermost().1;
        let mut ctrl = BudgetController::new(table, range, budget).expect("valid budget");
        let sampler = FxpLaplace::analytic(cfg);
        let mut rng = Taus88::from_seed(seed);
        for _ in 0..200 {
            let _ = ctrl.respond(8.0, &sampler, &mut rng);
        }
        prop_assert!(ctrl.remaining() > -max_charge - 1e-9);
        // Total charged equals budget minus remaining (exact bookkeeping).
        prop_assert!((ctrl.stats().charged - (budget - ctrl.remaining())).abs() < 1e-9);
    }

    #[test]
    fn exhausted_controller_is_deterministic(seed in any::<u64>()) {
        let (cfg, _, range, table) = small_setup();
        let mut ctrl = BudgetController::new(table, range, 0.9).expect("valid budget");
        let sampler = FxpLaplace::analytic(cfg);
        let mut rng = Taus88::from_seed(seed);
        let mut outputs = Vec::new();
        for _ in 0..30 {
            outputs.push(ctrl.respond(8.0, &sampler, &mut rng).expect("cached or fresh"));
        }
        let served = ctrl.stats().served as usize;
        for w in outputs[served..].windows(2) {
            prop_assert_eq!(w[0], w[1], "cache must replay identically");
        }
    }

    #[test]
    fn segment_charges_monotone_in_overshoot(o1 in 0i64..5_000, o2 in 0i64..5_000) {
        let (_, _, _, table) = small_setup();
        let (lo, hi) = if o1 <= o2 { (o1, o2) } else { (o2, o1) };
        prop_assert!(table.charge_for_overshoot(lo) <= table.charge_for_overshoot(hi) + 1e-12);
    }

    #[test]
    fn ledger_total_is_the_sum(losses in proptest::collection::vec(0.0f64..2.0, 0..50)) {
        let ledger: CompositionLedger = losses.iter().copied().collect();
        let sum: f64 = losses.iter().sum();
        prop_assert!((ledger.total() - sum).abs() < 1e-9);
        prop_assert_eq!(ledger.queries(), losses.len());
    }

    #[test]
    fn rr_estimator_inverts_expectation(p_q in 1u32..49, truth_q in 0u32..=100) {
        let p = p_q as f64 / 100.0;
        let truth = truth_q as f64 / 100.0;
        let rr = RandomizedResponse::new(p).expect("p in (0, 0.5)");
        // Expected observed fraction, then invert — must recover truth.
        let observed = truth * (1.0 - p) + (1.0 - truth) * p;
        let est = rr.estimate_proportion(observed);
        prop_assert!((est - truth).abs() < 1e-9, "p={p} truth={truth} est={est}");
    }

    #[test]
    fn kary_estimates_are_a_distribution(
        k in 2usize..8,
        eps_q in 5u32..40,
        counts in proptest::collection::vec(0u64..10_000, 8),
    ) {
        let rr = KaryRandomizedResponse::with_epsilon(k, eps_q as f64 / 10.0)
            .expect("valid k-RR");
        let counts = &counts[..k];
        if counts.iter().sum::<u64>() == 0 { return Ok(()); }
        let est = rr.estimate_frequencies(counts);
        prop_assert_eq!(est.len(), k);
        prop_assert!(est.iter().all(|&f| (0.0..=1.0 + 1e-12).contains(&f)));
        prop_assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn built_tables_charge_at_least_the_all_pairs_loss(mult_base in 11u32..20) {
        // Every output the window can release, over every input pair,
        // realizes no more loss than its overshoot is charged.
        let (cfg, pmf, range, _) = small_setup();
        let multiples = [
            mult_base as f64 / 10.0,
            mult_base as f64 / 10.0 + 0.7,
            mult_base as f64 / 10.0 + 1.6,
        ];
        let table = SegmentTable::build(cfg, &pmf, range, &multiples, LimitMode::Thresholding)
            .expect("buildable");
        let window = table.outermost().0;
        let dists: Vec<ConditionalDist> = (range.min_k()..=range.max_k())
            .map(|x| conditional(&pmf, range, LimitMode::Thresholding, Some(window), x))
            .collect();
        for y in range.min_k() - window..=range.max_k() + window {
            let o = (range.min_k() - y).max(0) + (y - range.max_k()).max(0);
            let charge = table.charge_for_overshoot(o);
            for a in &dists {
                for b in &dists {
                    if let Some(loss) = a.loss_at(b, y) {
                        prop_assert!(
                            loss.is_bounded_by(charge),
                            "overshoot {o}: loss {loss:?} above charge {charge}"
                        );
                    }
                }
            }
        }
    }
}
