//! The all-pairs loss evaluator against its brute-force oracle: on small
//! configurations, `loss_profile` must equal, output by output, the
//! max/min over every pair of exact conditional distributions, and
//! `worst_case_loss` must equal `worst_case_loss_exhaustive`.

use ldp_core::{
    conditional, loss_profile, worst_case_loss, ConditionalDist, LimitMode, PrivacyLoss,
    QuantizedRange,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};

/// Worst-case loss over every pair of inputs by brute force, O(|X|²·|Y|).
fn worst_case_loss_exhaustive(
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: Option<i64>,
) -> PrivacyLoss {
    let dists: Vec<ConditionalDist> = (range.min_k()..=range.max_k())
        .map(|x| conditional(pmf, range, mode, n_th_k, x))
        .collect();
    let mut worst = PrivacyLoss::Finite(0.0);
    for i in 0..dists.len() {
        for j in (i + 1)..dists.len() {
            worst = worst.max(dists[i].worst_loss(&dists[j]));
        }
    }
    worst
}

/// Whether two losses agree: both infinite, or finite within float noise
/// (resampling's ratios reach the same fraction over different
/// normalizers, so the last bit may differ).
fn same(a: PrivacyLoss, b: PrivacyLoss) -> bool {
    match (a, b) {
        (PrivacyLoss::Finite(x), PrivacyLoss::Finite(y)) => (x - y).abs() <= 1e-12,
        (a, b) => a == b,
    }
}

/// The oracle loss of output `y`: the largest `ln(Pr[y|x₁] / Pr[y|x₂])`
/// over every ordered input pair, `None` if no input produces `y`.
fn pairwise_loss(dists: &[ConditionalDist], y: i64) -> Option<PrivacyLoss> {
    let mut worst = None;
    for a in dists {
        for b in dists {
            let Some(loss) = a.loss_at(b, y) else {
                continue;
            };
            let loss = match loss {
                PrivacyLoss::Finite(l) if l < 0.0 => PrivacyLoss::Finite(0.0),
                other => other,
            };
            worst = Some(worst.map_or(loss, |w: PrivacyLoss| w.max(loss)));
        }
    }
    worst
}

fn check(
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: Option<i64>,
) -> Result<(), TestCaseError> {
    let dists: Vec<ConditionalDist> = (range.min_k()..=range.max_k())
        .map(|x| conditional(pmf, range, mode, n_th_k, x))
        .collect();
    let lo = dists.iter().map(|d| d.support_bounds().0).min().unwrap();
    let hi = dists.iter().map(|d| d.support_bounds().1).max().unwrap();
    let oracle: Vec<(i64, PrivacyLoss)> = (lo..=hi)
        .filter_map(|y| pairwise_loss(&dists, y).map(|l| (y, l)))
        .collect();
    let profile = loss_profile(pmf, range, mode, n_th_k);
    prop_assert_eq!(
        profile.len(),
        oracle.len(),
        "{mode:?} n_th={n_th_k:?}: output sets differ"
    );
    for (&(y, got), &(y_oracle, want)) in profile.iter().zip(&oracle) {
        prop_assert_eq!(y, y_oracle, "{mode:?} n_th={n_th_k:?}: output sets differ");
        prop_assert!(
            same(got, want),
            "{mode:?} n_th={n_th_k:?} y={y}: evaluator {got:?} vs oracle {want:?}"
        );
    }
    let (fast, slow) = (
        worst_case_loss(pmf, range, mode, n_th_k),
        worst_case_loss_exhaustive(pmf, range, mode, n_th_k),
    );
    prop_assert!(
        same(fast, slow),
        "{mode:?} n_th={n_th_k:?}: worst case {fast:?} vs exhaustive {slow:?}"
    );
    Ok(())
}

#[test]
fn evaluator_matches_the_oracle_on_the_fixed_small_case() {
    // Bu 10 over a span of 8 grid steps.
    let cfg = FxpLaplaceConfig::new(10, 10, 0.5, 4.0).unwrap();
    let pmf = FxpNoisePmf::closed_form(cfg);
    let range = QuantizedRange::new(0, 8, 0.5).unwrap();
    check(&pmf, range, LimitMode::Thresholding, None).unwrap();
    for mode in [LimitMode::Thresholding, LimitMode::Resampling] {
        for n_th in [5i64, 10, 20] {
            check(&pmf, range, mode, Some(n_th)).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn evaluator_matches_the_oracle_on_random_small_configs(
        bu in 3u8..=10,
        span in 1i64..=8,
        lam_mult in 1u8..=4,
        mode_pick in 0u8..3,
        window_pick in 0u32..1_000,
    ) {
        let cfg = FxpLaplaceConfig::new(bu, 16, 1.0, (span * i64::from(lam_mult)) as f64)
            .expect("valid config");
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, span, 1.0).expect("valid range");
        // Windows from 0 to one step past the support edge.
        let n_th = i64::from(window_pick) % (pmf.support_max_k() + 2);
        let (mode, n_th_k) = match mode_pick {
            0 => (LimitMode::Thresholding, None),
            1 => (LimitMode::Thresholding, Some(n_th)),
            _ => (LimitMode::Resampling, Some(n_th)),
        };
        check(&pmf, range, mode, n_th_k)?;
    }
}
