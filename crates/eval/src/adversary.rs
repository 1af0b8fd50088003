//! The averaging adversary and budget-control effectiveness (Fig. 13).
//!
//! An adversary who can request the same sensor value repeatedly averages
//! the noised outputs — the maximum-likelihood estimate of the true value.
//! Without budget control the error decays like `1/√n`; with a finite
//! budget, the DP-Box starts replaying its cached output and the estimate's
//! accuracy is capped.

use ldp_core::{segment_table_cached, BudgetController, LdpError, LimitMode};
use ulp_obs::{Counter, SpanTimer};
use ulp_rng::{FxpLaplace, Taus88};

use crate::setup::ExperimentSetup;

/// One point on the adversary's learning curve, at one of the requested
/// checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryPoint {
    /// Relative error of the running-mean estimate, `|mean − x| / d`.
    pub relative_error: f64,
}

/// Simulates the averaging attack against one sensor value.
///
/// `budget` of `None` disables budget control (unbounded loss). Points are
/// reported at the request counts in `checkpoints`.
///
/// # Errors
///
/// Segment/controller construction errors propagate.
///
/// # Panics
///
/// Panics if `checkpoints` is empty or unsorted.
pub fn averaging_attack(
    setup: &ExperimentSetup,
    x: f64,
    budget: Option<f64>,
    multiples: &[f64],
    checkpoints: &[u64],
    seed: u64,
) -> Result<Vec<AdversaryPoint>, LdpError> {
    assert!(!checkpoints.is_empty(), "need at least one checkpoint");
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be ascending"
    );
    // Memoized build: structurally identical to `SegmentTable::build` with
    // the same inputs, shared across the sweep's many attack runs.
    let table = segment_table_cached(setup.cfg, setup.range, multiples, LimitMode::Thresholding)?;
    // Effectively-infinite budget models the "no control" case.
    let mut ctrl = BudgetController::new(table, setup.range, budget.unwrap_or(1e18))?;
    let sampler = FxpLaplace::analytic(setup.cfg);
    let mut rng = Taus88::from_seed(seed ^ 0x0ADE_5A47);
    let x_code = setup.adc.encode(x) as f64;
    let d_codes = setup.range.span_k() as f64;
    let mut sum = 0.0f64;
    let mut n = 0u64;
    let mut points = Vec::with_capacity(checkpoints.len());
    let total = *checkpoints.last().expect("nonempty");
    let mut next_cp = 0usize;
    while n < total {
        sum += ctrl.respond_alias(x_code, &sampler, &mut rng)?;
        n += 1;
        if next_cp < checkpoints.len() && n == checkpoints[next_cp] {
            let mean = sum / n as f64;
            points.push(AdversaryPoint {
                relative_error: (mean - x_code).abs() / d_codes,
            });
            next_cp += 1;
        }
    }
    // Invariant check: the controller's append-only ledger must agree
    // bitwise with its sequential-composition accountant (counted into the
    // `ldp.ledger.*` metrics).
    ctrl.audit()
        .expect("budget ledger must match the composition accountant");
    Ok(points)
}

/// Runs [`averaging_attack`] for several budget settings concurrently
/// (Fig. 13's three curves). Each run re-seeds its own RNG stream from
/// `seed`, so the result equals mapping [`averaging_attack`] serially over
/// `budgets`.
///
/// # Errors
///
/// Propagates [`averaging_attack`] errors.
///
/// # Panics
///
/// Panics if `checkpoints` is empty or unsorted.
pub fn adversary_curves(
    setup: &ExperimentSetup,
    x: f64,
    budgets: &[Option<f64>],
    multiples: &[f64],
    checkpoints: &[u64],
    seed: u64,
) -> Result<Vec<Vec<AdversaryPoint>>, LdpError> {
    static SWEEP: SpanTimer = SpanTimer::new("eval.adversary_curves");
    static CELLS: Counter = Counter::new("eval.adversary.curves");
    let _span = SWEEP.enter();
    CELLS.add(budgets.len() as u64);
    ulp_par::par_map(budgets, |&b| {
        averaging_attack(setup, x, b, multiples, checkpoints, seed)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_datasets::statlog_heart;

    fn setup() -> ExperimentSetup {
        ExperimentSetup::paper_default(&statlog_heart(), 0.5).unwrap()
    }

    const CHECKPOINTS: [u64; 7] = [1, 10, 100, 1_000, 5_000, 20_000, 200_000];

    #[test]
    fn unbounded_adversary_converges() {
        let s = setup();
        let pts = averaging_attack(&s, 131.0, None, &[1.5, 2.0, 3.0], &CHECKPOINTS, 1).unwrap();
        let first = pts.first().unwrap().relative_error;
        let last = pts.last().unwrap().relative_error;
        assert!(
            last < first / 5.0,
            "error should shrink: first {first}, last {last}"
        );
        // The mean of N Laplace draws has relative std ≈ 2.8/√N here, so
        // the 0.02 bound is > 3σ at the 200k checkpoint — robust to any
        // sampler-path realization of the noise stream.
        assert!(last < 0.02, "200k averaged requests pin the value: {last}");
    }

    #[test]
    fn budget_caps_the_adversary() {
        let s = setup();
        let pts =
            averaging_attack(&s, 131.0, Some(20.0), &[1.5, 2.0, 3.0], &CHECKPOINTS, 2).unwrap();
        // After exhaustion the cached value dominates the average, so the
        // error stops shrinking; compare with the unbounded run.
        let unbounded =
            averaging_attack(&s, 131.0, None, &[1.5, 2.0, 3.0], &CHECKPOINTS, 2).unwrap();
        let last_b = pts.last().unwrap().relative_error;
        let last_u = unbounded.last().unwrap().relative_error;
        assert!(
            last_b > 2.0 * last_u,
            "budgeted error {last_b} should stay above unbounded {last_u}"
        );
    }

    #[test]
    fn smaller_budget_gives_larger_floor() {
        let s = setup();
        let tight = averaging_attack(&s, 131.0, Some(5.0), &[1.5, 2.0, 3.0], &CHECKPOINTS, 3)
            .unwrap()
            .last()
            .unwrap()
            .relative_error;
        let loose = averaging_attack(&s, 131.0, Some(100.0), &[1.5, 2.0, 3.0], &CHECKPOINTS, 3)
            .unwrap()
            .last()
            .unwrap()
            .relative_error;
        // More budget → more fresh samples → better (smaller) estimate
        // error for the adversary.
        assert!(
            tight >= loose,
            "tight-budget floor {tight} vs loose {loose}"
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_checkpoints_panic() {
        let s = setup();
        let _ = averaging_attack(&s, 131.0, None, &[2.0], &[10, 5], 1);
    }
}
