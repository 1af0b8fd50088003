//! Noising latency (Fig. 11): average DP-Box cycles per request, per
//! dataset, for resampling vs thresholding.
//!
//! Thresholding always takes the 2-cycle base (load + noise). Resampling
//! adds one cycle per redraw; the redraw probability depends on where the
//! sensor value sits in the range, so latency is data-dependent and is
//! averaged over the dataset.

use ldp_core::{LdpError, Mechanism};
use ldp_datasets::DatasetSpec;
use ulp_obs::{Counter, SpanTimer};
use ulp_rng::Taus88;

use crate::setup::{ExperimentSetup, GroundTruth};

/// Base noising latency in cycles (Section V: load + noise).
pub const BASE_CYCLES: f64 = 2.0;

/// Latency results for one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Average cycles per noising with resampling (measured).
    pub resampling_cycles: f64,
    /// Analytic expectation for resampling from the exact PMF.
    pub resampling_cycles_analytic: f64,
    /// Cycles with thresholding (always the base).
    pub thresholding_cycles: f64,
}

/// Expected resampling latency from the exact PMF: for input `x`, the
/// acceptance probability is `Z(x) = Pr[x + n ∈ window]` and the expected
/// number of draws is `1/Z(x)`, i.e. `2 + (1/Z − 1)` cycles.
fn analytic_cycles(setup: &ExperimentSetup, n_th_k: i64, data_codes: &[i64]) -> f64 {
    let pmf = &setup.pmf;
    let total = pmf.total_weight() as f64;
    let mean_extra: f64 = data_codes
        .iter()
        .map(|&x| {
            let lo = setup.range.min_k() - n_th_k - x;
            let hi = setup.range.max_k() + n_th_k - x;
            let mut z: u128 = 0;
            for k in lo.max(-pmf.support_max_k())..=hi.min(pmf.support_max_k()) {
                z += pmf.weight(k);
            }
            let z = z as f64 / total;
            1.0 / z - 1.0
        })
        .sum::<f64>()
        / data_codes.len() as f64;
    BASE_CYCLES + mean_extra
}

/// Measures average noising latency for one dataset.
///
/// `trials` passes over the dataset are simulated (capped internally so
/// huge datasets stay tractable; the paper uses 500 passes).
///
/// # Errors
///
/// Mechanism-construction errors propagate.
fn latency_row(
    spec: &DatasetSpec,
    eps: f64,
    multiple: f64,
    trials: usize,
    seed: u64,
) -> Result<LatencyRow, LdpError> {
    // Shared prep (setup + generate + encode) from the hoisted
    // `GroundTruth`; realization and draw order are unchanged.
    let gt = GroundTruth::prepare(spec, eps, seed)?;
    let setup = &gt.setup;
    let resampling = setup.resampling(multiple)?;
    // Cap total privatizations at ~200k to keep the harness responsive.
    let trials = trials.max(1).min((200_000 / gt.len()).max(1));
    let mut rng = Taus88::from_seed(seed ^ 0x1A7E);
    let mut total_resamples: u64 = 0;
    let mut count: u64 = 0;
    for _ in 0..trials {
        for &code in &gt.codes_k {
            // Single `privatize` is always cycle-faithful regardless of the
            // sampler path: latency models the hardware redraw loop.
            let x = setup.range.to_value(code);
            total_resamples += resampling.privatize(x, &mut rng)?.resamples as u64;
            count += 1;
        }
    }
    let measured = BASE_CYCLES + total_resamples as f64 / count as f64;
    let analytic = analytic_cycles(setup, resampling.threshold().n_th_k, &gt.codes_k);
    Ok(LatencyRow {
        dataset: spec.name,
        resampling_cycles: measured,
        resampling_cycles_analytic: analytic,
        thresholding_cycles: BASE_CYCLES,
    })
}

/// Average noising latency per dataset (one row each), fanned out over
/// [`ulp_par`] — each row's RNG stream depends only on `(seed, spec)`, so
/// the parallel table is byte-identical to computing the rows serially.
///
/// `trials` passes over each dataset are simulated (capped internally so
/// huge datasets stay tractable; the paper uses 500 passes).
///
/// # Errors
///
/// Mechanism-construction errors propagate.
pub fn latency_table(
    specs: &[DatasetSpec],
    eps: f64,
    multiple: f64,
    trials: usize,
    seed: u64,
) -> Result<Vec<LatencyRow>, LdpError> {
    static SWEEP: SpanTimer = SpanTimer::new("eval.latency_table");
    static CELLS: Counter = Counter::new("eval.latency.rows");
    let _span = SWEEP.enter();
    CELLS.add(specs.len() as u64);
    ulp_par::par_map(specs, |spec| latency_row(spec, eps, multiple, trials, seed))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_datasets::{all_benchmarks, statlog_heart};

    #[test]
    fn resampling_latency_is_small_but_above_base() {
        let row = latency_row(&statlog_heart(), 0.5, 2.0, 20, 3).unwrap();
        assert!(row.resampling_cycles >= BASE_CYCLES);
        // Fig. 11: resampling never adds more than ~1 cycle on average.
        assert!(
            row.resampling_cycles < BASE_CYCLES + 1.0,
            "cycles {}",
            row.resampling_cycles
        );
        assert_eq!(row.thresholding_cycles, BASE_CYCLES);
    }

    #[test]
    fn measured_matches_analytic_expectation() {
        let auto_mpg = &all_benchmarks()[0];
        assert_eq!(auto_mpg.name, "auto-mpg");
        let row = latency_row(auto_mpg, 0.5, 2.0, 100, 4).unwrap();
        assert!(
            (row.resampling_cycles - row.resampling_cycles_analytic).abs() < 0.05,
            "measured {} vs analytic {}",
            row.resampling_cycles,
            row.resampling_cycles_analytic
        );
    }
}
