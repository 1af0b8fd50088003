//! Utility evaluation (Tables II–V): MAE of aggregate queries over noised
//! data, for each dataset × mechanism.
//!
//! Cells are mutually independent — each derives its own seeded RNG stream
//! from `(seed, kind)` — so rows fan out over [`ulp_par`] and the table is
//! byte-identical for any thread count.

use ldp_core::{LdpError, Mechanism};
use ldp_datasets::{evaluate_query_batched, DatasetSpec, MaeResult, Query};
use ulp_obs::{Counter, SpanTimer};
use ulp_rng::Taus88;

use crate::setup::{GroundTruth, MechKind};

/// One cell of a utility table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityCell {
    /// MAE ± std and relative error.
    pub result: MaeResult,
    /// Whether the mechanism carries an LDP guarantee (the "LDP?" flag of
    /// Tables II–V).
    pub ldp: bool,
}

/// One row of a utility table: a dataset evaluated under all four settings.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Cells in [`MechKind::all`] order.
    pub cells: Vec<UtilityCell>,
}

/// Evaluates one dataset under all four mechanism settings.
///
/// `trials` privatization passes are made per mechanism; `multiple` is the
/// loss target (`n` in `n·ε`) used for resampling/thresholding.
///
/// # Errors
///
/// Mechanism construction and threshold-solver errors propagate.
pub fn utility_row(
    spec: &DatasetSpec,
    query: Query,
    eps: f64,
    multiple: f64,
    trials: usize,
    seed: u64,
) -> Result<UtilityRow, LdpError> {
    // Shared dataset realization and encodings (hoisted; generation is a
    // pure function of `(spec, seed)` so cell RNG streams are untouched).
    let gt = GroundTruth::prepare(spec, eps, seed)?;
    let setup = &gt.setup;
    let data = &gt.data;
    let scale = query.error_scale(spec.range_length(), spec.entries);
    // Each cell owns its RNG stream (seeded from `(seed, kind)` only), so
    // evaluating the four settings concurrently reproduces the serial bytes.
    let kinds = MechKind::all();
    let cells: Result<Vec<UtilityCell>, LdpError> =
        ulp_par::par_map(&kinds, |&kind| -> Result<UtilityCell, LdpError> {
            let mech: Box<dyn Mechanism> = match kind {
                MechKind::Ideal => Box::new(setup.ideal()?),
                MechKind::Baseline => Box::new(setup.baseline()?),
                MechKind::Resampling => Box::new(setup.resampling(multiple)?),
                MechKind::Thresholding => Box::new(setup.thresholding(multiple)?),
            };
            let mut rng = Taus88::from_seed(seed ^ (kind as u64) << 32 ^ 0xCE11);
            let adc = setup.adc;
            // Encodings come pre-hoisted from the shared `GroundTruth`;
            // each trial is one batched privatization pass on the grid,
            // whose indices are ADC codes (`Δ = 1`, `min_k = 0`).
            let xs_k = &gt.codes_k;
            let mut y_k = vec![0i64; xs_k.len()];
            let fill = |out: &mut [f64]| -> Result<(), LdpError> {
                mech.privatize_index_batch(xs_k, &mut rng, &mut y_k)?;
                for (slot, &y) in out.iter_mut().zip(y_k.iter()) {
                    *slot = adc.decode(y);
                }
                Ok(())
            };
            // The noise distribution is public, so the variance aggregator
            // subtracts the advertised noise variance 2λ² (in physical
            // units). The residual error of the window-limited mechanisms —
            // whose true noise variance is slightly below 2λ² because of
            // clipping — is exactly the distribution-shape effect Section
            // VI-B discusses.
            let debias = match query {
                Query::Variance => {
                    let lambda_phys = setup.cfg.lambda() * adc.lsb();
                    2.0 * lambda_phys * lambda_phys
                }
                _ => 0.0,
            };
            let result = evaluate_query_batched(data, fill, query, trials, scale, debias)?;
            Ok(UtilityCell {
                result,
                ldp: mech.guarantee().bound().is_some(),
            })
        })
        .into_iter()
        .collect();
    Ok(UtilityRow {
        dataset: spec.name,
        cells: cells?,
    })
}

/// Runs a full utility table over a list of datasets.
///
/// # Errors
///
/// Propagates [`utility_row`] errors.
pub fn utility_table(
    specs: &[DatasetSpec],
    query: Query,
    eps: f64,
    multiple: f64,
    trials: usize,
    seed: u64,
) -> Result<Vec<UtilityRow>, LdpError> {
    static SWEEP: SpanTimer = SpanTimer::new("eval.utility_table");
    static CELLS: Counter = Counter::new("eval.utility.rows");
    let _span = SWEEP.enter();
    CELLS.add(specs.len() as u64);
    ulp_par::par_map(specs, |s| {
        utility_row(s, query, eps, multiple, trials, seed)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_datasets::statlog_heart;

    fn row(query: Query) -> UtilityRow {
        utility_row(&statlog_heart(), query, 0.5, 2.0, 30, 7).unwrap()
    }

    #[test]
    fn ldp_flags_match_the_paper() {
        // Ideal: Y, baseline: N, resampling: Y, thresholding: Y.
        let r = row(Query::Mean);
        let flags: Vec<bool> = r.cells.iter().map(|c| c.ldp).collect();
        assert_eq!(flags, vec![true, false, true, true]);
    }

    #[test]
    fn baseline_matches_ideal_utility() {
        // Section VI-B: "FxP hardware baseline always shows almost
        // identical utility results with ideal distribution".
        let r = row(Query::Mean);
        let ideal = r.cells[0].result.mae;
        let baseline = r.cells[1].result.mae;
        // Same order of magnitude, ratio within 2× (MAE is itself noisy at
        // 30 trials).
        assert!(
            baseline < 2.0 * ideal + 1.0 && ideal < 2.0 * baseline + 1.0,
            "ideal {ideal}, baseline {baseline}"
        );
    }

    #[test]
    fn fixed_mechanisms_stay_close_to_ideal() {
        for query in [Query::Mean, Query::Median] {
            let r = row(query);
            let ideal = r.cells[0].result.mae;
            for (kind, cell) in MechKind::all().iter().zip(&r.cells).skip(2) {
                assert!(
                    cell.result.mae < 3.0 * ideal + 1.0,
                    "{query}: {kind:?} mae {} vs ideal {ideal}",
                    cell.result.mae
                );
            }
        }
    }

    #[test]
    fn relative_error_uses_query_scale() {
        let r = row(Query::Mean);
        for cell in &r.cells {
            let expected = cell.result.mae / statlog_heart().range_length();
            assert!((cell.result.relative - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn table_covers_all_requested_datasets() {
        let specs = vec![statlog_heart()];
        let t = utility_table(&specs, Query::Variance, 0.5, 2.0, 5, 1).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].cells.len(), 4);
    }
}
