//! Utility sensitivity to dataset size and RNG resolution (Fig. 15).
//!
//! For queries whose error averages out (mean), MAE → 0 as the number of
//! entries grows — *if* the RNG has enough output bits `By`. With a small
//! output word the feasible limiting window is capped by what the word can
//! represent; the noise distribution is heavily clipped (biased per input)
//! and the MAE hits a floor that no amount of data removes (Fig. 15(b)).

use ldp_core::{LdpError, Mechanism};
use ldp_datasets::{evaluate_query_batched, DatasetSpec, Query, Shape};
use ulp_obs::{Counter, SpanTimer};
use ulp_rng::Taus88;

use crate::setup::{GroundTruth, MechKind};

/// MAE of the mean query at one dataset size, all four settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Number of data entries.
    pub n: usize,
    /// `(setting, mae_relative_to_range)` in [`MechKind::all`] order.
    pub mae: Vec<(MechKind, f64)>,
}

/// Sweeps dataset sizes for a synthetic Gaussian sensor at the given RNG
/// output resolution `by` (Fig. 15 uses a large and a small one).
///
/// # Errors
///
/// Mechanism-construction errors propagate.
pub fn scaling_curve(
    sizes: &[usize],
    by: u8,
    eps: f64,
    multiple: f64,
    trials: usize,
    seed: u64,
) -> Result<Vec<ScalingPoint>, LdpError> {
    static SWEEP: SpanTimer = SpanTimer::new("eval.scaling_curve");
    static CELLS: Counter = Counter::new("eval.scaling.points");
    let _span = SWEEP.enter();
    CELLS.add(sizes.len() as u64);
    // Every size's RNG streams are seeded from `(seed, kind, n)` only, so
    // the parallel sweep is byte-identical to the serial one.
    ulp_par::par_map(sizes, |&n| -> Result<ScalingPoint, LdpError> {
        let spec = DatasetSpec::new(
            "scaling-synthetic",
            n,
            0.0,
            100.0,
            55.0,
            18.0,
            Shape::TruncatedGaussian,
        );
        // Shared prep (generate + encode) from the hoisted `GroundTruth`;
        // same `(spec, seed ^ n)` inputs, so the realization is unchanged.
        let gt = GroundTruth::with_output_bits(&spec, eps, 17, by, 8, seed ^ n as u64)?;
        let setup = &gt.setup;
        let mut mae = Vec::with_capacity(4);
        for kind in MechKind::all() {
            let mech: Box<dyn Mechanism> = match kind {
                MechKind::Ideal => Box::new(setup.ideal()?),
                MechKind::Baseline => Box::new(setup.baseline()?),
                MechKind::Resampling => Box::new(setup.resampling(multiple)?),
                MechKind::Thresholding => Box::new(setup.thresholding(multiple)?),
            };
            let mut rng = Taus88::from_seed(seed ^ ((kind as u64) << 24) ^ n as u64);
            let adc = setup.adc;
            // Pre-hoisted encodings + one batched pass per trial on the
            // grid, whose indices are ADC codes (`Δ = 1`, `min_k = 0`).
            let xs_k = &gt.codes_k;
            let mut y_k = vec![0i64; xs_k.len()];
            let result = evaluate_query_batched(
                &gt.data,
                |out: &mut [f64]| -> Result<(), LdpError> {
                    mech.privatize_index_batch(xs_k, &mut rng, &mut y_k)?;
                    for (slot, &y) in out.iter_mut().zip(y_k.iter()) {
                        *slot = adc.decode(y);
                    }
                    Ok(())
                },
                Query::Mean,
                trials,
                spec.range_length(),
                0.0,
            )?;
            mae.push((kind, result.relative));
        }
        Ok(ScalingPoint { n, mae })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(pt: &ScalingPoint, kind: MechKind) -> f64 {
        pt.mae.iter().find(|(k, _)| *k == kind).unwrap().1
    }

    #[test]
    fn high_resolution_error_decays_with_n() {
        // Fig. 15(a): By = 20 → all four settings improve with data size.
        let pts = scaling_curve(&[100, 1_000, 10_000], 20, 0.5, 2.0, 25, 1).unwrap();
        for kind in MechKind::all() {
            let first = rel(&pts[0], kind);
            let last = rel(&pts[2], kind);
            assert!(
                last < first / 2.0,
                "{kind:?}: {first} → {last} should shrink"
            );
        }
    }

    #[test]
    fn low_resolution_limited_mechanisms_hit_a_floor() {
        // Fig. 15(b): with a small output word the feasible windows are
        // capped and the limited mechanisms' noise is so clipped that MAE
        // stops improving, while the (non-private) baseline keeps decaying.
        // 80k entries push the baseline's 1/√n decay well below the
        // clipping floor, so the 3× separation holds with margin for any
        // sampler-path realization of the noise stream.
        let pts = scaling_curve(&[100, 1_000, 80_000], 10, 0.5, 2.0, 25, 2).unwrap();
        let last = &pts[2];
        let baseline = rel(last, MechKind::Baseline);
        let thresholding = rel(last, MechKind::Thresholding);
        let resampling = rel(last, MechKind::Resampling);
        assert!(
            thresholding > 3.0 * baseline,
            "thresholding floor {thresholding} vs baseline {baseline}"
        );
        assert!(
            resampling > 3.0 * baseline,
            "resampling floor {resampling} vs baseline {baseline}"
        );
        // And the floor persists: going from 1k to 20k barely helps.
        let th_mid = rel(&pts[1], MechKind::Thresholding);
        assert!(
            thresholding > th_mid / 2.0,
            "no meaningful decay expected: {th_mid} → {thresholding}"
        );
    }
}
