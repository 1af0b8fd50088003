//! Mean-absolute-error utility evaluation (the metric of Tables II–V).
//!
//! One *trial* privatizes every entry of the dataset once and applies the
//! query to the noised copy; the utility of a mechanism is the mean and
//! standard deviation of `|q(noised) − q(raw)|` across trials. The paper
//! presents each entry 500 times; trials here play the same role with the
//! repetitions batched per dataset pass.

use crate::query::Query;

/// MAE result for one (mechanism, dataset, query) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaeResult {
    /// Mean absolute error across trials.
    pub mae: f64,
    /// Standard deviation of the absolute error across trials.
    pub std: f64,
    /// `mae` normalized by the query's error scale (range length, etc.).
    pub relative: f64,
}

/// Evaluates the MAE of a privatization function on a dataset for a query.
///
/// `privatize` is called once per entry per trial; pass a closure that
/// drives a mechanism (and its RNG) by mutable capture.
///
/// # Panics
///
/// Panics if `raw` is empty or `trials` is zero.
///
/// # Examples
///
/// ```
/// use ldp_datasets::{evaluate_query, Query};
///
/// let raw = vec![1.0, 2.0, 3.0];
/// // A "mechanism" that adds a deterministic bias of +1.
/// let result = evaluate_query(&raw, |x| x + 1.0, Query::Mean, 10, 3.0);
/// assert!((result.mae - 1.0).abs() < 1e-12);
/// assert_eq!(result.std, 0.0);
/// ```
pub fn evaluate_query<F>(
    raw: &[f64],
    privatize: F,
    query: Query,
    trials: usize,
    error_scale: f64,
) -> MaeResult
where
    F: FnMut(f64) -> f64,
{
    evaluate_query_debiased(raw, privatize, query, trials, error_scale, 0.0)
}

/// [`evaluate_query`] with a known additive bias subtracted from every
/// noised query result before scoring.
///
/// The canonical use is the variance query: the noise distribution is
/// public, so an aggregator subtracts its variance (`2λ²` for the Laplace
/// mechanism) from the variance of the noised reports — without this, the
/// "error" is dominated by the known noise variance rather than estimation
/// error.
///
/// # Panics
///
/// Panics if `raw` is empty or `trials` is zero.
fn evaluate_query_debiased<F>(
    raw: &[f64],
    mut privatize: F,
    query: Query,
    trials: usize,
    error_scale: f64,
    debias: f64,
) -> MaeResult
where
    F: FnMut(f64) -> f64,
{
    assert!(!raw.is_empty(), "empty dataset");
    assert!(trials > 0, "at least one trial required");
    let truth = query.exec(raw);
    let mut errors = Vec::with_capacity(trials);
    let mut noised = vec![0.0f64; raw.len()];
    for _ in 0..trials {
        for (slot, &x) in noised.iter_mut().zip(raw) {
            *slot = privatize(x);
        }
        errors.push((query.exec(&noised) - debias - truth).abs());
    }
    let mae = errors.iter().sum::<f64>() / trials as f64;
    let var = errors.iter().map(|e| (e - mae) * (e - mae)).sum::<f64>() / trials as f64;
    MaeResult {
        mae,
        std: var.sqrt(),
        relative: mae / error_scale,
    }
}

/// [`evaluate_query`] for *batched* privatizers: `fill` receives the
/// output buffer for one whole trial (same length as `raw`) and may fail,
/// e.g. with a mechanism error.
///
/// `debias` is a known additive bias subtracted from every noised query
/// result before scoring. The canonical use is the variance query: the noise
/// distribution is public, so an aggregator subtracts its variance (`2λ²`
/// for the Laplace mechanism) from the variance of the noised reports.
///
/// With a `fill` that privatizes entries in order with the same RNG, this
/// scores exactly the same trials as the per-entry evaluator; batching
/// exists so table-driven mechanisms can amortize their per-draw overhead
/// (see `ldp_core::Mechanism::privatize_index_batch`).
///
/// # Panics
///
/// Panics if `raw` is empty or `trials` is zero.
///
/// # Errors
///
/// Propagates the first error `fill` returns.
pub fn evaluate_query_batched<F, E>(
    raw: &[f64],
    mut fill: F,
    query: Query,
    trials: usize,
    error_scale: f64,
    debias: f64,
) -> Result<MaeResult, E>
where
    F: FnMut(&mut [f64]) -> Result<(), E>,
{
    assert!(!raw.is_empty(), "empty dataset");
    assert!(trials > 0, "at least one trial required");
    let truth = query.exec(raw);
    let mut errors = Vec::with_capacity(trials);
    let mut noised = vec![0.0f64; raw.len()];
    for _ in 0..trials {
        fill(&mut noised)?;
        errors.push((query.exec(&noised) - debias - truth).abs());
    }
    let mae = errors.iter().sum::<f64>() / trials as f64;
    let var = errors.iter().map(|e| (e - mae) * (e - mae)).sum::<f64>() / trials as f64;
    Ok(MaeResult {
        mae,
        std: var.sqrt(),
        relative: mae / error_scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mechanism_has_zero_error() {
        let raw = vec![1.0, 5.0, 9.0];
        let r = evaluate_query(&raw, |x| x, Query::Median, 5, 8.0);
        assert_eq!(r.mae, 0.0);
        assert_eq!(r.relative, 0.0);
    }

    #[test]
    fn constant_bias_shows_up_in_mean_not_variance_much() {
        let raw = vec![0.0, 10.0];
        let r = evaluate_query(&raw, |x| x + 2.0, Query::Mean, 7, 10.0);
        assert!((r.mae - 2.0).abs() < 1e-12);
        assert!((r.relative - 0.2).abs() < 1e-12);
    }

    #[test]
    fn noisy_mechanism_has_positive_std() {
        let raw = vec![0.0; 50];
        let mut flip = 1.0;
        let r = evaluate_query(
            &raw,
            move |x| {
                flip = -flip;
                x + flip * (x + 1.0) // alternating ±1 noise
            },
            Query::Variance,
            6,
            1.0,
        );
        assert!(r.mae > 0.0);
    }

    #[test]
    fn debiasing_removes_known_offset() {
        let raw = vec![0.0, 10.0];
        // Mechanism adds +3 to every value → mean query biased by +3.
        let biased = evaluate_query(&raw, |x| x + 3.0, Query::Mean, 4, 10.0);
        assert!((biased.mae - 3.0).abs() < 1e-12);
        let debiased = evaluate_query_debiased(&raw, |x| x + 3.0, Query::Mean, 4, 10.0, 3.0);
        assert_eq!(debiased.mae, 0.0);
    }

    #[test]
    fn batched_evaluator_matches_per_entry_for_equivalent_fill() {
        let raw = vec![1.0, 4.0, 7.0, 9.0];
        let per_entry = evaluate_query_debiased(&raw, |x| x + 3.0, Query::Mean, 5, 10.0, 1.0);
        let raw2 = raw.clone();
        let batched = evaluate_query_batched::<_, std::convert::Infallible>(
            &raw,
            move |out| {
                for (slot, &x) in out.iter_mut().zip(&raw2) {
                    *slot = x + 3.0;
                }
                Ok(())
            },
            Query::Mean,
            5,
            10.0,
            1.0,
        )
        .unwrap();
        assert_eq!(per_entry, batched);
    }

    #[test]
    fn batched_evaluator_propagates_fill_errors() {
        let raw = vec![1.0, 2.0];
        let r = evaluate_query_batched::<_, &'static str>(
            &raw,
            |_| Err("mechanism broke"),
            Query::Mean,
            3,
            1.0,
            0.0,
        );
        assert_eq!(r.unwrap_err(), "mechanism broke");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        evaluate_query(&[], |x| x, Query::Mean, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        evaluate_query(&[1.0], |x| x, Query::Mean, 0, 1.0);
    }
}
