//! The statistical queries of Tables II–V: mean, median, variance, counting.

use core::fmt;

/// A statistical aggregate query executed by the data consumer over the
/// (noised) reports of many sensors.
///
/// # Examples
///
/// ```
/// use ldp_datasets::Query;
///
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(Query::Mean.exec(&data), 2.5);
/// assert_eq!(Query::Median.exec(&data), 2.5);
/// assert_eq!(Query::Count { threshold: 2.5 }.exec(&data), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Arithmetic mean.
    Mean,
    /// Median (mean of the middle pair for even lengths).
    Median,
    /// Population variance.
    Variance,
    /// Number of values at or above `threshold`.
    Count {
        /// Counting threshold.
        threshold: f64,
    },
    /// The `q`-quantile (`0 < q < 1`, linear interpolation between order
    /// statistics). `Quantile { q: 0.5 }` agrees with [`Query::Median`].
    Quantile {
        /// Quantile level in `(0, 1)`.
        q: f64,
    },
}

impl Query {
    /// Executes the query over a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn exec(self, data: &[f64]) -> f64 {
        assert!(!data.is_empty(), "query over empty dataset");
        let n = data.len() as f64;
        match self {
            Query::Mean => data.iter().sum::<f64>() / n,
            Query::Median => {
                let mut sorted = data.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in data"));
                let mid = sorted.len() / 2;
                if sorted.len() % 2 == 1 {
                    sorted[mid]
                } else {
                    (sorted[mid - 1] + sorted[mid]) / 2.0
                }
            }
            Query::Variance => {
                let mean = data.iter().sum::<f64>() / n;
                data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n
            }
            Query::Count { threshold } => data.iter().filter(|&&x| x >= threshold).count() as f64,
            Query::Quantile { q } => {
                assert!(
                    q > 0.0 && q < 1.0,
                    "quantile level must be in (0,1), got {q}"
                );
                let mut sorted = data.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in data"));
                let pos = q * (sorted.len() - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            }
        }
    }

    /// Short name for report rows.
    fn name(self) -> &'static str {
        match self {
            Query::Mean => "mean",
            Query::Median => "median",
            Query::Variance => "variance",
            Query::Count { .. } => "count",
            Query::Quantile { .. } => "quantile",
        }
    }

    /// Scale used to report *relative* error: the full range length `d` for
    /// location queries, `d²/4` (max variance) for variance, and the number
    /// of entries for counting.
    pub fn error_scale(self, range_length: f64, entries: usize) -> f64 {
        match self {
            Query::Mean | Query::Median | Query::Quantile { .. } => range_length,
            Query::Variance => range_length * range_length / 4.0,
            Query::Count { .. } => entries as f64,
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Count { threshold } => write!(f, "count(x ≥ {threshold})"),
            Query::Quantile { q } => write!(f, "quantile({q})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_constant_data() {
        assert_eq!(Query::Mean.exec(&[5.0; 10]), 5.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(Query::Median.exec(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(Query::Median.exec(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn variance_matches_definition() {
        let v = Query::Variance.exec(&[1.0, 3.0]);
        assert_eq!(v, 1.0); // mean 2, deviations ±1
    }

    #[test]
    fn count_is_inclusive_at_threshold() {
        let q = Query::Count { threshold: 2.0 };
        assert_eq!(q.exec(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_data_panics() {
        Query::Mean.exec(&[]);
    }

    #[test]
    fn error_scales_are_sane() {
        assert_eq!(Query::Mean.error_scale(10.0, 100), 10.0);
        assert_eq!(Query::Variance.error_scale(10.0, 100), 25.0);
        assert_eq!(
            Query::Count { threshold: 0.0 }.error_scale(10.0, 100),
            100.0
        );
    }

    #[test]
    fn display_shows_count_threshold() {
        let q = Query::Count { threshold: 1.5 };
        assert!(q.to_string().contains("1.5"));
        assert!(Query::Quantile { q: 0.9 }.to_string().contains("0.9"));
    }

    #[test]
    fn median_is_the_half_quantile() {
        let data = [5.0, 1.0, 9.0, 3.0, 7.0];
        assert_eq!(
            Query::Quantile { q: 0.5 }.exec(&data),
            Query::Median.exec(&data)
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let data = [0.0, 10.0];
        assert_eq!(Query::Quantile { q: 0.25 }.exec(&data), 2.5);
        assert!((Query::Quantile { q: 0.9 }.exec(&data) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile level must be in")]
    fn quantile_level_validated() {
        Query::Quantile { q: 1.5 }.exec(&[1.0, 2.0]);
    }
}
