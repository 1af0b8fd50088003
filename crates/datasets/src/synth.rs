//! Deterministic synthetic data generation from a [`DatasetSpec`].
//!
//! We do not redistribute the UCI datasets; instead each benchmark is
//! regenerated with the same entry count, range, moments, and shape class
//! (the substitution is documented in DESIGN.md). Generation is seeded and
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{DatasetSpec, Shape};

/// Draws one standard-normal variate via Box–Muller.
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Draws one value of the spec's shape, before moment correction.
fn raw_draw<R: Rng>(spec: &DatasetSpec, rng: &mut R) -> f64 {
    let d = spec.range_length();
    match spec.shape {
        Shape::TruncatedGaussian => loop {
            let v = spec.mean + spec.std * standard_normal(rng);
            if v >= spec.min && v <= spec.max {
                return v;
            }
        },
        Shape::Uniform => rng.gen_range(spec.min..=spec.max),
        Shape::Bimodal {
            low_frac,
            high_frac,
            low_weight,
        } => {
            let (centre, sigma) = if rng.gen_bool(low_weight) {
                (spec.min + low_frac * d, 0.08 * d)
            } else {
                (spec.min + high_frac * d, 0.08 * d)
            };
            loop {
                let v = centre + sigma * standard_normal(rng);
                if v >= spec.min && v <= spec.max {
                    return v;
                }
            }
        }
        Shape::SkewedTail => {
            // Exponential decay from the min with scale ~σ, truncated.
            loop {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let v = spec.min + (spec.mean - spec.min).max(0.05 * d) * (-u.ln());
                if v <= spec.max {
                    return v;
                }
            }
        }
    }
}

/// Generates a dataset: `spec.entries` values inside `[min, max]` whose
/// sample mean and standard deviation approximate the spec's targets.
///
/// A final affine correction pulls the sample moments onto the targets
/// (then re-clamps into the range), so different seeds give different data
/// with matched statistics.
///
/// # Examples
///
/// ```
/// use ldp_datasets::{generate, DatasetSpec, Shape};
///
/// let spec = DatasetSpec::new("demo", 1000, 0.0, 10.0, 5.0, 2.0, Shape::TruncatedGaussian);
/// let data = generate(&spec, 42);
/// assert_eq!(data.len(), 1000);
/// assert!(data.iter().all(|&x| (0.0..=10.0).contains(&x)));
/// ```
pub fn generate(spec: &DatasetSpec, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_DA7A);
    let mut data: Vec<f64> = (0..spec.entries)
        .map(|_| raw_draw(spec, &mut rng))
        .collect();

    // Affine moment correction toward the spec's mean/std.
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    if var > 0.0 {
        let scale = spec.std / var.sqrt();
        // Don't blow values out of the range: cap the scale so corrected
        // extremes stay inside, then clamp the stragglers.
        let scale = scale.min(2.0);
        for x in &mut data {
            *x = (spec.mean + (*x - mean) * scale).clamp(spec.min, spec.max);
        }
    }
    data
}

/// Summary statistics of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population convention).
    pub std: f64,
}

/// Computes [`Summary`] statistics for a dataset.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn summarize(data: &[f64]) -> Summary {
    assert!(!data.is_empty(), "cannot summarize an empty dataset");
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Summary {
        mean,
        std: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(shape: Shape) -> DatasetSpec {
        DatasetSpec::new("t", 20_000, 0.0, 100.0, 40.0, 15.0, shape)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = spec(Shape::TruncatedGaussian);
        assert_eq!(generate(&s, 1), generate(&s, 1));
        assert_ne!(generate(&s, 1), generate(&s, 2));
    }

    #[test]
    fn values_respect_the_range() {
        for shape in [
            Shape::TruncatedGaussian,
            Shape::Uniform,
            Shape::Bimodal {
                low_frac: 0.2,
                high_frac: 0.8,
                low_weight: 0.6,
            },
            Shape::SkewedTail,
        ] {
            let s = spec(shape);
            let data = generate(&s, 3);
            assert!(data.iter().all(|&x| (0.0..=100.0).contains(&x)));
        }
    }

    #[test]
    fn moments_match_spec_for_gaussian() {
        let s = spec(Shape::TruncatedGaussian);
        let sum = summarize(&generate(&s, 4));
        assert!((sum.mean - 40.0).abs() < 1.0, "mean {}", sum.mean);
        assert!((sum.std - 15.0).abs() < 1.5, "std {}", sum.std);
    }

    #[test]
    fn bimodal_has_two_modes() {
        let s = DatasetSpec::new(
            "bi",
            50_000,
            0.0,
            100.0,
            44.0,
            30.0,
            Shape::Bimodal {
                low_frac: 0.2,
                high_frac: 0.8,
                low_weight: 0.6,
            },
        );
        let data = generate(&s, 5);
        // Count mass near each mode; the trough between them must be thin.
        let near = |c: f64| data.iter().filter(|&&x| (x - c).abs() < 10.0).count();
        let low = near(20.0);
        let high = near(80.0);
        let mid = near(50.0);
        assert!(low > mid && high > mid, "low {low}, mid {mid}, high {high}");
    }

    #[test]
    fn skewed_tail_is_right_skewed() {
        let s = DatasetSpec::new("sk", 20_000, 0.0, 100.0, 20.0, 18.0, Shape::SkewedTail);
        let data = generate(&s, 6);
        let sum = summarize(&data);
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            sum.mean > median,
            "right skew: mean {} > median {median}",
            sum.mean
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn summarize_rejects_empty() {
        summarize(&[]);
    }
}
