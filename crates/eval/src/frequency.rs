//! LDP distribution estimation: a frequency oracle over binned sensor
//! values.
//!
//! Mean/median/variance tell the aggregator one number; many IoT analytics
//! want the *shape* of the population (e.g. the bimodal sonar readings of
//! the robot dataset). The standard LDP tool is a frequency oracle: bin the
//! sensor range, have each device report its bin through k-ary randomized
//! response, and debias the counts. This module composes the workspace's
//! [`KaryRandomizedResponse`] with the dataset plumbing to do exactly that.

use ldp_core::{KaryRandomizedResponse, LdpError};
use ulp_rng::RandomBits;

/// An LDP histogram estimator over `bins` equal-width bins of `[min, max]`.
///
/// # Examples
///
/// ```
/// use ldp_eval::FrequencyOracle;
/// use ulp_rng::Taus88;
///
/// let oracle = FrequencyOracle::new(0.0, 10.0, 5, 2.0)?;
/// let mut rng = Taus88::from_seed(1);
/// let data: Vec<f64> = (0..10_000).map(|i| (i % 10) as f64).collect();
/// let est = oracle.estimate(&data, &mut rng);
/// assert_eq!(est.len(), 5);
/// // Uniform data → roughly equal bin shares.
/// assert!(est.iter().all(|&f| (f - 0.2).abs() < 0.05));
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyOracle {
    min: f64,
    max: f64,
    bins: usize,
    rr: KaryRandomizedResponse,
}

impl FrequencyOracle {
    /// Creates an oracle with per-report privacy `ε`.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] for bad ε; [`LdpError::InvalidRange`]
    /// for an empty range or fewer than 2 bins.
    pub fn new(min: f64, max: f64, bins: usize, eps: f64) -> Result<Self, LdpError> {
        if !(min.is_finite() && max.is_finite() && min < max) || bins < 2 {
            return Err(LdpError::InvalidRange {
                min_k: 0,
                max_k: bins as i64,
            });
        }
        Ok(FrequencyOracle {
            min,
            max,
            bins,
            rr: KaryRandomizedResponse::with_epsilon(bins, eps)?,
        })
    }

    /// Number of bins.
    pub fn bins(self) -> usize {
        self.bins
    }

    /// The per-report privacy parameter.
    pub fn epsilon(self) -> f64 {
        self.rr.epsilon()
    }

    /// The bin index of a value (clamped into range).
    fn bin_of(self, x: f64) -> usize {
        let w = (self.max - self.min) / self.bins as f64;
        (((x - self.min) / w) as usize).min(self.bins - 1)
    }

    /// The centre of bin `i`.
    pub fn bin_center(self, i: usize) -> f64 {
        let w = (self.max - self.min) / self.bins as f64;
        self.min + (i as f64 + 0.5) * w
    }

    /// One device's private report: its bin, passed through k-RR.
    fn report<R: RandomBits + ?Sized>(self, x: f64, rng: &mut R) -> usize {
        self.rr
            .privatize(self.bin_of(x.clamp(self.min, self.max)), rng)
    }

    /// Collects reports from an entire population and returns the debiased
    /// bin-share estimates (summing to 1).
    pub fn estimate<R: RandomBits + ?Sized>(self, data: &[f64], rng: &mut R) -> Vec<f64> {
        let mut counts = vec![0u64; self.bins];
        for &x in data {
            counts[self.report(x, rng)] += 1;
        }
        self.rr.estimate_frequencies(&counts)
    }

    /// True (non-private) bin shares, for error measurement.
    pub fn true_shares(self, data: &[f64]) -> Vec<f64> {
        let mut counts = vec![0u64; self.bins];
        for &x in data {
            counts[self.bin_of(x.clamp(self.min, self.max))] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / data.len() as f64)
            .collect()
    }
}

/// Total variation distance between two share vectors — the headline error
/// metric for distribution estimation.
///
/// # Panics
///
/// Panics if the vectors' lengths differ.
pub fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "share vectors must align");
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_datasets::{generate, robot_sensors};
    use ulp_rng::Taus88;

    #[test]
    fn validation() {
        assert!(FrequencyOracle::new(1.0, 1.0, 4, 1.0).is_err());
        assert!(FrequencyOracle::new(0.0, 1.0, 1, 1.0).is_err());
        assert!(FrequencyOracle::new(0.0, 1.0, 4, 0.0).is_err());
        assert!(FrequencyOracle::new(0.0, 1.0, 4, 1.0).is_ok());
    }

    #[test]
    fn bins_tile_the_range() {
        let o = FrequencyOracle::new(0.0, 10.0, 5, 1.0).unwrap();
        assert_eq!(o.bin_of(0.0), 0);
        assert_eq!(o.bin_of(9.99), 4);
        assert_eq!(o.bin_of(10.0), 4); // top edge clamps into the last bin
        assert_eq!(o.bin_of(4.999), 2);
        assert!((o.bin_center(2) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_the_bimodal_shape_of_robot_sonar() {
        // The headline use-case: mean/median can't see bimodality; the
        // frequency oracle can, privately.
        let spec = robot_sensors();
        let data = generate(&spec, 21);
        let o = FrequencyOracle::new(spec.min, spec.max, 10, 2.0).unwrap();
        let mut rng = Taus88::from_seed(22);
        let est = o.estimate(&data, &mut rng);
        let truth = o.true_shares(&data);
        let tv = total_variation(&est, &truth);
        assert!(tv < 0.06, "total variation {tv}");
        // Both modes visible: the near-wall bins and the far bins outweigh
        // the trough between them.
        let trough = est[5];
        assert!(
            est[1] > trough && est[8] > trough,
            "bimodality lost: {est:?}"
        );
    }

    #[test]
    fn stronger_privacy_means_larger_estimation_error() {
        let spec = robot_sensors();
        let data = generate(&spec, 23);
        let mut rng = Taus88::from_seed(24);
        let tv_of = |eps: f64, rng: &mut Taus88| {
            let o = FrequencyOracle::new(spec.min, spec.max, 8, eps).unwrap();
            total_variation(&o.estimate(&data, rng), &o.true_shares(&data))
        };
        let weak = tv_of(4.0, &mut rng);
        let strong = tv_of(0.25, &mut rng);
        assert!(strong > weak, "ε=0.25 TV {strong} vs ε=4 TV {weak}");
    }

    #[test]
    fn total_variation_properties() {
        let a = [0.5, 0.5];
        let b = [1.0, 0.0];
        assert!((total_variation(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(total_variation(&a, &a), 0.0);
    }
}
