//! Generalized (k-ary) randomized response for categorical data.
//!
//! Section VI-E motivates randomized response with Google's RAPPOR, which
//! collects *categorical* client data (visited homepages, category labels…)
//! rather than single bits. The k-ary mechanism is the direct
//! generalization of the binary one the DP-Box implements at threshold 0:
//! report the true category with probability `p`, otherwise report a
//! uniformly random *other* category. The privacy level is
//! `ε = ln(p(k−1)/(1−p))`, and aggregate frequency estimates can be
//! debiased exactly.

use ulp_rng::RandomBits;

use crate::error::LdpError;

/// A k-ary randomized-response mechanism over categories `0..k`.
///
/// # Examples
///
/// ```
/// use ldp_core::KaryRandomizedResponse;
/// use ulp_rng::Taus88;
///
/// // 4 categories at ε = ln 3 — keep probability p = 0.5.
/// let rr = KaryRandomizedResponse::with_epsilon(4, 3f64.ln())?;
/// assert!((rr.epsilon() - 3f64.ln()).abs() < 1e-12);
///
/// let mut rng = Taus88::from_seed(1);
/// let report = rr.privatize(2, &mut rng);
/// assert!(report < 4);
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KaryRandomizedResponse {
    k: usize,
    keep_prob: f64,
}

impl KaryRandomizedResponse {
    /// Creates a mechanism over `k` categories with keep-probability `p`.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] unless `k ≥ 2` and
    /// `1/k < p < 1` (below `1/k` the report is anti-correlated with the
    /// truth; at `1` there is no privacy).
    fn new(k: usize, keep_prob: f64) -> Result<Self, LdpError> {
        if k < 2 || !keep_prob.is_finite() || keep_prob <= 1.0 / k as f64 || keep_prob >= 1.0 {
            return Err(LdpError::InvalidEpsilon(keep_prob));
        }
        Ok(KaryRandomizedResponse { k, keep_prob })
    }

    /// Creates the mechanism achieving a target `ε`: the optimal k-RR keep
    /// probability is `p = e^ε / (e^ε + k − 1)`.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] for non-positive ε or `k < 2`.
    pub fn with_epsilon(k: usize, eps: f64) -> Result<Self, LdpError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(LdpError::InvalidEpsilon(eps));
        }
        let e = eps.exp();
        Self::new(k, e / (e + k as f64 - 1.0))
    }

    /// The LDP parameter `ε = ln(p(k−1)/(1−p))`.
    pub fn epsilon(self) -> f64 {
        (self.keep_prob * (self.k as f64 - 1.0) / (1.0 - self.keep_prob)).ln()
    }

    /// Privatizes one category.
    ///
    /// # Panics
    ///
    /// Panics if `truth >= k`.
    pub fn privatize<R: RandomBits + ?Sized>(self, truth: usize, rng: &mut R) -> usize {
        assert!(
            truth < self.k,
            "category {truth} out of range 0..{}",
            self.k
        );
        let u = (rng.bits(53) as f64 + 0.5) * 2f64.powi(-53);
        if u < self.keep_prob {
            truth
        } else {
            // Uniform over the other k−1 categories.
            let mut other = (rng.bits(32) as usize) % (self.k - 1);
            if other >= truth {
                other += 1;
            }
            other
        }
    }

    /// Unbiased frequency estimates from observed report counts:
    /// `π̂_i = ((c_i/n) − q) / (p − q)` with `q = (1−p)/(k−1)`, clamped to
    /// `[0, 1]` and renormalized.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != k` or all counts are zero.
    pub fn estimate_frequencies(self, counts: &[u64]) -> Vec<f64> {
        assert_eq!(counts.len(), self.k, "need one count per category");
        let n: u64 = counts.iter().sum();
        assert!(n > 0, "no reports to estimate from");
        let q = (1.0 - self.keep_prob) / (self.k as f64 - 1.0);
        let raw: Vec<f64> = counts
            .iter()
            .map(|&c| ((c as f64 / n as f64) - q) / (self.keep_prob - q))
            .map(|f| f.max(0.0))
            .collect();
        let total: f64 = raw.iter().sum();
        if total > 0.0 {
            raw.into_iter().map(|f| f / total).collect()
        } else {
            vec![1.0 / self.k as f64; self.k]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::Taus88;

    #[test]
    fn validation() {
        assert!(KaryRandomizedResponse::new(1, 0.9).is_err());
        assert!(KaryRandomizedResponse::new(4, 0.25).is_err()); // = 1/k
        assert!(KaryRandomizedResponse::new(4, 1.0).is_err());
        assert!(KaryRandomizedResponse::new(4, 0.6).is_ok());
        assert!(KaryRandomizedResponse::with_epsilon(4, 0.0).is_err());
    }

    #[test]
    fn epsilon_roundtrips_through_keep_prob() {
        for k in [2usize, 4, 16] {
            for eps in [0.5, 1.0, 2.0] {
                let rr = KaryRandomizedResponse::with_epsilon(k, eps).unwrap();
                assert!(
                    (rr.epsilon() - eps).abs() < 1e-12,
                    "k={k} eps={eps}: got {}",
                    rr.epsilon()
                );
            }
        }
    }

    #[test]
    fn binary_case_matches_binary_rr() {
        // k = 2 reduces to classic RR: ε = ln(p/(1−p)).
        let rr = KaryRandomizedResponse::new(2, 0.75).unwrap();
        assert!((rr.epsilon() - 3f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn reports_are_valid_categories() {
        let rr = KaryRandomizedResponse::with_epsilon(5, 1.0).unwrap();
        let mut rng = Taus88::from_seed(2);
        for truth in 0..5 {
            for _ in 0..200 {
                assert!(rr.privatize(truth, &mut rng) < 5);
            }
        }
    }

    #[test]
    fn keep_rate_matches_p() {
        let rr = KaryRandomizedResponse::with_epsilon(4, 1.5).unwrap();
        let mut rng = Taus88::from_seed(3);
        let n = 200_000;
        let kept = (0..n).filter(|_| rr.privatize(1, &mut rng) == 1).count();
        // Reports equal to the truth: p + (1−p)/(k−1)·0 … wait, a flipped
        // report never equals the truth by construction, so the rate is p.
        let rate = kept as f64 / n as f64;
        assert!(
            (rate - rr.keep_prob).abs() < 0.005,
            "keep rate {rate} vs p {}",
            rr.keep_prob
        );
    }

    #[test]
    fn frequency_estimation_is_unbiased() {
        let rr = KaryRandomizedResponse::with_epsilon(4, 2.0).unwrap();
        let mut rng = Taus88::from_seed(4);
        let truth = [0.5f64, 0.3, 0.15, 0.05];
        let n = 400_000usize;
        let mut counts = [0u64; 4];
        for i in 0..n {
            // Deterministic population matching `truth`.
            let f = i as f64 / n as f64;
            let cat = if f < 0.5 {
                0
            } else if f < 0.8 {
                1
            } else if f < 0.95 {
                2
            } else {
                3
            };
            counts[rr.privatize(cat, &mut rng)] += 1;
        }
        let est = rr.estimate_frequencies(&counts);
        for (e, t) in est.iter().zip(&truth) {
            assert!((e - t).abs() < 0.01, "estimate {e} vs truth {t}");
        }
        assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_categories_at_fixed_eps_means_lower_keep_prob() {
        let few = KaryRandomizedResponse::with_epsilon(3, 1.0).unwrap();
        let many = KaryRandomizedResponse::with_epsilon(30, 1.0).unwrap();
        assert!(many.keep_prob < few.keep_prob);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_category_panics() {
        let rr = KaryRandomizedResponse::with_epsilon(3, 1.0).unwrap();
        rr.privatize(3, &mut Taus88::from_seed(5));
    }
}
