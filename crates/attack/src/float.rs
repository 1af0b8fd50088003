//! The Mironov-style attack on the ideal `f64` Laplace path.
//!
//! [`ldp_core::float_vuln`] enumerates the doubles `y = x + λ·(−ln u)`
//! reachable from a `Bu`-bit uniform grid. Because `f64` rounding depends
//! on the binade of `x + noise`, the reachable *bit-pattern* sets of two
//! inputs barely overlap — almost every emitted double identifies its
//! input. This module turns that enumeration into a planned
//! [`SupportGapAttack`] over `u64` bit patterns, with exact masses computed
//! by walking the same `2^Bu` uniform grid the sampler draws from.

use std::collections::BTreeSet;

use ldp_core::float_vuln::{reachable_outputs, sample_output};
use ldp_core::LdpError;
use ulp_rng::RandomBits;

use crate::distinguisher::{AttackOutcome, SupportGapAttack};

/// A planned bit-pattern distinguisher for the naive float mechanism.
#[derive(Debug, Clone)]
pub struct FloatSupportAttack {
    x1: f64,
    x2: f64,
    lambda: f64,
    bu: u8,
    attack: SupportGapAttack<u64>,
}

impl FloatSupportAttack {
    /// Enumerates both reachable sets and plans the support-gap test.
    ///
    /// Masses are exact: each grid point `m ∈ [1, 2^Bu]` has probability
    /// `2^-Bu`, so a region's mass is its preimage count over the grid
    /// (collisions — two `m` rounding to the same double — are counted per
    /// `m`, not per bit pattern).
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidPrecision`] if `bu` is outside the enumeration
    /// range of [`reachable_outputs`].
    pub fn plan(x1: f64, x2: f64, lambda: f64, bu: u8) -> Result<Self, LdpError> {
        let r1 = reachable_outputs(x1, lambda, bu)?;
        let r2 = reachable_outputs(x2, lambda, bu)?;
        let d1: BTreeSet<u64> = r1.difference(&r2).copied().collect();
        let d2: BTreeSet<u64> = r2.difference(&r1).copied().collect();
        let scale = 2f64.powi(-(bu as i32));
        let mass = |x: f64, region: &BTreeSet<u64>| {
            let mut hits = 0u64;
            for m in 1..=(1u64 << bu) {
                let u = m as f64 * scale;
                let y = (x + lambda * (-u.ln())).to_bits();
                if region.contains(&y) {
                    hits += 1;
                }
            }
            hits as f64 * scale
        };
        let mass1 = mass(x1, &d1);
        let mass2 = mass(x2, &d2);
        Ok(FloatSupportAttack {
            x1,
            x2,
            lambda,
            bu,
            attack: SupportGapAttack::from_regions(d1, d2, mass1, mass2),
        })
    }

    /// The exact distinguishing advantage.
    pub fn exact_advantage(&self) -> f64 {
        self.attack.exact_advantage()
    }

    /// Runs a seeded sampling campaign: `trials` draws of the naive float
    /// mechanism under each input, scored against the planned test.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidPrecision`] (unreachable after a successful
    /// [`FloatSupportAttack::plan`], surfaced for completeness).
    pub fn measure(
        &self,
        trials: u64,
        rng1: &mut dyn RandomBits,
        rng2: &mut dyn RandomBits,
    ) -> Result<AttackOutcome, LdpError> {
        let mut hits_x1 = 0u64;
        let mut hits_x2 = 0u64;
        for _ in 0..trials {
            let y1 = sample_output(self.x1, self.lambda, self.bu, rng1)?;
            if self.attack.guess(y1) == Some(true) {
                hits_x1 += 1;
            }
            let y2 = sample_output(self.x2, self.lambda, self.bu, rng2)?;
            if self.attack.guess(y2) == Some(false) {
                hits_x2 += 1;
            }
        }
        Ok(AttackOutcome::from_hits(trials, hits_x1, hits_x2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::Taus88;

    #[test]
    fn float_attack_has_overwhelming_advantage() {
        // Section III-A4: almost every double identifies its input.
        let attack = FloatSupportAttack::plan(0.0, 1.0, 20.0, 14).unwrap();
        assert!(
            attack.exact_advantage() > 0.9,
            "advantage {}",
            attack.exact_advantage()
        );
    }

    #[test]
    fn empirical_advantage_tracks_the_exact_prediction() {
        let attack = FloatSupportAttack::plan(0.0, 1.0, 20.0, 12).unwrap();
        let mut rng1 = Taus88::from_seed(101);
        let mut rng2 = Taus88::from_seed(202);
        let out = attack.measure(4000, &mut rng1, &mut rng2).unwrap();
        assert!(out.flagged, "the float attack must clear 3σ");
        assert!(
            (out.advantage - attack.exact_advantage()).abs() < 0.05,
            "empirical {} vs exact {}",
            out.advantage,
            attack.exact_advantage()
        );
    }

    #[test]
    fn invalid_precision_propagates() {
        assert!(matches!(
            FloatSupportAttack::plan(0.0, 1.0, 20.0, 40),
            Err(LdpError::InvalidPrecision { bu: 40, .. })
        ));
    }
}
