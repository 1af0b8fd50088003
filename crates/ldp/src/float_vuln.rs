//! The floating-point Laplace vulnerability (Section III-A4).
//!
//! The paper generalizes its finding: the infinite-loss problem "originates
//! from the fact that the numbers representable in digital computers are
//! quantized with finite precision (even if we use ultra long floating
//! point numbers)", citing Mironov's attack on naive double-precision
//! Laplace noising. This module demonstrates the effect constructively: the
//! set of `f64` values reachable as `x + λ·(−ln u)` differs between
//! adjacent inputs `x₁` and `x₂`, so observing one of the asymmetric
//! outputs identifies the input exactly.
//!
//! Beyond the enumeration, [`sample_output`] draws one output from the same
//! pipeline with a live RNG, so an attack campaign (`ulp-attack`) can play
//! the distinguishing game empirically against the precomputed reachable
//! sets — the enumeration is the attacker's codebook, the sampler is the
//! victim.
//!
//! (The textbook fix in the floating-point world is snapping/discretizing
//! the output — which is precisely what the paper's fixed-point grid does,
//! combined with window limiting to repair the tail.)

use std::collections::BTreeSet;

use ulp_rng::RandomBits;

use crate::error::LdpError;

/// Largest uniform-grid width the enumeration accepts (`2^bu` outputs).
const MAX_ENUM_BU: u8 = 24;

fn check_bu(bu: u8) -> Result<(), LdpError> {
    if (1..=MAX_ENUM_BU).contains(&bu) {
        Ok(())
    } else {
        Err(LdpError::InvalidPrecision {
            bu,
            max: MAX_ENUM_BU,
        })
    }
}

/// The set of exact `f64` bit patterns reachable as `x + λ·(−ln u)` when
/// `u` ranges over a `bu`-bit uniform grid `u = m·2^-bu` (positive noise
/// branch only, mirroring one side of the inversion sampler).
///
/// # Errors
///
/// [`LdpError::InvalidPrecision`] if `bu` is 0 or greater than
/// 24 (the enumeration is `2^bu`).
pub fn reachable_outputs(x: f64, lambda: f64, bu: u8) -> Result<BTreeSet<u64>, LdpError> {
    check_bu(bu)?;
    let scale = 2f64.powi(-(bu as i32));
    Ok((1..=(1u64 << bu))
        .map(|m| {
            let u = m as f64 * scale;
            let y = x + lambda * (-u.ln());
            y.to_bits()
        })
        .collect())
}

/// Draws one output bit pattern from the naive floating-point pipeline: a
/// live `bu`-bit uniform through the same `x + λ·(−ln u)` arithmetic the
/// enumeration walks. Every returned pattern is a member of
/// [`reachable_outputs`] for the same `(x, λ, bu)` — which is exactly what
/// makes the mechanism attackable.
///
/// # Errors
///
/// [`LdpError::InvalidPrecision`] under the same conditions as
/// [`reachable_outputs`].
pub fn sample_output(
    x: f64,
    lambda: f64,
    bu: u8,
    rng: &mut dyn RandomBits,
) -> Result<u64, LdpError> {
    check_bu(bu)?;
    let m = rng.bits(bu) + 1;
    let u = m as f64 * 2f64.powi(-(bu as i32));
    Ok((x + lambda * (-u.ln())).to_bits())
}

/// Fraction of all reachable outputs that are distinguishing: reachable
/// from exactly one of two adjacent inputs, so each has infinite privacy
/// loss under the naive floating-point mechanism. Values near 1.0 mean the
/// floating-point mechanism almost *never* produces an output that keeps
/// the input ambiguous.
///
/// # Errors
///
/// [`LdpError::InvalidPrecision`] under the same conditions as
/// [`reachable_outputs`].
pub fn distinguishing_fraction(x1: f64, x2: f64, lambda: f64, bu: u8) -> Result<f64, LdpError> {
    let a = reachable_outputs(x1, lambda, bu)?;
    let b = reachable_outputs(x2, lambda, bu)?;
    let sym = a.symmetric_difference(&b).count();
    let union = a.union(&b).count();
    Ok(sym as f64 / union as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::Taus88;

    #[test]
    fn float_laplace_outputs_are_input_identifying() {
        // Mironov's observation, reproduced: almost every double emitted by
        // the naive float mechanism is reachable from only one input.
        let frac = distinguishing_fraction(0.0, 1.0, 20.0, 14).unwrap();
        assert!(
            frac > 0.9,
            "expected most outputs to be distinguishing, got {frac}"
        );
    }

    #[test]
    fn nonzero_even_for_nearby_inputs() {
        let frac = distinguishing_fraction(5.0, 5.125, 20.0, 12).unwrap();
        assert!(frac > 0.0);
    }

    #[test]
    fn reachable_set_size_is_bounded_by_grid() {
        let set = reachable_outputs(0.0, 20.0, 10).unwrap();
        assert!(set.len() <= 1 << 10);
        assert!(!set.is_empty());
    }

    #[test]
    fn identical_inputs_are_indistinguishable() {
        assert_eq!(distinguishing_fraction(3.0, 3.0, 20.0, 10).unwrap(), 0.0);
    }

    #[test]
    fn sampled_outputs_land_in_the_reachable_set() {
        let (x, lambda, bu) = (2.5, 20.0, 12);
        let codebook = reachable_outputs(x, lambda, bu).unwrap();
        let mut rng = Taus88::from_seed(77);
        for _ in 0..2_000 {
            let y = sample_output(x, lambda, bu, &mut rng).unwrap();
            assert!(codebook.contains(&y), "sampled pattern outside codebook");
        }
    }

    #[test]
    fn oversized_bu_is_a_typed_error_not_a_panic() {
        // The post-PR-4 convention: domain violations surface as typed
        // errors so a sweep over attacker precisions cannot abort the
        // process.
        for bad in [0u8, 25, 40, 255] {
            assert_eq!(
                reachable_outputs(0.0, 1.0, bad).unwrap_err(),
                LdpError::InvalidPrecision { bu: bad, max: 24 }
            );
            assert!(distinguishing_fraction(0.0, 1.0, 1.0, bad).is_err());
            let mut rng = Taus88::from_seed(1);
            assert!(sample_output(0.0, 1.0, bad, &mut rng).is_err());
        }
    }
}
