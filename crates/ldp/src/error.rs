//! Error types for the LDP core.

use core::fmt;

use ulp_rng::RngError;

use crate::loss::PrivacyLoss;

/// Error produced by mechanism construction and budget operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LdpError {
    /// A segment table was requested with no loss multiples: budget control
    /// needs at least one segment to bound the output window.
    EmptySegmentTable,
    /// A sensor range was empty, inverted, or non-finite.
    InvalidRange {
        /// Offending lower bound (grid index).
        min_k: i64,
        /// Offending upper bound (grid index).
        max_k: i64,
    },
    /// A privacy parameter (ε, loss multiple, budget) was not finite and
    /// positive.
    InvalidEpsilon(f64),
    /// No threshold can satisfy the requested loss bound with this RNG
    /// configuration (e.g. the target multiple is below the loss already
    /// incurred inside the data range).
    Unsatisfiable(&'static str),
    /// The privacy budget is exhausted and no cached output is available.
    BudgetExhausted,
    /// A resampling loop exceeded its redraw cap: the acceptance
    /// probability is pathologically low, which indicates a broken
    /// threshold/range configuration rather than bad luck.
    ResampleBudgetExhausted,
    /// A noise sampler and a sensor range disagree on the quantization step.
    MismatchedDelta {
        /// The noise sampler's output grid step.
        noise: f64,
        /// The sensor range's grid step.
        range: f64,
    },
    /// A precision parameter (uniform-grid width) was outside the supported
    /// enumeration range.
    InvalidPrecision {
        /// The rejected width.
        bu: u8,
        /// The largest accepted width.
        max: u8,
    },
    /// The secure sampler path was requested for a mechanism whose output
    /// distribution cannot be machine-checked against an Eq. 4 loss bound
    /// (no claimed bound, or a sampler with no exact PMF). Refusal is loud
    /// by design — the secure path never silently falls back.
    Uncertifiable(&'static str),
    /// The secure sampler path machine-checked the mechanism's realized
    /// worst-case loss against its claimed bound and the check failed: the
    /// configured threshold does not deliver the ε it advertises.
    CertificationFailed {
        /// The loss bound the mechanism claims (nats).
        claimed: f64,
        /// The exact realized worst-case loss over the extreme input pair.
        realized: PrivacyLoss,
    },
    /// An underlying RNG/substrate error.
    Rng(RngError),
}

impl fmt::Display for LdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdpError::EmptySegmentTable => {
                write!(f, "segment table needs at least one loss multiple")
            }
            LdpError::InvalidRange { min_k, max_k } => {
                write!(f, "invalid sensor range: [{min_k}, {max_k}] grid units")
            }
            LdpError::InvalidEpsilon(e) => {
                write!(f, "privacy parameter must be finite and positive, got {e}")
            }
            LdpError::Unsatisfiable(msg) => write!(f, "no feasible threshold: {msg}"),
            LdpError::BudgetExhausted => {
                write!(f, "privacy budget exhausted and no cached output available")
            }
            LdpError::ResampleBudgetExhausted => write!(
                f,
                "resampling budget exhausted: acceptance probability pathologically low"
            ),
            LdpError::MismatchedDelta { noise, range } => write!(
                f,
                "noise grid step {noise} does not match sensor grid step {range}"
            ),
            LdpError::InvalidPrecision { bu, max } => write!(
                f,
                "precision parameter Bu = {bu} outside supported enumeration range 1..={max}"
            ),
            LdpError::Uncertifiable(msg) => {
                write!(f, "secure path refused (uncertifiable): {msg}")
            }
            LdpError::CertificationFailed { claimed, realized } => {
                let realized = match realized {
                    PrivacyLoss::Finite(l) => format!("{l}"),
                    PrivacyLoss::Infinite => "infinite".to_string(),
                };
                write!(
                    f,
                    "secure path certification failed: realized worst-case loss {realized} \
                     exceeds claimed bound {claimed} nats"
                )
            }
            LdpError::Rng(e) => write!(f, "rng error: {e}"),
        }
    }
}

impl std::error::Error for LdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LdpError::Rng(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RngError> for LdpError {
    fn from(e: RngError) -> Self {
        LdpError::Rng(e)
    }
}
