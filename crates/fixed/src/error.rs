//! Error types for fixed-point construction and arithmetic.

use core::fmt;

use crate::format::QFormat;

/// Error produced by fallible fixed-point operations.
///
/// # Examples
///
/// ```
/// use ulp_fixed::{Fx, QFormat, FixedError};
///
/// let fmt = QFormat::new(8, 4)?;
/// let err = Fx::from_raw(1 << 9, fmt).unwrap_err();
/// assert!(matches!(err, FixedError::Overflow { .. }));
/// # Ok::<(), FixedError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixedError {
    /// The exact result is not representable in the target format.
    Overflow {
        /// Format the result was supposed to fit in.
        format: QFormat,
    },
    /// A [`QFormat`] was requested with zero width or more than 63 bits.
    InvalidFormat {
        /// Requested total width in bits.
        total_bits: u8,
        /// Requested fractional bits.
        frac_bits: u8,
    },
}

impl fmt::Display for FixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedError::Overflow { format } => {
                write!(f, "result does not fit in fixed-point format {format}")
            }
            FixedError::InvalidFormat {
                total_bits,
                frac_bits,
            } => write!(
                f,
                "invalid fixed-point format: {total_bits} total bits, {frac_bits} fractional bits"
            ),
        }
    }
}

impl std::error::Error for FixedError {}
