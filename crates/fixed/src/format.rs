//! Q-format descriptors for signed two's-complement fixed-point numbers.

use core::fmt;

use crate::error::FixedError;

/// A signed two's-complement fixed-point format.
///
/// A `QFormat` with `total_bits = w` and `frac_bits = f` stores values as a
/// `w`-bit signed integer `raw`, interpreted as `raw * 2^-f`. The integer
/// part (including the sign bit) therefore has `w - f` bits. Following the
/// hardware convention, `frac_bits` may equal `total_bits` (pure fraction,
/// sign in the top fractional position) but may not exceed it.
///
/// The representable range is `[-2^(w-1), 2^(w-1) - 1] * 2^-f`, i.e. the
/// range is asymmetric exactly like the underlying two's-complement word.
///
/// # Examples
///
/// ```
/// use ulp_fixed::QFormat;
///
/// // The paper's DP-Box uses a 20-bit datapath.
/// let fmt = QFormat::new(20, 10)?;
/// assert_eq!(fmt.delta(), 2f64.powi(-10));
/// assert_eq!(fmt.max_raw(), (1 << 19) - 1);
/// # Ok::<(), ulp_fixed::FixedError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QFormat {
    total_bits: u8,
    frac_bits: u8,
}

impl QFormat {
    /// Creates a format with `total_bits` total width and `frac_bits`
    /// fractional bits.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::InvalidFormat`] if `total_bits` is zero or
    /// greater than 63 (raw values must fit an `i64` with headroom for
    /// detection of overflow), or if `frac_bits > total_bits`.
    pub fn new(total_bits: u8, frac_bits: u8) -> Result<Self, FixedError> {
        if total_bits == 0 || total_bits > 63 || frac_bits > total_bits {
            return Err(FixedError::InvalidFormat {
                total_bits,
                frac_bits,
            });
        }
        Ok(QFormat {
            total_bits,
            frac_bits,
        })
    }

    /// Total word width in bits, including the sign bit.
    #[inline]
    pub fn total_bits(self) -> u8 {
        self.total_bits
    }

    /// Number of fractional bits.
    #[inline]
    pub fn frac_bits(self) -> u8 {
        self.frac_bits
    }

    /// Number of integer bits, including the sign bit.
    #[inline]
    fn int_bits(self) -> u8 {
        self.total_bits - self.frac_bits
    }

    /// The quantization step `Δ = 2^-frac_bits`: the value of one LSB.
    #[inline]
    pub fn delta(self) -> f64 {
        (self.frac_bits as i32)
            .checked_neg()
            .map_or(1.0, |e| 2f64.powi(e))
    }

    /// Smallest representable raw word, `-2^(total_bits-1)`.
    #[inline]
    pub fn min_raw(self) -> i64 {
        -(1i64 << (self.total_bits - 1))
    }

    /// Largest representable raw word, `2^(total_bits-1) - 1`.
    #[inline]
    pub fn max_raw(self) -> i64 {
        (1i64 << (self.total_bits - 1)) - 1
    }

    /// Whether `raw` fits in this format's word.
    #[inline]
    pub fn contains_raw(self, raw: i64) -> bool {
        raw >= self.min_raw() && raw <= self.max_raw()
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hardware-style Qm.n notation: m integer bits (excl. sign), n frac.
        write!(
            f,
            "Q{}.{}",
            self.int_bits().saturating_sub(1),
            self.frac_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_width() {
        assert!(QFormat::new(0, 0).is_err());
    }

    #[test]
    fn new_rejects_too_wide() {
        assert!(QFormat::new(64, 0).is_err());
        assert!(QFormat::new(63, 0).is_ok());
    }

    #[test]
    fn new_rejects_frac_exceeding_total() {
        assert!(QFormat::new(8, 9).is_err());
        assert!(QFormat::new(8, 8).is_ok());
    }

    #[test]
    fn raw_bounds_are_twos_complement() {
        let f = QFormat::new(8, 0).unwrap();
        assert_eq!(f.min_raw(), -128);
        assert_eq!(f.max_raw(), 127);
    }

    #[test]
    fn delta_matches_frac_bits() {
        let f = QFormat::new(20, 10).unwrap();
        assert_eq!(f.delta(), 1.0 / 1024.0);
        let pure_int = QFormat::new(16, 0).unwrap();
        assert_eq!(pure_int.delta(), 1.0);
    }

    #[test]
    fn contains_raw_checks_bounds() {
        let f = QFormat::new(4, 0).unwrap();
        assert!(f.contains_raw(-8));
        assert!(f.contains_raw(7));
        assert!(!f.contains_raw(8));
        assert!(!f.contains_raw(-9));
    }

    #[test]
    fn display_uses_q_notation() {
        let f = QFormat::new(20, 10).unwrap();
        assert_eq!(f.to_string(), "Q9.10");
    }

    #[test]
    fn int_bits_complements_frac_bits() {
        let f = QFormat::new(13, 5).unwrap();
        assert_eq!(f.int_bits(), 8);
    }
}
