//! The fixed-point value type [`Fx`].

use core::cmp::Ordering;
use core::fmt;

use crate::error::FixedError;
use crate::format::QFormat;
use crate::round::Rounding;

/// A signed fixed-point number: a raw two's-complement word plus its
/// [`QFormat`] interpretation.
///
/// `Fx` models a value flowing through a hardware datapath, so unlike the
/// compile-time-format crates on crates.io the format is carried at runtime
/// — the simulators in this workspace sweep word widths (`Bu`, `By` in the
/// paper) as experiment parameters.
///
/// Binary operations require both operands to share a format and report
/// [`FixedError::FormatMismatch`] otherwise; use [`Fx::resize`] for explicit
/// width/precision changes, mirroring explicit wire-width adapters in RTL.
///
/// # Examples
///
/// ```
/// use ulp_fixed::{Fx, QFormat, Rounding};
///
/// let fmt = QFormat::new(16, 8)?;
/// let a = Fx::from_f64(1.5, fmt, Rounding::NearestTiesAway)?;
/// let b = Fx::from_f64(2.25, fmt, Rounding::NearestTiesAway)?;
/// let sum = a.checked_add(b)?;
/// assert_eq!(sum.to_f64(), 3.75);
/// # Ok::<(), ulp_fixed::FixedError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fx {
    raw: i64,
    fmt: QFormat,
}

impl Fx {
    /// Constructs a value from a raw word already in `fmt`.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] if `raw` does not fit `fmt`'s word.
    pub fn from_raw(raw: i64, fmt: QFormat) -> Result<Self, FixedError> {
        if fmt.contains_raw(raw) {
            Ok(Fx { raw, fmt })
        } else {
            Err(FixedError::Overflow { format: fmt })
        }
    }

    /// Quantizes a real value onto `fmt`'s grid with the given rounding mode.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::NotFinite`] for NaN/infinite input and
    /// [`FixedError::Overflow`] if the rounded value exceeds the format's
    /// range.
    pub fn from_f64(x: f64, fmt: QFormat, rounding: Rounding) -> Result<Self, FixedError> {
        if !x.is_finite() {
            return Err(FixedError::NotFinite);
        }
        let scaled = x / fmt.delta();
        // Guard against f64 -> i64 cast UB territory before rounding.
        if scaled.abs() >= 2f64.powi(63) {
            return Err(FixedError::Overflow { format: fmt });
        }
        Self::from_raw(rounding.apply(scaled), fmt)
    }

    /// The zero value in `fmt`.
    #[inline]
    pub fn zero(fmt: QFormat) -> Self {
        Fx { raw: 0, fmt }
    }

    /// The underlying two's-complement word.
    #[inline]
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The format this value is interpreted in.
    #[inline]
    pub fn format(self) -> QFormat {
        self.fmt
    }

    /// The exact real value `raw * 2^-frac_bits`.
    ///
    /// Exact for formats up to 53 significant bits; beyond that the nearest
    /// `f64` is returned.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * self.fmt.delta()
    }

    /// Re-quantizes into another format.
    ///
    /// Fractional bits are added exactly (left shift) or removed with the
    /// given rounding mode (modelling a truncating/rounding wire adapter).
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] if the value does not fit `target`.
    #[inline]
    pub fn resize(self, target: QFormat, rounding: Rounding) -> Result<Self, FixedError> {
        let src_f = self.fmt.frac_bits() as i32;
        let dst_f = target.frac_bits() as i32;
        let raw = if dst_f >= src_f {
            let shift = (dst_f - src_f) as u32;
            self.raw
                .checked_shl(shift)
                .filter(|r| (r >> shift) == self.raw)
                .ok_or(FixedError::Overflow { format: target })?
        } else {
            let shift = (src_f - dst_f) as u32;
            let raw = round_shift_right(i128::from(self.raw), shift, rounding);
            i64::try_from(raw).map_err(|_| FixedError::Overflow { format: target })?
        };
        Self::from_raw(raw, target)
    }

    fn require_same_format(self, other: Fx) -> Result<(), FixedError> {
        if self.fmt == other.fmt {
            Ok(())
        } else {
            Err(FixedError::FormatMismatch {
                lhs: self.fmt,
                rhs: other.fmt,
            })
        }
    }

    /// Adds two values of the same format.
    ///
    /// # Errors
    ///
    /// [`FixedError::FormatMismatch`] if formats differ;
    /// [`FixedError::Overflow`] if the exact sum does not fit.
    pub fn checked_add(self, other: Fx) -> Result<Self, FixedError> {
        self.require_same_format(other)?;
        let raw = self.raw + other.raw; // i64 cannot overflow: both < 2^62
        Self::from_raw(raw, self.fmt)
    }

    /// Subtracts `other` from `self` (same format).
    ///
    /// # Errors
    ///
    /// [`FixedError::FormatMismatch`] if formats differ;
    /// [`FixedError::Overflow`] if the exact difference does not fit.
    pub fn checked_sub(self, other: Fx) -> Result<Self, FixedError> {
        self.require_same_format(other)?;
        Self::from_raw(self.raw - other.raw, self.fmt)
    }

    /// Multiplies two values of the same format, rounding the `2f`-bit
    /// product back to `f` fractional bits.
    ///
    /// # Errors
    ///
    /// [`FixedError::FormatMismatch`] if formats differ;
    /// [`FixedError::Overflow`] if the rounded product does not fit.
    pub fn checked_mul(self, other: Fx, rounding: Rounding) -> Result<Self, FixedError> {
        self.require_same_format(other)?;
        let wide = self.raw as i128 * other.raw as i128;
        let raw = round_shift_right(wide, self.fmt.frac_bits() as u32, rounding);
        let raw = i64::try_from(raw).map_err(|_| FixedError::Overflow { format: self.fmt })?;
        Self::from_raw(raw, self.fmt)
    }

    /// Adds, saturating to the format bounds instead of failing.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ (a modelling bug, not a data condition).
    pub fn saturating_add(self, other: Fx) -> Self {
        assert_eq!(self.fmt, other.fmt, "saturating_add: format mismatch");
        let raw = (self.raw + other.raw).clamp(self.fmt.min_raw(), self.fmt.max_raw());
        Fx { raw, fmt: self.fmt }
    }

    /// Subtracts, saturating to the format bounds instead of failing.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn saturating_sub(self, other: Fx) -> Self {
        assert_eq!(self.fmt, other.fmt, "saturating_sub: format mismatch");
        let raw = (self.raw - other.raw).clamp(self.fmt.min_raw(), self.fmt.max_raw());
        Fx { raw, fmt: self.fmt }
    }

    /// Adds with two's-complement wraparound, exactly like an unguarded
    /// hardware adder of `total_bits` width.
    pub fn wrapping_add(self, other: Fx) -> Self {
        assert_eq!(self.fmt, other.fmt, "wrapping_add: format mismatch");
        let width = self.fmt.total_bits() as u32;
        let mask = (1i128 << width) - 1;
        let sum = (self.raw as i128 + other.raw as i128) & mask;
        // Sign-extend back from `width` bits.
        let sign = 1i128 << (width - 1);
        let raw = ((sum ^ sign) - sign) as i64;
        Fx { raw, fmt: self.fmt }
    }

    /// Negates the value.
    ///
    /// # Errors
    ///
    /// [`FixedError::Overflow`] when negating the most negative word.
    pub fn checked_neg(self) -> Result<Self, FixedError> {
        Self::from_raw(-self.raw, self.fmt)
    }

    /// Left shift by `n` bits (multiply by `2^n`).
    ///
    /// # Errors
    ///
    /// [`FixedError::Overflow`] if the shifted value does not fit.
    pub fn checked_shl(self, n: u32) -> Result<Self, FixedError> {
        let raw = self
            .raw
            .checked_shl(n)
            .filter(|r| (r >> n) == self.raw)
            .ok_or(FixedError::Overflow { format: self.fmt })?;
        Self::from_raw(raw, self.fmt)
    }

    /// Absolute difference `|self − other|`, saturating to the format's
    /// maximum when the true difference exceeds the word (which
    /// [`Fx::checked_sub`] would reject near the word edges).
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn abs_diff(self, other: Fx) -> Self {
        assert_eq!(self.fmt, other.fmt, "abs_diff: format mismatch");
        let d = self.raw.abs_diff(other.raw);
        Fx {
            raw: d.min(self.fmt.max_raw() as u64) as i64,
            fmt: self.fmt,
        }
    }

    /// The smaller of two values.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn min(self, other: Fx) -> Self {
        assert_eq!(self.fmt, other.fmt, "min: format mismatch");
        if self.raw <= other.raw {
            self
        } else {
            other
        }
    }

    /// The larger of two values.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn max(self, other: Fx) -> Self {
        assert_eq!(self.fmt, other.fmt, "max: format mismatch");
        if self.raw >= other.raw {
            self
        } else {
            other
        }
    }

    /// Clamps the value into `[lo, hi]` (all three must share a format).
    ///
    /// # Panics
    ///
    /// Panics if formats differ or `lo > hi`.
    pub fn clamp(self, lo: Fx, hi: Fx) -> Self {
        assert_eq!(self.fmt, lo.fmt, "clamp: format mismatch");
        assert_eq!(self.fmt, hi.fmt, "clamp: format mismatch");
        assert!(lo.raw <= hi.raw, "clamp: lo > hi");
        Fx {
            raw: self.raw.clamp(lo.raw, hi.raw),
            fmt: self.fmt,
        }
    }
}

/// Rounds `wide · 2^−shift` (`shift < 128`) to an integer according to
/// `rounding`: the one narrowing rule of the crate, which [`Fx::resize`]
/// and [`Fx::checked_mul`] share. An arithmetic shift gives the floor
/// quotient and a mask the Euclidean remainder; nothing divides.
fn round_shift_right(wide: i128, shift: u32, rounding: Rounding) -> i128 {
    if shift == 0 {
        return wide;
    }
    let q = wide >> shift;
    let r = wide & ((1i128 << shift) - 1);
    let half = 1i128 << (shift - 1);
    let up = match rounding {
        Rounding::Floor => false,
        Rounding::Ceil => r != 0,
        Rounding::TowardZero => wide < 0 && r != 0,
        Rounding::NearestTiesAway => r > half || (r == half && wide >= 0),
        Rounding::NearestTiesEven => r > half || (r == half && q & 1 != 0),
    };
    q + i128::from(up)
}

impl PartialOrd for Fx {
    /// Values of different formats are unordered (`None`).
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        if self.fmt == other.fmt {
            Some(self.raw.cmp(&other.raw))
        } else {
            None
        }
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(t: u8, fr: u8) -> QFormat {
        QFormat::new(t, fr).unwrap()
    }

    #[test]
    fn from_raw_validates_range() {
        let fmt = q(8, 4);
        assert!(Fx::from_raw(127, fmt).is_ok());
        assert!(Fx::from_raw(128, fmt).is_err());
        assert!(Fx::from_raw(-128, fmt).is_ok());
        assert!(Fx::from_raw(-129, fmt).is_err());
    }

    #[test]
    fn from_f64_roundtrips_grid_points() {
        let fmt = q(16, 8);
        for raw in [-32768i64, -1, 0, 1, 255, 32767] {
            let v = Fx::from_raw(raw, fmt).unwrap();
            let back = Fx::from_f64(v.to_f64(), fmt, Rounding::NearestTiesAway).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn from_f64_rejects_nan_and_inf() {
        let fmt = q(16, 8);
        assert_eq!(
            Fx::from_f64(f64::NAN, fmt, Rounding::Floor),
            Err(FixedError::NotFinite)
        );
        assert_eq!(
            Fx::from_f64(f64::INFINITY, fmt, Rounding::Floor),
            Err(FixedError::NotFinite)
        );
    }

    #[test]
    fn add_sub_are_exact() {
        let fmt = q(16, 8);
        let a = Fx::from_f64(1.5, fmt, Rounding::Floor).unwrap();
        let b = Fx::from_f64(-0.25, fmt, Rounding::Floor).unwrap();
        assert_eq!(a.checked_add(b).unwrap().to_f64(), 1.25);
        assert_eq!(a.checked_sub(b).unwrap().to_f64(), 1.75);
    }

    /// The most negative and the largest word of `fmt`.
    fn extremes(fmt: QFormat) -> (Fx, Fx) {
        let word = |raw| Fx::from_raw(raw, fmt).unwrap();
        (word(fmt.min_raw()), word(fmt.max_raw()))
    }

    #[test]
    fn add_detects_overflow() {
        let fmt = q(8, 0);
        let (_, max) = extremes(fmt);
        let one = Fx::from_raw(1, fmt).unwrap();
        assert!(matches!(
            max.checked_add(one),
            Err(FixedError::Overflow { .. })
        ));
    }

    #[test]
    fn mixed_formats_are_rejected() {
        let a = Fx::zero(q(8, 0));
        let b = Fx::zero(q(8, 1));
        assert!(matches!(
            a.checked_add(b),
            Err(FixedError::FormatMismatch { .. })
        ));
        assert_eq!(a.partial_cmp(&b), None);
    }

    #[test]
    fn mul_rounds_product() {
        let fmt = q(16, 8);
        let a = Fx::from_f64(1.5, fmt, Rounding::Floor).unwrap();
        let b = Fx::from_f64(2.5, fmt, Rounding::Floor).unwrap();
        let p = a.checked_mul(b, Rounding::NearestTiesAway).unwrap();
        assert_eq!(p.to_f64(), 3.75);
    }

    #[test]
    fn mul_of_small_values_rounds_to_grid() {
        let fmt = q(16, 8);
        let eps = Fx::from_raw(1, fmt).unwrap(); // 2^-8
                                                 // eps * eps = 2^-16, rounds to 0 at 8 fractional bits (ties-even).
        let p = eps.checked_mul(eps, Rounding::NearestTiesEven).unwrap();
        assert_eq!(p.raw(), 0);
    }

    #[test]
    fn saturating_ops_clamp_to_bounds() {
        let fmt = q(8, 0);
        let (min, max) = extremes(fmt);
        let one = Fx::from_raw(1, fmt).unwrap();
        assert_eq!(max.saturating_add(one), max);
        assert_eq!(min.saturating_sub(one), min);
    }

    #[test]
    fn wrapping_add_wraps_like_hardware() {
        let fmt = q(8, 0);
        let (min, max) = extremes(fmt); // -128, 127
        let one = Fx::from_raw(1, fmt).unwrap();
        assert_eq!(max.wrapping_add(one).raw(), -128);
        let neg1 = Fx::from_raw(-1, fmt).unwrap();
        assert_eq!(min.wrapping_add(neg1).raw(), 127);
    }

    #[test]
    fn neg_handles_most_negative() {
        let fmt = q(8, 0);
        let (min, _) = extremes(fmt);
        assert!(min.checked_neg().is_err());
        let v = Fx::from_raw(-5, fmt).unwrap();
        assert_eq!(v.checked_neg().unwrap().raw(), 5);
    }

    #[test]
    fn resize_adds_fraction_exactly() {
        let a = Fx::from_f64(1.25, q(8, 2), Rounding::Floor).unwrap();
        let b = a.resize(q(16, 8), Rounding::Floor).unwrap();
        assert_eq!(b.to_f64(), 1.25);
    }

    #[test]
    fn resize_drops_fraction_with_rounding() {
        let a = Fx::from_f64(1.75, q(16, 8), Rounding::Floor).unwrap();
        assert_eq!(
            a.resize(q(8, 0), Rounding::NearestTiesAway).unwrap().raw(),
            2
        );
        assert_eq!(a.resize(q(8, 0), Rounding::Floor).unwrap().raw(), 1);
        assert_eq!(a.resize(q(8, 0), Rounding::TowardZero).unwrap().raw(), 1);
        let neg = Fx::from_f64(-1.75, q(16, 8), Rounding::Floor).unwrap();
        assert_eq!(neg.resize(q(8, 0), Rounding::TowardZero).unwrap().raw(), -1);
        assert_eq!(neg.resize(q(8, 0), Rounding::Floor).unwrap().raw(), -2);
    }

    #[test]
    fn shl_detects_overflow() {
        let fmt = q(8, 0);
        let a = Fx::from_raw(64, fmt).unwrap();
        assert!(a.checked_shl(1).is_err());
        let b = Fx::from_raw(3, fmt).unwrap();
        assert_eq!(b.checked_shl(2).unwrap().raw(), 12);
    }

    #[test]
    fn abs_diff_saturates_at_word_edges() {
        let fmt = q(8, 0);
        let a = Fx::from_raw(-100, fmt).unwrap();
        let b = Fx::from_raw(100, fmt).unwrap();
        // True difference 200 > max_raw 127 → saturates.
        assert_eq!(a.abs_diff(b).raw(), 127);
        let c = Fx::from_raw(5, fmt).unwrap();
        let d = Fx::from_raw(-3, fmt).unwrap();
        assert_eq!(c.abs_diff(d).raw(), 8);
        assert_eq!(d.abs_diff(c).raw(), 8);
    }

    #[test]
    fn min_and_max() {
        let fmt = q(8, 2);
        let a = Fx::from_raw(-4, fmt).unwrap();
        let b = Fx::from_raw(9, fmt).unwrap();
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn clamp_respects_bounds() {
        let fmt = q(8, 0);
        let lo = Fx::from_raw(-10, fmt).unwrap();
        let hi = Fx::from_raw(10, fmt).unwrap();
        assert_eq!(Fx::from_raw(50, fmt).unwrap().clamp(lo, hi), hi);
        assert_eq!(Fx::from_raw(-50, fmt).unwrap().clamp(lo, hi), lo);
        let mid = Fx::from_raw(3, fmt).unwrap();
        assert_eq!(mid.clamp(lo, hi), mid);
    }

    #[test]
    fn ordering_matches_real_value() {
        let fmt = q(8, 2);
        let a = Fx::from_f64(-1.0, fmt, Rounding::Floor).unwrap();
        let b = Fx::from_f64(1.5, fmt, Rounding::Floor).unwrap();
        assert!(a < b);
    }

    #[test]
    fn display_shows_real_value() {
        let fmt = q(8, 2);
        let a = Fx::from_f64(1.25, fmt, Rounding::Floor).unwrap();
        assert_eq!(a.to_string(), "1.25");
    }
}
