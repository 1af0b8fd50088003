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
/// The datapaths do their arithmetic on the raw words; [`Fx::resize`]
/// makes width/precision changes explicit, mirroring wire-width adapters
/// in RTL.
///
/// # Examples
///
/// ```
/// use ulp_fixed::{Fx, QFormat};
///
/// let fmt = QFormat::new(16, 8)?;
/// let a = Fx::from_raw(384, fmt)?; // 1.5
/// let b = Fx::from_raw(576, fmt)?; // 2.25
/// let sum = Fx::from_raw(a.raw() + b.raw(), fmt)?;
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
}

/// Rounds `wide · 2^−shift` (`shift < 128`) to an integer according to
/// `rounding`: the one narrowing rule of the crate, which [`Fx::resize`]
/// narrows through. An arithmetic shift gives the floor
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

    /// `raw · 2^−frac` narrowed to an integer word with `mode`.
    fn rounded(raw: i64, frac: u8, mode: Rounding) -> i64 {
        let v = Fx::from_raw(raw, q(24, frac)).unwrap();
        v.resize(q(24, 0), mode).unwrap().raw()
    }

    #[test]
    fn ties_away_matches_hardware_rounder() {
        use Rounding::NearestTiesAway as Away;
        assert_eq!(rounded(1, 1, Away), 1); // 0.5
        assert_eq!(rounded(-1, 1, Away), -1); // -0.5
        assert_eq!(rounded(381, 8, Away), 1); // 1.488…
        assert_eq!(rounded(387, 8, Away), 2); // 1.512…
    }

    #[test]
    fn ties_even_breaks_ties_to_even() {
        use Rounding::NearestTiesEven as Even;
        assert_eq!(rounded(1, 1, Even), 0); // 0.5
        assert_eq!(rounded(3, 1, Even), 2); // 1.5
        assert_eq!(rounded(5, 1, Even), 2); // 2.5
        assert_eq!(rounded(-3, 1, Even), -2); // -1.5
        assert_eq!(rounded(-5, 1, Even), -2); // -2.5
                                              // Non-ties behave like plain nearest.
        assert_eq!(rounded(643, 8, Even), 3); // 2.511…
    }

    #[test]
    fn floor_ceil_and_truncation_are_directed() {
        assert_eq!(rounded(486, 8, Rounding::Floor), 1); // 1.898…
        assert_eq!(rounded(-282, 8, Rounding::Floor), -2); // -1.101…
        assert_eq!(rounded(282, 8, Rounding::Ceil), 2); // 1.101…
        assert_eq!(rounded(-486, 8, Rounding::Ceil), -1); // -1.898…
        assert_eq!(rounded(509, 8, Rounding::TowardZero), 1); // 1.988…
        assert_eq!(rounded(-509, 8, Rounding::TowardZero), -1); // -1.988…
    }

    #[test]
    fn integers_are_fixed_points_of_every_mode() {
        for mode in [
            Rounding::NearestTiesAway,
            Rounding::NearestTiesEven,
            Rounding::Floor,
            Rounding::Ceil,
            Rounding::TowardZero,
        ] {
            for v in [-3i64, -1, 0, 1, 7] {
                assert_eq!(rounded(v << 8, 8, mode), v, "{mode:?} moved integer {v}");
            }
        }
    }

    #[test]
    fn resize_adds_fraction_exactly() {
        let a = Fx::from_raw(5, q(8, 2)).unwrap(); // 1.25
        let b = a.resize(q(16, 8), Rounding::Floor).unwrap();
        assert_eq!(b.to_f64(), 1.25);
    }

    #[test]
    fn resize_drops_fraction_with_rounding() {
        let a = Fx::from_raw(448, q(16, 8)).unwrap(); // 1.75
        assert_eq!(
            a.resize(q(8, 0), Rounding::NearestTiesAway).unwrap().raw(),
            2
        );
        assert_eq!(a.resize(q(8, 0), Rounding::Floor).unwrap().raw(), 1);
        assert_eq!(a.resize(q(8, 0), Rounding::TowardZero).unwrap().raw(), 1);
        let neg = Fx::from_raw(-448, q(16, 8)).unwrap();
        assert_eq!(neg.resize(q(8, 0), Rounding::TowardZero).unwrap().raw(), -1);
        assert_eq!(neg.resize(q(8, 0), Rounding::Floor).unwrap().raw(), -2);
    }

    #[test]
    fn mixed_formats_are_unordered() {
        let a = Fx::from_raw(0, q(8, 0)).unwrap();
        let b = Fx::from_raw(0, q(8, 1)).unwrap();
        assert_eq!(a.partial_cmp(&b), None);
    }

    #[test]
    fn ordering_matches_real_value() {
        let fmt = q(8, 2);
        let a = Fx::from_raw(-4, fmt).unwrap(); // -1.0
        let b = Fx::from_raw(6, fmt).unwrap(); // 1.5
        assert!(a < b);
    }

    #[test]
    fn display_shows_real_value() {
        let fmt = q(8, 2);
        let a = Fx::from_raw(5, fmt).unwrap();
        assert_eq!(a.to_string(), "1.25");
    }
}
