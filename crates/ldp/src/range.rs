//! Quantized sensor ranges.

use crate::error::LdpError;

/// A sensor's value range `[m, M]`, expressed on the fixed-point output grid
/// (indices are multiples of the quantization step `Δ`).
///
/// In the DP-Box the sensor reading, the noise, and the reported output all
/// live on the same `Δ` grid; privacy analysis therefore happens on integer
/// grid indices, and `Δ` only matters when converting to physical units.
///
/// # Examples
///
/// ```
/// use ldp_core::QuantizedRange;
///
/// // Statlog blood pressure: 94..=200 mmHg on a Δ = 0.5 grid.
/// let range = QuantizedRange::from_values(94.0, 200.0, 0.5)?;
/// assert_eq!(range.span_k(), 212);
/// assert_eq!(range.length(), 106.0);
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizedRange {
    min_k: i64,
    max_k: i64,
    delta: f64,
}

impl QuantizedRange {
    /// Creates a range from grid indices.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidRange`] if `min_k >= max_k`;
    /// [`LdpError::InvalidEpsilon`] is never returned, but a non-positive or
    /// non-finite `delta` yields [`LdpError::InvalidRange`] as well.
    pub fn new(min_k: i64, max_k: i64, delta: f64) -> Result<Self, LdpError> {
        if min_k >= max_k || !(delta.is_finite() && delta > 0.0) {
            return Err(LdpError::InvalidRange { min_k, max_k });
        }
        Ok(QuantizedRange {
            min_k,
            max_k,
            delta,
        })
    }

    /// Creates a range by quantizing physical bounds onto the `Δ` grid
    /// (lower bound floors, upper bound ceils, so the physical range is
    /// always covered).
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidRange`] if the quantized range is empty or the
    /// inputs are not finite.
    pub fn from_values(min: f64, max: f64, delta: f64) -> Result<Self, LdpError> {
        if !(min.is_finite() && max.is_finite() && delta.is_finite() && delta > 0.0) {
            return Err(LdpError::InvalidRange { min_k: 0, max_k: 0 });
        }
        let min_k = (min / delta).floor() as i64;
        let max_k = (max / delta).ceil() as i64;
        Self::new(min_k, max_k, delta)
    }

    /// Lower bound, in grid units.
    pub fn min_k(self) -> i64 {
        self.min_k
    }

    /// Upper bound, in grid units.
    pub fn max_k(self) -> i64 {
        self.max_k
    }

    /// The quantization step `Δ`.
    pub fn delta(self) -> f64 {
        self.delta
    }

    /// Range length in grid units: `s = (M - m)/Δ`, the worst-case
    /// adjacent-input shift used throughout the privacy analysis.
    pub fn span_k(self) -> i64 {
        self.max_k - self.min_k
    }

    /// Physical range length `d = M - m`.
    pub fn length(self) -> f64 {
        self.span_k() as f64 * self.delta
    }

    /// Lower bound in physical units.
    pub fn min_value(self) -> f64 {
        self.min_k as f64 * self.delta
    }

    /// Upper bound in physical units.
    pub fn max_value(self) -> f64 {
        self.max_k as f64 * self.delta
    }

    /// Quantizes a physical sensor value onto the grid, clamping into the
    /// range (hardware saturating ADC behaviour).
    pub fn quantize(self, x: f64) -> i64 {
        if x.is_nan() {
            return self.min_k;
        }
        let k = (x / self.delta).round();
        if k <= self.min_k as f64 {
            self.min_k
        } else if k >= self.max_k as f64 {
            self.max_k
        } else {
            k as i64
        }
    }

    /// Converts a grid index back to a physical value.
    pub fn to_value(self, k: i64) -> f64 {
        k as f64 * self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty_or_inverted() {
        assert!(QuantizedRange::new(5, 5, 0.5).is_err());
        assert!(QuantizedRange::new(5, 4, 0.5).is_err());
        assert!(QuantizedRange::new(4, 5, 0.0).is_err());
        assert!(QuantizedRange::new(4, 5, -1.0).is_err());
        assert!(QuantizedRange::new(4, 5, f64::NAN).is_err());
    }

    #[test]
    fn from_values_covers_physical_range() {
        let r = QuantizedRange::from_values(9.3, 46.6, 0.25).unwrap();
        assert!(r.min_value() <= 9.3);
        assert!(r.max_value() >= 46.6);
    }

    #[test]
    fn span_and_length_agree() {
        let r = QuantizedRange::new(-100, 300, 0.5).unwrap();
        assert_eq!(r.span_k(), 400);
        assert_eq!(r.length(), 200.0);
    }

    #[test]
    fn quantize_clamps_and_rounds() {
        let r = QuantizedRange::new(0, 100, 1.0).unwrap();
        assert_eq!(r.quantize(-5.0), 0);
        assert_eq!(r.quantize(105.0), 100);
        assert_eq!(r.quantize(49.6), 50);
        assert_eq!(r.quantize(f64::NAN), 0);
    }

    #[test]
    fn roundtrip_to_value() {
        let r = QuantizedRange::new(10, 20, 0.125).unwrap();
        assert_eq!(r.to_value(16), 2.0);
        assert_eq!(r.quantize(2.0), 16);
    }
}
