//! Sensor ADC model: physical values ↔ fixed-point codes.
//!
//! The DP-Box "requires no knowledge of the sensors, except for the sensor
//! range" (Section IV): a deployment maps the physical range `[min, max]`
//! onto `q`-bit ADC codes `0..=2^q` and the privacy pipeline runs entirely
//! in code space (`Δ = 1` code). This module is that mapping.

/// A linear analog-to-digital conversion of a sensor range onto `q`-bit
/// codes.
///
/// # Examples
///
/// ```
/// use ldp_eval::Adc;
///
/// let adc = Adc::new(94.0, 200.0, 8);
/// let code = adc.encode(131.3);
/// assert!((0..=256).contains(&code));
/// let back = adc.decode(code);
/// assert!((back - 131.3).abs() <= adc.lsb() / 2.0 + 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    min: f64,
    max: f64,
    bits: u8,
}

impl Adc {
    /// Creates an ADC for `[min, max]` with `bits`-bit resolution
    /// (codes `0..=2^bits`).
    ///
    /// # Panics
    ///
    /// Panics unless `min < max` and `1 ≤ bits ≤ 16` (the paper's DP-Box
    /// supports sensors up to 13 bits).
    pub fn new(min: f64, max: f64, bits: u8) -> Self {
        assert!(min < max, "empty ADC range");
        assert!((1..=16).contains(&bits), "ADC resolution out of range");
        Adc { min, max, bits }
    }

    /// Top code value, `2^bits`.
    pub fn max_code(self) -> i64 {
        1i64 << self.bits
    }

    /// Physical value of one LSB.
    pub fn lsb(self) -> f64 {
        (self.max - self.min) / self.max_code() as f64
    }

    /// Quantizes a physical value to a code, clamping into range.
    pub fn encode(self, x: f64) -> i64 {
        let code = ((x - self.min) / self.lsb()).round() as i64;
        code.clamp(0, self.max_code())
    }

    /// Converts a code (possibly outside `0..=2^bits`, e.g. a noised
    /// output) back to physical units by linear extension.
    pub fn decode(self, code: i64) -> f64 {
        self.min + code as f64 * self.lsb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_clamps_out_of_range_values() {
        let adc = Adc::new(0.0, 10.0, 4);
        assert_eq!(adc.encode(-5.0), 0);
        assert_eq!(adc.encode(50.0), 16);
    }

    #[test]
    fn roundtrip_error_is_half_lsb() {
        let adc = Adc::new(-1.0, 1.0, 8);
        for i in 0..100 {
            let x = -1.0 + 0.02 * i as f64;
            let err = (adc.decode(adc.encode(x)) - x).abs();
            assert!(err <= adc.lsb() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn decode_extends_beyond_range() {
        let adc = Adc::new(0.0, 10.0, 4);
        // A noised code below zero decodes below the physical minimum.
        assert!(adc.decode(-8) < 0.0);
    }

    #[test]
    #[should_panic(expected = "empty ADC range")]
    fn rejects_empty_range() {
        Adc::new(1.0, 1.0, 8);
    }

    #[test]
    #[should_panic(expected = "resolution out of range")]
    fn rejects_wild_resolution() {
        Adc::new(0.0, 1.0, 40);
    }
}
