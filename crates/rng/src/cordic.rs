//! Hyperbolic CORDIC natural logarithm in fixed point.
//!
//! The DP-Box computes `log` with "a CORDIC logarithm function" paying "a
//! higher area penalty" so "the entire logarithm computation can be
//! completed in a single cycle" (Section IV-B) — i.e. the iterations are
//! unrolled combinationally. This module models that datapath bit-exactly in
//! integer arithmetic: shift-and-add iterations against a precomputed
//! `atanh(2^-i)` table, no floating point in the evaluation path.
//!
//! The identity used is `ln w = 2·atanh((w-1)/(w+1))`, computed by the
//! hyperbolic *vectoring* mode, after normalizing the input to `w ∈ [1, 2)`
//! with a leading-one detector so the atanh argument stays within the CORDIC
//! convergence region. Iterations 4, 13, 40, … are repeated per the standard
//! hyperbolic-convergence schedule.

use ulp_fixed::{Fx, QFormat, Rounding};

use crate::error::RngError;

/// Internal guard precision for the CORDIC datapath (fraction bits).
const GUARD_FRAC: u8 = 44;

/// A fixed-point natural-logarithm unit.
///
/// # Examples
///
/// ```
/// use ulp_fixed::{Fx, QFormat, Rounding};
/// use ulp_rng::CordicLn;
///
/// let unit = CordicLn::new(32);
/// let fmt = QFormat::new(32, 20)?;
/// let x = Fx::from_f64(0.37, fmt, Rounding::NearestTiesAway)?;
/// let ln = unit.ln(x, fmt)?;
/// assert!((ln.to_f64() - 0.37f64.ln()).abs() < 1e-4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CordicLn {
    iterations: u8,
    /// `atanh(2^-i)` for `i = 1..=iterations`, at `GUARD_FRAC` fraction bits.
    atanh_table: Vec<i64>,
    /// `ln 2` at `GUARD_FRAC` fraction bits.
    ln2: i64,
}

impl CordicLn {
    /// Creates a logarithm unit with the given number of base iterations
    /// (clamped to `1..=40`; ~`iterations` result bits of precision).
    ///
    /// The table entries model the ROM constants synthesized into the
    /// combinational CORDIC array.
    pub fn new(iterations: u8) -> Self {
        let iterations = iterations.clamp(1, 40);
        let scale = 2f64.powi(GUARD_FRAC as i32);
        let atanh_table = (1..=iterations as i32)
            .map(|i| {
                let t = 2f64.powi(-i);
                (0.5 * ((1.0 + t) / (1.0 - t)).ln() * scale).round() as i64
            })
            .collect();
        let ln2 = (std::f64::consts::LN_2 * scale).round() as i64;
        CordicLn {
            iterations,
            atanh_table,
            ln2,
        }
    }

    /// Number of base CORDIC iterations (excluding convergence repeats).
    pub fn iterations(&self) -> u8 {
        self.iterations
    }

    /// Computes `ln x` into `out` format.
    ///
    /// # Errors
    ///
    /// [`RngError::NonPositive`] if `x <= 0`; a fixed-point error if the
    /// result does not fit `out` (e.g. `ln` of a tiny input into a narrow
    /// format).
    pub fn ln(&self, x: Fx, out: QFormat) -> Result<Fx, RngError> {
        if x.raw() <= 0 {
            return Err(RngError::NonPositive);
        }
        // Normalize raw so its leading one sits at GUARD_FRAC: value
        // w = raw_norm * 2^-GUARD_FRAC ∈ [1, 2), and
        // x = w * 2^e  with  e = msb(raw) - frac_bits.
        let msb = 63 - x.raw().leading_zeros() as i32;
        let e = msb - x.format().frac_bits() as i32;
        let shift = GUARD_FRAC as i32 - msb;
        let w = if shift >= 0 {
            // Input has at most 63 significant bits; after placing the MSB
            // at bit GUARD_FRAC=44 the word still fits i64 (w < 2^45).
            x.raw() << shift
        } else {
            // Round the discarded low bits to nearest (hardware rounder).
            let s = (-shift) as u32;
            let half = 1i64 << (s - 1);
            (x.raw() + half) >> s
        };

        let ln_w = self.ln_normalized(w);
        let total = ln_w + e as i64 * self.ln2;
        let guard = QFormat::new(63, GUARD_FRAC).expect("guard format is valid");
        let wide = Fx::from_raw(total, guard).map_err(RngError::Fixed)?;
        wide.resize(out, Rounding::NearestTiesAway)
            .map_err(RngError::Fixed)
    }

    /// Hyperbolic vectoring CORDIC: returns `ln w` at `GUARD_FRAC` fraction
    /// bits for `w = w_raw * 2^-GUARD_FRAC ∈ [1, 2)`.
    fn ln_normalized(&self, w_raw: i64) -> i64 {
        let one = 1i64 << GUARD_FRAC;
        let mut x = w_raw + one; // w + 1 ∈ [2, 3)
        let mut y = w_raw - one; // w - 1 ∈ [0, 1)
        let mut z = 0i64;
        for i in 1..=self.iterations as u32 {
            // Standard hyperbolic schedule: repeat iterations 4, 13, 40.
            let repeats = if i == 4 || i == 13 || i == 40 { 2 } else { 1 };
            for _ in 0..repeats {
                let dx = y >> i;
                let dy = x >> i;
                let a = self.atanh_table[(i - 1) as usize];
                if y >= 0 {
                    x -= dx;
                    y -= dy;
                    z += a;
                } else {
                    x += dx;
                    y += dy;
                    z -= a;
                }
            }
        }
        2 * z
    }
}

impl Default for CordicLn {
    /// A 32-iteration unit, enough for 20-bit datapaths with margin.
    fn default() -> Self {
        CordicLn::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(t: u8, f: u8) -> QFormat {
        QFormat::new(t, f).unwrap()
    }

    /// `ln` of a real value through `unit`'s fixed-point datapath, reported
    /// as `f64`.
    fn ln_f64(unit: &CordicLn, x: f64, in_fmt: QFormat, out_fmt: QFormat) -> Result<f64, RngError> {
        let fx = Fx::from_f64(x, in_fmt, Rounding::NearestTiesAway).map_err(RngError::Fixed)?;
        Ok(unit.ln(fx, out_fmt)?.to_f64())
    }

    #[test]
    fn ln_of_one_is_zero() {
        let unit = CordicLn::new(32);
        let fmt = q(32, 16);
        let one = Fx::from_f64(1.0, fmt, Rounding::Floor).unwrap();
        let r = unit.ln(one, fmt).unwrap();
        assert!(r.to_f64().abs() < 1e-4, "ln(1) = {}", r.to_f64());
    }

    #[test]
    fn ln_matches_f64_across_range() {
        let unit = CordicLn::new(36);
        let in_fmt = q(48, 30);
        let out_fmt = q(48, 30);
        for &x in &[
            0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.999, 1.0, 1.5, 2.0, 7.3, 100.0, 65535.0,
        ] {
            let got = ln_f64(&unit, x, in_fmt, out_fmt).unwrap();
            let want = x.ln();
            assert!((got - want).abs() < 1e-6, "ln({x}): got {got}, want {want}");
        }
    }

    #[test]
    fn ln_of_power_of_two_is_multiple_of_ln2() {
        let unit = CordicLn::new(36);
        let fmt = q(48, 24);
        for e in [-10i32, -3, 1, 5, 12] {
            let x = 2f64.powi(e);
            let got = ln_f64(&unit, x, fmt, fmt).unwrap();
            let want = e as f64 * std::f64::consts::LN_2;
            assert!(
                (got - want).abs() < 1e-5,
                "ln(2^{e}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn rejects_non_positive_input() {
        let unit = CordicLn::new(16);
        let fmt = q(16, 8);
        assert_eq!(unit.ln(Fx::zero(fmt), fmt), Err(RngError::NonPositive));
        let neg = Fx::from_f64(-1.0, fmt, Rounding::Floor).unwrap();
        assert_eq!(unit.ln(neg, fmt), Err(RngError::NonPositive));
    }

    #[test]
    fn smallest_urng_value_has_correct_log() {
        // u = 2^-17 (the Bu=17 extreme): -ln u = 17 ln 2 ≈ 11.78.
        let unit = CordicLn::new(36);
        let in_fmt = q(40, 20);
        let out_fmt = q(40, 20);
        let got = ln_f64(&unit, 2f64.powi(-17), in_fmt, out_fmt).unwrap();
        let want = -17.0 * std::f64::consts::LN_2;
        assert!((got - want).abs() < 1e-4, "got {got}, want {want}");
    }

    #[test]
    fn precision_scales_with_iterations() {
        let coarse = CordicLn::new(8);
        let fine = CordicLn::new(32);
        let fmt = q(48, 30);
        let x = 1.37;
        let err_coarse = (ln_f64(&coarse, x, fmt, fmt).unwrap() - x.ln()).abs();
        let err_fine = (ln_f64(&fine, x, fmt, fmt).unwrap() - x.ln()).abs();
        assert!(err_fine <= err_coarse);
        assert!(err_fine < 1e-6);
    }

    #[test]
    fn narrow_output_rounds_to_grid() {
        let unit = CordicLn::new(32);
        let in_fmt = q(32, 16);
        let out = q(12, 4); // Δ = 1/16
        let got = ln_f64(&unit, 10.0, in_fmt, out).unwrap();
        let want = 10f64.ln();
        assert!((got - want).abs() <= out.delta() / 2.0 + 1e-9);
        // Result is on the coarse grid.
        assert_eq!(got, (got * 16.0).round() / 16.0);
    }

    #[test]
    fn iterations_clamped_to_valid_range() {
        assert_eq!(CordicLn::new(0).iterations(), 1);
        assert_eq!(CordicLn::new(255).iterations(), 40);
    }
}
