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
//!
//! An evaluation is three steps: normalize `x = w·2^e`, run the vectoring
//! CORDIC on `w`, then add `e·ln 2` at the guard precision and round into
//! the output format. The vectoring step is branch-free — with `s` the
//! sign mask of `y`, `(v ^ s) − s` selects `±v` — and one kernel steps a
//! block of lanes in lockstep: [`CordicLn::ln`] runs it on one lane,
//! [`CordicLn::ln_grid`] on eight. The grid is `ln(m·2^−bits)` for every
//! `m ∈ [1, 2^bits]`. Since `m` and `m·2^j` normalize to the same `w`, only
//! the odd `m` run the CORDIC, and each `m·2^j` costs one add and one
//! rounding; every word equals `ln`'s bit for bit.

use ulp_fixed::{Fx, QFormat, Rounding};

use crate::error::RngError;

/// Internal guard precision for the CORDIC datapath (fraction bits).
const GUARD_FRAC: u8 = 44;

/// Lanes [`CordicLn::ln_grid`] steps through the vectoring kernel at once.
const GRID_LANES: usize = 8;

/// The shift of each vectoring step at the full 40 iterations: `1..=40`,
/// with 4, 13 and 40 taken twice (the standard hyperbolic-convergence
/// repeats). A unit of `n` iterations runs the steps whose shift is at
/// most `n`. One flat list, so the kernel's loop body is the same for
/// every step.
const SCHEDULE: [u32; 43] = [
    1, 2, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
    25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 40,
];

/// A fixed-point natural-logarithm unit.
///
/// # Examples
///
/// ```
/// use ulp_fixed::{Fx, QFormat};
/// use ulp_rng::CordicLn;
///
/// let unit = CordicLn::new(32);
/// let fmt = QFormat::new(32, 20)?;
/// let x = Fx::from_raw(387_973, fmt)?; // 0.37 · 2^20, rounded
/// let ln = unit.ln(x, fmt)?;
/// assert!((ln.to_f64() - 0.37f64.ln()).abs() < 1e-4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CordicLn {
    /// Base iterations: the kernel runs the [`SCHEDULE`] steps up to here.
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
        let (w, e) = normalize(x.raw(), x.format().frac_bits());
        let [ln_w] = self.vectoring([w]);
        self.finish(ln_w, e, out)
    }

    /// Fills `words` with `ln(m·2^−bits)` for `m = 1..=2^bits`, entry
    /// `m − 1` holding the raw word in `out` format: bit for bit
    /// [`CordicLn::ln`] of the word `m` at `bits` fraction bits. `words`
    /// must hold exactly `2^bits` entries; nothing else is allocated.
    ///
    /// Each odd `m` runs the CORDIC once, eight lanes at a time. Its
    /// `m·2^j` normalize to the same `w` one exponent higher per doubling,
    /// so each of them costs an add and a rounding.
    ///
    /// # Errors
    ///
    /// [`RngError::InvalidConfig`] if `words` does not hold `2^bits`
    /// entries; the fixed-point error `ln` returns if a word does not fit
    /// `out`.
    pub fn ln_grid(&self, bits: u8, out: QFormat, words: &mut [i64]) -> Result<(), RngError> {
        let len = words.len();
        if 1u64.checked_shl(u32::from(bits)) != Some(len as u64) {
            return Err(RngError::InvalidConfig("an ln grid holds 2^bits words"));
        }
        // The odd mantissas 2i + 1 ≤ 2^bits, a block of lanes at a time;
        // lanes past the last one evaluate ln 1 and are dropped.
        let odds = len.div_ceil(2);
        for first in (0..odds).step_by(GRID_LANES) {
            let lanes = (odds - first).min(GRID_LANES);
            let mut w = [1i64 << GUARD_FRAC; GRID_LANES];
            let mut e = [0i64; GRID_LANES];
            for lane in 0..lanes {
                (w[lane], e[lane]) = normalize(2 * (first + lane) as i64 + 1, bits);
            }
            let ln_w = self.vectoring(w);
            for lane in 0..lanes {
                let (mut m, mut e) = (2 * (first + lane) + 1, e[lane]);
                while m <= len {
                    words[m - 1] = self.finish(ln_w[lane], e, out)?.raw();
                    m *= 2;
                    e += 1;
                }
            }
        }
        Ok(())
    }

    /// Hyperbolic vectoring CORDIC on `L` lanes in lockstep: `ln w` at
    /// `GUARD_FRAC` fraction bits for each `w = w_raw · 2^-GUARD_FRAC ∈ [1, 2)`.
    fn vectoring<const L: usize>(&self, w_raw: [i64; L]) -> [i64; L] {
        let one = 1i64 << GUARD_FRAC;
        let mut x = w_raw.map(|w| w + one); // w + 1 ∈ [2, 3)
        let mut y = w_raw.map(|w| w - one); // w − 1 ∈ [0, 1)
        let mut z = [0i64; L];
        let steps = SCHEDULE.partition_point(|&i| i <= u32::from(self.iterations));
        for &i in &SCHEDULE[..steps] {
            let a = self.atanh_table[i as usize - 1];
            for lane in 0..L {
                // s = −1 where y < 0, else 0: (v ^ s) − s is −v or v, the
                // step toward y = 0 without a branch.
                let s = y[lane] >> 63;
                let (dx, dy) = (y[lane] >> i, x[lane] >> i);
                x[lane] -= (dx ^ s) - s;
                y[lane] -= (dy ^ s) - s;
                z[lane] += (a ^ s) - s;
            }
        }
        z.map(|z| 2 * z)
    }

    /// `ln x = ln w + e·ln 2` from the guard precision, rounded into `out`
    /// by the hardware rounder.
    fn finish(&self, ln_w: i64, e: i64, out: QFormat) -> Result<Fx, RngError> {
        let guard = QFormat::new(63, GUARD_FRAC).expect("guard format is valid");
        let wide = Fx::from_raw(ln_w + e * self.ln2, guard)?;
        Ok(wide.resize(out, Rounding::NearestTiesAway)?)
    }
}

/// Normalizes a positive word `raw` of `frac_bits` fraction bits to
/// `x = w·2^e`: returns `w ∈ [1, 2)` with its leading one at `GUARD_FRAC`,
/// and `e = msb(raw) − frac_bits`.
fn normalize(raw: i64, frac_bits: u8) -> (i64, i64) {
    let msb = 63 - raw.leading_zeros() as i32;
    let shift = GUARD_FRAC as i32 - msb;
    let w = if shift >= 0 {
        // Input has at most 63 significant bits; after placing the MSB
        // at bit GUARD_FRAC=44 the word still fits i64 (w < 2^45).
        raw << shift
    } else {
        // Round the discarded low bits to nearest (hardware rounder).
        let s = (-shift) as u32;
        (raw + (1i64 << (s - 1))) >> s
    };
    (w, i64::from(msb - i32::from(frac_bits)))
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
    use crate::RandomBits;

    fn q(t: u8, f: u8) -> QFormat {
        QFormat::new(t, f).unwrap()
    }

    /// `ln` of a real value, taken on the nearest raw word of `in_fmt`,
    /// through `unit`'s fixed-point datapath, reported as `f64`.
    fn ln_f64(unit: &CordicLn, x: f64, in_fmt: QFormat, out_fmt: QFormat) -> Result<f64, RngError> {
        let raw = (x / in_fmt.delta()).round() as i64;
        let fx = Fx::from_raw(raw, in_fmt).map_err(RngError::Fixed)?;
        Ok(unit.ln(fx, out_fmt)?.to_f64())
    }

    #[test]
    fn ln_of_one_is_zero() {
        let unit = CordicLn::new(32);
        let fmt = q(32, 16);
        let one = Fx::from_raw(1 << 16, fmt).unwrap();
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
        assert_eq!(
            unit.ln(Fx::from_raw(0, fmt).unwrap(), fmt),
            Err(RngError::NonPositive)
        );
        let neg = Fx::from_raw(-(1 << 8), fmt).unwrap();
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
        assert_eq!(CordicLn::new(0).iterations, 1);
        assert_eq!(CordicLn::new(255).iterations, 40);
    }

    #[test]
    fn schedule_repeats_steps_4_13_and_40() {
        let repeated = [4, 13, 40];
        let want: Vec<u32> = (1..=40)
            .flat_map(|i| vec![i; 1 + usize::from(repeated.contains(&i))])
            .collect();
        assert_eq!(SCHEDULE.to_vec(), want);
    }

    /// The CORDIC this module ran before its lane kernel, kept as the
    /// reference: per-input normalization, the vectoring loop with its
    /// branch on `y`'s sign and its own repeat schedule and constants, and
    /// the rounding into `out`, all written out here.
    fn branchy_ln(iterations: u8, x: Fx, out: QFormat) -> Result<Fx, RngError> {
        if x.raw() <= 0 {
            return Err(RngError::NonPositive);
        }
        let msb = 63 - x.raw().leading_zeros() as i32;
        let e = msb - x.format().frac_bits() as i32;
        let shift = GUARD_FRAC as i32 - msb;
        let w = if shift >= 0 {
            x.raw() << shift
        } else {
            let s = (-shift) as u32;
            (x.raw() + (1i64 << (s - 1))) >> s
        };
        let scale = 2f64.powi(GUARD_FRAC as i32);
        let ln2 = (std::f64::consts::LN_2 * scale).round() as i64;
        let one = 1i64 << GUARD_FRAC;
        let (mut xx, mut y, mut z) = (w + one, w - one, 0i64);
        for i in 1..=u32::from(iterations.clamp(1, 40)) {
            let t = 2f64.powi(-(i as i32));
            let a = (0.5 * ((1.0 + t) / (1.0 - t)).ln() * scale).round() as i64;
            let repeats = if i == 4 || i == 13 || i == 40 { 2 } else { 1 };
            for _ in 0..repeats {
                let dx = y >> i;
                let dy = xx >> i;
                if y >= 0 {
                    xx -= dx;
                    y -= dy;
                    z += a;
                } else {
                    xx += dx;
                    y += dy;
                    z -= a;
                }
            }
        }
        let total = 2 * z + e as i64 * ln2;
        let guard = q(63, GUARD_FRAC);
        Ok(Fx::from_raw(total, guard)?.resize(out, Rounding::NearestTiesAway)?)
    }

    /// Output formats: the DP-Box's log word, a 43-fraction-bit word in
    /// which every odd guard word is a rounding tie, and a 4-fraction-bit
    /// word too narrow for `ln` of the smallest 16-bit uniforms.
    const OUT_FORMATS: [(u8, u8); 3] = [(40, 24), (50, 43), (8, 4)];

    /// `ln` of each magnitude word `m = 1..=2^bits` at `bits` fraction
    /// bits, as `ln_grid` lays it out; the first error ends the grid.
    fn ln_per_word(unit: &CordicLn, bits: u8, out: QFormat) -> Result<Vec<i64>, RngError> {
        let in_fmt = q(bits + 2, bits);
        (1..=1i64 << bits)
            .map(|m| Ok(unit.ln(Fx::from_raw(m, in_fmt)?, out)?.raw()))
            .collect()
    }

    fn grid(unit: &CordicLn, bits: u8, out: QFormat) -> Result<Vec<i64>, RngError> {
        let mut words = vec![0; 1 << bits];
        unit.ln_grid(bits, out, &mut words).map(|()| words)
    }

    #[test]
    fn ln_grid_matches_ln_word_for_word() {
        for iterations in [1, 4, 13, 24, 40] {
            let unit = CordicLn::new(iterations);
            for bits in [0, 1, 2, 3, 8] {
                for (t, f) in OUT_FORMATS {
                    let out = q(t, f);
                    assert_eq!(
                        grid(&unit, bits, out),
                        ln_per_word(&unit, bits, out),
                        "{iterations} iterations, {bits} bits into {out:?}"
                    );
                }
            }
        }
        // The fleet's table, and a format its smallest words overflow.
        let unit = CordicLn::new(24);
        for out in [q(40, 24), q(8, 4)] {
            assert_eq!(grid(&unit, 16, out), ln_per_word(&unit, 16, out));
        }
        assert!(grid(&unit, 16, q(8, 4)).is_err());
    }

    #[test]
    fn ln_grid_refuses_a_buffer_of_the_wrong_size() {
        let unit = CordicLn::new(24);
        let out = q(40, 24);
        for (bits, len) in [(3, 7), (3, 9), (0, 0), (64, 1)] {
            let mut words = vec![0; len];
            assert!(matches!(
                unit.ln_grid(bits, out, &mut words),
                Err(RngError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn ln_matches_the_branchy_reference_on_every_fleet_input() {
        // The 2^16 magnitude words of the fleet's Bu = 17 URNG, through
        // its 24-iteration unit.
        let unit = CordicLn::new(24);
        let in_fmt = q(18, 16);
        for out in [q(40, 24), q(50, 43)] {
            for m in 1..=1i64 << 16 {
                let x = Fx::from_raw(m, in_fmt).unwrap();
                assert_eq!(
                    unit.ln(x, out),
                    branchy_ln(24, x, out),
                    "m = {m} into {out:?}"
                );
            }
        }
    }

    #[test]
    fn ln_matches_the_branchy_reference_on_wide_inputs() {
        // Words of up to 62 significant bits: those above 2^45 take the
        // normalization's rounding branch.
        let in_fmt = q(63, 20);
        let mut rng = crate::SplitMix64::new(2018);
        let mut rounded = 0;
        for iterations in [1, 4, 13, 24, 40] {
            let unit = CordicLn::new(iterations);
            for _ in 0..2_000 {
                let raw = (rng.next_u64() >> (2 + rng.next_u64() % 62)).max(1) as i64;
                rounded += usize::from(raw >> 45 != 0);
                let x = Fx::from_raw(raw, in_fmt).unwrap();
                for (t, f) in OUT_FORMATS {
                    let out = q(t, f);
                    assert_eq!(
                        unit.ln(x, out),
                        branchy_ln(iterations, x, out),
                        "{iterations} iterations, raw {raw} into {out:?}"
                    );
                }
            }
        }
        assert!(
            rounded > 1_000,
            "only {rounded} inputs took the rounding branch"
        );
    }
}
