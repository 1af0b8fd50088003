//! The noising datapath both engines sequence: the configuration checks,
//! the noising context ([`NoisingCtx`]) and the release that clamps and
//! charges a noised value. [`DpBox`](crate::DpBox) runs it cycle by cycle,
//! [`DeviceArray`](crate::DeviceArray) lane by lane, and the collector's
//! noise model builds the same context server-side.

use std::sync::{Arc, Mutex};

use ldp_core::{LdpError, LimitMode, QuantizedRange, SegmentTable};
use ulp_fixed::QFormat;
use ulp_rng::{CordicLn, FxpLaplaceConfig, FxpNoisePmf};

use crate::error::DpBoxError;

/// Fraction bits of the CORDIC logarithm output inside the pipeline.
const LOG_FRAC: u8 = 24;

/// `-ln(m · 2^-mag_bits)` at [`LOG_FRAC`] fraction bits: the CORDIC
/// logarithm of the uniform a staged magnitude word `m ∈ [1, 2^mag_bits]`
/// encodes.
pub(crate) fn cordic_neg_ln(cordic: &CordicLn, mag_bits: u8, m: u64) -> i64 {
    let in_fmt =
        QFormat::new((mag_bits + 2).min(63), mag_bits).expect("Bu ≤ 53 keeps the format valid");
    let u = ulp_fixed::Fx::from_raw(m as i64, in_fmt).expect("m fits the word");
    let out_fmt = QFormat::new(40, LOG_FRAC).expect("valid log format");
    -cordic.ln(u, out_fmt).expect("u > 0 by construction").raw()
}

/// The noise magnitude `|k|`, in grid steps, of a sample with CORDIC
/// output `neg_ln_raw`: `((d_raw · (−ln u) + ½) >> LOG_FRAC) << n_m`,
/// saturated to `[0, max_raw]`. The hardware rounder rounds the
/// `LOG_FRAC`-bit fraction away, then the ε shift applies. The one copy of
/// the noise arithmetic, evaluated per draw or memoized per configuration.
fn noise_magnitude(d_raw: i64, neg_ln_raw: i64, eps_shift: u32, max_raw: i64) -> i64 {
    let prod = i128::from(d_raw) * i128::from(neg_ln_raw);
    let half = 1i128 << (LOG_FRAC - 1);
    let mag = ((prod + half) >> LOG_FRAC) << eps_shift;
    mag.clamp(0, i128::from(max_raw)) as i64
}

/// What a magnitude table is a function of:
/// `(mag_bits, cordic_iterations, d_raw, eps_shift, max_raw)`.
type MagnitudeKey = (u8, u8, i64, u32, i64);

/// Process-wide memo of magnitude tables. A linear scan is fine: one
/// entry per device configuration in play.
static MAGNITUDE_TABLES: Mutex<Vec<(MagnitudeKey, Arc<[i64]>)>> = Mutex::new(Vec::new());

/// The synthesis-time checks (datapath format, `Bu`, segment multiples);
/// returns the datapath format.
pub(crate) fn synthesize(
    word_bits: u8,
    frac_bits: u8,
    bu: u8,
    multiples: &[f64],
) -> Result<QFormat, DpBoxError> {
    let fmt = QFormat::new(word_bits, frac_bits)
        .map_err(|_| DpBoxError::InvalidConfig("bad datapath format"))?;
    if !(3..=53).contains(&bu) {
        return Err(DpBoxError::InvalidConfig("Bu must be in 3..=53"));
    }
    if multiples.is_empty()
        || multiples.windows(2).any(|w| w[0] >= w[1])
        || multiples.iter().any(|&m| m <= 1.0)
    {
        return Err(DpBoxError::InvalidConfig(
            "segment multiples must be ascending and > 1",
        ));
    }
    Ok(fmt)
}

/// An input-port operand that must fit the datapath word.
pub(crate) fn word_operand(fmt: QFormat, input: i64) -> Result<i64, DpBoxError> {
    if fmt.contains_raw(input) {
        Ok(input)
    } else {
        Err(DpBoxError::ValueOutOfRange {
            value: input,
            bits: fmt.total_bits(),
        })
    }
}

/// The initialization-phase `SetEpsilon` operand: a positive budget word
/// in grid units of nats. Returns the budget in nats.
pub(crate) fn budget_operand(fmt: QFormat, input: i64) -> Result<f64, DpBoxError> {
    let raw = word_operand(fmt, input)?;
    if raw <= 0 {
        return Err(DpBoxError::InvalidConfig("budget must be positive"));
    }
    Ok(raw as f64 * fmt.delta())
}

/// The waiting-phase `SetEpsilon` operand: the shift `n_m` (ε = 2^−n_m),
/// at most the word width.
pub(crate) fn eps_shift_operand(fmt: QFormat, input: i64) -> Result<u8, DpBoxError> {
    if !(0..=i64::from(fmt.total_bits())).contains(&input) {
        return Err(DpBoxError::InvalidConfig("ε shift n_m out of range"));
    }
    Ok(input as u8)
}

/// How a noised value is released and charged: the word and window clamps
/// and the segment charge, as min/max and comparison arithmetic with no
/// data-dependent branch.
#[derive(Debug, Clone)]
pub(crate) struct Release {
    min_raw: i64,
    max_raw: i64,
    range_min: i64,
    range_max: i64,
    /// The window `[range_min − n_th, range_max + n_th]`.
    window: (i64, i64),
    /// The segment table's overshoot thresholds, ascending.
    thresholds: Vec<i64>,
    /// The charge of each overshoot class: the in-range base loss, then
    /// one loss per segment.
    losses: Vec<f64>,
}

impl Release {
    fn new(fmt: QFormat, range: QuantizedRange, table: &SegmentTable) -> Self {
        let n_th = table.outermost().0;
        let (thresholds, segment_losses): (Vec<i64>, Vec<f64>) =
            table.segments().iter().copied().unzip();
        Release {
            min_raw: fmt.min_raw(),
            max_raw: fmt.max_raw(),
            range_min: range.min_k(),
            range_max: range.max_k(),
            window: (range.min_k() - n_th, range.max_k() + n_th),
            thresholds,
            losses: [table.base_loss()]
                .into_iter()
                .chain(segment_losses)
                .collect(),
        }
    }

    /// Sensor value `x` plus noise index `k`, saturated to the word.
    #[inline(always)]
    fn noised(&self, x: i64, k: i64) -> i64 {
        x.saturating_add(k).max(self.min_raw).min(self.max_raw)
    }

    /// Whether `x + k` lands in the window unclamped: resampling mode's
    /// acceptance test.
    pub(crate) fn in_window(&self, x: i64, k: i64) -> bool {
        (self.window.0..=self.window.1).contains(&self.noised(x, k))
    }

    /// The output for sensor value `x` and noise index `k`: the noised
    /// value saturated to the word, then clamped to the window.
    #[inline(always)]
    pub(crate) fn output(&self, x: i64, k: i64) -> i64 {
        self.noised(x, k).max(self.window.0).min(self.window.1)
    }

    /// `SegmentTable::charge_for_overshoot` of output `y`: class 0 in
    /// range, else one plus the thresholds the overshoot passes, capped at
    /// the outermost segment.
    #[inline(always)]
    pub(crate) fn charge(&self, y: i64) -> f64 {
        let overshoot = (self.range_min - y).max(0) + (y - self.range_max).max(0);
        let passed: usize = self
            .thresholds
            .iter()
            .map(|&t| usize::from(overshoot > t))
            .sum();
        let class = usize::from(overshoot > 0) * (1 + passed);
        self.losses[class.min(self.thresholds.len())]
    }
}

/// The noising context of a configured DP-Box: its sampler, sensor range,
/// budget segments, window, and release.
#[derive(Debug, Clone)]
pub struct NoisingCtx {
    lap_cfg: FxpLaplaceConfig,
    range: QuantizedRange,
    table: SegmentTable,
    /// Range width in grid steps: the noise scale before the ε shift.
    d_raw: i64,
    eps_shift: u32,
    release: Release,
}

impl NoisingCtx {
    /// The one constructor: the context of a datapath of format `fmt` and
    /// URNG width `bu` (a sign bit and `bu − 1` magnitude bits) with segment
    /// `multiples`, loaded with shift `eps_shift`, raw range
    /// `[range_lower, range_upper]` and limiting `mode`. The noise scale is
    /// λ = d · 2^n_m for range width d (Eq. 16 and 19); the window bound is
    /// the outermost segment threshold, solved once per configuration
    /// ([`ldp_core::segment_table_cached`]).
    ///
    /// # Errors
    ///
    /// [`DpBoxError::Privacy`] of [`LdpError::InvalidPrecision`] for
    /// `bu = 0`; [`DpBoxError::InvalidConfig`] for an empty or inverted
    /// range; [`DpBoxError::Rng`] for a sampler the word cannot hold or a
    /// noise support too wide to enumerate (refused before allocating);
    /// solver errors as [`DpBoxError::Privacy`].
    pub fn new(
        fmt: QFormat,
        bu: u8,
        multiples: &[f64],
        eps_shift: u8,
        range_lower: i64,
        range_upper: i64,
        mode: LimitMode,
    ) -> Result<NoisingCtx, DpBoxError> {
        let Some(mag_bits) = bu.checked_sub(1) else {
            return Err(LdpError::InvalidPrecision { bu, max: 53 }.into());
        };
        if range_lower >= range_upper {
            return Err(DpBoxError::InvalidConfig("range lower must be below upper"));
        }
        let delta = fmt.delta();
        let d_raw = range_upper - range_lower;
        let lambda = d_raw as f64 * delta * 2f64.powi(i32::from(eps_shift));
        let lap_cfg = FxpLaplaceConfig::new(mag_bits, fmt.total_bits(), delta, lambda)?;
        FxpNoisePmf::check_support(lap_cfg)?;
        let range = QuantizedRange::new(range_lower, range_upper, delta)?;
        let table = ldp_core::segment_table_cached(lap_cfg, range, multiples, mode)?;
        Ok(NoisingCtx {
            lap_cfg,
            range,
            release: Release::new(fmt, range, &table),
            table,
            d_raw,
            eps_shift: u32::from(eps_shift),
        })
    }

    /// The fixed-point Laplace sampler the datapath realizes.
    pub fn laplace_config(&self) -> FxpLaplaceConfig {
        self.lap_cfg
    }

    /// The quantized sensor range.
    pub fn range(&self) -> QuantizedRange {
        self.range
    }

    /// The budget-control segment table.
    pub fn table(&self) -> &SegmentTable {
        &self.table
    }

    /// The window bound `n_th` in grid units.
    pub fn n_th_k(&self) -> i64 {
        self.table.outermost().0
    }

    /// The release window `(min_k − n_th, max_k + n_th)`.
    pub fn window(&self) -> (i64, i64) {
        self.release.window
    }

    pub(crate) fn release(&self) -> &Release {
        &self.release
    }

    /// The signed noise index of a sample with sign `negative` and CORDIC
    /// output `neg_ln_raw`.
    pub(crate) fn noise_k(&self, negative: bool, neg_ln_raw: i64) -> i64 {
        let mag = noise_magnitude(self.d_raw, neg_ln_raw, self.eps_shift, self.release.max_raw);
        if negative {
            -mag
        } else {
            mag
        }
    }

    /// The noise magnitude of every magnitude word `m` (entry `m − 1`)
    /// through a CORDIC of `cordic_iterations`, built on first use and
    /// shared process-wide; bit-identical to [`NoisingCtx::noise_k`].
    pub(crate) fn magnitude_table(&self, cordic_iterations: u8) -> Arc<[i64]> {
        let mag_bits = self.lap_cfg.bu();
        let key = (
            mag_bits,
            cordic_iterations,
            self.d_raw,
            self.eps_shift,
            self.release.max_raw,
        );
        let mut tables = MAGNITUDE_TABLES.lock().expect("magnitude-table lock");
        if let Some((_, table)) = tables.iter().find(|(k, _)| *k == key) {
            return Arc::clone(table);
        }
        let cordic = CordicLn::new(cordic_iterations);
        let table: Arc<[i64]> = (1..=1u64 << mag_bits)
            .map(|m| self.noise_k(false, cordic_neg_ln(&cordic, mag_bits, m)))
            .collect();
        tables.push((key, Arc::clone(&table)));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fleet device's noising context at shift `n_m`.
    fn fleet_ctx(n_m: u8, mode: LimitMode) -> NoisingCtx {
        let fmt = QFormat::new(20, 0).unwrap();
        NoisingCtx::new(fmt, 17, &[1.5, 2.0, 2.5, 3.0], n_m, 0, 256, mode).unwrap()
    }

    #[test]
    fn no_release_realizes_more_loss_than_it_is_charged() {
        // Push every input and every noise index, weighted by the model
        // PMF, through the release the device executes, and compare each
        // output's realized loss over every input pair with its charge.
        // Neither the loss evaluator nor the segment table is consulted.
        let mut failures = Vec::new();
        for mode in [LimitMode::Thresholding, LimitMode::Resampling] {
            for n_m in 0..=2u8 {
                let ctx = fleet_ctx(n_m, mode);
                let pmf = FxpNoisePmf::closed_form(ctx.laplace_config());
                let release = ctx.release();
                let (lo, hi) = ctx.window();
                // Per input: the weight of each window output, and the
                // weight accepted (everything, unless resampling rejects).
                let rows: Vec<(Vec<u64>, u64)> = (0..=256i64)
                    .map(|x| {
                        let mut row = vec![0u64; (hi - lo + 1) as usize];
                        let mut accepted = 0u64;
                        for (k, w) in pmf.iter() {
                            if mode == LimitMode::Resampling && !release.in_window(x, k) {
                                continue;
                            }
                            row[(release.output(x, k) - lo) as usize] += w as u64;
                            accepted += w as u64;
                        }
                        (row, accepted)
                    })
                    .collect();
                let prob = |x: usize, i: usize| (u128::from(rows[x].0[i]), u128::from(rows[x].1));
                let below = |a: (u128, u128), b: (u128, u128)| a.0 * b.1 < b.0 * a.1;
                let mut over = Vec::new();
                for y in lo..=hi {
                    let i = (y - lo) as usize;
                    let (mut min, mut max) = (prob(0, i), prob(0, i));
                    for x in 1..rows.len() {
                        let p = prob(x, i);
                        if below(p, min) {
                            min = p;
                        }
                        if below(max, p) {
                            max = p;
                        }
                    }
                    let realized = match (min.0, max.0) {
                        (_, 0) => continue,
                        (0, _) => f64::INFINITY,
                        (a, b) => ((b as f64 * min.1 as f64) / (a as f64 * max.1 as f64)).ln(),
                    };
                    let charge = release.charge(y);
                    if realized > charge + 1e-12 {
                        over.push((y, realized, charge));
                    }
                }
                if let Some(worst) = over.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
                    failures.push(format!(
                        "{mode:?} n_m={n_m}: {} outputs realize more than their charge; \
                         worst (y, realized, charge) = {worst:?}",
                        over.len()
                    ));
                }
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn fleet_segments_keep_the_smaller_loss_at_equal_cut_offs() {
        let ctx = fleet_ctx(1, LimitMode::Thresholding);
        assert_eq!(ctx.n_th_k(), 2245);
        assert_eq!(
            ctx.table().segments(),
            &[(1524, 0.75), (1885, 1.0), (2245, 1.5)]
        );
        let ctx = fleet_ctx(0, LimitMode::Thresholding);
        assert_eq!(ctx.table().segments(), &[(999, 1.5), (1186, 2.0)]);
    }
}
