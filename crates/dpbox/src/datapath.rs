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
