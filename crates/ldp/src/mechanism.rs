//! The local-DP noising mechanisms compared in the paper's evaluation.
//!
//! Four mechanisms, matching the four columns of Tables II–V:
//!
//! | Mechanism | Noise | LDP guarantee |
//! |---|---|---|
//! | [`IdealLaplaceMechanism`] | continuous `Lap(d/ε)` | ε (mathematical ideal) |
//! | [`FxpBaseline`] | fixed-point Laplace RNG, unmodified | **none** (infinite loss) |
//! | [`ResamplingMechanism`] | FxP RNG, out-of-window noise redrawn | `n·ε` |
//! | [`ThresholdingMechanism`] | FxP RNG, outputs clamped to window | `n·ε` |
//!
//! # Sampler paths
//!
//! Every mechanism privatizes batches on the grid through one method,
//! [`Mechanism::privatize_index_batch`]. The four table mechanisms carry a
//! [`SamplerPath`] that picks how the batch is drawn; the discrete-Laplace
//! mechanism and the constant-time wrapper carry none and always draw the
//! reference batch. On the default [`SamplerPath::Reference`] path the batch
//! is one cycle-faithful [`Mechanism::privatize`] per element, in order (URNG
//! word → `ln` → round → sign, redraw loops executed draw by draw) — this is
//! the path whose per-request `resamples`/latency model hardware. On
//! [`SamplerPath::Fast`] the batch draws from a cached
//! [`ulp_rng::AliasTable`] built from the exact PMF — the same distribution
//! bit-for-bit, at O(1) per draw with no `ln` and no rejection loop. Single
//! [`Mechanism::privatize`] calls always use the reference path, so
//! per-request latency/resample observables are unaffected by the flag.
//!
//! [`SamplerPath::Secure`] is the interval-refining defense mode: before a
//! batch is privatized, the mechanism's realized output distribution is
//! machine-checked against its claimed Eq. 4 loss bound from the exact
//! integer-count PMF, and draws then come from certified per-window
//! conditional alias tables — rejection-free, constant word consumption per
//! output (no data-dependent redraw loop to leak through timing). Mechanisms
//! that cannot be certified (no claimed bound, or a continuous `f64`
//! sampler) refuse loudly with [`LdpError::Uncertifiable`]; a claimed bound
//! the exact check contradicts surfaces as
//! [`LdpError::CertificationFailed`]. The secure path never silently falls
//! back.

use std::sync::Arc;

use ulp_obs::{Counter, Histogram};
use ulp_rng::{
    cached_alias_full, cached_alias_laplace_grid, cached_alias_window, cached_pmf, AliasTable,
    FxpLaplace, FxpLaplaceConfig, IdealLaplace, RandomBits,
};

use crate::error::LdpError;
use crate::loss::{worst_case_loss, LimitMode};
use crate::range::QuantizedRange;
use crate::threshold::ThresholdSpec;

/// Total out-of-window redraws across all resampling paths.
static RESAMPLE_REDRAWS: Counter = Counter::new("ldp.resample.redraws");
/// Outputs the thresholding mechanisms actually clamped to the window edge.
static THRESHOLD_CLAMPS: Counter = Counter::new("ldp.threshold.clamps");
/// Successful secure-path certifications (one per certified batch call).
static SECURE_CERTIFICATIONS: Counter = Counter::new("ldp.secure.certifications");
/// Redraws needed per single `privatize` call (resampling mode).
static RETRIES_PER_CALL: Histogram = Histogram::new("ldp.resample.retries_per_call", "retries");

/// Hard cap on consecutive out-of-window redraws before a resampling loop
/// reports [`LdpError::ResampleBudgetExhausted`]. Real configurations accept
/// well over 90% of draws, so hitting this indicates a broken
/// threshold/range configuration, not bad luck (miss probability < 2^-300).
pub(crate) const RESAMPLE_LIMIT: u32 = 100_000;

/// Which sampler datapath batched privatization should use.
///
/// See the module docs: `Reference` is cycle-faithful, `Fast` is
/// distribution-identical table-driven sampling for simulation throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerPath {
    /// Alias-table draws for batched privatization (simulation fast path).
    Fast,
    /// The cycle-faithful sampler datapath everywhere (hardware model).
    Reference,
    /// Certified sampling: batched privatization machine-checks the realized
    /// worst-case loss against the claimed bound before drawing from exact
    /// conditional tables, and refuses uncertifiable mechanisms (see the
    /// module docs).
    Secure,
}

/// One privatized sensor reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisedOutput {
    /// The reported (noised) value, in physical units.
    pub value: f64,
    /// How many extra noise draws resampling needed (0 for the other
    /// mechanisms). Each redraw costs one DP-Box cycle (Section V).
    pub resamples: u32,
}

/// What a mechanism promises about its worst-case privacy loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// ε-LDP with the given loss bound in nats.
    EpsLdp(f64),
    /// No bound: some outputs reveal the input exactly.
    Broken,
}

impl Guarantee {
    /// The loss bound, if the mechanism has one.
    pub fn bound(self) -> Option<f64> {
        match self {
            Guarantee::EpsLdp(b) => Some(b),
            Guarantee::Broken => None,
        }
    }
}

/// A local differential privacy mechanism: maps one private sensor value to
/// one noised report.
///
/// Object safe so the evaluation harness can sweep heterogeneous mechanism
/// lists.
pub trait Mechanism {
    /// Privatizes one sensor reading through the cycle-faithful reference
    /// datapath.
    ///
    /// # Errors
    ///
    /// [`LdpError::ResampleBudgetExhausted`] if a resampling loop exceeds
    /// its redraw cap (broken threshold/range configuration).
    fn privatize(&self, x: f64, rng: &mut dyn RandomBits) -> Result<NoisedOutput, LdpError>;

    /// Privatizes a batch on the grid, returning the batch's total resample
    /// count.
    ///
    /// `xs_k` are input grid indices ([`QuantizedRange::quantize`] of the
    /// raw readings): callers that privatize the same readings repeatedly
    /// (the evaluation trial loops) quantize once. `out` receives output
    /// grid indices ([`QuantizedRange::to_value`] recovers values). Every
    /// [`SamplerPath`] answers: `Reference` consumes the words of one
    /// [`Mechanism::privatize`] per element, in order, and rounds each
    /// output to its nearest grid index without clamping; `Fast` draws from
    /// alias tables of the same law; `Secure` certifies the claimed bound
    /// first (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `xs_k` and `out` have different lengths.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mechanism::privatize`]; on
    /// [`SamplerPath::Secure`], [`LdpError::Uncertifiable`] or
    /// [`LdpError::CertificationFailed`].
    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<u64, LdpError>;

    /// The privacy guarantee this mechanism provides.
    fn guarantee(&self) -> Guarantee;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Every implementor's [`SamplerPath::Reference`] batch: one `privatize`
/// per element, in order, each output rounded to its nearest grid index.
/// Nothing is clamped — the ideal and baseline outputs leave the range.
pub(crate) fn reference_batch<M: Mechanism + ?Sized>(
    mech: &M,
    range: QuantizedRange,
    xs_k: &[i64],
    rng: &mut dyn RandomBits,
    out: &mut [i64],
) -> Result<u64, LdpError> {
    let mut resamples = 0u64;
    for (&x_k, slot) in xs_k.iter().zip(out.iter_mut()) {
        let r = mech.privatize(range.to_value(x_k), rng)?;
        *slot = (r.value / range.delta()).round() as i64;
        resamples += u64::from(r.resamples);
    }
    Ok(resamples)
}

/// The length contract of [`Mechanism::privatize_index_batch`].
pub(crate) fn same_len(xs_k: &[i64], out: &[i64]) {
    assert_eq!(
        xs_k.len(),
        out.len(),
        "privatize_index_batch: length mismatch"
    );
}

/// The output window `[m − n_th, M + n_th]` in grid units.
fn window(range: QuantizedRange, n_th_k: i64) -> (i64, i64) {
    (range.min_k() - n_th_k, range.max_k() + n_th_k)
}

/// Resolves one out-of-window element for the resampling fast path.
///
/// Policy (see DESIGN.md "Sampler fast paths"): bulk draws come from the
/// shared full-support table with out-of-window outputs rejected — at
/// realistic acceptance rates (> 90%) that is the exact conditional law at
/// ~1 table draw per output with a one-table cache working set. An element
/// that misses retries with individual draws; after `MISS_SWITCH` total
/// misses it switches to its cached per-window conditional table (O(1)
/// worst case, still the exact conditional law by construction, since
/// rejection sampling is memoryless).
fn resample_miss(
    table: &AliasTable,
    cfg: FxpLaplaceConfig,
    x_k: i64,
    lo: i64,
    hi: i64,
    rng: &mut dyn RandomBits,
    resamples: &mut u64,
) -> Result<i64, LdpError> {
    const MISS_SWITCH: u32 = 3;
    let mut misses = 0u32;
    loop {
        *resamples += 1;
        RESAMPLE_REDRAWS.inc();
        misses += 1;
        if misses >= MISS_SWITCH {
            let window = cached_alias_window(cfg, lo - x_k, hi - x_k)?;
            return Ok(x_k + window.draw(rng));
        }
        let y = x_k + table.draw(rng);
        if y >= lo && y <= hi {
            return Ok(y);
        }
    }
}

/// The mathematical ideal: continuous `Lap(d/ε)` noise at `f64` precision.
///
/// # Examples
///
/// ```
/// use ldp_core::{IdealLaplaceMechanism, Mechanism, QuantizedRange};
/// use ulp_rng::Taus88;
///
/// let range = QuantizedRange::new(188, 400, 0.5)?; // 94..=200 on a 0.5 grid
/// let mech = IdealLaplaceMechanism::new(range, 0.5)?;
/// let mut rng = Taus88::from_seed(1);
/// let out = mech.privatize(131.5, &mut rng)?;
/// assert!(out.value.is_finite());
/// # Ok::<(), ldp_core::LdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IdealLaplaceMechanism {
    lap: IdealLaplace,
    range: QuantizedRange,
    eps: f64,
    path: SamplerPath,
}

impl IdealLaplaceMechanism {
    /// Creates the mechanism for a sensor range and privacy parameter ε
    /// (noise scale `λ = d/ε`).
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] if ε is not finite and positive.
    pub fn new(range: QuantizedRange, eps: f64) -> Result<Self, LdpError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(LdpError::InvalidEpsilon(eps));
        }
        let lap = IdealLaplace::new(range.length() / eps).map_err(LdpError::Rng)?;
        Ok(IdealLaplaceMechanism {
            lap,
            range,
            eps,
            path: SamplerPath::Reference,
        })
    }

    /// Selects the batched sampler path (see [`SamplerPath`]).
    pub fn with_sampler_path(mut self, path: SamplerPath) -> Self {
        self.path = path;
        self
    }

    /// The sensor range.
    pub fn range(&self) -> QuantizedRange {
        self.range
    }
}

impl Mechanism for IdealLaplaceMechanism {
    fn privatize(&self, x: f64, rng: &mut dyn RandomBits) -> Result<NoisedOutput, LdpError> {
        let x = self.range.to_value(self.range.quantize(x));
        Ok(NoisedOutput {
            value: x + self.lap.sample(rng),
            resamples: 0,
        })
    }

    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<u64, LdpError> {
        same_len(xs_k, out);
        match self.path {
            SamplerPath::Reference => return reference_batch(self, self.range, xs_k, rng, out),
            // Continuous `f64` Laplace cannot be realized exactly in finite
            // precision (the Mironov attack is precisely the gap between the
            // real-valued ideal and its `f64` image), so there is no exact
            // output distribution to certify.
            SamplerPath::Secure => {
                return Err(LdpError::Uncertifiable(
                    "continuous f64 Laplace cannot be realized exactly in finite precision; \
                     use a certified fixed-point mechanism",
                ))
            }
            SamplerPath::Fast => {}
        }
        // Grid-unit noise: Lap(λ) in value space is Lap(λ/Δ) on the grid,
        // and the continuous output rounds to its nearest grid index. The
        // offset law `round(x_k + L) − x_k` is the rounded-Laplace PMF
        // `F(j+1/2) − F(j−1/2)` — independent of `x_k` (ties are measure
        // zero) — so a cached alias table samples it in O(1) per draw.
        // Scales too wide to tabulate take the reference arm: the same law.
        let lambda_k = self.lap.lambda() / self.range.delta();
        let Ok(table) = cached_alias_laplace_grid(lambda_k) else {
            return reference_batch(self, self.range, xs_k, rng, out);
        };
        table.fill_batch(rng, out);
        for (slot, &x_k) in out.iter_mut().zip(xs_k) {
            *slot += x_k;
        }
        Ok(0)
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::EpsLdp(self.eps)
    }

    fn name(&self) -> &'static str {
        "ideal-laplace"
    }
}

fn check_delta(sampler: &FxpLaplace, range: QuantizedRange) -> Result<(), LdpError> {
    let noise = sampler.config().delta();
    let grid = range.delta();
    if (noise - grid).abs() > 1e-12 * grid.max(noise) {
        return Err(LdpError::MismatchedDelta { noise, range: grid });
    }
    Ok(())
}

/// Machine-checks a window-limited mechanism's claimed loss bound (the
/// secure-path gate): computes the exact realized worst-case Eq. 4 loss over
/// every output and every input pair from the integer-count PMF and
/// compares it with the claimed `guaranteed_loss`.
///
/// # Errors
///
/// [`LdpError::CertificationFailed`] when the exact check contradicts the
/// claimed bound — e.g. a threshold from the paper's closed-form Eq. 15,
/// which can overshoot into the RNG's zero-probability gap region.
fn certify_window(
    sampler: &FxpLaplace,
    range: QuantizedRange,
    mode: LimitMode,
    spec: ThresholdSpec,
) -> Result<(), LdpError> {
    let pmf = cached_pmf(sampler.config())?;
    let realized = worst_case_loss(&pmf, range, mode, Some(spec.n_th_k));
    if realized.is_bounded_by(spec.guaranteed_loss) {
        SECURE_CERTIFICATIONS.inc();
        Ok(())
    } else {
        Err(LdpError::CertificationFailed {
            claimed: spec.guaranteed_loss,
            realized,
        })
    }
}

/// The naive fixed-point baseline: `y = x + n` with the FxP Laplace RNG and
/// no output limiting. Matches the ideal's utility but its loss is infinite
/// (Section III-A3) — the paper's negative result.
#[derive(Debug, Clone)]
pub struct FxpBaseline {
    sampler: FxpLaplace,
    range: QuantizedRange,
    path: SamplerPath,
}

impl FxpBaseline {
    /// Creates the baseline.
    ///
    /// # Errors
    ///
    /// [`LdpError::MismatchedDelta`] if the sampler's output grid differs
    /// from the sensor grid.
    pub fn new(sampler: FxpLaplace, range: QuantizedRange) -> Result<Self, LdpError> {
        check_delta(&sampler, range)?;
        Ok(FxpBaseline {
            sampler,
            range,
            path: SamplerPath::Reference,
        })
    }

    /// Selects the batched sampler path (see [`SamplerPath`]).
    pub fn with_sampler_path(mut self, path: SamplerPath) -> Self {
        self.path = path;
        self
    }

    /// The sensor range.
    pub fn range(&self) -> QuantizedRange {
        self.range
    }

    /// Privatizes on the grid, returning the output index.
    pub fn privatize_index(&self, x_k: i64, rng: &mut dyn RandomBits) -> i64 {
        x_k + self.sampler.sample_index(rng)
    }
}

impl Mechanism for FxpBaseline {
    fn privatize(&self, x: f64, rng: &mut dyn RandomBits) -> Result<NoisedOutput, LdpError> {
        let x_k = self.range.quantize(x);
        Ok(NoisedOutput {
            value: self.range.to_value(self.privatize_index(x_k, rng)),
            resamples: 0,
        })
    }

    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<u64, LdpError> {
        same_len(xs_k, out);
        match self.path {
            // The guarantee is `Broken` by construction: there is no
            // claimed bound to certify against.
            SamplerPath::Secure => Err(LdpError::Uncertifiable(
                "fxp-baseline claims no loss bound (guarantee is Broken); there is nothing to certify",
            )),
            SamplerPath::Fast => {
                // `out` doubles as the noise buffer: one bulk fill, one
                // fused add.
                cached_alias_full(self.sampler.config())?.fill_batch(rng, out);
                for (slot, &x_k) in out.iter_mut().zip(xs_k) {
                    *slot += x_k;
                }
                Ok(0)
            }
            SamplerPath::Reference => reference_batch(self, self.range, xs_k, rng, out),
        }
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Broken
    }

    fn name(&self) -> &'static str {
        "fxp-baseline"
    }
}

/// Resampling (Section III-B1): noise is redrawn until the noised output
/// falls inside `[m − n_th, M + n_th]`. Every redraw costs one extra cycle.
#[derive(Debug, Clone)]
pub struct ResamplingMechanism {
    sampler: FxpLaplace,
    range: QuantizedRange,
    spec: ThresholdSpec,
    path: SamplerPath,
}

impl ResamplingMechanism {
    /// Creates the mechanism with a threshold from one of the solvers in
    /// [`crate::threshold`].
    ///
    /// # Errors
    ///
    /// [`LdpError::MismatchedDelta`] on grid disagreement;
    /// [`LdpError::InvalidRange`] if the threshold is negative.
    pub fn new(
        sampler: FxpLaplace,
        range: QuantizedRange,
        spec: ThresholdSpec,
    ) -> Result<Self, LdpError> {
        check_delta(&sampler, range)?;
        if spec.n_th_k < 0 {
            return Err(LdpError::InvalidRange {
                min_k: spec.n_th_k,
                max_k: spec.n_th_k,
            });
        }
        Ok(ResamplingMechanism {
            sampler,
            range,
            spec,
            path: SamplerPath::Reference,
        })
    }

    /// Selects the batched sampler path (see [`SamplerPath`]).
    pub fn with_sampler_path(mut self, path: SamplerPath) -> Self {
        self.path = path;
        self
    }

    /// The configured threshold.
    pub fn threshold(&self) -> ThresholdSpec {
        self.spec
    }

    /// The sensor range.
    pub fn range(&self) -> QuantizedRange {
        self.range
    }

    /// One raw noise index from the underlying sampler, with no window
    /// logic — the building block the constant-time wrapper batches.
    pub(crate) fn privatize_index_raw_draw(&self, rng: &mut dyn RandomBits) -> i64 {
        self.sampler.sample_index(rng)
    }

    /// Privatizes on the grid, returning `(y_k, resamples)`.
    ///
    /// # Errors
    ///
    /// [`LdpError::ResampleBudgetExhausted`] if 100 000 consecutive draws
    /// fall outside the window — an acceptance probability this low means
    /// the threshold/range configuration is broken (real configurations
    /// accept > 90% of draws).
    pub fn privatize_index(
        &self,
        x_k: i64,
        rng: &mut dyn RandomBits,
    ) -> Result<(i64, u32), LdpError> {
        let (lo, hi) = window(self.range, self.spec.n_th_k);
        let mut resamples = 0u32;
        loop {
            let y = x_k + self.sampler.sample_index(rng);
            if y >= lo && y <= hi {
                RESAMPLE_REDRAWS.add(u64::from(resamples));
                RETRIES_PER_CALL.record(u64::from(resamples));
                return Ok((y, resamples));
            }
            resamples += 1;
            if resamples >= RESAMPLE_LIMIT {
                return Err(LdpError::ResampleBudgetExhausted);
            }
        }
    }
}

impl Mechanism for ResamplingMechanism {
    fn privatize(&self, x: f64, rng: &mut dyn RandomBits) -> Result<NoisedOutput, LdpError> {
        let x_k = self.range.quantize(x);
        let (y, resamples) = self.privatize_index(x_k, rng)?;
        Ok(NoisedOutput {
            value: self.range.to_value(y),
            resamples,
        })
    }

    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<u64, LdpError> {
        same_len(xs_k, out);
        let (lo, hi) = window(self.range, self.spec.n_th_k);
        let cfg = self.sampler.config();
        match self.path {
            // Certify the claimed bound against the exact PMF, then draw
            // every output from its input's certified conditional window
            // table — rejection-free, exactly one table draw per output, so
            // word consumption is input-independent (no resampling-count
            // side channel) and `resamples` is 0 by construction.
            SamplerPath::Secure => {
                certify_window(&self.sampler, self.range, LimitMode::Resampling, self.spec)?;
                // Memoize the last window table: sensor batches are strongly
                // run-length correlated, so most lookups skip the cache lock.
                let mut last: Option<(i64, Arc<AliasTable>)> = None;
                for (slot, &x_k) in out.iter_mut().zip(xs_k) {
                    let table = match &last {
                        Some((k, t)) if *k == x_k => t,
                        _ => {
                            let t = cached_alias_window(cfg, lo - x_k, hi - x_k)?;
                            &last.insert((x_k, t)).1
                        }
                    };
                    *slot = x_k + table.draw(rng);
                }
                Ok(0)
            }
            SamplerPath::Fast => {
                let table = cached_alias_full(cfg)?;
                let mut resamples = 0u64;
                // `out` doubles as the noise buffer; misses resolve
                // individually.
                table.fill_batch(rng, out);
                for (slot, &x_k) in out.iter_mut().zip(xs_k) {
                    let y = x_k + *slot;
                    *slot = if y < lo || y > hi {
                        resample_miss(&table, cfg, x_k, lo, hi, rng, &mut resamples)?
                    } else {
                        y
                    };
                }
                Ok(resamples)
            }
            SamplerPath::Reference => reference_batch(self, self.range, xs_k, rng, out),
        }
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::EpsLdp(self.spec.guaranteed_loss)
    }

    fn name(&self) -> &'static str {
        "resampling"
    }
}

/// Thresholding (Section III-B2): the noised output is clamped into
/// `[m − n_th, M + n_th]`; the clipped tails pile up as boundary atoms.
/// One noise draw always suffices (best energy efficiency).
#[derive(Debug, Clone)]
pub struct ThresholdingMechanism {
    sampler: FxpLaplace,
    range: QuantizedRange,
    spec: ThresholdSpec,
    path: SamplerPath,
}

impl ThresholdingMechanism {
    /// Creates the mechanism with a threshold from one of the solvers in
    /// [`crate::threshold`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResamplingMechanism::new`].
    pub fn new(
        sampler: FxpLaplace,
        range: QuantizedRange,
        spec: ThresholdSpec,
    ) -> Result<Self, LdpError> {
        check_delta(&sampler, range)?;
        if spec.n_th_k < 0 {
            return Err(LdpError::InvalidRange {
                min_k: spec.n_th_k,
                max_k: spec.n_th_k,
            });
        }
        Ok(ThresholdingMechanism {
            sampler,
            range,
            spec,
            path: SamplerPath::Reference,
        })
    }

    /// Selects the batched sampler path (see [`SamplerPath`]).
    pub fn with_sampler_path(mut self, path: SamplerPath) -> Self {
        self.path = path;
        self
    }

    /// The configured threshold.
    pub fn threshold(&self) -> ThresholdSpec {
        self.spec
    }

    /// The sensor range.
    pub fn range(&self) -> QuantizedRange {
        self.range
    }

    /// Privatizes on the grid, returning the output index.
    pub fn privatize_index(&self, x_k: i64, rng: &mut dyn RandomBits) -> i64 {
        self.clamp(x_k + self.sampler.sample_index(rng))
    }

    /// Clamps a noised index into the window, counting the clamps.
    fn clamp(&self, y: i64) -> i64 {
        let (lo, hi) = window(self.range, self.spec.n_th_k);
        let clamped = y.clamp(lo, hi);
        if clamped != y {
            THRESHOLD_CLAMPS.inc();
        }
        clamped
    }
}

impl Mechanism for ThresholdingMechanism {
    fn privatize(&self, x: f64, rng: &mut dyn RandomBits) -> Result<NoisedOutput, LdpError> {
        let x_k = self.range.quantize(x);
        Ok(NoisedOutput {
            value: self.range.to_value(self.privatize_index(x_k, rng)),
            resamples: 0,
        })
    }

    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<u64, LdpError> {
        same_len(xs_k, out);
        match self.path {
            SamplerPath::Secure => certify_window(
                &self.sampler,
                self.range,
                LimitMode::Thresholding,
                self.spec,
            )?,
            SamplerPath::Fast => {}
            SamplerPath::Reference => return reference_batch(self, self.range, xs_k, rng, out),
        }
        // Clamping a full-support draw *is* the thresholded law (boundary
        // atoms included) — the distribution the secure path certified —
        // with one draw per output, so word consumption is
        // input-independent. `out` doubles as the noise buffer.
        cached_alias_full(self.sampler.config())?.fill_batch(rng, out);
        for (slot, &x_k) in out.iter_mut().zip(xs_k) {
            *slot = self.clamp(x_k + *slot);
        }
        Ok(0)
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::EpsLdp(self.spec.guaranteed_loss)
    }

    fn name(&self) -> &'static str {
        "thresholding"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LimitMode;
    use crate::threshold::exact_threshold;
    use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf, Taus88};

    fn setup() -> (FxpLaplace, QuantizedRange, FxpNoisePmf, FxpLaplaceConfig) {
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let sampler = FxpLaplace::analytic(cfg);
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        (sampler, range, pmf, cfg)
    }

    #[test]
    fn delta_mismatch_is_rejected() {
        let (sampler, _, _, _) = setup();
        let bad_range = QuantizedRange::new(0, 32, 0.5).unwrap();
        assert!(matches!(
            FxpBaseline::new(sampler.clone(), bad_range),
            Err(LdpError::MismatchedDelta { .. })
        ));
    }

    #[test]
    fn ideal_rejects_bad_eps() {
        let (_, range, _, _) = setup();
        assert!(IdealLaplaceMechanism::new(range, 0.0).is_err());
        assert!(IdealLaplaceMechanism::new(range, f64::NAN).is_err());
    }

    #[test]
    fn baseline_output_is_unbounded_within_support() {
        let (sampler, range, pmf, _) = setup();
        let mech = FxpBaseline::new(sampler, range).unwrap();
        let mut rng = Taus88::from_seed(4);
        let mut max_abs: i64 = 0;
        for _ in 0..50_000 {
            let y = mech.privatize_index(range.max_k(), &mut rng);
            max_abs = max_abs.max((y - range.max_k()).abs());
        }
        // With 50k draws we reach deep into the tail, beyond any threshold
        // the bounded mechanisms would use.
        assert!(max_abs > pmf.support_max_k() / 3);
        assert_eq!(mech.guarantee(), Guarantee::Broken);
    }

    #[test]
    fn resampling_respects_window() {
        let (sampler, range, pmf, cfg) = setup();
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).unwrap();
        let mech = ResamplingMechanism::new(sampler, range, spec).unwrap();
        let mut rng = Taus88::from_seed(5);
        for x_k in [range.min_k(), range.max_k()] {
            for _ in 0..20_000 {
                let (y, _) = mech.privatize_index(x_k, &mut rng).unwrap();
                assert!(y >= range.min_k() - spec.n_th_k);
                assert!(y <= range.max_k() + spec.n_th_k);
            }
        }
    }

    #[test]
    fn thresholding_respects_window_and_has_atoms() {
        let (sampler, range, pmf, cfg) = setup();
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).unwrap();
        let mech = ThresholdingMechanism::new(sampler, range, spec).unwrap();
        let mut rng = Taus88::from_seed(6);
        let hi = range.max_k() + spec.n_th_k;
        let mut at_boundary = 0u32;
        for _ in 0..50_000 {
            let y = mech.privatize_index(range.max_k(), &mut rng);
            assert!(y <= hi && y >= range.min_k() - spec.n_th_k);
            if y == hi {
                at_boundary += 1;
            }
        }
        // The boundary atom carries the clipped tail mass: it must show up.
        assert!(at_boundary > 0, "expected boundary atom hits");
    }

    #[test]
    fn resample_counter_reports_redraws() {
        let (sampler, range, _, _) = setup();
        // Tiny window forces frequent resampling.
        let spec = ThresholdSpec {
            n_th_k: 2,
            guaranteed_loss: 10.0,
        };
        let mech = ResamplingMechanism::new(sampler, range, spec).unwrap();
        let mut rng = Taus88::from_seed(7);
        let total: u32 = (0..2_000)
            .map(|_| mech.privatize(5.0, &mut rng).unwrap().resamples)
            .sum();
        assert!(total > 0, "a 2-step window must trigger resampling");
    }

    #[test]
    fn impossible_window_surfaces_typed_error() {
        let (sampler, _, _, cfg) = setup();
        // A range far outside the noise support: no draw can ever land in
        // the window, so the redraw cap must surface as a typed error
        // instead of aborting the sweep.
        let far = QuantizedRange::new(100_000, 100_032, cfg.delta()).unwrap();
        let spec = ThresholdSpec {
            n_th_k: 0,
            guaranteed_loss: 10.0,
        };
        let mech = ResamplingMechanism::new(sampler, far, spec).unwrap();
        let mut rng = Taus88::from_seed(11);
        // `quantize` clamps f64 inputs into the sensor range, so only the
        // raw index API can present an input whose window sits ~100k grid
        // steps beyond the ~754-step noise support.
        assert_eq!(
            mech.privatize_index(-200_000, &mut rng).unwrap_err(),
            LdpError::ResampleBudgetExhausted
        );
    }

    #[test]
    fn thresholding_never_resamples() {
        let (sampler, range, pmf, cfg) = setup();
        let spec = exact_threshold(cfg, &pmf, range, 1.5, LimitMode::Thresholding).unwrap();
        let mech = ThresholdingMechanism::new(sampler, range, spec).unwrap();
        let mut rng = Taus88::from_seed(8);
        for _ in 0..1_000 {
            assert_eq!(mech.privatize(3.0, &mut rng).unwrap().resamples, 0);
        }
    }

    #[test]
    fn mechanisms_are_usable_as_trait_objects() {
        let (sampler, range, pmf, cfg) = setup();
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).unwrap();
        let mechs: Vec<Box<dyn Mechanism>> = vec![
            Box::new(IdealLaplaceMechanism::new(range, 0.5).unwrap()),
            Box::new(FxpBaseline::new(sampler.clone(), range).unwrap()),
            Box::new(ThresholdingMechanism::new(sampler, range, spec).unwrap()),
        ];
        let mut rng = Taus88::from_seed(9);
        for m in &mechs {
            let out = m.privatize(5.0, &mut rng).unwrap();
            assert!(out.value.is_finite(), "{} produced non-finite", m.name());
        }
    }

    #[test]
    fn noised_mean_tracks_input_over_many_draws() {
        let (sampler, range, pmf, cfg) = setup();
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).unwrap();
        let mech = ResamplingMechanism::new(sampler, range, spec).unwrap();
        let mut rng = Taus88::from_seed(10);
        let n = 50_000;
        let x = 5.0;
        let mean: f64 = (0..n)
            .map(|_| mech.privatize(x, &mut rng).unwrap().value)
            .sum::<f64>()
            / n as f64;
        // Resampling window is symmetric around the range, not around x,
        // so a small bias exists; it must be well under one λ.
        assert!((mean - x).abs() < 3.0, "mean {mean} too far from {x}");
    }

    #[test]
    fn fast_path_single_privatize_stays_on_reference() {
        // Single draws must remain cycle-faithful even when the mechanism is
        // configured for fast batches: same outputs, same word consumption.
        let (sampler, range, pmf, cfg) = setup();
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).unwrap();
        let reference = ResamplingMechanism::new(sampler.clone(), range, spec).unwrap();
        let fast = reference.clone().with_sampler_path(SamplerPath::Fast);
        let mut a = Taus88::from_seed(41);
        let mut b = a.clone();
        for x in [0.0, 3.0, 9.9] {
            assert_eq!(
                reference.privatize(x, &mut a).unwrap(),
                fast.privatize(x, &mut b).unwrap()
            );
        }
        assert_eq!(a.next_u32(), b.next_u32());
    }

    /// The batch's mean output in physical units.
    fn mean_value(range: QuantizedRange, ys_k: &[i64]) -> f64 {
        ys_k.iter().map(|&y| range.to_value(y)).sum::<f64>() / ys_k.len() as f64
    }

    #[test]
    fn fast_batches_respect_windows_and_track_the_mean() {
        let (sampler, range, pmf, cfg) = setup();
        let mut rng = Taus88::from_seed(42);
        let xs_k: Vec<i64> = (0..4_000).map(|i| i % 33).collect();
        let mean_in = mean_value(range, &xs_k);
        let mut out = vec![0i64; xs_k.len()];

        for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
            let spec = exact_threshold(cfg, &pmf, range, 2.0, mode).unwrap();
            let (lo, hi) = window(range, spec.n_th_k);
            let mech: Box<dyn Mechanism> = match mode {
                LimitMode::Resampling => Box::new(
                    ResamplingMechanism::new(sampler.clone(), range, spec)
                        .unwrap()
                        .with_sampler_path(SamplerPath::Fast),
                ),
                LimitMode::Thresholding => Box::new(
                    ThresholdingMechanism::new(sampler.clone(), range, spec)
                        .unwrap()
                        .with_sampler_path(SamplerPath::Fast),
                ),
            };
            mech.privatize_index_batch(&xs_k, &mut rng, &mut out)
                .unwrap();
            assert!(out.iter().all(|&y| y >= lo && y <= hi));
            let mean_out = mean_value(range, &out);
            assert!(
                (mean_out - mean_in).abs() < 2.0,
                "{mode:?}: mean {mean_out} vs {mean_in}"
            );
        }

        let baseline = FxpBaseline::new(sampler.clone(), range)
            .unwrap()
            .with_sampler_path(SamplerPath::Fast);
        baseline
            .privatize_index_batch(&xs_k, &mut rng, &mut out)
            .unwrap();
        let mean_out = mean_value(range, &out);
        assert!((mean_out - mean_in).abs() < 2.0, "baseline mean {mean_out}");

        let ideal = IdealLaplaceMechanism::new(range, 0.5)
            .unwrap()
            .with_sampler_path(SamplerPath::Fast);
        ideal
            .privatize_index_batch(&xs_k, &mut rng, &mut out)
            .unwrap();
        let mean_out = mean_value(range, &out);
        assert!((mean_out - mean_in).abs() < 3.0, "ideal mean {mean_out}");
    }

    #[test]
    fn ideal_scales_too_wide_to_tabulate_take_the_reference_arm() {
        // ε = 0.01 puts λ at 3,200 grid steps, past the grid table's 1,024.
        let (_, range, _, _) = setup();
        let reference = IdealLaplaceMechanism::new(range, 0.01).unwrap();
        let fast = reference.clone().with_sampler_path(SamplerPath::Fast);
        let xs_k: Vec<i64> = (0..64).map(|i| i % 33).collect();
        let (mut a, mut b) = (Taus88::from_seed(48), Taus88::from_seed(48));
        let (mut ref_out, mut fast_out) = (vec![0i64; 64], vec![0i64; 64]);
        reference
            .privatize_index_batch(&xs_k, &mut a, &mut ref_out)
            .unwrap();
        fast.privatize_index_batch(&xs_k, &mut b, &mut fast_out)
            .unwrap();
        assert_eq!(ref_out, fast_out);
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn secure_batches_are_certified_windowed_and_resample_free() {
        let (sampler, range, pmf, cfg) = setup();
        let xs_k: Vec<i64> = (0..4_000).map(|i| i % 33).collect();
        let mean_in = mean_value(range, &xs_k);
        let mut out = vec![0i64; xs_k.len()];
        let mut rng = Taus88::from_seed(44);
        for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
            let spec = exact_threshold(cfg, &pmf, range, 2.0, mode).unwrap();
            let (lo, hi) = window(range, spec.n_th_k);
            let mech: Box<dyn Mechanism> = match mode {
                LimitMode::Resampling => Box::new(
                    ResamplingMechanism::new(sampler.clone(), range, spec)
                        .unwrap()
                        .with_sampler_path(SamplerPath::Secure),
                ),
                LimitMode::Thresholding => Box::new(
                    ThresholdingMechanism::new(sampler.clone(), range, spec)
                        .unwrap()
                        .with_sampler_path(SamplerPath::Secure),
                ),
            };
            let resamples = mech
                .privatize_index_batch(&xs_k, &mut rng, &mut out)
                .unwrap();
            assert_eq!(resamples, 0, "{mode:?}: certified draws never resample");
            assert!(out.iter().all(|&y| y >= lo && y <= hi));
            let mean_out = mean_value(range, &out);
            assert!(
                (mean_out - mean_in).abs() < 2.0,
                "{mode:?}: mean {mean_out} vs {mean_in}"
            );
        }
    }

    #[test]
    fn secure_path_rejects_a_lying_threshold() {
        // A threshold far beyond what the loss target allows: the claimed
        // bound is a lie and the exact check must catch it before a single
        // draw is emitted.
        let (sampler, range, pmf, cfg) = setup();
        let honest = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).unwrap();
        let lying = ThresholdSpec {
            n_th_k: honest.n_th_k + 200,
            guaranteed_loss: honest.guaranteed_loss,
        };
        let mech = ThresholdingMechanism::new(sampler, range, lying)
            .unwrap()
            .with_sampler_path(SamplerPath::Secure);
        let mut rng = Taus88::from_seed(45);
        let mut out = vec![0i64; 4];
        let err = mech
            .privatize_index_batch(&[0, 1, 2, 3], &mut rng, &mut out)
            .unwrap_err();
        assert!(
            matches!(err, LdpError::CertificationFailed { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn secure_path_refuses_uncertifiable_mechanisms() {
        let (sampler, range, _, _) = setup();
        let mut rng = Taus88::from_seed(46);
        let xs_k = [0, 4];
        let mut out = [0i64; 2];

        let baseline = FxpBaseline::new(sampler, range)
            .unwrap()
            .with_sampler_path(SamplerPath::Secure);
        assert!(matches!(
            baseline.privatize_index_batch(&xs_k, &mut rng, &mut out),
            Err(LdpError::Uncertifiable(_))
        ));

        let ideal = IdealLaplaceMechanism::new(range, 0.5)
            .unwrap()
            .with_sampler_path(SamplerPath::Secure);
        assert!(matches!(
            ideal.privatize_index_batch(&xs_k, &mut rng, &mut out),
            Err(LdpError::Uncertifiable(_))
        ));
    }

    #[test]
    fn secure_resampling_matches_the_exact_conditional_distribution() {
        // The certified window draw must realize the same conditional law
        // the loss machinery certifies: compare empirical frequencies on the
        // paper grid against `ConditionalDist` probabilities.
        use crate::loss::conditional;
        let (sampler, range, pmf, cfg) = setup();
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).unwrap();
        let mech = ResamplingMechanism::new(sampler, range, spec)
            .unwrap()
            .with_sampler_path(SamplerPath::Secure);
        let x_k = range.min_k();
        let dist = conditional(&pmf, range, LimitMode::Resampling, Some(spec.n_th_k), x_k);
        let n = 200_000usize;
        let xs_k = vec![x_k; n];
        let mut out = vec![0i64; n];
        let mut rng = Taus88::from_seed(47);
        mech.privatize_index_batch(&xs_k, &mut rng, &mut out)
            .unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for &y in &out {
            *counts.entry(y).or_insert(0u64) += 1;
        }
        for (&y, &c) in &counts {
            let p = dist.prob(y);
            assert!(p > 0.0, "draw {y} outside the certified support");
            let emp = c as f64 / n as f64;
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                (emp - p).abs() < 6.0 * sigma + 1e-4,
                "y={y}: empirical {emp} vs exact {p}"
            );
        }
    }
}
