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
//! Every mechanism carries a [`SamplerPath`]. On the default
//! [`SamplerPath::Reference`] path, single draws go through the cycle-faithful
//! sampler datapath (URNG word → `ln` → round → sign, redraw loops executed
//! draw by draw) — this is the path whose per-request `resamples`/latency
//! model hardware. On [`SamplerPath::Fast`], *batched* privatization
//! ([`Mechanism::privatize_batch`]) draws from a cached
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
//! that cannot be certified (no claimed bound, a continuous `f64` sampler, or
//! a CORDIC sampler with no exact PMF) refuse loudly with
//! [`LdpError::Uncertifiable`]; a claimed bound the exact check contradicts
//! surfaces as [`LdpError::CertificationFailed`]. The secure path never
//! silently falls back.

use std::sync::Arc;

use ulp_obs::{parse_env, Counter, EnvError, Histogram};
use ulp_rng::{
    cached_alias_full, cached_alias_laplace_grid, cached_alias_window, cached_pmf, AliasTable,
    FxpLaplace, FxpLaplaceConfig, IdealLaplace, RandomBits, ZigguratExp,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerPath {
    /// Alias-table draws for batched privatization (simulation fast path).
    Fast,
    /// The cycle-faithful sampler datapath everywhere (hardware model).
    #[default]
    Reference,
    /// Certified sampling: batched privatization machine-checks the realized
    /// worst-case loss against the claimed bound before drawing from exact
    /// conditional tables, and refuses uncertifiable mechanisms (see the
    /// module docs).
    Secure,
}

/// Environment variable selecting the batched sampler path.
const SAMPLER_PATH_ENV: &str = "ULP_SAMPLER_PATH";

impl SamplerPath {
    /// Parses a raw value: `fast`, `reference`, or `secure`
    /// (case-insensitive). `None` (unset) selects [`SamplerPath::Fast`] —
    /// the documented default for simulation throughput.
    ///
    /// # Errors
    ///
    /// [`EnvError`] for anything else: a misspelling like `refrence` used
    /// to silently select the fast path, which is exactly the invisible
    /// misconfiguration strict parsing exists to prevent.
    pub fn parse(raw: Option<&str>) -> Result<Self, EnvError> {
        let Some(raw) = raw else {
            return Ok(SamplerPath::Fast);
        };
        match raw.trim().to_ascii_lowercase().as_str() {
            "fast" => Ok(SamplerPath::Fast),
            "reference" => Ok(SamplerPath::Reference),
            "secure" => Ok(SamplerPath::Secure),
            _ => Err(EnvError {
                var: SAMPLER_PATH_ENV,
                value: raw.to_string(),
                expected: "fast | reference | secure",
            }),
        }
    }

    /// Reads the path from the `ULP_SAMPLER_PATH` environment variable
    /// (unset selects [`SamplerPath::Fast`]). The evaluation harness uses
    /// this so whole artifact runs can be regenerated on either path
    /// without code changes.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEnv`] on a set-but-unrecognized value — never a
    /// silent fallback.
    pub fn from_env() -> Result<Self, LdpError> {
        match parse_env(SAMPLER_PATH_ENV, "fast | reference | secure", |s| {
            SamplerPath::parse(Some(s)).ok()
        })? {
            Some(p) => Ok(p),
            None => Ok(SamplerPath::Fast),
        }
    }
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

    /// Privatizes a slice of readings into `out`, returning the total
    /// resample count across the batch.
    ///
    /// The default implementation loops [`Mechanism::privatize`] and is
    /// byte-identical to it for the same RNG stream. Mechanisms configured
    /// with [`SamplerPath::Fast`] override this with table-driven sampling:
    /// the output *distribution* is identical but the word stream differs,
    /// so digests of fast-path artifacts differ from reference ones.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` have different lengths.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mechanism::privatize`].
    fn privatize_batch(
        &self,
        xs: &[f64],
        rng: &mut dyn RandomBits,
        out: &mut [f64],
    ) -> Result<u64, LdpError> {
        batch_via_single(self, xs, rng, out)
    }

    /// Grid-native batched privatization — the index-space fast path.
    ///
    /// `xs_k` are pre-quantized grid indices ([`QuantizedRange::quantize`]
    /// of the raw readings). Callers that privatize the *same* readings
    /// repeatedly (the evaluation trial loops) quantize once and call this
    /// per trial, so the per-entry `f64` divide/round of `quantize` is paid
    /// once instead of per trial. `out` receives output grid indices
    /// ([`QuantizedRange::to_value`] recovers values); a continuous
    /// mechanism rounds to the nearest grid index.
    ///
    /// Returns `Ok(None)` when no grid fast path applies — the reference
    /// path is selected, or the sampler is non-analytic (CORDIC) — and the
    /// caller must fall back to [`Mechanism::privatize_batch`].
    /// `Ok(Some(n))` reports the batch's total resample count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mechanism::privatize`].
    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<Option<u64>, LdpError> {
        let _ = (xs_k, rng, out);
        Ok(None)
    }

    /// The privacy guarantee this mechanism provides.
    fn guarantee(&self) -> Guarantee;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The default batched privatization: one reference-path `privatize` per
/// element, in order — byte-identical to a caller-side loop.
pub(crate) fn batch_via_single<M: Mechanism + ?Sized>(
    mech: &M,
    xs: &[f64],
    rng: &mut dyn RandomBits,
    out: &mut [f64],
) -> Result<u64, LdpError> {
    assert_eq!(xs.len(), out.len(), "privatize_batch: length mismatch");
    let mut resamples = 0u64;
    for (x, slot) in xs.iter().zip(out.iter_mut()) {
        let r = mech.privatize(*x, rng)?;
        *slot = r.value;
        resamples += u64::from(r.resamples);
    }
    Ok(resamples)
}

/// Bulk-buffer size cap for fast-path noise generation: bounds scratch
/// memory for huge batches while keeping per-chunk fill overhead
/// negligible (one `fill_batch` amortizes over 32k draws).
const NOISE_BULK: usize = 1 << 15;

/// Runs `apply(x, noise)` over the batch with noise drawn in bulk: one
/// [`AliasTable::fill_batch`] per `NOISE_BULK` chunk, then a fused scalar
/// loop — no per-draw virtual calls or buffer bookkeeping on the hot path.
/// `apply` must consume exactly one draw per element (mechanisms whose
/// consumption is data-dependent handle their own refills).
#[inline]
fn bulk_noise_apply(
    table: &AliasTable,
    xs: &[f64],
    rng: &mut dyn RandomBits,
    out: &mut [f64],
    mut apply: impl FnMut(f64, i64) -> f64,
) {
    let mut noise = vec![0i64; xs.len().min(NOISE_BULK)];
    let mut start = 0usize;
    while start < xs.len() {
        let n = (xs.len() - start).min(noise.len());
        table.fill_batch(rng, &mut noise[..n]);
        for ((slot, &x), &nz) in out[start..start + n]
            .iter_mut()
            .zip(&xs[start..start + n])
            .zip(&noise[..n])
        {
            *slot = apply(x, nz);
        }
        start += n;
    }
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
/// let range = QuantizedRange::from_values(94.0, 200.0, 0.5)?;
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

    fn privatize_batch(
        &self,
        xs: &[f64],
        rng: &mut dyn RandomBits,
        out: &mut [f64],
    ) -> Result<u64, LdpError> {
        if self.path == SamplerPath::Secure {
            return Err(ideal_uncertifiable());
        }
        if self.path == SamplerPath::Reference {
            return batch_via_single(self, xs, rng, out);
        }
        assert_eq!(xs.len(), out.len(), "privatize_batch: length mismatch");
        // Ziggurat Laplace: O(1) expected per draw (no unconditional `ln`),
        // same continuous Lap(λ) distribution as the reference inversion
        // sampler (moment + chi-square pinned in `ulp_rng::ziggurat`).
        let lambda = self.lap.lambda();
        let zig = ZigguratExp::new();
        for (x, slot) in xs.iter().zip(out.iter_mut()) {
            *slot = self.range.to_value(self.range.quantize(*x)) + zig.sample_laplace(rng, lambda);
        }
        Ok(0)
    }

    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<Option<u64>, LdpError> {
        if self.path == SamplerPath::Secure {
            return Err(ideal_uncertifiable());
        }
        if self.path == SamplerPath::Reference {
            return Ok(None);
        }
        assert_eq!(
            xs_k.len(),
            out.len(),
            "privatize_index_batch: length mismatch"
        );
        // Grid-unit noise: Lap(λ) in value space is Lap(λ/Δ) on the grid,
        // and the continuous output rounds to its nearest grid index. The
        // offset law `round(x_k + L) − x_k` is the rounded-Laplace PMF
        // `F(j+1/2) − F(j−1/2)` — independent of `x_k` (ties are measure
        // zero) — so a cached alias table samples it in O(1) per draw.
        let lambda_k = self.lap.lambda() / self.range.delta();
        if let Ok(table) = cached_alias_laplace_grid(lambda_k) {
            table.fill_batch(rng, out);
            for (slot, &x_k) in out.iter_mut().zip(xs_k) {
                *slot += x_k;
            }
            return Ok(Some(0));
        }
        // Scales too wide to tabulate stream through the bulk ziggurat
        // fill (one virtual word-fill per chunk) instead.
        let zig = ZigguratExp::new();
        let mut lap = vec![0.0f64; xs_k.len().min(NOISE_BULK)];
        let mut start = 0usize;
        while start < xs_k.len() {
            let n = (xs_k.len() - start).min(lap.len());
            zig.fill_laplace(rng, lambda_k, &mut lap[..n]);
            for ((slot, &x_k), &nz) in out[start..start + n]
                .iter_mut()
                .zip(&xs_k[start..start + n])
                .zip(&lap[..n])
            {
                // Round half away from zero without the `round()` libm
                // call (identical for every in-range magnitude).
                let v = x_k as f64 + nz;
                *slot = (v + if v >= 0.0 { 0.5 } else { -0.5 }) as i64;
            }
            start += n;
        }
        Ok(Some(0))
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::EpsLdp(self.eps)
    }

    fn name(&self) -> &'static str {
        "ideal-laplace"
    }
}

/// The ideal mechanism's secure-path refusal: continuous `f64` Laplace
/// cannot be realized exactly in finite precision (the Mironov attack is
/// precisely the gap between the real-valued ideal and its `f64` image), so
/// there is no exact output distribution to certify.
fn ideal_uncertifiable() -> LdpError {
    LdpError::Uncertifiable(
        "continuous f64 Laplace cannot be realized exactly in finite precision; \
         use a certified fixed-point mechanism",
    )
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
/// [`LdpError::Uncertifiable`] for a CORDIC sampler (its distribution is
/// not the analytic PMF, so there is nothing exact to check against);
/// [`LdpError::CertificationFailed`] when the exact check contradicts the
/// claimed bound — e.g. a threshold from the paper's closed-form Eq. 15,
/// which can overshoot into the RNG's zero-probability gap region.
fn certify_window(
    sampler: &FxpLaplace,
    range: QuantizedRange,
    mode: LimitMode,
    spec: ThresholdSpec,
) -> Result<(), LdpError> {
    if !sampler.is_analytic() {
        return Err(LdpError::Uncertifiable(
            "CORDIC sampler has no exact analytic PMF to certify against",
        ));
    }
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

/// Resolves the full-support alias table for a fast-path mechanism, or
/// `None` when the fast path does not apply (reference path selected, or a
/// CORDIC sampler whose distribution the analytic PMF does not describe).
fn fast_table(
    path: SamplerPath,
    sampler: &FxpLaplace,
) -> Result<Option<Arc<AliasTable>>, LdpError> {
    if path == SamplerPath::Fast && sampler.is_analytic() {
        Ok(Some(cached_alias_full(sampler.config())?))
    } else {
        Ok(None)
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

    /// Selects the batched sampler path (see [`SamplerPath`]). The fast
    /// path only engages for analytic samplers; CORDIC samplers always run
    /// the reference datapath.
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

    fn privatize_batch(
        &self,
        xs: &[f64],
        rng: &mut dyn RandomBits,
        out: &mut [f64],
    ) -> Result<u64, LdpError> {
        if self.path == SamplerPath::Secure {
            return Err(baseline_uncertifiable());
        }
        let Some(table) = fast_table(self.path, &self.sampler)? else {
            return batch_via_single(self, xs, rng, out);
        };
        assert_eq!(xs.len(), out.len(), "privatize_batch: length mismatch");
        let range = self.range;
        bulk_noise_apply(&table, xs, rng, out, |x, noise| {
            range.to_value(range.quantize(x) + noise)
        });
        Ok(0)
    }

    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<Option<u64>, LdpError> {
        if self.path == SamplerPath::Secure {
            return Err(baseline_uncertifiable());
        }
        let Some(table) = fast_table(self.path, &self.sampler)? else {
            return Ok(None);
        };
        assert_eq!(
            xs_k.len(),
            out.len(),
            "privatize_index_batch: length mismatch"
        );
        // `out` doubles as the noise buffer: one bulk fill, one fused add.
        table.fill_batch(rng, out);
        for (slot, &x_k) in out.iter_mut().zip(xs_k) {
            *slot += x_k;
        }
        Ok(Some(0))
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::Broken
    }

    fn name(&self) -> &'static str {
        "fxp-baseline"
    }
}

/// Adapts a secure index-batch path to `f64` values: quantize, draw on the
/// grid, map back. Certification (and the length check) happens inside the
/// index path.
fn secure_value_batch(
    xs: &[f64],
    out: &mut [f64],
    range: QuantizedRange,
    draw: impl FnOnce(&[i64], &mut [i64]) -> Result<u64, LdpError>,
) -> Result<u64, LdpError> {
    assert_eq!(xs.len(), out.len(), "privatize_batch: length mismatch");
    let xs_k: Vec<i64> = xs.iter().map(|&x| range.quantize(x)).collect();
    let mut idx = vec![0i64; xs.len()];
    let resamples = draw(&xs_k, &mut idx)?;
    for (slot, &k) in out.iter_mut().zip(&idx) {
        *slot = range.to_value(k);
    }
    Ok(resamples)
}

/// The baseline's secure-path refusal: its guarantee is [`Guarantee::Broken`]
/// by construction, so there is no claimed bound to certify against.
fn baseline_uncertifiable() -> LdpError {
    LdpError::Uncertifiable(
        "fxp-baseline claims no loss bound (guarantee is Broken); there is nothing to certify",
    )
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

    /// Selects the batched sampler path (see [`SamplerPath`]). The fast
    /// path only engages for analytic samplers; CORDIC samplers always run
    /// the reference datapath.
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

    /// The secure batch path: certify the claimed bound against the exact
    /// PMF, then draw every output from its input's certified conditional
    /// window table — rejection-free, exactly one table draw per output, so
    /// word consumption is input-independent (no resampling-count side
    /// channel) and `resamples` is 0 by construction.
    fn secure_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<u64, LdpError> {
        assert_eq!(
            xs_k.len(),
            out.len(),
            "privatize_index_batch: length mismatch"
        );
        certify_window(&self.sampler, self.range, LimitMode::Resampling, self.spec)?;
        let lo = self.range.min_k() - self.spec.n_th_k;
        let hi = self.range.max_k() + self.spec.n_th_k;
        let cfg = self.sampler.config();
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
        let lo = self.range.min_k() - self.spec.n_th_k;
        let hi = self.range.max_k() + self.spec.n_th_k;
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

    fn privatize_batch(
        &self,
        xs: &[f64],
        rng: &mut dyn RandomBits,
        out: &mut [f64],
    ) -> Result<u64, LdpError> {
        if self.path == SamplerPath::Secure {
            return secure_value_batch(xs, out, self.range, |xs_k, idx| {
                self.secure_index_batch(xs_k, rng, idx)
            });
        }
        let Some(table) = fast_table(self.path, &self.sampler)? else {
            return batch_via_single(self, xs, rng, out);
        };
        assert_eq!(xs.len(), out.len(), "privatize_batch: length mismatch");
        let lo = self.range.min_k() - self.spec.n_th_k;
        let hi = self.range.max_k() + self.spec.n_th_k;
        let cfg = self.sampler.config();
        let range = self.range;
        let mut resamples = 0u64;
        let mut noise = vec![0i64; xs.len().min(NOISE_BULK)];
        let mut start = 0usize;
        while start < xs.len() {
            let n = (xs.len() - start).min(noise.len());
            table.fill_batch(rng, &mut noise[..n]);
            for ((slot, &x), &nz) in out[start..start + n]
                .iter_mut()
                .zip(&xs[start..start + n])
                .zip(&noise[..n])
            {
                let x_k = range.quantize(x);
                let mut y = x_k + nz;
                if y < lo || y > hi {
                    y = resample_miss(&table, cfg, x_k, lo, hi, rng, &mut resamples)?;
                }
                *slot = range.to_value(y);
            }
            start += n;
        }
        Ok(resamples)
    }

    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<Option<u64>, LdpError> {
        if self.path == SamplerPath::Secure {
            return self.secure_index_batch(xs_k, rng, out).map(Some);
        }
        let Some(table) = fast_table(self.path, &self.sampler)? else {
            return Ok(None);
        };
        assert_eq!(
            xs_k.len(),
            out.len(),
            "privatize_index_batch: length mismatch"
        );
        let lo = self.range.min_k() - self.spec.n_th_k;
        let hi = self.range.max_k() + self.spec.n_th_k;
        let cfg = self.sampler.config();
        let mut resamples = 0u64;
        // `out` doubles as the noise buffer; misses resolve individually.
        table.fill_batch(rng, out);
        for (slot, &x_k) in out.iter_mut().zip(xs_k) {
            let y = x_k + *slot;
            *slot = if y < lo || y > hi {
                resample_miss(&table, cfg, x_k, lo, hi, rng, &mut resamples)?
            } else {
                y
            };
        }
        Ok(Some(resamples))
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

    /// Selects the batched sampler path (see [`SamplerPath`]). The fast
    /// path only engages for analytic samplers; CORDIC samplers always run
    /// the reference datapath.
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
        let lo = self.range.min_k() - self.spec.n_th_k;
        let hi = self.range.max_k() + self.spec.n_th_k;
        let y = x_k + self.sampler.sample_index(rng);
        let clamped = y.clamp(lo, hi);
        if clamped != y {
            THRESHOLD_CLAMPS.inc();
        }
        clamped
    }

    /// The secure batch path: certify the claimed bound, then draw from the
    /// full-support table and clamp. Clamping a full-support draw *is* the
    /// thresholded law (boundary atoms included) — and that is exactly the
    /// distribution the certification checked — with one draw per output,
    /// so word consumption is input-independent.
    fn secure_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<u64, LdpError> {
        assert_eq!(
            xs_k.len(),
            out.len(),
            "privatize_index_batch: length mismatch"
        );
        certify_window(
            &self.sampler,
            self.range,
            LimitMode::Thresholding,
            self.spec,
        )?;
        let table = cached_alias_full(self.sampler.config())?;
        let lo = self.range.min_k() - self.spec.n_th_k;
        let hi = self.range.max_k() + self.spec.n_th_k;
        table.fill_batch(rng, out);
        for (slot, &x_k) in out.iter_mut().zip(xs_k) {
            let y = x_k + *slot;
            let clamped = y.clamp(lo, hi);
            if clamped != y {
                THRESHOLD_CLAMPS.inc();
            }
            *slot = clamped;
        }
        Ok(0)
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

    fn privatize_batch(
        &self,
        xs: &[f64],
        rng: &mut dyn RandomBits,
        out: &mut [f64],
    ) -> Result<u64, LdpError> {
        if self.path == SamplerPath::Secure {
            return secure_value_batch(xs, out, self.range, |xs_k, idx| {
                self.secure_index_batch(xs_k, rng, idx)
            });
        }
        let Some(table) = fast_table(self.path, &self.sampler)? else {
            return batch_via_single(self, xs, rng, out);
        };
        assert_eq!(xs.len(), out.len(), "privatize_batch: length mismatch");
        let lo = self.range.min_k() - self.spec.n_th_k;
        let hi = self.range.max_k() + self.spec.n_th_k;
        // Clamping a full-support draw *is* the thresholded distribution
        // (boundary atoms included) — zero rejections by construction.
        let range = self.range;
        bulk_noise_apply(&table, xs, rng, out, |x, noise| {
            let y = range.quantize(x) + noise;
            let clamped = y.clamp(lo, hi);
            if clamped != y {
                THRESHOLD_CLAMPS.inc();
            }
            range.to_value(clamped)
        });
        Ok(0)
    }

    fn privatize_index_batch(
        &self,
        xs_k: &[i64],
        rng: &mut dyn RandomBits,
        out: &mut [i64],
    ) -> Result<Option<u64>, LdpError> {
        if self.path == SamplerPath::Secure {
            return self.secure_index_batch(xs_k, rng, out).map(Some);
        }
        let Some(table) = fast_table(self.path, &self.sampler)? else {
            return Ok(None);
        };
        assert_eq!(
            xs_k.len(),
            out.len(),
            "privatize_index_batch: length mismatch"
        );
        let lo = self.range.min_k() - self.spec.n_th_k;
        let hi = self.range.max_k() + self.spec.n_th_k;
        // `out` doubles as the noise buffer; clamping realizes the
        // thresholded law exactly (boundary atoms included).
        table.fill_batch(rng, out);
        for (slot, &x_k) in out.iter_mut().zip(xs_k) {
            let y = x_k + *slot;
            let clamped = y.clamp(lo, hi);
            if clamped != y {
                THRESHOLD_CLAMPS.inc();
            }
            *slot = clamped;
        }
        Ok(Some(0))
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
    fn default_batch_is_byte_identical_to_single_loop() {
        let (sampler, range, pmf, cfg) = setup();
        let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).unwrap();
        let mech = ResamplingMechanism::new(sampler, range, spec).unwrap();
        let xs: Vec<f64> = (0..200).map(|i| (i % 33) as f64 * range.delta()).collect();
        let mut a = Taus88::from_seed(40);
        let mut b = a.clone();
        let mut batched = vec![0.0; xs.len()];
        let batch_resamples = mech.privatize_batch(&xs, &mut a, &mut batched).unwrap();
        let mut singles = Vec::with_capacity(xs.len());
        let mut single_resamples = 0u64;
        for &x in &xs {
            let r = mech.privatize(x, &mut b).unwrap();
            singles.push(r.value);
            single_resamples += u64::from(r.resamples);
        }
        assert_eq!(batched, singles);
        assert_eq!(batch_resamples, single_resamples);
        assert_eq!(a.next_u32(), b.next_u32());
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

    #[test]
    fn fast_batches_respect_windows_and_track_the_mean() {
        let (sampler, range, pmf, cfg) = setup();
        let mut rng = Taus88::from_seed(42);
        let xs: Vec<f64> = (0..4_000)
            .map(|i| (i % 33) as f64 * range.delta())
            .collect();
        let mut out = vec![0.0; xs.len()];

        for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
            let spec = exact_threshold(cfg, &pmf, range, 2.0, mode).unwrap();
            let (lo, hi) = (
                range.to_value(range.min_k() - spec.n_th_k),
                range.to_value(range.max_k() + spec.n_th_k),
            );
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
            mech.privatize_batch(&xs, &mut rng, &mut out).unwrap();
            assert!(out.iter().all(|&y| y >= lo - 1e-9 && y <= hi + 1e-9));
            let mean_in = xs.iter().sum::<f64>() / xs.len() as f64;
            let mean_out = out.iter().sum::<f64>() / out.len() as f64;
            assert!(
                (mean_out - mean_in).abs() < 2.0,
                "{mode:?}: mean {mean_out} vs {mean_in}"
            );
        }

        let baseline = FxpBaseline::new(sampler.clone(), range)
            .unwrap()
            .with_sampler_path(SamplerPath::Fast);
        baseline.privatize_batch(&xs, &mut rng, &mut out).unwrap();
        let mean_out = out.iter().sum::<f64>() / out.len() as f64;
        let mean_in = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean_out - mean_in).abs() < 2.0, "baseline mean {mean_out}");

        let ideal = IdealLaplaceMechanism::new(range, 0.5)
            .unwrap()
            .with_sampler_path(SamplerPath::Fast);
        ideal.privatize_batch(&xs, &mut rng, &mut out).unwrap();
        let mean_out = out.iter().sum::<f64>() / out.len() as f64;
        assert!((mean_out - mean_in).abs() < 3.0, "ideal mean {mean_out}");
    }

    #[test]
    fn cordic_sampler_ignores_fast_flag() {
        // A CORDIC sampler's distribution is not the analytic PMF, so the
        // fast flag must not reroute it: batches stay byte-identical to the
        // single-draw loop.
        let cfg = FxpLaplaceConfig::new(12, 12, 0.25, 5.0).unwrap();
        let sampler = FxpLaplace::cordic(cfg, ulp_rng::CordicLn::new(24));
        let range = QuantizedRange::new(0, 16, 0.25).unwrap();
        let mech = FxpBaseline::new(sampler, range)
            .unwrap()
            .with_sampler_path(SamplerPath::Fast);
        let xs = [0.0, 1.0, 2.0, 3.0];
        let mut a = Taus88::from_seed(43);
        let mut b = a.clone();
        let mut batched = [0.0; 4];
        mech.privatize_batch(&xs, &mut a, &mut batched).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(batched[i], mech.privatize(x, &mut b).unwrap().value);
        }
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn sampler_path_env_parsing() {
        // Don't mutate the environment (tests run in parallel): exercise
        // the default and the documented contract only.
        assert_eq!(SamplerPath::default(), SamplerPath::Reference);
        assert_eq!(
            SamplerPath::parse(Some("secure")).unwrap(),
            SamplerPath::Secure
        );
        assert_eq!(
            SamplerPath::parse(Some(" SECURE ")).unwrap(),
            SamplerPath::Secure
        );
        let err = SamplerPath::parse(Some("secure-ish")).unwrap_err();
        assert_eq!(err.expected, "fast | reference | secure");
    }

    #[test]
    fn secure_batches_are_certified_windowed_and_resample_free() {
        let (sampler, range, pmf, cfg) = setup();
        let xs: Vec<f64> = (0..4_000)
            .map(|i| (i % 33) as f64 * range.delta())
            .collect();
        let mut out = vec![0.0; xs.len()];
        let mut rng = Taus88::from_seed(44);
        for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
            let spec = exact_threshold(cfg, &pmf, range, 2.0, mode).unwrap();
            let (lo, hi) = (
                range.to_value(range.min_k() - spec.n_th_k),
                range.to_value(range.max_k() + spec.n_th_k),
            );
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
            let resamples = mech.privatize_batch(&xs, &mut rng, &mut out).unwrap();
            assert_eq!(resamples, 0, "{mode:?}: certified draws never resample");
            assert!(out.iter().all(|&y| y >= lo - 1e-9 && y <= hi + 1e-9));
            let mean_in = xs.iter().sum::<f64>() / xs.len() as f64;
            let mean_out = out.iter().sum::<f64>() / out.len() as f64;
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
        let xs = [0.0, 1.0];
        let mut out = [0.0; 2];

        let baseline = FxpBaseline::new(sampler, range)
            .unwrap()
            .with_sampler_path(SamplerPath::Secure);
        assert!(matches!(
            baseline.privatize_batch(&xs, &mut rng, &mut out),
            Err(LdpError::Uncertifiable(_))
        ));

        let ideal = IdealLaplaceMechanism::new(range, 0.5)
            .unwrap()
            .with_sampler_path(SamplerPath::Secure);
        assert!(matches!(
            ideal.privatize_batch(&xs, &mut rng, &mut out),
            Err(LdpError::Uncertifiable(_))
        ));

        // CORDIC sampler: no exact PMF to certify against.
        let cfg = FxpLaplaceConfig::new(12, 12, 0.25, 5.0).unwrap();
        let cordic = FxpLaplace::cordic(cfg, ulp_rng::CordicLn::new(24));
        let c_range = QuantizedRange::new(0, 16, 0.25).unwrap();
        let spec = ThresholdSpec {
            n_th_k: 10,
            guaranteed_loss: 2.0,
        };
        let mech = ThresholdingMechanism::new(cordic, c_range, spec)
            .unwrap()
            .with_sampler_path(SamplerPath::Secure);
        assert!(matches!(
            mech.privatize_batch(&xs, &mut rng, &mut out),
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
            .unwrap()
            .expect("secure path is a grid fast path");
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
