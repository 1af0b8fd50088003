//! Debiased population estimators with analytic standard errors.
//!
//! The collector accumulates raw moments of *noised, window-clamped*
//! reports. These estimators invert the DP-Box datapath back to population
//! statistics, using the sampler's **exact** output PMF
//! ([`ulp_rng::FxpNoisePmf`]) rather than the ideal-Laplace approximation:
//!
//! * **mean** — the fixed-point noise is symmetric, so the report mean is
//!   unbiased up to window clamping; the clamp bias is bounded exactly from
//!   the PMF's tail exceedances and reported as an envelope.
//! * **variance** — the report variance is inflated by the noise variance;
//!   the estimator subtracts the *clamped*-noise variance (at λ = 512 codes
//!   the thresholding window removes a non-trivial share of the unclamped
//!   2λ², so subtracting the textbook value would over-correct).
//! * **median** — read exactly off the [`GridSketch`](crate::GridSketch);
//!   this targets the median of the *report* distribution (symmetric noise
//!   preserves the center of symmetric populations but is not debiased in
//!   general, so no bias envelope is claimed).
//! * **RR frequency / count** — the standard randomized-response inversion
//!   with its exact plug-in standard error.
//!
//! Every estimator returns an [`Estimate`] carrying the analytic standard
//! error and, where one is proven, a deterministic bias envelope, so
//! downstream gates can assert `|estimate − truth| ≤ z·SE + bias_bound`.

use dp_box::{DpBoxError, NoisingCtx, QFormat};
use ldp_core::{LdpError, LimitMode, RandomizedResponse};
use ulp_rng::{cached_pmf, FxpLaplaceConfig, FxpNoisePmf, RngError};

use crate::collector::QueryTotals;

/// A point estimate with its analytic uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimated statistic, in datapath grid units (codes) unless the
    /// estimator documents otherwise (RR frequency is a proportion).
    pub value: f64,
    /// Analytic standard error of `value`.
    pub stderr: f64,
    /// Number of reports the estimate is built from.
    pub n: u64,
    /// Deterministic bound on the estimator's systematic bias (`0` when
    /// the estimator is exactly unbiased; clamp/quantization envelopes
    /// otherwise). `|value − truth|` is expected within
    /// `z·stderr + bias_bound`.
    pub bias_bound: f64,
}

/// The collector-side model of one device's noising datapath: the
/// device's own [`NoisingCtx`] (built by the constructor the devices use,
/// so the window and segment table are theirs by construction), its exact
/// noise PMF, and precomputed tail sums.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    ctx: NoisingCtx,
    pmf: FxpNoisePmf,
    /// PMF of a zero-threshold DP-Box over a one-step binary grid at the
    /// same ε — the mechanism behind the RR threshold bits.
    rr_pmf: FxpNoisePmf,
    /// Unclamped noise variance `E[K²]`, in codes².
    var_k: f64,
    /// Suffix weight sums over magnitudes: `suffix_w[m] = Σ_{mag ≥ m} w(mag)`
    /// (index 0 unused; signed one-sided weights).
    suffix_w: Vec<u128>,
    /// `suffix_m1[m] = Σ_{mag ≥ m} mag·w(mag)`.
    suffix_m1: Vec<u128>,
    /// `suffix_m2[m] = Σ_{mag ≥ m} mag²·w(mag)`.
    suffix_m2: Vec<u128>,
    /// Worst-case mean clamp bias `max_x |E[clamped noise | x]|`.
    max_clamp_bias: f64,
    /// Quantization slack between the device's shift-after-round datapath
    /// (plus CORDIC log error) and the PMF's round-after-scale model.
    grid_slack: f64,
    /// Clamped-noise variance at the range midpoint (the value subtracted
    /// by [`NoiseModel::variance`]).
    noise_var_mid: f64,
    /// `max_x |var(c|x) − noise_var_mid|` across the sensor range.
    var_envelope: f64,
}

impl NoiseModel {
    /// Builds the noise model for a device configured with URNG width `bu`,
    /// output word width `word_bits`, privacy shift `eps_shift`
    /// (ε = 2^−eps_shift), integer sensor range `[min_k, max_k]` in codes
    /// (`frac_bits = 0`), and thresholding-mode segment `multiples`, on
    /// that device's [`NoisingCtx`].
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidPrecision`] for `bu = 0` (no sign bit),
    /// [`LdpError::InvalidRange`] for an empty or inverted range, and
    /// otherwise the sampler's ([`LdpError::Rng`]) or the solver's error.
    pub fn for_device(
        bu: u8,
        word_bits: u8,
        eps_shift: u8,
        min_k: i64,
        max_k: i64,
        multiples: &[f64],
    ) -> Result<NoiseModel, LdpError> {
        let fmt = QFormat::new(word_bits, 0)
            .map_err(|_| LdpError::Rng(RngError::InvalidConfig("bad datapath format")))?;
        let ctx = NoisingCtx::new(
            fmt,
            bu,
            multiples,
            eps_shift,
            min_k,
            max_k,
            LimitMode::Thresholding,
        )
        .map_err(|e| match e {
            DpBoxError::Privacy(e) => e,
            DpBoxError::Rng(e) => LdpError::Rng(e),
            // The context's one other refusal is an empty or inverted range.
            _ => LdpError::InvalidRange { min_k, max_k },
        })?;
        let lap_cfg = ctx.laplace_config();
        let pmf = (*cached_pmf(lap_cfg)?).clone();
        // The RR bit is what a zero-threshold DP-Box over a one-step binary
        // grid releases: d = 1 grid unit, so λ_rr = 2^eps_shift.
        let lambda_rr = 2f64.powi(i32::from(eps_shift));
        let rr_cfg = FxpLaplaceConfig::new(lap_cfg.bu(), word_bits, 1.0, lambda_rr)?;
        let rr_pmf = (*cached_pmf(rr_cfg)?).clone();

        let support = pmf.support_max_k();
        let len = support as usize + 2;
        let (mut suffix_w, mut suffix_m1, mut suffix_m2) =
            (vec![0u128; len], vec![0u128; len], vec![0u128; len]);
        for mag in (1..=support).rev() {
            let m = mag as usize;
            let w = pmf.weight(mag);
            suffix_w[m] = suffix_w[m + 1] + w;
            suffix_m1[m] = suffix_m1[m + 1] + w * mag as u128;
            suffix_m2[m] = suffix_m2[m + 1] + w * (mag * mag) as u128;
        }
        // E[K²] = 2·Σ_{mag≥1} mag²·w(mag) / total (weight(k) is already the
        // signed convention, and suffix sums are one-sided).
        let total = pmf.total_weight() as f64;
        let var_k = 2.0 * suffix_m2[1] as f64 / total;

        // The device rounds the λ/2^eps_shift-scale product *before* the ε
        // shift (`NoisingCtx`'s noise arithmetic), so its grid is 2^eps_shift codes coarse
        // while the PMF models rounding after the full scale: the two
        // disagree by at most 2^(eps_shift−1) + 1/2 codes per draw, plus
        // one code of headroom for the CORDIC log's finite iterations.
        let grid_slack = 2f64.powi(i32::from(eps_shift) - 1) + 1.5;

        let mut model = NoiseModel {
            ctx,
            pmf,
            rr_pmf,
            var_k,
            suffix_w,
            suffix_m1,
            suffix_m2,
            max_clamp_bias: 0.0,
            grid_slack,
            noise_var_mid: 0.0,
            var_envelope: 0.0,
        };
        // Clamp bias/variance envelopes: scan every sensor code (the range
        // is a few hundred codes, and each probe is O(1) off the suffix
        // sums). The bias is monotone in x, but scanning is cheap and makes
        // no monotonicity assumption.
        let mid = (min_k + max_k) / 2;
        model.noise_var_mid = model.clamped_noise_var(mid);
        let (mut max_bias, mut max_var_dev) = (0.0f64, 0.0f64);
        for x in min_k..=max_k {
            max_bias = max_bias.max(model.clamp_bias(x).abs());
            max_var_dev = max_var_dev.max((model.clamped_noise_var(x) - model.noise_var_mid).abs());
        }
        model.max_clamp_bias = max_bias;
        model.var_envelope = max_var_dev;
        Ok(model)
    }

    /// Outermost threshold `n_th` in codes: reports are clamped to
    /// `[min_k − n_th, max_k + n_th]`.
    pub fn n_th_k(&self) -> i64 {
        self.ctx.n_th_k()
    }

    /// Lower edge of the report window, `min_k − n_th`.
    pub fn window_lo(&self) -> i64 {
        self.ctx.window().0
    }

    /// Upper edge of the report window, `max_k + n_th`.
    pub fn window_hi(&self) -> i64 {
        self.ctx.window().1
    }

    /// The randomized-response mechanism for the threshold-bit query: a
    /// zero-threshold DP-Box over a one-step binary grid at this model's ε,
    /// flipping the bit with probability `Pr[noise ≥ 1·Δ]` under
    /// λ_rr = 2^eps_shift (the paper's Section VI-E construction).
    ///
    /// # Errors
    ///
    /// Propagates the [`RandomizedResponse`] validation error (the binary
    /// grid's flip probability stays inside `(0, ½)` for every valid
    /// eps_shift, so this is unreachable in practice).
    pub fn rr(&self) -> Result<RandomizedResponse, LdpError> {
        RandomizedResponse::from_zero_threshold_pmf(&self.rr_pmf)
    }

    /// One-sided exceedance `E[(K − t)⁺] = Σ_{mag > t} (mag − t)·p(mag)`
    /// for an integer offset `t ≥ 0`.
    fn exceedance(&self, t: i64) -> f64 {
        debug_assert!(t >= 0);
        let m = (t + 1) as usize;
        if m >= self.suffix_w.len() {
            return 0.0;
        }
        (self.suffix_m1[m] as f64 - t as f64 * self.suffix_w[m] as f64)
            / self.pmf.total_weight() as f64
    }

    /// One-sided second-moment deficit
    /// `Σ_{mag > t} (mag² − t²)·p(mag)` for an integer offset `t ≥ 0`.
    fn exceedance2(&self, t: i64) -> f64 {
        debug_assert!(t >= 0);
        let m = (t + 1) as usize;
        if m >= self.suffix_w.len() {
            return 0.0;
        }
        (self.suffix_m2[m] as f64 - (t * t) as f64 * self.suffix_w[m] as f64)
            / self.pmf.total_weight() as f64
    }

    /// Mean of the window-clamped noise for a sensor value at code `x`:
    /// `E[clamp(K, lo−x, hi−x)] = exceed(x−lo) − exceed(hi−x)`.
    fn clamp_bias(&self, x: i64) -> f64 {
        let (t_lo, t_hi) = (x - self.window_lo(), self.window_hi() - x);
        self.exceedance(t_lo) - self.exceedance(t_hi)
    }

    /// Variance of the window-clamped noise for a sensor value at code `x`.
    fn clamped_noise_var(&self, x: i64) -> f64 {
        let (t_lo, t_hi) = (x - self.window_lo(), self.window_hi() - x);
        let second = self.var_k - self.exceedance2(t_lo) - self.exceedance2(t_hi);
        let mean = self.exceedance(t_lo) - self.exceedance(t_hi);
        second - mean * mean
    }

    /// Deterministic bias envelope for the mean estimator: the worst-case
    /// clamp bias over the sensor range plus the datapath grid slack.
    fn mean_bias_bound(&self) -> f64 {
        self.max_clamp_bias + self.grid_slack
    }

    /// Population mean estimate (codes): the report mean, which symmetric
    /// noise leaves unbiased up to its `bias_bound`: the worst-case clamp
    /// bias over the sensor range plus the datapath grid slack.
    ///
    /// Returns `None` for fewer than 2 reports (no sample variance).
    pub fn mean(&self, t: &QueryTotals) -> Option<Estimate> {
        if t.count < 2 {
            return None;
        }
        let n = t.count as f64;
        let mean = t.sum as f64 / n;
        // Sample variance of the reports: the mean's SE needs the *noised*
        // spread, which the raw second moment gives directly.
        let s2 = (t.sum2 as f64 - n * mean * mean) / (n - 1.0);
        Some(Estimate {
            value: mean,
            stderr: (s2.max(0.0) / n).sqrt(),
            n: t.count,
            bias_bound: self.mean_bias_bound(),
        })
    }

    /// Population variance estimate (codes²): the report variance minus
    /// the clamped-noise variance at the range midpoint.
    ///
    /// The envelope covers (a) the x-dependence of the clamped-noise
    /// variance across the range, (b) the covariance between the sensor
    /// value and its clamp bias, and (c) the grid slack's second-moment
    /// effect. It is an honest but loose bound, so no artifact gates on it.
    ///
    /// Returns `None` for fewer than 2 reports.
    pub fn variance(&self, t: &QueryTotals) -> Option<Estimate> {
        if t.count < 2 {
            return None;
        }
        let n = t.count as f64;
        let mean = t.sum as f64 / n;
        let m2 = (t.sum2 as f64 / n - mean * mean).max(0.0);
        let value = m2 * n / (n - 1.0) - self.noise_var_mid;
        // SE of a sample variance: √((m4 − m2²)/n) from the reports' own
        // central fourth moment.
        let m4 = t.sum4 as f64 / n - 4.0 * mean * (t.sum3 as f64 / n)
            + 6.0 * mean * mean * (t.sum2 as f64 / n)
            - 3.0 * mean.powi(4);
        let var_of_s2 = ((m4 - m2 * m2) / n).max(0.0);
        let range = self.ctx.range();
        let span = (range.max_k() - range.min_k()) as f64;
        let bias = self.var_envelope
            + span * self.max_clamp_bias
            + self.max_clamp_bias * self.max_clamp_bias
            + 2.0 * self.pmf.mean_magnitude_k() * self.grid_slack
            + self.grid_slack * self.grid_slack;
        Some(Estimate {
            value,
            stderr: var_of_s2.sqrt(),
            n: t.count,
            bias_bound: bias,
        })
    }

    /// Report-distribution median (codes), read exactly off the sketch.
    ///
    /// `stderr` is the asymptotic order-statistic error `1/(2·f̂·√n)` with
    /// the density `f̂` estimated from the sketch mass within `±w` codes of
    /// the median (`w` scales with the noise spread). Targets the median
    /// of the *noised* distribution — no debiasing envelope is claimed, so
    /// `bias_bound` is 0 and callers must not gate this against the
    /// pre-noise population median.
    pub fn median(&self, t: &QueryTotals) -> Option<Estimate> {
        let sketch = t.sketch.as_ref()?;
        let med = sketch.quantile(0.5)?;
        let w = (self.ctx.laplace_config().lambda() / 8.0).ceil().max(1.0) as i64;
        let density = sketch.mass_within(med, w) / (2 * w + 1) as f64;
        let n = sketch.total() as f64;
        let stderr = if density > 0.0 {
            1.0 / (2.0 * density * n.sqrt())
        } else {
            f64::INFINITY
        };
        Some(Estimate {
            value: med as f64,
            stderr,
            n: sketch.total(),
            bias_bound: 0.0,
        })
    }

    /// Population-count estimate: scales a debiased RR frequency
    /// ([`NoiseModel::rr_frequency`]) by its responding population `n` (the
    /// count of devices whose sensor value met the threshold). Exactly
    /// unbiased.
    pub fn rr_count(frequency: Estimate) -> Estimate {
        Estimate {
            value: frequency.value * frequency.n as f64,
            stderr: frequency.stderr * frequency.n as f64,
            ..frequency
        }
    }

    /// Debiased randomized-response frequency: the fraction of devices
    /// whose true bit was 1, inverted through the RR flip probability.
    /// Exactly unbiased (before the `[0, 1]` clamp); `stderr` is the
    /// plug-in binomial standard error.
    ///
    /// # Errors
    ///
    /// Propagates [`NoiseModel::rr`] validation.
    pub fn rr_frequency(&self, t: &QueryTotals) -> Result<Option<Estimate>, LdpError> {
        if t.count == 0 {
            return Ok(None);
        }
        let rr = self.rr()?;
        let observed = t.ones as f64 / t.count as f64;
        let pi = rr.estimate_proportion(observed);
        Ok(Some(Estimate {
            value: pi,
            stderr: rr.estimate_stderr(pi, t.count as usize),
            n: t.count,
            bias_bound: 0.0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{QueryKind, QueryTotals};

    fn model() -> NoiseModel {
        NoiseModel::for_device(17, 20, 1, 0, 256, &[1.5, 2.0, 2.5, 3.0]).unwrap()
    }

    #[test]
    fn a_urng_without_a_sign_bit_is_a_typed_error() {
        let err = NoiseModel::for_device(0, 20, 1, 0, 256, &[1.5, 2.0]).unwrap_err();
        assert_eq!(err, LdpError::InvalidPrecision { bu: 0, max: 53 });
    }

    #[test]
    fn exceedance_matches_direct_pmf_sum() {
        let m = model();
        for t in [0i64, 1, 100, 2000, m.pmf.support_max_k() + 5] {
            let direct: f64 = (1..=m.pmf.support_max_k())
                .filter(|&k| k > t)
                .map(|k| (k - t) as f64 * m.pmf.prob(k))
                .sum();
            assert!(
                (m.exceedance(t) - direct).abs() < 1e-9,
                "exceedance({t}): {} vs {direct}",
                m.exceedance(t)
            );
        }
    }

    #[test]
    fn unclamped_variance_matches_pmf_second_moment() {
        let m = model();
        let direct: f64 = m
            .pmf
            .iter()
            .map(|(k, w)| (k * k) as f64 * w as f64 / m.pmf.total_weight() as f64)
            .sum();
        assert!((m.var_k - direct).abs() < 1e-6);
    }

    #[test]
    fn clamped_variance_is_below_unclamped_and_positive() {
        let m = model();
        for x in [0i64, 64, 128, 200, 256] {
            let v = m.clamped_noise_var(x);
            assert!(v > 0.0);
            assert!(v <= m.var_k + 1e-9);
        }
        // A window many λ wide clamps almost nothing at the midpoint.
        assert!(m.clamped_noise_var(128) / m.var_k > 0.5);
    }

    #[test]
    fn clamp_bias_is_odd_symmetric_about_the_midpoint() {
        let m = model();
        for d in [0i64, 10, 100, 128] {
            let lo = m.clamp_bias(128 - d);
            let hi = m.clamp_bias(128 + d);
            assert!(
                (lo + hi).abs() < 1e-12,
                "bias({}) = {lo}, bias({}) = {hi}",
                128 - d,
                128 + d
            );
        }
        // Near the bottom edge the negative tail is clamped harder, so
        // the bias pushes up.
        assert!(m.clamp_bias(0) >= 0.0);
        assert!(m.clamp_bias(256) <= 0.0);
    }

    #[test]
    fn mean_estimator_recovers_a_noiseless_stream() {
        let m = model();
        let mut t = QueryTotals::default();
        // 1000 "reports" at exactly code 100 and 1000 at 140 (no noise):
        // mean 120, spread 20.
        for v in [100i64, 140] {
            for _ in 0..1000 {
                t.count += 1;
                t.sum += v as i128;
                t.sum2 += (v * v) as i128;
                t.sum3 += (v * v * v) as i128;
                t.sum4 += (v * v * v * v) as i128;
            }
        }
        let est = m.mean(&t).unwrap();
        assert_eq!(est.n, 2000);
        assert!((est.value - 120.0).abs() < 1e-9);
        // s = 20.005… (Bessel), SE = s/√2000.
        assert!((est.stderr - 20.0 / (2000f64).sqrt()).abs() < 0.01);
        assert!(est.bias_bound > 0.0 && est.bias_bound < 30.0);
    }

    #[test]
    fn rr_frequency_inverts_the_flip_probability() {
        let m = model();
        let rr = m.rr().unwrap();
        let p = rr.flip_prob();
        // Forge tallies at exactly the expected observed rate for π = 0.3.
        let n = 100_000u64;
        let observed = 0.3 * (1.0 - p) + 0.7 * p;
        let t = QueryTotals {
            count: n,
            ones: (observed * n as f64).round() as u64,
            ..QueryTotals::default()
        };
        let est = m.rr_frequency(&t).unwrap().unwrap();
        assert!((est.value - 0.3).abs() < 1e-4);
        assert!(est.stderr > 0.0 && est.stderr < 0.1);
        let count = NoiseModel::rr_count(est);
        assert!((count.value - 0.3 * n as f64).abs() < 20.0);
        assert!((count.stderr - est.stderr * n as f64).abs() < 1e-9);
    }

    #[test]
    fn median_reads_off_the_sketch() {
        let m = model();
        let mut t = QueryTotals::new(QueryKind::Numeric {
            sketch_min_k: m.window_lo(),
            sketch_max_k: m.window_hi(),
        });
        for k in 0..1001i64 {
            t.absorb_value(k - 500 + 128);
        }
        let est = m.median(&t).unwrap();
        assert_eq!(est.value, 128.0);
        assert!(est.stderr.is_finite() && est.stderr > 0.0);
    }
}
