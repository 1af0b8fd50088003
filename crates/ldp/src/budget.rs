//! Output-adaptive privacy budget control (Section III-C, Algorithm 1).
//!
//! A fixed-point mechanism's privacy loss depends on *where* the noised
//! output lands (Fig. 8): outputs inside the sensor range cost roughly ε,
//! while outputs deeper in the tail cost more. Charging a flat worst-case
//! `n·ε` per request wastes budget; the paper's controller instead divides
//! the output range into segments with increasing loss and charges each
//! request by the segment its output fell in. When the budget runs out, the
//! cached last output is replayed — repeating an already-released value
//! leaks nothing further.

use ulp_obs::Counter;
use ulp_rng::{cached_alias_full, FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, RandomBits};

use crate::composition::CompositionLedger;
use crate::error::LdpError;
use crate::ledger::BudgetLedger;
use crate::loss::{losses_by_overshoot, LimitMode};
use crate::mechanism::RESAMPLE_LIMIT;
use crate::range::QuantizedRange;
use crate::threshold::exact_threshold;

/// Requests served with fresh noise across all controllers.
static FRESH_RESPONSES: Counter = Counter::new("ldp.budget.fresh_responses");
/// Requests answered by replaying the cached output after exhaustion.
static CACHE_REPLAYS: Counter = Counter::new("ldp.budget.cache_replays");
/// Consecutive charges that landed in a different loss segment than the
/// previous charge (Algorithm 1's segment machinery actually switching).
static SEGMENT_TRANSITIONS: Counter = Counter::new("ldp.budget.segment_transitions");

/// A nested table of loss segments: overshoot `o ∈ (n_th[i-1], n_th[i]]`
/// beyond the sensor range costs `loss[i]`.
///
/// # Examples
///
/// ```
/// use ldp_core::{LimitMode, QuantizedRange, SegmentTable};
/// use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};
///
/// let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
/// let pmf = FxpNoisePmf::closed_form(cfg);
/// let range = QuantizedRange::new(0, 32, cfg.delta())?;
/// let table = SegmentTable::build(
///     cfg, &pmf, range,
///     &[1.5, 2.0, 2.5, 3.0],
///     LimitMode::Thresholding,
/// )?;
/// // Equal thresholds collapse, so up to 4 segments survive.
/// assert!(!table.segments().is_empty() && table.segments().len() <= 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentTable {
    /// Worst-case loss for outputs *inside* `[m, M]` (the `ε_RNG` of
    /// Algorithm 1).
    base_loss: f64,
    /// `(n_th_k, loss)` pairs, strictly increasing in both components.
    segments: Vec<(i64, f64)>,
    mode: LimitMode,
}

impl SegmentTable {
    /// Builds a table from loss multiples (e.g. `[1.5, 2.0, 2.5, 3.0]`
    /// yielding Fig. 8's dashed thresholds): solves the outer window once
    /// and cuts segment `j` at the largest overshoot up to which every
    /// output, clamp atom included, realizes at most `multiples[j]·ε` under
    /// it. A multiple that moves no cut-off adds no segment.
    ///
    /// # Errors
    ///
    /// [`LdpError::EmptySegmentTable`] if `multiples` is empty;
    /// [`LdpError::InvalidEpsilon`] if it is unsorted or contains values
    /// ≤ 1; threshold-solver errors propagate.
    pub fn build(
        cfg: FxpLaplaceConfig,
        pmf: &FxpNoisePmf,
        range: QuantizedRange,
        multiples: &[f64],
        mode: LimitMode,
    ) -> Result<Self, LdpError> {
        let Some(&outer_multiple) = multiples.last() else {
            return Err(LdpError::EmptySegmentTable);
        };
        // Stated as what must hold, so that a NaN multiple fails it.
        if !multiples.windows(2).all(|w| w[0] < w[1]) {
            return Err(LdpError::InvalidEpsilon(f64::NAN));
        }
        let eps = range.length() / cfg.lambda();
        let outer = exact_threshold(cfg, pmf, range, outer_multiple, mode)?.n_th_k;
        let by_overshoot = losses_by_overshoot(pmf, range, mode, outer);
        let base_loss = by_overshoot[0]
            .finite()
            .expect("the solved window bounds every output's loss");
        let mut segments = Vec::with_capacity(multiples.len());
        let mut cut = 0usize;
        for &m in multiples {
            let loss = m * eps;
            let prev = cut;
            while cut < outer as usize && by_overshoot[cut + 1].is_bounded_by(loss) {
                cut += 1;
            }
            if cut > prev {
                segments.push((cut as i64, loss));
            }
        }
        Ok(SegmentTable {
            base_loss,
            segments,
            mode,
        })
    }

    /// The in-range loss `ε_RNG`.
    pub fn base_loss(&self) -> f64 {
        self.base_loss
    }

    /// The `(n_th_k, loss)` segment boundaries, ascending.
    pub fn segments(&self) -> &[(i64, f64)] {
        &self.segments
    }

    /// The outermost threshold — the window the mechanism enforces — and
    /// its loss. A table whose window solved to zero has no segment; its
    /// window is the sensor range itself, charged the base loss.
    pub fn outermost(&self) -> (i64, f64) {
        match self.segments.last() {
            Some(&seg) => seg,
            None => (0, self.base_loss),
        }
    }

    /// The loss charged for an output that overshot the sensor range by
    /// `overshoot_k` grid steps (0 = inside the range). Overshoots beyond
    /// the outermost threshold charge the outermost loss (the output will
    /// have been clamped or resampled there).
    pub fn charge_for_overshoot(&self, overshoot_k: i64) -> f64 {
        self.classify(overshoot_k).1
    }

    /// `(segment class, loss)` for an overshoot: class 0 is the in-range
    /// base, class `i ≥ 1` is the i-th segment (overshoots beyond the
    /// outermost threshold fall in the outermost class).
    fn classify(&self, overshoot_k: i64) -> (usize, f64) {
        if overshoot_k <= 0 {
            return (0, self.base_loss);
        }
        for (i, &(t, loss)) in self.segments.iter().enumerate() {
            if overshoot_k <= t {
                return (i + 1, loss);
            }
        }
        (self.segments.len(), self.outermost().1)
    }

    /// Algorithm 1's release step for input `x_k` on `range`: draws
    /// `x_k + k` from `draw`, and an output that overshoots the outermost
    /// threshold is clamped onto it (thresholding) or redrawn (resampling).
    /// Returns the output with its segment class and charge.
    ///
    /// # Errors
    ///
    /// [`LdpError::ResampleBudgetExhausted`] after 100 000 consecutive
    /// redraws.
    pub(crate) fn release(
        &self,
        range: QuantizedRange,
        x_k: i64,
        draw: &mut dyn FnMut() -> i64,
    ) -> Result<(i64, usize, f64), LdpError> {
        let (outer_t, _) = self.outermost();
        let (lo, hi) = (range.min_k() - outer_t, range.max_k() + outer_t);
        let mut rejections = 0u32;
        loop {
            let y_k = x_k + draw();
            let overshoot = (range.min_k() - y_k).max(y_k - range.max_k()).max(0);
            // A clamped output sits on the outermost threshold, which
            // `classify` charges for every overshoot beyond it.
            if overshoot <= outer_t || self.mode == LimitMode::Thresholding {
                let (class, charge) = self.classify(overshoot);
                return Ok((y_k.clamp(lo, hi), class, charge));
            }
            rejections += 1;
            if rejections >= RESAMPLE_LIMIT {
                return Err(LdpError::ResampleBudgetExhausted);
            }
        }
    }
}

/// Algorithm 1: the per-sensor privacy budget controller.
///
/// Drives a [`FxpLaplace`] sampler through the configured limiting mode,
/// charges the output-dependent loss from a [`SegmentTable`], and replays
/// the cached output once the budget is spent.
///
/// # Examples
///
/// ```
/// use ldp_core::{BudgetController, LimitMode, QuantizedRange, SegmentTable};
/// use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};
///
/// let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
/// let pmf = FxpNoisePmf::closed_form(cfg);
/// let range = QuantizedRange::new(0, 32, cfg.delta())?;
/// let table = SegmentTable::build(cfg, &pmf, range, &[1.5, 2.0, 3.0], LimitMode::Thresholding)?;
/// let mut ctrl = BudgetController::new(table, range, 5.0)?;
///
/// let sampler = FxpLaplace::analytic(cfg);
/// let mut rng = Taus88::from_seed(7);
/// let first = ctrl.respond(5.0, &sampler, &mut rng)?;
/// assert!(first.is_finite());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BudgetController {
    table: SegmentTable,
    range: QuantizedRange,
    budget: f64,
    remaining: f64,
    cached_k: Option<i64>,
    ledger: BudgetLedger,
    accountant: CompositionLedger,
    last_class: Option<usize>,
}

impl BudgetController {
    /// Creates a controller with a total budget (nats of privacy loss per
    /// replenishment period).
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] if the budget is not finite and positive.
    pub fn new(table: SegmentTable, range: QuantizedRange, budget: f64) -> Result<Self, LdpError> {
        if !(budget.is_finite() && budget > 0.0) {
            return Err(LdpError::InvalidEpsilon(budget));
        }
        Ok(BudgetController {
            table,
            range,
            budget,
            remaining: budget,
            cached_k: None,
            ledger: BudgetLedger::new(),
            accountant: CompositionLedger::new(),
            last_class: None,
        })
    }

    /// Remaining budget in the current period.
    pub fn remaining(&self) -> f64 {
        self.remaining
    }

    /// The append-only record of every ε charge this controller has made
    /// (across replenishment periods; replays append nothing).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Cross-checks the ledger against the composition accountant: query
    /// counts, per-query charges, and totals must match bitwise.
    ///
    /// # Errors
    ///
    /// The first [`crate::AuditMismatch`] found.
    pub fn audit(&self) -> Result<(), crate::AuditMismatch> {
        self.ledger.audit(&self.accountant)
    }

    /// Whether the next request will be served from cache.
    fn exhausted(&self) -> bool {
        self.remaining <= 0.0
    }

    /// Resets the budget (the DP-Box does this on its replenishment timer).
    /// The cache is kept: replaying it is always free.
    pub fn replenish(&mut self) {
        self.remaining = self.budget;
    }

    /// Serves one sensor-data request (Algorithm 1) through the
    /// cycle-faithful sampler datapath.
    ///
    /// # Errors
    ///
    /// [`LdpError::BudgetExhausted`] if the budget is spent and no output
    /// was ever cached ("Halt" in the paper's pseudocode);
    /// [`LdpError::ResampleBudgetExhausted`] if resampling mode rejects
    /// 100 000 consecutive draws.
    pub fn respond<R: RandomBits + ?Sized>(
        &mut self,
        x: f64,
        sampler: &FxpLaplace,
        rng: &mut R,
    ) -> Result<f64, LdpError> {
        let mut rng = rng;
        self.respond_with(x, &mut move || sampler.sample_index(&mut *rng))
    }

    /// Serves one request drawing noise from the cached alias table instead
    /// of the sampler datapath — the same output distribution (the table is
    /// built from the exact PMF) at O(1) per draw.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BudgetController::respond`], plus alias-table
    /// construction errors.
    pub fn respond_alias(
        &mut self,
        x: f64,
        sampler: &FxpLaplace,
        rng: &mut dyn RandomBits,
    ) -> Result<f64, LdpError> {
        let table = cached_alias_full(sampler.config())?;
        self.respond_with(x, &mut || table.draw(&mut *rng))
    }

    /// Algorithm 1, parameterized over the noise-index source.
    fn respond_with(&mut self, x: f64, draw: &mut dyn FnMut() -> i64) -> Result<f64, LdpError> {
        if self.exhausted() {
            CACHE_REPLAYS.inc();
            let y_k = self.cached_k.ok_or(LdpError::BudgetExhausted)?;
            return Ok(self.range.to_value(y_k));
        }
        let x_k = self.range.quantize(x);
        let (y_k, class, charge) = self.table.release(self.range, x_k, draw)?;
        self.remaining -= charge;
        self.ledger.record(charge);
        self.accountant.record(charge);
        FRESH_RESPONSES.inc();
        if self.last_class != Some(class) {
            if self.last_class.is_some() {
                SEGMENT_TRANSITIONS.inc();
            }
            self.last_class = Some(class);
        }
        self.cached_k = Some(y_k);
        Ok(self.range.to_value(y_k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::Taus88;

    fn setup() -> (FxpLaplaceConfig, FxpNoisePmf, QuantizedRange, FxpLaplace) {
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        let sampler = FxpLaplace::analytic(cfg);
        (cfg, pmf, range, sampler)
    }

    fn table(mode: LimitMode) -> (SegmentTable, QuantizedRange, FxpLaplace) {
        let (cfg, pmf, range, sampler) = setup();
        let t = SegmentTable::build(cfg, &pmf, range, &[1.5, 2.0, 2.5, 3.0], mode).unwrap();
        (t, range, sampler)
    }

    #[test]
    fn table_segments_are_strictly_increasing() {
        let (t, _, _) = table(LimitMode::Thresholding);
        for w in t.segments().windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn base_loss_is_close_to_eps() {
        // Inside the sensor range the FxP loss is ~ε = 0.5 (plus grid
        // raggedness).
        let (t, _, _) = table(LimitMode::Thresholding);
        assert!(
            t.base_loss() >= 0.4 && t.base_loss() <= 0.8,
            "{}",
            t.base_loss()
        );
    }

    #[test]
    fn charge_grows_with_overshoot() {
        let (t, _, _) = table(LimitMode::Thresholding);
        let inside = t.charge_for_overshoot(0);
        let first = t.charge_for_overshoot(t.segments()[0].0);
        let beyond = t.charge_for_overshoot(t.outermost().0 + 50);
        assert!(inside < first);
        assert!(first < beyond + 1e-12);
        assert_eq!(beyond, t.outermost().1);
    }

    #[test]
    fn build_rejects_bad_multiples() {
        let (cfg, pmf, range, _) = setup();
        assert!(SegmentTable::build(cfg, &pmf, range, &[], LimitMode::Thresholding).is_err());
        assert!(
            SegmentTable::build(cfg, &pmf, range, &[2.0, 1.5], LimitMode::Thresholding).is_err()
        );
    }

    #[test]
    fn controller_serves_until_exhaustion_then_caches() {
        let (t, range, sampler) = table(LimitMode::Thresholding);
        // Budget for roughly three average requests.
        let mut ctrl = BudgetController::new(t, range, 1.6).unwrap();
        let mut rng = Taus88::from_seed(20);
        let mut outputs = Vec::new();
        for _ in 0..50 {
            outputs.push(ctrl.respond(5.0, &sampler, &mut rng).unwrap());
        }
        assert!(ctrl.exhausted());
        // The ledger holds one charge per fresh answer.
        let served = ctrl.ledger().len();
        assert!(served >= 1);
        assert!(served < outputs.len());
        // After exhaustion every answer equals the last fresh one.
        let last_fresh = outputs[served - 1];
        for &y in &outputs[served..] {
            assert_eq!(y, last_fresh);
        }
    }

    #[test]
    fn exhausted_controller_without_cache_halts() {
        let (t, range, sampler) = table(LimitMode::Thresholding);
        let mut ctrl = BudgetController::new(t, range, 1e-9).unwrap();
        let mut rng = Taus88::from_seed(21);
        // First request is served (budget > 0), driving it negative.
        ctrl.respond(5.0, &sampler, &mut rng).unwrap();
        // Now exhausted but cached — still answers.
        assert!(ctrl.respond(5.0, &sampler, &mut rng).is_ok());
        // A fresh controller with zero-ish budget and no cache halts.
        let (t2, _, _) = table(LimitMode::Thresholding);
        let mut empty = BudgetController::new(t2, range, 1e-9).unwrap();
        empty.remaining = 0.0;
        assert_eq!(
            empty.respond(5.0, &sampler, &mut rng),
            Err(LdpError::BudgetExhausted)
        );
    }

    #[test]
    fn replenish_restores_budget_and_keeps_cache() {
        let (t, range, sampler) = table(LimitMode::Thresholding);
        let mut ctrl = BudgetController::new(t, range, 1.2).unwrap();
        let mut rng = Taus88::from_seed(22);
        while !ctrl.exhausted() {
            ctrl.respond(5.0, &sampler, &mut rng).unwrap();
        }
        ctrl.replenish();
        assert!(!ctrl.exhausted());
        assert_eq!(ctrl.remaining(), ctrl.budget);
        let y = ctrl.respond(5.0, &sampler, &mut rng).unwrap();
        assert!(y.is_finite());
    }

    #[test]
    fn charged_loss_respects_adaptive_segments() {
        // Adaptive charging must cost no more than flat worst-case charging.
        let (t, range, sampler) = table(LimitMode::Thresholding);
        let outer_loss = t.outermost().1;
        let mut ctrl = BudgetController::new(t, range, 1e9).unwrap();
        let mut rng = Taus88::from_seed(23);
        let n = 5_000;
        for _ in 0..n {
            ctrl.respond(5.0, &sampler, &mut rng).unwrap();
        }
        let charged = ctrl.ledger().total();
        assert!(charged < outer_loss * n as f64);
        // Most outputs land inside the range, so the average charge should
        // be near the base loss.
        let avg = charged / n as f64;
        assert!(
            avg < 2.0 * ctrl.table.base_loss(),
            "average charge {avg} vs base {}",
            ctrl.table.base_loss()
        );
    }

    #[test]
    fn resampling_mode_never_exceeds_window() {
        let (t, range, sampler) = table(LimitMode::Resampling);
        let (outer_t, _) = t.outermost();
        let mut ctrl = BudgetController::new(t, range, 1e9).unwrap();
        let mut rng = Taus88::from_seed(24);
        for _ in 0..10_000 {
            let y = ctrl.respond(10.0, &sampler, &mut rng).unwrap();
            let y_k = (y / range.delta()).round() as i64;
            assert!(y_k >= range.min_k() - outer_t);
            assert!(y_k <= range.max_k() + outer_t);
        }
    }

    #[test]
    fn alias_respond_matches_reference_statistics() {
        for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
            let (t, range, sampler) = table(mode);
            let (outer_t, _) = t.outermost();
            let mut ref_ctrl = BudgetController::new(t.clone(), range, 1e9).unwrap();
            let mut fast_ctrl = BudgetController::new(t, range, 1e9).unwrap();
            let mut rng_a = Taus88::from_seed(30);
            let mut rng_b = Taus88::from_seed(31);
            let n = 20_000;
            let (mut sum_ref, mut sum_fast) = (0.0, 0.0);
            for _ in 0..n {
                sum_ref += ref_ctrl.respond(5.0, &sampler, &mut rng_a).unwrap();
                let y = fast_ctrl.respond_alias(5.0, &sampler, &mut rng_b).unwrap();
                let y_k = (y / range.delta()).round() as i64;
                assert!(y_k >= range.min_k() - outer_t && y_k <= range.max_k() + outer_t);
                sum_fast += y;
            }
            // Same distribution → matching means and near-matching charges.
            assert!(
                (sum_ref / n as f64 - sum_fast / n as f64).abs() < 0.5,
                "{mode:?}: mean mismatch"
            );
            let (c_ref, c_fast) = (ref_ctrl.ledger().total(), fast_ctrl.ledger().total());
            assert!(
                (c_ref - c_fast).abs() / c_ref < 0.05,
                "{mode:?}: charged {c_ref} vs {c_fast}"
            );
        }
    }

    #[test]
    fn rejects_non_positive_budget() {
        let (t, range, _) = table(LimitMode::Thresholding);
        assert!(BudgetController::new(t.clone(), range, 0.0).is_err());
        assert!(BudgetController::new(t, range, f64::INFINITY).is_err());
    }
}
