//! Sequential composition accounting (the composition theorem, Section II-A).
//!
//! When a series of queries `(f₁, …, f_n)` each satisfies `ε_i`-DP, the
//! worst-case total loss is `Σ ε_i`. The ledger here is the bookkeeping
//! counterpart of [`crate::BudgetController`]: the controller charges and
//! enforces inside one device; the ledger lets an application reason about
//! loss across devices, sessions, or mechanisms.

/// A running record of privacy losses from answered queries.
///
/// # Examples
///
/// ```
/// use ldp_core::CompositionLedger;
///
/// let mut ledger = CompositionLedger::new();
/// ledger.record(0.5);
/// ledger.record(0.75);
/// assert_eq!(ledger.total(), 1.25);
/// assert_eq!(ledger.queries(), 2);
/// assert!(ledger.fits_within(2.0));
/// assert!(!ledger.fits_within(1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompositionLedger {
    losses: Vec<f64>,
}

impl CompositionLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the loss of one answered query.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative or not finite — a loss is a physical
    /// quantity; charging NaN would silently corrupt the total.
    pub fn record(&mut self, eps: f64) {
        check_loss(eps);
        self.losses.push(eps);
    }

    /// The composed total loss, `Σ ε_i`.
    pub fn total(&self) -> f64 {
        self.losses.iter().sum()
    }

    /// Number of recorded queries.
    pub fn queries(&self) -> usize {
        self.losses.len()
    }

    /// The recorded per-query losses, in record order (the raw series an
    /// external auditor compares against a [`crate::BudgetLedger`]).
    pub fn losses(&self) -> &[f64] {
        &self.losses
    }

    /// Whether the composed loss stays within `budget`.
    pub fn fits_within(&self, budget: f64) -> bool {
        self.total() <= budget
    }

    /// How many more queries of loss `eps` fit within `budget`.
    pub fn remaining_queries(&self, budget: f64, eps: f64) -> usize {
        if eps <= 0.0 {
            return usize::MAX;
        }
        let headroom = budget - self.total();
        if headroom <= 0.0 {
            0
        } else {
            (headroom / eps).floor() as usize
        }
    }

    /// The largest single recorded loss.
    pub fn max_single(&self) -> Option<f64> {
        self.losses
            .iter()
            .cloned()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// The **advanced composition** bound (Dwork–Rothblum–Vadhan): the
    /// recorded queries jointly satisfy `(ε', δ)`-DP with
    /// `ε' = √(2k·ln(1/δ))·ε_max + k·ε_max·(e^{ε_max} − 1)`,
    /// trading a small failure probability `δ` for a √k (instead of k)
    /// growth in ε. Returns `None` for an empty ledger.
    ///
    /// This is an extension beyond the paper (which uses basic
    /// composition); it is what a software aggregator consuming DP-Box
    /// outputs would use to budget long query sequences.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1)`.
    pub fn advanced_total(&self, delta: f64) -> Option<f64> {
        assert!(
            delta > 0.0 && delta < 1.0,
            "δ must be in (0,1), got {delta}"
        );
        let eps = self.max_single()?;
        let k = self.losses.len() as f64;
        Some((2.0 * k * (1.0 / delta).ln()).sqrt() * eps + k * eps * (eps.exp() - 1.0))
    }

    /// The tighter of basic and advanced composition at the given `δ`
    /// (advanced only wins for long sequences of small-ε queries).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1)`.
    pub fn best_total(&self, delta: f64) -> f64 {
        match self.advanced_total(delta) {
            Some(adv) => adv.min(self.total()),
            None => 0.0,
        }
    }
}

/// The accountant's input check: a loss is a physical quantity.
///
/// # Panics
///
/// Panics if `eps` is negative or not finite.
pub(crate) fn check_loss(eps: f64) {
    assert!(
        eps.is_finite() && eps >= 0.0,
        "privacy loss must be finite and non-negative, got {eps}"
    );
}

impl FromIterator<f64> for CompositionLedger {
    /// Builds a ledger from an iterator of losses.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite losses (see
    /// [`CompositionLedger::record`]).
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut ledger = CompositionLedger::new();
        ledger.extend(iter);
        ledger
    }
}

impl Extend<f64> for CompositionLedger {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for eps in iter {
            self.record(eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_from_iterators() {
        let ledger: CompositionLedger = [0.1, 0.2, 0.3].into_iter().collect();
        assert_eq!(ledger.queries(), 3);
        assert!((ledger.total() - 0.6).abs() < 1e-12);
        let mut ledger = ledger;
        ledger.extend([0.4]);
        assert!((ledger.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_has_zero_total() {
        let l = CompositionLedger::new();
        assert_eq!(l.total(), 0.0);
        assert_eq!(l.queries(), 0);
        assert_eq!(l.max_single(), None);
        assert!(l.fits_within(0.0));
    }

    #[test]
    fn totals_compose_additively() {
        let mut l = CompositionLedger::new();
        for _ in 0..10 {
            l.record(0.3);
        }
        assert!((l.total() - 3.0).abs() < 1e-12);
        assert_eq!(l.queries(), 10);
    }

    #[test]
    fn remaining_queries_counts_headroom() {
        let mut l = CompositionLedger::new();
        l.record(1.0);
        assert_eq!(l.remaining_queries(3.0, 0.5), 4);
        assert_eq!(l.remaining_queries(1.0, 0.5), 0);
        assert_eq!(l.remaining_queries(3.0, 0.0), usize::MAX);
    }

    #[test]
    fn max_single_tracks_largest() {
        let mut l = CompositionLedger::new();
        l.record(0.1);
        l.record(0.9);
        l.record(0.4);
        assert_eq!(l.max_single(), Some(0.9));
    }

    #[test]
    fn advanced_composition_beats_basic_for_long_sequences() {
        let mut l = CompositionLedger::new();
        for _ in 0..10_000 {
            l.record(0.01);
        }
        let basic = l.total(); // 100
        let adv = l.advanced_total(1e-6).unwrap();
        assert!(adv < basic, "advanced {adv} vs basic {basic}");
        assert_eq!(l.best_total(1e-6), adv);
    }

    #[test]
    fn basic_composition_wins_for_few_queries() {
        let mut l = CompositionLedger::new();
        l.record(0.5);
        l.record(0.5);
        let adv = l.advanced_total(1e-6).unwrap();
        assert!(l.best_total(1e-6) <= adv);
        assert_eq!(l.best_total(1e-6), l.total().min(adv));
    }

    #[test]
    fn advanced_total_empty_is_none() {
        assert_eq!(CompositionLedger::new().advanced_total(1e-6), None);
        assert_eq!(CompositionLedger::new().best_total(1e-6), 0.0);
    }

    #[test]
    #[should_panic(expected = "δ must be in")]
    fn advanced_rejects_bad_delta() {
        let mut l = CompositionLedger::new();
        l.record(0.1);
        l.advanced_total(1.5);
    }

    #[test]
    #[should_panic(expected = "privacy loss must be finite")]
    fn nan_loss_panics() {
        CompositionLedger::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "privacy loss must be finite")]
    fn negative_loss_panics() {
        CompositionLedger::new().record(-0.1);
    }
}
