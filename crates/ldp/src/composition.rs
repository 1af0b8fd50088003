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
/// assert_eq!(ledger.losses(), [0.5, 0.75]);
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

    /// The recorded per-query losses, in record order (the raw series an
    /// external auditor compares against a [`crate::BudgetLedger`]).
    pub fn losses(&self) -> &[f64] {
        &self.losses
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
        assert_eq!(ledger.losses(), [0.1, 0.2, 0.3]);
        let mut ledger = ledger;
        ledger.extend([0.4]);
        assert_eq!(ledger.losses(), [0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn empty_ledger_has_no_losses() {
        assert!(CompositionLedger::new().losses().is_empty());
    }

    #[test]
    fn records_keep_their_order() {
        let mut l = CompositionLedger::new();
        for q in 0..10 {
            l.record(0.3 + f64::from(q));
        }
        assert!(l
            .losses()
            .iter()
            .zip(0..)
            .all(|(&e, q)| e == 0.3 + f64::from(q)));
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
