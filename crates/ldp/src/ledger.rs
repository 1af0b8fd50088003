//! The append-only privacy-budget ledger.
//!
//! [`crate::BudgetController`] *enforces* the budget; this ledger makes the
//! enforcement **auditable**: every charge is appended with its running
//! total, and [`BudgetLedger::audit`] cross-checks the record against an
//! independently maintained [`CompositionLedger`] (the sequential
//! composition accountant). The two structures accumulate in the same
//! order with the same `f64` additions, so a clean audit is an *exact*
//! (bitwise) equality of per-query spends and totals — any drift, however
//! produced, is a mismatch, not a tolerance call.
//!
//! # One streaming audit
//!
//! Every audit is one pass of [`audit_series`] over two charge sequences,
//! in order: the ledger's and the accountant's. Neither side is copied, so
//! the same pass audits a single ledger, a fleet window against its
//! charge list, or the concatenation of many window ledgers — exactly as
//! auditing one ledger that recorded all their charges in order would,
//! without building it.
//!
//! # The keyed spend index
//!
//! [`BudgetLedger::record_spend`] also remembers every `(device, query)`
//! key it charged, so a second fresh charge for one key is refused as a
//! typed [`DoubleSpend`]. The index is one `Vec` of `(key, charge)` pairs
//! kept sorted by key, 24 B per key and no hashing:
//!
//! - a key above the last one is appended with no lookup — the fleet
//!   records spends in canonical (chunk, device, epoch) order, so all of its
//!   traffic takes this path;
//! - any other key costs a binary search, then an O(n) insert on a miss.
//!
//! Because the index is sorted, two ledgers holding the same keyed charges
//! compare equal whatever order the keys arrived in.
//!
//! The fleet makes one keyed pass: each window's ledger indexes only the
//! `(device, epoch)` keys whose epoch lies in that window. An epoch lies in
//! exactly one window, so the keys partition by window, and the window
//! ledgers refuse every duplicate a fleet-wide index would.
//!
//! The index lives until the seal. Once a window's fold has refused every
//! duplicate, nothing records into its ledger again, so the seal calls
//! [`BudgetLedger::release_spend_index`]: the entries and the total stay,
//! the index's 24 B per key go, and a later `record_spend` panics as the
//! lifecycle bug it would be.

use core::fmt;

use ulp_obs::Counter;

use crate::composition::{check_loss, CompositionLedger};

/// Clean audits completed process-wide (any ledger instance).
static AUDITS_OK: Counter = Counter::new("ldp.ledger.audits_ok");
/// Failed audits — recorded even at metrics level `off`: a ledger that
/// disagrees with its accountant is a broken privacy invariant.
static AUDIT_FAILURES: Counter = Counter::new("ldp.ledger.audit_failures");
/// Rejected duplicate fresh-randomization charges — recorded even at
/// metrics level `off`: a second spend for the same `(device, query)` is
/// exactly the repeated-sampling privacy leak the replay-safe retry path
/// exists to prevent.
static DOUBLE_SPENDS: Counter = Counter::new("ldp.ledger.double_spends");

/// One audited privacy charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// 0-based index of the query that incurred the charge.
    pub query: u64,
    /// The ε spent by this query (nats).
    pub charge: f64,
    /// Running total after this charge (`Σ` of charges `0..=query`).
    pub total_after: f64,
}

/// An append-only record of per-query privacy spends.
///
/// # Examples
///
/// ```
/// use ldp_core::{BudgetLedger, CompositionLedger};
///
/// let mut ledger = BudgetLedger::new();
/// let mut accountant = CompositionLedger::new();
/// for eps in [0.5, 0.75, 0.5] {
///     ledger.record(eps);
///     accountant.record(eps);
/// }
/// assert_eq!(ledger.total(), accountant.losses().iter().sum::<f64>());
/// ledger.audit(&accountant).expect("ledger matches accountant");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BudgetLedger {
    entries: Vec<LedgerEntry>,
    total: f64,
    // Keys already charged through `record_spend`, each with its charge,
    // sorted by key: the derived `PartialEq` is independent of arrival
    // order.
    spends: Vec<((u64, u64), f64)>,
    // Set by `release_spend_index`: `spends` is freed for good.
    released: bool,
}

/// A ledger's length and running total, without its entries: what a fold
/// over many ledgers keeps once [`audit_series`] has compared them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LedgerSummary {
    len: usize,
    total: f64,
}

impl LedgerSummary {
    /// Number of charges summarized.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no charge was summarized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The charges' sequential `f64` sum from `+0.0`, in charge order — the
    /// running total a [`BudgetLedger`] recording them holds.
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// A rejected second fresh-randomization charge for a `(device, query)`
/// pair — the finite-precision analogue of a repeated-sampling leak: a
/// retry path that re-privatizes instead of replaying cached bytes would
/// consume budget twice for one answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleSpend {
    /// The device whose budget was charged twice.
    device: u64,
    /// The query charged twice for that device.
    query: u64,
    /// The ε recorded by the first (accepted) charge.
    first: f64,
    /// The ε the rejected second charge attempted to record.
    second: f64,
}

impl fmt::Display for DoubleSpend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "double spend: device {} query {} already charged ε = {}, rejected second charge ε = {}",
            self.device, self.query, self.first, self.second
        )
    }
}

impl std::error::Error for DoubleSpend {}

/// The first divergence found by [`audit_series`] (and so by
/// [`BudgetLedger::audit`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuditMismatch {
    /// The ledger and the accountant recorded different query counts.
    QueryCount {
        /// Entries in the ledger.
        ledger: u64,
        /// Entries in the accountant.
        accountant: u64,
    },
    /// Query `query` was charged differently in the two records.
    Charge {
        /// 0-based query index.
        query: u64,
        /// The ledger's charge.
        ledger: f64,
        /// The accountant's loss.
        accountant: f64,
    },
    /// The running totals diverge — a backstop: matching per-query charges
    /// sum identically, so no two series with equal counts and charges
    /// reach it.
    Total {
        /// The ledger's running total.
        ledger: f64,
        /// The accountant's composed total.
        accountant: f64,
    },
}

impl fmt::Display for AuditMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditMismatch::QueryCount { ledger, accountant } => write!(
                f,
                "ledger records {ledger} queries but accountant records {accountant}"
            ),
            AuditMismatch::Charge {
                query,
                ledger,
                accountant,
            } => write!(
                f,
                "query {query}: ledger charged {ledger} but accountant recorded {accountant}"
            ),
            AuditMismatch::Total { ledger, accountant } => write!(
                f,
                "running totals diverge: ledger {ledger} vs accountant {accountant}"
            ),
        }
    }
}

impl std::error::Error for AuditMismatch {}

impl BudgetLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty ledger with room for `spends` keyed charges, so
    /// recording that many through [`BudgetLedger::record_spend`]
    /// reallocates nothing.
    pub fn with_capacity(spends: usize) -> Self {
        BudgetLedger {
            entries: Vec::with_capacity(spends),
            spends: Vec::with_capacity(spends),
            ..Self::default()
        }
    }

    /// Appends one charge, advancing the running total.
    ///
    /// # Panics
    ///
    /// Panics if `charge` is negative or not finite — the same physical
    /// constraint [`CompositionLedger::record`] enforces, so the two
    /// records can never silently diverge on garbage input.
    pub fn record(&mut self, charge: f64) {
        assert!(
            charge.is_finite() && charge >= 0.0,
            "privacy charge must be finite and non-negative, got {charge}"
        );
        self.total += charge;
        self.entries.push(LedgerEntry {
            query: self.entries.len() as u64,
            charge,
            total_after: self.total,
        });
    }

    /// Appends one charge keyed by the `(device, query)` pair that earned
    /// it, rejecting a second fresh-randomization charge for the same key.
    ///
    /// [`BudgetLedger::record`] trusts its caller to charge each
    /// randomization once; this variant *verifies* it. The fleet retry
    /// audit replays every device's fresh charges through this method — a
    /// device whose retry path re-randomized (instead of retransmitting
    /// cached bytes) shows up as a typed [`DoubleSpend`], never as silent
    /// extra accumulation.
    ///
    /// # Errors
    ///
    /// [`DoubleSpend`] if this key was already charged; the ledger is left
    /// unchanged (the duplicate is *not* accumulated).
    ///
    /// # Panics
    ///
    /// As [`BudgetLedger::record`], for a non-finite or negative charge;
    /// and after [`BudgetLedger::release_spend_index`], which seals the
    /// ledger against further keyed spends.
    ///
    /// # Cost
    ///
    /// An append when `(device, query)` sorts above every key charged so
    /// far (the fleet's canonical order); otherwise a binary search, plus
    /// an O(n) insert when the key is new.
    pub fn record_spend(
        &mut self,
        device: u64,
        query: u64,
        charge: f64,
    ) -> Result<(), DoubleSpend> {
        assert!(
            !self.released,
            "record_spend after release_spend_index: a sealed ledger takes no more spends"
        );
        let key = (device, query);
        let at = match self.spends.last() {
            Some(&(last, _)) if last >= key => {
                match self.spends.binary_search_by(|&(k, _)| k.cmp(&key)) {
                    Ok(i) => {
                        DOUBLE_SPENDS.record_always(1);
                        return Err(DoubleSpend {
                            device,
                            query,
                            first: self.spends[i].1,
                            second: charge,
                        });
                    }
                    Err(i) => i,
                }
            }
            _ => self.spends.len(),
        };
        self.record(charge);
        self.spends.insert(at, (key, charge));
        Ok(())
    }

    /// Number of distinct `(device, query)` keys charged through
    /// [`BudgetLedger::record_spend`] and still indexed: 0 once the index
    /// is released.
    pub fn spend_keys(&self) -> usize {
        self.spends.len()
    }

    /// Frees the keyed spend index once no further spend can arrive — a
    /// sealed window's ledger keeps its entries and total, not the 24 B per
    /// key that refused its duplicates. Audits are unaffected; a later
    /// [`BudgetLedger::record_spend`] panics.
    pub fn release_spend_index(&mut self) {
        self.spends = Vec::new();
        self.released = true;
    }

    /// The audited entries, in charge order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of recorded charges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been charged yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running total (`Σ` of all charges, accumulated in charge order).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Cross-checks this ledger against a sequential-composition
    /// accountant: per-query charges, query counts, and totals must all
    /// match **exactly** (bitwise; both sides add the same `f64`s in the
    /// same order, so even rounding is identical). One [`audit_series`]
    /// pass over the two records.
    ///
    /// # Errors
    ///
    /// The first [`AuditMismatch`] found.
    pub fn audit(&self, accountant: &CompositionLedger) -> Result<(), AuditMismatch> {
        let charges = self.entries.iter().map(|e| e.charge);
        audit_series(charges, accountant.losses().iter().copied()).1
    }
}

/// The one composition audit: compares a ledger's charge sequence against
/// an accountant's, in order, in a single streaming pass that copies
/// neither.
///
/// `ledger` is the charges a [`BudgetLedger`] recorded, or several
/// ledgers' charges one after another — which audit exactly as one ledger
/// recording them all in order would. The checks, in [`BudgetLedger::audit`]'s
/// precedence:
///
/// 1. the two counts;
/// 2. the first charge that differs bitwise, at its 0-based position;
/// 3. the totals' bits: the ledger side summed from `+0.0`, as
///    [`BudgetLedger::record`] sums, the accountant side from `-0.0`, as
///    `f64`'s `Sum` does, both normalized by adding `+0.0`.
///
/// Each audit bumps `ldp.ledger.audits_ok` or, at every metrics level,
/// `ldp.ledger.audit_failures`.
///
/// Returns the ledger side's [`LedgerSummary`] — complete even when the
/// audit fails — and the verdict.
///
/// # Panics
///
/// Panics on a negative or non-finite accountant charge, as
/// [`CompositionLedger::record`] does.
///
/// ```
/// use ldp_core::{audit_series, AuditMismatch, BudgetLedger};
///
/// let mut window_a = BudgetLedger::new();
/// let mut window_b = BudgetLedger::new();
/// window_a.record(0.5);
/// window_b.record(0.25);
/// let windows = [&window_a, &window_b];
/// let entries = || windows.into_iter().flat_map(|w| w.entries()).map(|e| e.charge);
///
/// let (summary, verdict) = audit_series(entries(), [0.5, 0.25]);
/// assert_eq!(verdict, Ok(()));
/// assert_eq!((summary.len(), summary.total()), (2, 0.75));
///
/// let (_, verdict) = audit_series(entries(), [0.5, 0.125]);
/// let mismatch = AuditMismatch::Charge { query: 1, ledger: 0.25, accountant: 0.125 };
/// assert_eq!(verdict, Err(mismatch));
/// ```
pub fn audit_series<L, A>(ledger: L, accountant: A) -> (LedgerSummary, Result<(), AuditMismatch>)
where
    L: IntoIterator<Item = f64>,
    A: IntoIterator<Item = f64>,
{
    let (mut ledger, mut accountant) = (ledger.into_iter(), accountant.into_iter());
    let mut summary = LedgerSummary::default();
    // `Iterator::sum` for `f64` starts from `-0.0`.
    let (mut queries, mut accountant_total) = (0usize, -0.0f64);
    let mut first_charge = None;
    loop {
        let (charge, loss) = match (ledger.next(), accountant.next()) {
            (None, None) => break,
            pair => pair,
        };
        if let Some(loss) = loss {
            check_loss(loss);
            queries += 1;
            accountant_total += loss;
        }
        if let Some(charge) = charge {
            if let (Some(loss), None) = (loss, first_charge) {
                if charge.to_bits() != loss.to_bits() {
                    first_charge = Some(AuditMismatch::Charge {
                        query: summary.len as u64,
                        ledger: charge,
                        accountant: loss,
                    });
                }
            }
            summary.len += 1;
            summary.total += charge;
        }
    }
    // An empty accountant totals `-0.0` while the ledger side starts at
    // `+0.0`. Adding `+0.0` collapses the two zero encodings (and is exact
    // for every other value), keeping the comparison bitwise.
    let accountant_total = accountant_total + 0.0;
    let verdict = if summary.len != queries {
        Err(AuditMismatch::QueryCount {
            ledger: summary.len as u64,
            accountant: queries as u64,
        })
    } else if let Some(mismatch) = first_charge {
        Err(mismatch)
    } else if (summary.total + 0.0).to_bits() != accountant_total.to_bits() {
        Err(AuditMismatch::Total {
            ledger: summary.total,
            accountant: accountant_total,
        })
    } else {
        Ok(())
    };
    match verdict {
        Ok(()) => AUDITS_OK.inc(),
        Err(_) => AUDIT_FAILURES.record_always(1),
    }
    (summary, verdict)
}

impl Extend<f64> for BudgetLedger {
    /// Records each charge in iteration order (see [`BudgetLedger::record`];
    /// the same panics apply). Mirrors `Extend` on [`CompositionLedger`] so
    /// the two fleet-level records can be fed identically.
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for charge in iter {
            self.record(charge);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_records_audit_clean() {
        let mut ledger = BudgetLedger::new();
        let mut acct = CompositionLedger::new();
        for eps in [0.1, 0.2, 0.1 + 0.2, 1e-9, 5.0] {
            ledger.record(eps);
            acct.record(eps);
        }
        ledger.audit(&acct).unwrap();
        assert_eq!(
            ledger.total().to_bits(),
            acct.losses().iter().sum::<f64>().to_bits()
        );
        assert_eq!(ledger.len(), acct.losses().len());
    }

    #[test]
    fn entries_carry_running_totals() {
        let mut ledger = BudgetLedger::new();
        ledger.record(0.5);
        ledger.record(0.25);
        let e = ledger.entries();
        assert_eq!(e[0].query, 0);
        assert_eq!(e[0].total_after, 0.5);
        assert_eq!(e[1].query, 1);
        assert_eq!(e[1].total_after, 0.75);
    }

    #[test]
    fn count_mismatch_is_reported() {
        let mut ledger = BudgetLedger::new();
        ledger.record(0.5);
        let acct = CompositionLedger::new();
        assert_eq!(
            ledger.audit(&acct),
            Err(AuditMismatch::QueryCount {
                ledger: 1,
                accountant: 0
            })
        );
    }

    #[test]
    fn charge_mismatch_is_reported_with_query_index() {
        let mut ledger = BudgetLedger::new();
        let mut acct = CompositionLedger::new();
        ledger.record(0.5);
        acct.record(0.5);
        ledger.record(0.25);
        acct.record(0.75);
        match ledger.audit(&acct) {
            Err(AuditMismatch::Charge { query: 1, .. }) => {}
            other => panic!("expected charge mismatch at query 1, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "privacy charge must be finite")]
    fn nan_charge_panics() {
        BudgetLedger::new().record(f64::NAN);
    }

    #[test]
    fn extend_matches_record_loop() {
        let mut a = BudgetLedger::new();
        let mut b = BudgetLedger::new();
        a.extend([0.25, 0.5, 0.125]);
        for c in [0.25, 0.5, 0.125] {
            b.record(c);
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "privacy charge must be finite")]
    fn extend_rejects_garbage_like_record() {
        BudgetLedger::new().extend([0.5, f64::NEG_INFINITY]);
    }

    #[test]
    fn double_spend_is_a_typed_error_and_not_accumulated() {
        let mut ledger = BudgetLedger::new();
        ledger.record_spend(7, 0, 0.5).unwrap();
        ledger.record_spend(7, 1, 0.25).unwrap();
        ledger.record_spend(8, 0, 0.5).unwrap();
        // A replayed *cached* report never reaches the ledger; a second
        // fresh charge for an already-charged key must be rejected whole.
        let err = ledger.record_spend(7, 1, 0.125).unwrap_err();
        assert_eq!(
            err,
            DoubleSpend {
                device: 7,
                query: 1,
                first: 0.25,
                second: 0.125
            }
        );
        // Rejected means rejected: total, entry count, and key count are
        // exactly what the three clean spends left behind.
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.spend_keys(), 3);
        assert_eq!(ledger.total(), 1.25);
        let msg = err.to_string();
        assert!(msg.contains("device 7") && msg.contains("query 1"), "{msg}");
    }

    #[test]
    fn released_index_keeps_entries_and_audits() {
        let mut ledger = BudgetLedger::with_capacity(2);
        ledger.record_spend(7, 0, 0.5).unwrap();
        ledger.record_spend(7, 1, 0.25).unwrap();
        ledger.release_spend_index();
        assert_eq!(ledger.spend_keys(), 0);
        assert_eq!((ledger.len(), ledger.total()), (2, 0.75));
        ledger.audit(&[0.5, 0.25].into_iter().collect()).unwrap();
    }

    #[test]
    #[should_panic(expected = "a sealed ledger takes no more spends")]
    fn record_spend_after_release_panics() {
        let mut ledger = BudgetLedger::new();
        ledger.record_spend(7, 0, 0.5).unwrap();
        ledger.release_spend_index();
        let _ = ledger.record_spend(8, 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "privacy loss must be finite")]
    fn series_audit_rejects_a_garbage_accountant_charge() {
        let _ = audit_series([0.5], [f64::NAN]);
    }

    #[test]
    fn keyed_spends_audit_like_plain_records() {
        let mut ledger = BudgetLedger::new();
        let mut acct = CompositionLedger::new();
        for (d, q, eps) in [(0u64, 0u64, 0.1), (0, 1, 0.2), (1, 0, 0.1)] {
            ledger.record_spend(d, q, eps).unwrap();
            acct.record(eps);
        }
        ledger.audit(&acct).unwrap();
    }

    #[test]
    fn empty_ledger_audits_against_empty_accountant() {
        BudgetLedger::new()
            .audit(&CompositionLedger::new())
            .unwrap();
        assert!(BudgetLedger::new().is_empty());
    }
}
