//! Epoch windows and multi-epoch rollups.
//!
//! The streaming service ([`crate::service::FleetService`]) partitions the
//! epoch axis into fixed-width **windows**. Until it seals, a window is
//! only its span, a [`Window`]: an index and the epochs it covers. Where
//! each window stands follows from the service's one active index:
//!
//! ```text
//! pending ──▶ accepting ──▶ sealed into the rollup
//! ```
//!
//! * **pending** — a window after the active one; nothing is routed to it
//!   yet.
//! * **accepting** — the active window: every drained batch folds into the
//!   collector's accumulators, which its seal takes.
//! * **sealed** — its watermark passed, and the service drained the
//!   queues, folded the accumulators into a [`SealedWindow`] (final
//!   totals, its own [`BudgetLedger`], a coverage grade and a ledger audit
//!   verdict) and moved that into the [`Rollup`], which holds the only
//!   copy. The active index then moves past it, so a sealed window never
//!   reopens: a frame for it that arrives later is counted `late`.
//!
//! The service takes each step in one fixed order, inside its `drain` and
//! `seal_active`; the one step that can be asked out of turn, a seal past
//! the last window, is a typed error
//! ([`crate::service::AllWindowsSealed`]).
//!
//! # What a sealed window holds
//!
//! Its totals, seal, stats and audit verdict, and its share of the ε-ledger
//! once: the ledger's entries (24 B per spend) and the charge list it was
//! audited against (8 B per spend). The ledger's keyed double-spend index
//! is released at the seal — nothing records into a sealed window — so
//! [`BudgetLedger::spend_keys`] reads 0 there. The entries and charges stay
//! for the two re-audits that read them after the run: [`Rollup::finalize`]
//! and any caller repeating a window's [`BudgetLedger::audit`].
//!
//! # Rollup determinism
//!
//! `f64` addition is order-sensitive, so a naive "merge windows as they
//! arrive" fold would make the rollup's ledger total depend on arrival
//! order. The [`Rollup`] therefore *canonicalizes*: it owns the sealed
//! windows, kept sorted by window index, and [`Rollup::finalize`] folds
//! accumulators and ledgers in ascending index order regardless of
//! absorption order. Merging the same sealed windows in any order yields
//! byte-identical totals, ledger bits, and digests — property-tested in
//! `tests/service.rs`. The exact `i128` moment accumulators are
//! associative anyway; the canonical order exists for the ledger (and for
//! the digest text).
//!
//! The ledger fold is one streaming pass, [`ldp_core::audit_series`],
//! over every window's ledger entries against every window's charges, in
//! index order. It re-audits the concatenation bitwise and sums the merged
//! total in the same sequential order [`BudgetLedger::merge`] would,
//! without building a merged ledger or an accountant: the outcome keeps
//! only a [`LedgerSummary`].

use std::fmt;

use ldp_core::{audit_series, BudgetLedger, LedgerSummary};
use ulp_obs::Fnv64;

use crate::collector::{EpochSeal, IngestStats, QueryConfig, QueryTotals, SealStatus};

/// One epoch window's span: its index and the epochs it covers. The
/// service keeps one per window and seals them in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    index: u32,
    epoch_lo: u32,
    epoch_hi: u32,
}

impl Window {
    /// Window `index`, covering epochs `[epoch_lo, epoch_hi)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty epoch range.
    pub(crate) fn new(index: u32, epoch_lo: u32, epoch_hi: u32) -> Window {
        assert!(epoch_lo < epoch_hi, "window must cover at least one epoch");
        Window {
            index,
            epoch_lo,
            epoch_hi,
        }
    }

    /// Window index (position on the epoch axis, `epoch_lo / width`).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// First epoch the window covers.
    pub fn epoch_lo(&self) -> u32 {
        self.epoch_lo
    }

    /// One past the last epoch the window covers.
    pub fn epoch_hi(&self) -> u32 {
        self.epoch_hi
    }
}

/// A query's shape: its sketch range if numeric, `None` if RR.
fn query_shape(t: &QueryTotals) -> Option<(i64, i64)> {
    t.sketch.as_ref().map(|s| (s.min_k(), s.max_k()))
}

/// Canonical rendering of one query's exact accumulators (sketch included
/// as an FNV digest over its bins).
fn totals_text(t: &QueryTotals) -> String {
    let sketch = match &t.sketch {
        None => "none".to_string(),
        Some(s) => {
            let mut h = Fnv64::new();
            for k in s.min_k()..=s.max_k() {
                h.write(&s.count(k).to_le_bytes());
            }
            format!("{:016x}", h.finish())
        }
    };
    format!(
        "count={} sum={} sum2={} sum3={} sum4={} ones={} sketch={}",
        t.count, t.sum, t.sum2, t.sum3, t.sum4, t.ones, sketch
    )
}

/// One sealed epoch window: final exact aggregates, its own privacy
/// ledger, per-window ingest deltas, and a coverage grade.
#[derive(Debug, Clone)]
pub struct SealedWindow {
    /// Window index (`epoch_lo / width`).
    pub index: u32,
    /// First epoch covered.
    pub epoch_lo: u32,
    /// One past the last epoch covered.
    pub epoch_hi: u32,
    /// Exact per-query accumulators, in query registration order.
    pub totals: Vec<QueryTotals>,
    /// The window's share of the fleet privacy ledger: every fresh
    /// randomization charged in a covered epoch, replayed in canonical
    /// (chunk, device, epoch) order. Its keyed spend index was released at
    /// the seal.
    pub ledger: BudgetLedger,
    /// The charges behind `ledger`, in record order — the rollup re-audits
    /// the windows' ledgers against these, window after window.
    pub charges: Vec<f64>,
    /// Coverage grade (expected vs accepted, against the service quorum).
    pub seal: EpochSeal,
    /// Ingest deltas attributed to this window's accumulation span.
    pub stats: IngestStats,
    /// Whether `ledger` audited bitwise against `charges` at the seal.
    pub audit_ok: bool,
}

impl SealedWindow {
    /// Canonical rendering of every schedule-independent field; float bits
    /// are rendered exactly via [`f64::to_bits`].
    pub fn canonical_text(&self) -> String {
        let seal = match self.seal.status {
            SealStatus::Full => "full".to_string(),
            SealStatus::Degraded { coverage } => format!("degraded:{:016x}", coverage.to_bits()),
        };
        let totals: Vec<String> = self.totals.iter().map(totals_text).collect();
        format!(
            "window={} epochs=[{},{}) seal={} expected={} accepted={}\n\
             totals=[{}]\n\
             ledger_total={:016x} ledger_entries={} audit_ok={}\n\
             accepted={} rejected={} duplicates={} stale={} late={} \
             quarantine_dropped={} quarantine_latched={}\n",
            self.index,
            self.epoch_lo,
            self.epoch_hi,
            seal,
            self.seal.expected,
            self.seal.accepted,
            totals.join(" | "),
            self.ledger.total().to_bits(),
            self.ledger.len(),
            self.audit_ok,
            self.stats.accepted,
            self.stats.rejected,
            self.stats.duplicates,
            self.stats.stale,
            self.stats.late,
            self.stats.quarantine_dropped,
            self.stats.quarantine_latched,
        )
    }

    /// FNV-1a 64-bit digest of [`SealedWindow::canonical_text`].
    pub fn digest(&self) -> u64 {
        Fnv64::hash(self.canonical_text().as_bytes())
    }
}

/// Why a sealed window could not join a rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollupError {
    /// A window with this index was already absorbed.
    DuplicateWindow(u32),
    /// The window's query shape differs from the rollup's.
    QueryShapeMismatch,
}

impl fmt::Display for RollupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollupError::DuplicateWindow(i) => write!(f, "window {i} already in the rollup"),
            RollupError::QueryShapeMismatch => write!(f, "window query shape mismatch"),
        }
    }
}

impl std::error::Error for RollupError {}

/// An order-canonicalizing accumulator of sealed windows.
///
/// Windows may be absorbed in any order; the rollup owns each one and keeps
/// them sorted by window index, and [`Rollup::finalize`] folds them in that
/// order, so the merged `i128` accumulators *and* the merged ledger total's
/// `f64` bits are a pure function of the set of windows, never of
/// absorption order.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    /// Absorbed windows, ascending index, no index twice.
    windows: Vec<SealedWindow>,
}

/// The fold of a set of sealed windows: merged exact aggregates, the
/// merged ledger's summary re-audited bitwise, and a digest chaining the
/// per-window digests.
#[derive(Debug, Clone)]
pub struct RollupOutcome {
    /// Windows folded.
    pub windows: usize,
    /// First epoch covered by any folded window.
    pub epoch_lo: u32,
    /// One past the last epoch covered.
    pub epoch_hi: u32,
    /// Merged per-query accumulators, in query registration order.
    pub totals: Vec<QueryTotals>,
    /// Length and sequential total of every window ledger's charges in
    /// window-index order — what [`BudgetLedger::merge`] of the windows
    /// would hold.
    pub ledger: LedgerSummary,
    /// Whether every window audited clean at its seal and the windows'
    /// ledgers, concatenated in index order, audit bitwise against their
    /// charges in the same order — the proof that the guarantee survived
    /// the merge.
    pub audit_ok: bool,
    /// Summed ingest deltas.
    pub stats: IngestStats,
    /// Summed coverage (expected / accepted over all windows), graded
    /// against the quorum passed to [`Rollup::finalize`].
    pub seal: EpochSeal,
    /// FNV-1a digest chaining every per-window digest (in index order)
    /// with the merged ledger's total bits and length.
    pub digest: u64,
}

impl Rollup {
    /// An empty rollup.
    pub fn new() -> Rollup {
        Rollup::default()
    }

    /// Sealed windows absorbed so far.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The absorbed windows, ascending index.
    pub fn windows(&self) -> &[SealedWindow] {
        &self.windows
    }

    /// Absorbs one sealed window, in any order, taking ownership of it.
    ///
    /// # Errors
    ///
    /// [`RollupError::DuplicateWindow`] if the index was already absorbed;
    /// [`RollupError::QueryShapeMismatch`] if its queries differ from the
    /// windows already held in count, in kind, or in sketch range — any of
    /// which [`Rollup::finalize`] could not merge.
    pub fn absorb(&mut self, window: SealedWindow) -> Result<(), RollupError> {
        if let Some(first) = self.windows.first() {
            let held = first.totals.iter().map(query_shape);
            if !held.eq(window.totals.iter().map(query_shape)) {
                return Err(RollupError::QueryShapeMismatch);
            }
        }
        match self
            .windows
            .binary_search_by_key(&window.index, |w| w.index)
        {
            Ok(_) => Err(RollupError::DuplicateWindow(window.index)),
            Err(at) => {
                self.windows.insert(at, window);
                Ok(())
            }
        }
    }

    /// Folds every absorbed window in ascending index order: merges the
    /// exact accumulators, re-audits every window ledger's entries against
    /// every window's charges bitwise in one streaming pass (summing the
    /// merged total on the way), sums coverage and grades it against
    /// `quorum`, and chains the per-window digests.
    ///
    /// # Panics
    ///
    /// Panics on an empty rollup (there is nothing to grade) or a
    /// `quorum` outside `[0, 1]`.
    pub fn finalize(&self, quorum: f64) -> RollupOutcome {
        assert!(!self.windows.is_empty(), "rollup must hold a window");
        let mut totals: Option<Vec<QueryTotals>> = None;
        let mut stats = IngestStats::default();
        let mut expected = 0u64;
        let mut accepted = 0u64;
        let mut epoch_lo = u32::MAX;
        let mut epoch_hi = 0u32;
        let mut digest = Fnv64::new();
        let mut audit_ok = true;
        for w in &self.windows {
            match totals.as_mut() {
                None => totals = Some(w.totals.clone()),
                Some(ts) => {
                    for (t, o) in ts.iter_mut().zip(&w.totals) {
                        t.merge(o);
                    }
                }
            }
            audit_ok &= w.audit_ok;
            stats.absorb(w.stats);
            expected += w.seal.expected;
            accepted += w.seal.accepted;
            epoch_lo = epoch_lo.min(w.epoch_lo);
            epoch_hi = epoch_hi.max(w.epoch_hi);
            digest.write(&w.index.to_le_bytes());
            digest.write(&w.digest().to_le_bytes());
        }
        let (ledger, verdict) = audit_series(
            self.windows
                .iter()
                .flat_map(|w| w.ledger.entries())
                .map(|e| e.charge),
            self.windows.iter().flat_map(|w| w.charges.iter().copied()),
        );
        audit_ok &= verdict.is_ok();
        digest.write(&ledger.total().to_bits().to_le_bytes());
        digest.write(&(ledger.len() as u64).to_le_bytes());
        RollupOutcome {
            windows: self.windows.len(),
            epoch_lo,
            epoch_hi,
            totals: totals.expect("non-empty rollup"),
            ledger,
            audit_ok,
            stats,
            seal: EpochSeal::evaluate(expected, accepted, quorum),
            digest: digest.finish(),
        }
    }
}

/// Splits the epoch axis `[0, epochs)` into windows of `width` epochs
/// (the last window may be narrower). Helper shared by the service and
/// its tests.
pub fn window_spans(epochs: u32, width: u32) -> Vec<(u32, u32)> {
    assert!(width > 0, "window width must be positive");
    assert!(epochs > 0, "need at least one epoch");
    (0..epochs.div_ceil(width))
        .map(|i| (i * width, ((i + 1) * width).min(epochs)))
        .collect()
}

/// Query-shape helper: index of the first numeric query and the first RR
/// query in a registration, if present.
pub(crate) fn query_roles(queries: &[QueryConfig]) -> (Option<usize>, Option<usize>) {
    let numeric = queries
        .iter()
        .position(|q| matches!(q.kind, crate::collector::QueryKind::Numeric { .. }));
    let rr = queries
        .iter()
        .position(|q| matches!(q.kind, crate::collector::QueryKind::RrBit));
    (numeric, rr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(index: u32, charge: f64) -> SealedWindow {
        let mut totals = QueryTotals::new_numeric(-4, 4);
        totals.absorb_value(i64::from(index) - 1);
        let mut ledger = BudgetLedger::new();
        ledger.record(charge);
        SealedWindow {
            index,
            epoch_lo: index * 2,
            epoch_hi: index * 2 + 2,
            totals: vec![totals],
            ledger,
            charges: vec![charge],
            seal: EpochSeal::evaluate(2, 2, 0.9),
            stats: IngestStats {
                accepted: 1,
                ..IngestStats::default()
            },
            audit_ok: true,
        }
    }

    #[test]
    fn rollup_rejects_duplicates_and_shape_mismatches() {
        let mut r = Rollup::new();
        r.absorb(sealed(0, 0.5)).unwrap();
        assert_eq!(
            r.absorb(sealed(0, 0.5)),
            Err(RollupError::DuplicateWindow(0))
        );
        let mut two_queries = sealed(1, 0.5);
        two_queries.totals.push(QueryTotals::default());
        assert_eq!(r.absorb(two_queries), Err(RollupError::QueryShapeMismatch));
        // One query each, but one `finalize` could not merge: another
        // sketch range, or RR totals where the rollup holds numeric ones.
        let mut wider = sealed(1, 0.5);
        wider.totals = vec![QueryTotals::new_numeric(-8, 8)];
        assert_eq!(r.absorb(wider), Err(RollupError::QueryShapeMismatch));
        let mut rr = sealed(1, 0.5);
        rr.totals = vec![QueryTotals::default()];
        assert_eq!(r.absorb(rr), Err(RollupError::QueryShapeMismatch));
        // Refusals leave the rollup whole: it still finalizes.
        r.absorb(sealed(1, 0.5)).unwrap();
        assert_eq!(r.finalize(0.9).windows, 2);
    }

    #[test]
    fn finalize_is_independent_of_absorption_order() {
        let windows: Vec<SealedWindow> = (0..5)
            .map(|i| sealed(i, 0.5 + f64::from(i) * 0.125))
            .collect();
        let mut forward = Rollup::new();
        for w in &windows {
            forward.absorb(w.clone()).unwrap();
        }
        let mut reverse = Rollup::new();
        for w in windows.iter().rev() {
            reverse.absorb(w.clone()).unwrap();
        }
        let a = forward.finalize(0.9);
        let b = reverse.finalize(0.9);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.ledger.total().to_bits(), b.ledger.total().to_bits());
        assert_eq!(a.digest, b.digest);
        assert!(a.audit_ok && b.audit_ok);
        assert_eq!(a.epoch_lo, 0);
        assert_eq!(a.epoch_hi, 10);
        assert_eq!(a.stats.accepted, 5);
    }

    #[test]
    fn window_spans_cover_the_epoch_axis() {
        assert_eq!(window_spans(8, 2), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
        assert_eq!(window_spans(5, 2), vec![(0, 2), (2, 4), (4, 5)]);
        assert_eq!(window_spans(1, 4), vec![(0, 1)]);
    }
}
