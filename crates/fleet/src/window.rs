//! Epoch-window lifecycle and multi-epoch rollups.
//!
//! The streaming service ([`crate::service::FleetService`]) partitions the
//! epoch axis into fixed-width **windows** and runs each through an
//! explicit state machine:
//!
//! ```text
//! Open ──▶ Accumulating ──▶ Sealing ──▶ Sealed{Full|Degraded} ──▶ Compacted
//!   └──────────────────────────▲ (an empty window can seal directly)
//! ```
//!
//! * **Open** — the window exists; no report has been routed to it yet.
//! * **Accumulating** — at least one batch has been folded into it.
//! * **Sealing** — the watermark passed; the service is draining queues
//!   and folding the window's accumulators. No further report can enter.
//! * **Sealed** — the window carries its final totals, its own
//!   [`BudgetLedger`], a coverage grade ([`SealStatus::Full`] or
//!   [`SealStatus::Degraded`]), and a ledger audit verdict.
//! * **Compacted** — the window's aggregates were merged into a
//!   [`Rollup`]; the window itself is now only a historical record.
//!
//! Illegal transitions are typed errors, not silent corrections: a sealed
//! window reopening, or a compaction of an unsealed window, is a lifecycle
//! bug the caller must see.
//!
//! # Rollup determinism
//!
//! `f64` addition is order-sensitive, and [`BudgetLedger::merge`] replays
//! charges sequentially — so a naive "merge windows as they arrive" fold
//! would make the rollup's ledger bits depend on arrival order. The
//! [`Rollup`] therefore *canonicalizes*: it owns the sealed windows, kept
//! sorted by window index, and [`Rollup::finalize`] folds accumulators and
//! ledgers in ascending index order regardless of absorption order.
//! Merging the same sealed windows in any order yields byte-identical
//! totals, ledger bits, and digests — property-tested in
//! `tests/service.rs`. The exact `i128` moment accumulators are
//! associative anyway; the canonical order exists for the ledger (and for
//! the digest text).

use std::fmt;

use ldp_core::{BudgetLedger, CompositionLedger};
use ulp_obs::Fnv64;

use crate::collector::{EpochSeal, IngestStats, QueryConfig, QueryTotals, SealStatus};

/// Lifecycle phase of one epoch window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPhase {
    /// Created; nothing routed to it yet.
    Open,
    /// At least one batch folded in.
    Accumulating,
    /// Watermark passed; accumulators are being folded. No more reports.
    Sealing,
    /// Final totals and ledger attached, coverage graded.
    Sealed(SealStatus),
    /// Aggregates merged into a rollup.
    Compacted,
}

impl WindowPhase {
    fn name(&self) -> &'static str {
        match self {
            WindowPhase::Open => "Open",
            WindowPhase::Accumulating => "Accumulating",
            WindowPhase::Sealing => "Sealing",
            WindowPhase::Sealed(_) => "Sealed",
            WindowPhase::Compacted => "Compacted",
        }
    }
}

/// An attempted lifecycle transition the state machine forbids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStateError {
    /// Window index the transition was attempted on.
    pub window: u32,
    /// Phase the window was in.
    pub from: &'static str,
    /// Transition that was attempted.
    pub to: &'static str,
}

impl fmt::Display for WindowStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window {} cannot move {} -> {}",
            self.window, self.from, self.to
        )
    }
}

impl std::error::Error for WindowStateError {}

/// One epoch window's lifecycle record.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    index: u32,
    epoch_lo: u32,
    epoch_hi: u32,
    phase: WindowPhase,
}

impl Window {
    /// Opens window `index` covering epochs `[epoch_lo, epoch_hi)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty epoch range.
    pub fn open(index: u32, epoch_lo: u32, epoch_hi: u32) -> Window {
        assert!(epoch_lo < epoch_hi, "window must cover at least one epoch");
        Window {
            index,
            epoch_lo,
            epoch_hi,
            phase: WindowPhase::Open,
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

    /// Current lifecycle phase.
    pub fn phase(&self) -> WindowPhase {
        self.phase
    }

    fn forbid(&self, to: &'static str) -> WindowStateError {
        WindowStateError {
            window: self.index,
            from: self.phase.name(),
            to,
        }
    }

    /// `Open → Accumulating`: the first batch was routed into the window.
    /// Idempotent while accumulating (every subsequent batch re-marks).
    ///
    /// # Errors
    ///
    /// [`WindowStateError`] once sealing has begun — a report folded into
    /// a sealing window would escape its seal.
    pub fn mark_accumulating(&mut self) -> Result<(), WindowStateError> {
        match self.phase {
            WindowPhase::Open | WindowPhase::Accumulating => {
                self.phase = WindowPhase::Accumulating;
                Ok(())
            }
            _ => Err(self.forbid("Accumulating")),
        }
    }

    /// `Open|Accumulating → Sealing`: the watermark passed. An empty
    /// window seals directly from `Open`.
    ///
    /// # Errors
    ///
    /// [`WindowStateError`] if sealing already began or finished.
    pub fn begin_seal(&mut self) -> Result<(), WindowStateError> {
        match self.phase {
            WindowPhase::Open | WindowPhase::Accumulating => {
                self.phase = WindowPhase::Sealing;
                Ok(())
            }
            _ => Err(self.forbid("Sealing")),
        }
    }

    /// `Sealing → Sealed`: final totals are attached and coverage graded.
    ///
    /// # Errors
    ///
    /// [`WindowStateError`] unless the window is mid-seal.
    pub fn seal(&mut self, status: SealStatus) -> Result<(), WindowStateError> {
        match self.phase {
            WindowPhase::Sealing => {
                self.phase = WindowPhase::Sealed(status);
                Ok(())
            }
            _ => Err(self.forbid("Sealed")),
        }
    }

    /// `Sealed → Compacted`: the window's aggregates joined a rollup.
    ///
    /// # Errors
    ///
    /// [`WindowStateError`] unless the window is sealed.
    pub fn compact(&mut self) -> Result<(), WindowStateError> {
        match self.phase {
            WindowPhase::Sealed(_) => {
                self.phase = WindowPhase::Compacted;
                Ok(())
            }
            _ => Err(self.forbid("Compacted")),
        }
    }
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
    /// (chunk, device, epoch) order.
    pub ledger: BudgetLedger,
    /// The charges behind `ledger`, in record order — the rollup re-audits
    /// the merged ledger against an accountant replaying these.
    pub charges: Vec<f64>,
    /// Coverage grade (expected vs accepted, against the service quorum).
    pub seal: EpochSeal,
    /// Ingest deltas attributed to this window's accumulation span.
    pub stats: IngestStats,
    /// Whether `ledger` audits bitwise against an independently folded
    /// composition accountant over `charges`.
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
/// order, so the merged `i128` accumulators *and* the merged ledger's `f64`
/// bits are a pure function of the set of windows, never of absorption
/// order.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    /// Absorbed windows, ascending index, no index twice.
    windows: Vec<SealedWindow>,
}

/// The fold of a set of sealed windows: merged exact aggregates, a merged
/// ledger re-audited bitwise, and a digest chaining the per-window digests.
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
    /// Every window ledger merged in window-index order.
    pub ledger: BudgetLedger,
    /// Whether the merged ledger audits bitwise against a composition
    /// accountant replaying every window's charges in the same canonical
    /// order — the proof that the guarantee survived the merge.
    pub audit_ok: bool,
    /// Summed ingest deltas.
    pub stats: IngestStats,
    /// Summed coverage (expected / accepted over all windows), graded
    /// against the quorum passed to [`Rollup::finalize`].
    pub seal: EpochSeal,
    /// FNV-1a digest chaining every per-window digest (in index order)
    /// with the merged ledger bits.
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
    /// [`RollupError::QueryShapeMismatch`] if its query count differs from
    /// the windows already held.
    pub fn absorb(&mut self, window: SealedWindow) -> Result<(), RollupError> {
        if let Some(first) = self.windows.first() {
            if first.totals.len() != window.totals.len() {
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
    /// exact accumulators, replays every window ledger into one merged
    /// [`BudgetLedger`], re-audits it bitwise against a fresh composition
    /// accountant over the same canonical charge order, sums coverage and
    /// grades it against `quorum`, and chains the per-window digests.
    ///
    /// # Panics
    ///
    /// Panics on an empty rollup (there is nothing to grade) or a
    /// `quorum` outside `[0, 1]`.
    pub fn finalize(&self, quorum: f64) -> RollupOutcome {
        assert!(!self.windows.is_empty(), "rollup must hold a window");
        let mut totals: Option<Vec<QueryTotals>> = None;
        let mut ledger = BudgetLedger::new();
        let mut accountant = CompositionLedger::new();
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
            ledger.merge(&w.ledger);
            for &c in &w.charges {
                accountant.record(c);
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
        audit_ok &= ledger.audit(&accountant).is_ok();
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
        let mut accountant = CompositionLedger::new();
        accountant.record(charge);
        let audit_ok = ledger.audit(&accountant).is_ok();
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
            audit_ok,
        }
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut w = Window::open(0, 0, 2);
        assert_eq!(w.phase(), WindowPhase::Open);
        w.mark_accumulating().unwrap();
        w.mark_accumulating().unwrap(); // idempotent while accumulating
        w.begin_seal().unwrap();
        w.seal(SealStatus::Full).unwrap();
        assert_eq!(w.phase(), WindowPhase::Sealed(SealStatus::Full));
        w.compact().unwrap();
        assert_eq!(w.phase(), WindowPhase::Compacted);
    }

    #[test]
    fn empty_window_seals_directly_from_open() {
        let mut w = Window::open(3, 6, 8);
        w.begin_seal().unwrap();
        w.seal(SealStatus::Degraded { coverage: 0.0 }).unwrap();
    }

    #[test]
    fn illegal_transitions_are_typed_errors() {
        let mut w = Window::open(1, 2, 4);
        // Cannot seal or compact before the watermark passes.
        assert!(w.seal(SealStatus::Full).is_err());
        assert!(w.compact().is_err());
        w.begin_seal().unwrap();
        // A sealing window accepts no more batches and cannot re-seal.
        let err = w.mark_accumulating().unwrap_err();
        assert_eq!(err.from, "Sealing");
        assert_eq!(err.to, "Accumulating");
        assert!(w.begin_seal().is_err());
        w.seal(SealStatus::Full).unwrap();
        // Sealed windows never reopen.
        assert!(w.mark_accumulating().is_err());
        assert!(w.begin_seal().is_err());
        w.compact().unwrap();
        assert!(w.compact().is_err());
        assert_eq!(
            w.compact().unwrap_err().to_string(),
            "window 1 cannot move Compacted -> Compacted"
        );
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
