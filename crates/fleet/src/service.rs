//! The streaming aggregation service: bounded ingest queues with typed
//! backpressure, epoch-window sealing under a watermark policy, live
//! snapshot queries, and multi-epoch rollups.
//!
//! [`FleetService`] wraps a [`Collector`] with the machinery a
//! long-running deployment needs and a bare collector does not. It is
//! the fleet driver's only ingest route: a batch run is one window over
//! every epoch ([`crate::FleetDriver::one_window`]). The machinery:
//!
//! * **Bounded per-lane ingest queues.** Producers (device uplinks, one
//!   lane per simulation chunk in the driver) stage wire bytes with
//!   [`FleetService::offer`]. A lane whose queue is at capacity gets a
//!   typed [`Busy`] rejection *before* anything is admitted — the whole
//!   batch is refused and the sender retries, so an **admitted** report is
//!   never silently dropped. Capacity is a soft bound: a drained (empty)
//!   lane accepts any single batch, so a retry after a drain always
//!   succeeds and the queue depth is bounded by `queue_frames` plus one
//!   batch.
//! * **Windows under a watermark.** The epoch axis is split into
//!   fixed-width windows ([`crate::window`]), and one of them, the active
//!   window, accepts reports: those before it are sealed, those after it
//!   are pending. The active window stays open for
//!   `watermark_lag` delivery rounds past its last epoch — delayed frames
//!   arriving within the grace land normally — then seals: queues are
//!   drained, the window's accumulators are folded out of the collector,
//!   coverage is graded, and the collector's watermark floor advances.
//!   Frames for a sealed window that arrive later surface as the typed,
//!   counted `late` outcome ([`crate::collector::IngestStats::late`]) —
//!   never as silent absorption into the wrong window.
//! * **Sender state outlives windows.** Dedup windows, strike counts, and
//!   quarantine latches live in the collector's shard state and are
//!   deliberately *not* reset at a seal: a device quarantined in epoch `k`
//!   stays quarantined in epoch `k+1`, and replays older than the
//!   128-epoch dedup horizon stay `Stale` across window boundaries.
//! * **Live snapshot queries.** [`FleetService::snapshot`] serves debiased
//!   [`Estimate`]s from every *sealed* window while the next window is
//!   still accumulating — reads never touch in-flight accumulators.
//! * **Rollups.** Every sealed window moves into an order-canonicalized
//!   [`Rollup`], which holds the service's only copy of it
//!   ([`FleetService::sealed_windows`] reads the rollup's);
//!   [`FleetService::rollup`] folds them with the ledger audit preserved
//!   bitwise across the merge.
//!
//! Everything the service does is a pure function of the byte streams
//! offered to it and the round clock — no wall time, no thread schedule —
//! so a simulated-clock run is byte-identical at any thread count.

use ldp_core::{audit_series, BudgetLedger, LdpError};
use ulp_obs::{parse_env, EnvError, Gauge, Histogram};

use crate::collector::{Collector, EpochSeal, IngestStats, QueryConfig};
use crate::estimator::{Estimate, NoiseModel};
use crate::window::{query_roles, window_spans, Rollup, SealedWindow, Window};
use crate::wire::FRAME_LEN;

/// Frames currently staged across all ingest lanes.
static QUEUE_DEPTH: Gauge = Gauge::new("fleet.service.queue_depth");
/// Windows accepting reports: 1 until the last one seals.
static OPEN_WINDOWS: Gauge = Gauge::new("fleet.service.open_windows");
/// Batches refused with [`Busy`] — recorded at every metrics level:
/// backpressure is load-shedding the operator must see.
static BACKPRESSURE: ulp_obs::Counter = ulp_obs::Counter::new("fleet.service.busy_rejections");
/// Frames drained per [`FleetService::drain`] call.
static DRAIN_FRAMES: Histogram = Histogram::new("fleet.service.drain_frames", "frames");
/// Wall-clock of each window seal (fold + grade, after the final drain).
static SEAL_NS: Histogram = Histogram::new("fleet.service.seal_ns", "ns");

/// Environment variable overriding the service window width (epochs).
pub(crate) const SERVICE_WINDOW_ENV: &str = "ULP_SERVICE_WINDOW_EPOCHS";
/// Environment variable overriding the per-lane queue capacity (frames).
pub(crate) const SERVICE_QUEUE_ENV: &str = "ULP_SERVICE_QUEUE_FRAMES";

/// Streaming-service parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Epochs per window (≥ 1).
    pub window_epochs: u32,
    /// Per-lane ingest queue capacity, in frames (≥ 1). A soft bound:
    /// an empty lane admits any single batch.
    pub queue_frames: usize,
    /// Delivery rounds past a window's last epoch before it seals —
    /// the watermark grace for delayed frames.
    pub watermark_lag: u32,
    /// Per-window coverage threshold below which a seal is graded
    /// [`crate::collector::SealStatus::Degraded`].
    pub quorum: f64,
}

impl ServiceConfig {
    /// A service sealing every `window_epochs` epochs with the given
    /// per-lane queue capacity, no watermark grace, and a 0.9 quorum.
    ///
    /// # Panics
    ///
    /// Panics if `window_epochs` or `queue_frames` is zero.
    pub fn new(window_epochs: u32, queue_frames: usize) -> ServiceConfig {
        assert!(window_epochs > 0, "window must cover at least one epoch");
        assert!(queue_frames > 0, "queue capacity must be positive");
        ServiceConfig {
            window_epochs,
            queue_frames,
            watermark_lag: 0,
            quorum: 0.9,
        }
    }

    /// Sets the watermark grace (rounds past a window's end before seal).
    pub fn with_watermark_lag(mut self, lag: u32) -> ServiceConfig {
        self.watermark_lag = lag;
        self
    }

    /// Applies the strict `ULP_SERVICE_*` environment overrides to this
    /// configuration: `ULP_SERVICE_WINDOW_EPOCHS` (a positive integer of
    /// epochs) and `ULP_SERVICE_QUEUE_FRAMES` (a positive integer of
    /// frames).
    ///
    /// # Errors
    ///
    /// [`EnvError`] on a set-but-malformed value (including `0`) — never
    /// a silent fallback to the built-in default.
    pub fn with_env_overrides(mut self) -> Result<ServiceConfig, EnvError> {
        if let Some(w) = parse_env(SERVICE_WINDOW_ENV, "positive integer of epochs", |s| {
            s.parse::<u32>().ok().filter(|&w| w > 0)
        })? {
            self.window_epochs = w;
        }
        if let Some(q) = parse_env(SERVICE_QUEUE_ENV, "positive integer of frames", |s| {
            s.parse::<usize>().ok().filter(|&q| q > 0)
        })? {
            self.queue_frames = q;
        }
        Ok(self)
    }
}

/// Typed backpressure: the lane's queue is full, nothing from the offered
/// batch was admitted, and the sender should retry after the service has
/// drained — in the simulated clock, `retry_after` rounds from now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Rounds until a retry can expect admission (after the next drain).
    retry_after: u32,
}

impl core::fmt::Display for Busy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ingest queue full, retry after {} round(s)",
            self.retry_after
        )
    }
}

impl std::error::Error for Busy {}

/// A seal asked of a service whose windows are all sealed already.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllWindowsSealed {
    /// The service's window count, every one of them sealed.
    windows: u32,
}

impl core::fmt::Display for AllWindowsSealed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no window left to seal: all {} are sealed", self.windows)
    }
}

impl std::error::Error for AllWindowsSealed {}

/// Debiased estimates served from one sealed window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowEstimates {
    /// Window index.
    pub index: u32,
    /// Population-mean estimate (codes), if the window saw ≥ 2 values.
    pub mean: Option<Estimate>,
    /// Population-variance estimate (codes²).
    pub variance: Option<Estimate>,
    /// Report-distribution median (codes).
    pub median: Option<Estimate>,
    /// Debiased above-threshold fraction from the window's RR bits.
    pub rr_frequency: Option<Estimate>,
}

/// A live snapshot: per-window estimates from every sealed window, taken
/// while later windows may still be accumulating.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSnapshot {
    /// Windows sealed at snapshot time.
    pub windows_sealed: usize,
    /// Estimates per sealed window, ascending index.
    pub windows: Vec<WindowEstimates>,
}

/// The streaming aggregation service. See the module docs for the model.
#[derive(Debug)]
pub struct FleetService {
    collector: Collector,
    cfg: ServiceConfig,
    queries: Vec<QueryConfig>,
    /// Every window's span, by index.
    windows: Vec<Window>,
    /// Index of the window accepting reports: the windows before it are
    /// sealed into `rollup`, the ones after it are pending. `windows.len()`
    /// once every window is sealed.
    active: usize,
    /// Per-lane staged wire bytes.
    lanes: Vec<Vec<u8>>,
    /// Per-lane staged frame counts.
    lane_frames: Vec<usize>,
    /// Cumulative ingest stats over the service lifetime.
    stats: IngestStats,
    /// `stats` snapshot at the last seal (per-window deltas subtract it).
    window_base: IngestStats,
    /// Every sealed window, owned once.
    rollup: Rollup,
    backpressure_rejections: u64,
    /// Highest staged frame count any single drain saw.
    max_drain_frames: usize,
    /// Nanoseconds each seal took (fold + grade, after the final drain),
    /// per window.
    seal_ns: Vec<u64>,
}

impl FleetService {
    /// Wraps a *fresh* collector (nothing ingested yet) with `lanes`
    /// producer queues, splitting `[0, epochs)` into
    /// `cfg.window_epochs`-wide windows. Window 0 accepts reports at once.
    ///
    /// # Panics
    ///
    /// Panics if the collector has already ingested frames, if `lanes` is
    /// zero, or if `epochs` is zero.
    pub fn new(collector: Collector, cfg: ServiceConfig, lanes: usize, epochs: u32) -> Self {
        assert!(
            collector.reports_ingested() == 0 && collector.frames_rejected() == 0,
            "service needs a fresh collector"
        );
        assert!(lanes > 0, "need at least one ingest lane");
        let spans = window_spans(epochs, cfg.window_epochs);
        let windows: Vec<Window> = spans
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| Window::new(i as u32, lo, hi))
            .collect();
        OPEN_WINDOWS.set(1);
        let queries = collector.queries().to_vec();
        FleetService {
            collector,
            cfg,
            queries,
            windows,
            active: 0,
            lanes: vec![Vec::new(); lanes],
            lane_frames: vec![0; lanes],
            stats: IngestStats::default(),
            window_base: IngestStats::default(),
            rollup: Rollup::new(),
            backpressure_rejections: 0,
            max_drain_frames: 0,
            seal_ns: Vec::new(),
        }
    }

    /// The window currently accepting reports, if any remain.
    pub fn active_window(&self) -> Option<&Window> {
        self.windows.get(self.active)
    }

    /// Every sealed window so far, ascending index (the rollup's
    /// windows).
    pub fn sealed_windows(&self) -> &[SealedWindow] {
        self.rollup.windows()
    }

    /// Cumulative ingest stats over the service lifetime.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Batches refused with [`Busy`] so far.
    pub fn backpressure_rejections(&self) -> u64 {
        self.backpressure_rejections
    }

    /// Highest staged frame count any single [`FleetService::drain`] saw.
    pub fn max_drain_frames(&self) -> usize {
        self.max_drain_frames
    }

    /// Nanoseconds each seal took so far (fold + grade, after the final
    /// drain), one entry per sealed window. Wall-clock observability only
    /// — never part of any digest.
    pub fn seal_ns(&self) -> &[u64] {
        &self.seal_ns
    }

    /// The wrapped collector (quarantine listings, window floor, …).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Stages `bytes` (concatenated wire frames) on `lane`, or refuses
    /// the whole batch with a typed [`Busy`] if the lane is at capacity.
    /// Admission is all-or-nothing: once `offer` returns `Ok`, the batch
    /// WILL be folded by a later [`FleetService::drain`] — backpressure
    /// happens only at this boundary, never after admission.
    ///
    /// # Errors
    ///
    /// [`Busy`] when the lane already holds `queue_frames` or more staged
    /// frames. An empty lane always admits (so retry-after-drain always
    /// makes progress).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range lane.
    pub fn offer(&mut self, lane: usize, bytes: &[u8]) -> Result<(), Busy> {
        assert!(lane < self.lanes.len(), "lane {lane} out of range");
        if bytes.is_empty() {
            return Ok(());
        }
        let frames = bytes.len().div_ceil(FRAME_LEN);
        if self.lane_frames[lane] > 0 && self.lane_frames[lane] + frames > self.cfg.queue_frames {
            self.backpressure_rejections += 1;
            BACKPRESSURE.record_always(1);
            return Err(Busy { retry_after: 1 });
        }
        self.lanes[lane].extend_from_slice(bytes);
        self.lane_frames[lane] += frames;
        QUEUE_DEPTH.add(frames as i64);
        Ok(())
    }

    /// Drains every lane (in lane order) through the collector as one
    /// batch — the lanes' concatenation, streamed in place without copying
    /// it — and routes the fold into the active window. Returns the
    /// batch's ingest stats (all-zero when nothing staged).
    pub fn drain(&mut self) -> IngestStats {
        let staged: usize = self.lane_frames.iter().sum();
        if staged == 0 {
            return IngestStats::default();
        }
        self.max_drain_frames = self.max_drain_frames.max(staged);
        DRAIN_FRAMES.record(staged as u64);
        let parts: Vec<&[u8]> = self.lanes.iter().map(Vec::as_slice).collect();
        let delta = self.collector.ingest_parts(&parts);
        self.lanes.iter_mut().for_each(Vec::clear);
        self.lane_frames.iter_mut().for_each(|n| *n = 0);
        QUEUE_DEPTH.set(0);
        self.stats.absorb(delta);
        delta
    }

    /// Whether the active window's watermark has passed after
    /// `completed_rounds` delivery rounds: the window seals once the
    /// clock reaches its last epoch plus the configured grace. The sum
    /// saturates, so a grace past the last round never comes due: such a
    /// window seals at the driver's end-of-run flush.
    pub fn seal_due(&self, completed_rounds: u32) -> bool {
        match self.windows.get(self.active) {
            Some(w) => completed_rounds >= w.epoch_hi().saturating_add(self.cfg.watermark_lag),
            None => false,
        }
    }

    /// Seals the active window: drains the queues, folds its accumulators
    /// out of the collector, attaches its privacy ledger (audited bitwise
    /// against `charges` in one [`audit_series`] pass), grades coverage
    /// against `expected`, advances the collector's watermark floor (so
    /// later frames for this window surface as `late`), moves the window
    /// into the rollup, and makes the next window the active one.
    ///
    /// `ledger` and `charges` are the window's share of the fleet privacy
    /// ledger in canonical order — the driver splits device spends by
    /// epoch window. The ledger's keyed double-spend index has refused
    /// every duplicate by now and nothing records into a sealed window, so
    /// the seal releases it ([`BudgetLedger::release_spend_index`]).
    ///
    /// # Errors
    ///
    /// [`AllWindowsSealed`] if no window remains to seal.
    pub fn seal_active(
        &mut self,
        mut ledger: BudgetLedger,
        charges: Vec<f64>,
        expected: u64,
    ) -> Result<&SealedWindow, AllWindowsSealed> {
        let Some(&window) = self.windows.get(self.active) else {
            return Err(AllWindowsSealed {
                windows: self.windows.len() as u32,
            });
        };
        // Flush staged bytes so nothing admitted for this window is lost.
        // The drain is ingest, so the seal's clock starts after it.
        self.drain();
        let t0 = std::time::Instant::now();
        let totals = self.collector.take_window_totals();
        let mut delta = self.stats;
        let base = self.window_base;
        delta.accepted -= base.accepted;
        delta.rejected -= base.rejected;
        delta.duplicates -= base.duplicates;
        delta.stale -= base.stale;
        delta.late -= base.late;
        delta.corrupt_frames -= base.corrupt_frames;
        delta.resyncs -= base.resyncs;
        delta.quarantine_dropped -= base.quarantine_dropped;
        delta.quarantine_latched -= base.quarantine_latched;
        self.window_base = self.stats;
        let seal = EpochSeal::evaluate(expected, delta.accepted, self.cfg.quorum);
        let entries = ledger.entries().iter().map(|e| e.charge);
        let audit_ok = audit_series(entries, charges.iter().copied()).1.is_ok();
        ledger.release_spend_index();
        let sealed = SealedWindow {
            index: window.index(),
            epoch_lo: window.epoch_lo(),
            epoch_hi: window.epoch_hi(),
            totals,
            ledger,
            charges,
            seal,
            stats: delta,
            audit_ok,
        };
        self.collector.advance_window_floor(sealed.epoch_hi);
        self.rollup
            .absorb(sealed)
            .expect("window indices are unique");
        self.active += 1;
        OPEN_WINDOWS.set(i64::from(self.active < self.windows.len()));
        let ns = t0.elapsed().as_nanos() as u64;
        SEAL_NS.record(ns);
        self.seal_ns.push(ns);
        // Windows seal in ascending index order, so this one sorts last.
        Ok(self.rollup.windows().last().expect("just absorbed"))
    }

    /// Serves a live snapshot: debiased estimates from every *sealed*
    /// window, never touching the still-accumulating collector state.
    ///
    /// # Errors
    ///
    /// Propagates RR-mechanism construction failure from the model.
    pub fn snapshot(&self, model: &NoiseModel) -> Result<ServiceSnapshot, LdpError> {
        let (numeric, rr) = query_roles(&self.queries);
        let sealed = self.sealed_windows();
        let mut windows = Vec::with_capacity(sealed.len());
        for w in sealed {
            let values = numeric.map(|q| &w.totals[q]);
            let bits = rr.map(|q| &w.totals[q]);
            windows.push(WindowEstimates {
                index: w.index,
                mean: values.and_then(|t| model.mean(t)),
                variance: values.and_then(|t| model.variance(t)),
                median: values.and_then(|t| model.median(t)),
                rr_frequency: match bits {
                    Some(t) => model.rr_frequency(t)?,
                    None => None,
                },
            });
        }
        Ok(ServiceSnapshot {
            windows_sealed: sealed.len(),
            windows,
        })
    }

    /// The order-canonicalized rollup over every sealed window so far.
    pub fn rollup(&self) -> &Rollup {
        &self.rollup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{QueryKind, SealStatus};
    use crate::wire::{Payload, Report};

    const NUMERIC: QueryConfig = QueryConfig {
        id: 0,
        kind: QueryKind::Numeric {
            sketch_min_k: -64,
            sketch_max_k: 64,
        },
    };
    const RR: QueryConfig = QueryConfig {
        id: 1,
        kind: QueryKind::RrBit,
    };

    fn frames(reports: &[Report]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in reports {
            r.encode_into(&mut out);
        }
        out
    }

    fn value_at(device: u32, epoch: u32, v: i32) -> Report {
        Report {
            device,
            query: 0,
            epoch,
            payload: Payload::Value(v),
        }
    }

    fn service(queue_frames: usize, epochs: u32) -> FleetService {
        FleetService::new(
            Collector::new(2, &[NUMERIC, RR]),
            ServiceConfig::new(2, queue_frames),
            2,
            epochs,
        )
    }

    #[test]
    fn offer_is_all_or_nothing_under_backpressure() {
        let mut s = service(4, 8);
        let batch_a = frames(&[value_at(1, 0, 3), value_at(2, 0, 4), value_at(3, 0, 5)]);
        let batch_b = frames(&[value_at(4, 0, 3), value_at(5, 0, 4), value_at(6, 0, 5)]);
        s.offer(0, &batch_a).unwrap();
        // A second batch would exceed the 4-frame lane cap: typed refusal,
        // nothing admitted.
        let err = s.offer(0, &batch_b).unwrap_err();
        assert_eq!(err, Busy { retry_after: 1 });
        assert_eq!(s.backpressure_rejections(), 1);
        // The other lane is empty and admits.
        s.offer(1, &batch_b).unwrap();
        // After a drain the refused batch's retry makes progress, and a
        // redelivery of already-folded reports dedups instead of
        // double-counting.
        let drained = s.drain();
        assert_eq!(drained.accepted, 6);
        s.offer(0, &batch_b).unwrap();
        let drained = s.drain();
        assert_eq!((drained.accepted, drained.duplicates), (0, 3));
        assert_eq!(s.stats().accepted, 6);
    }

    #[test]
    fn empty_lane_admits_oversized_batches() {
        let mut s = service(1, 8);
        let batch = frames(&[value_at(1, 0, 1), value_at(2, 0, 2)]);
        // Two frames exceed the 1-frame cap, but the lane is empty: the
        // soft bound admits so progress is always possible.
        s.offer(0, &batch).unwrap();
        assert_eq!(s.offer(0, &batch), Err(Busy { retry_after: 1 }));
    }

    #[test]
    fn windows_seal_and_late_frames_are_typed() {
        let mut s = service(1024, 4); // windows [0,2) and [2,4)
        s.offer(0, &frames(&[value_at(1, 0, 3), value_at(1, 1, 4)]))
            .unwrap();
        assert!(!s.seal_due(1), "window 0 covers epochs 0..2");
        assert!(s.seal_due(2));
        let sealed = s.seal_active(BudgetLedger::new(), Vec::new(), 2).unwrap();
        assert_eq!(sealed.index, 0);
        assert_eq!(sealed.stats.accepted, 2);
        assert!(sealed.seal.is_full());
        // A frame for sealed window 0 arriving now is a late arrival —
        // typed and counted, never folded.
        s.offer(0, &frames(&[value_at(1, 1, 9), value_at(2, 2, 5)]))
            .unwrap();
        let delta = s.drain();
        assert_eq!((delta.accepted, delta.late, delta.rejected), (1, 1, 1));
        let sealed = s.seal_active(BudgetLedger::new(), Vec::new(), 2).unwrap();
        assert_eq!(sealed.index, 1);
        assert_eq!(sealed.stats.late, 1);
        assert_eq!(sealed.stats.accepted, 1);
        let SealStatus::Degraded { coverage } = sealed.seal.status else {
            panic!("1 of 2 expected must degrade");
        };
        assert_eq!(coverage, 0.5);
        // No window remains: sealing again is a typed error.
        assert!(s.active_window().is_none());
        let err = s
            .seal_active(BudgetLedger::new(), Vec::new(), 0)
            .unwrap_err();
        assert_eq!(err, AllWindowsSealed { windows: 2 });
        assert_eq!(err.to_string(), "no window left to seal: all 2 are sealed");
    }

    #[test]
    fn a_charge_one_bit_off_fails_the_seal_and_rollup_audits() {
        let mut s = service(1024, 4);
        let mut ledger = BudgetLedger::with_capacity(2);
        ledger.record_spend(1, 0, 0.5).unwrap();
        ledger.record_spend(2, 1, 0.25).unwrap();
        let off = f64::from_bits(0.25f64.to_bits() ^ 1);
        let sealed = s.seal_active(ledger, vec![0.5, off], 0).unwrap();
        assert!(!sealed.audit_ok);
        // The seal released the keyed index and kept the entries.
        assert_eq!((sealed.ledger.spend_keys(), sealed.ledger.len()), (0, 2));
        s.seal_active(BudgetLedger::new(), Vec::new(), 0).unwrap();
        let rollup = s.rollup().finalize(0.9);
        assert!(!rollup.audit_ok);
        assert_eq!(rollup.ledger.len(), 2);
        assert_eq!(rollup.ledger.total(), 0.75);
    }

    #[test]
    fn quarantine_latches_survive_window_boundaries() {
        let mut s = service(1024, 4);
        let unknown_query = |epoch: u32| Report {
            device: 7,
            query: 9,
            epoch,
            payload: Payload::Value(1),
        };
        // Three attributable violations in window 0 latch device 7.
        s.offer(
            0,
            &frames(&[unknown_query(0), unknown_query(0), unknown_query(1)]),
        )
        .unwrap();
        let delta = s.drain();
        assert_eq!(delta.quarantine_latched, 1);
        s.seal_active(BudgetLedger::new(), Vec::new(), 0).unwrap();
        // In the NEXT window its valid reports are still dropped: the
        // latch crossed the boundary.
        s.offer(0, &frames(&[value_at(7, 2, 3), value_at(8, 2, 4)]))
            .unwrap();
        let delta = s.drain();
        assert_eq!(delta.quarantine_dropped, 1);
        assert_eq!(delta.accepted, 1);
        assert_eq!(s.collector().quarantined_devices(), vec![7]);
    }

    #[test]
    fn dedup_state_survives_window_boundaries() {
        let mut s = service(1024, 4);
        s.offer(0, &frames(&[value_at(3, 1, 5)])).unwrap();
        s.drain();
        s.seal_active(BudgetLedger::new(), Vec::new(), 1).unwrap();
        // Replaying window 0's report inside window 1 with a window-1
        // epoch duplicate would be late; replaying the same epoch is
        // late too (floor passed). A *fresh* window-1 epoch for the same
        // device is deduped against its own stream state only.
        s.offer(0, &frames(&[value_at(3, 2, 6), value_at(3, 2, 6)]))
            .unwrap();
        let delta = s.drain();
        assert_eq!((delta.accepted, delta.duplicates), (1, 1));
    }

    #[test]
    fn snapshot_serves_sealed_windows_only() {
        let mut s = service(1024, 4);
        let model = NoiseModel::for_device(17, 20, 1, 0, 256, &[1.5, 2.0, 2.5, 3.0]).unwrap();
        let mut reports = Vec::new();
        for d in 0..40u32 {
            for e in 0..2u32 {
                reports.push(value_at(d, e, (d % 16) as i32));
                reports.push(Report {
                    device: d,
                    query: 1,
                    epoch: e,
                    payload: Payload::RrBit(d % 3 == 0),
                });
            }
        }
        s.offer(0, &frames(&reports)).unwrap();
        s.drain();
        // Nothing sealed yet: the snapshot is empty even though the
        // collector holds 160 reports.
        let snap = s.snapshot(&model).unwrap();
        assert_eq!(snap.windows_sealed, 0);
        s.seal_active(BudgetLedger::new(), Vec::new(), 160).unwrap();
        let snap = s.snapshot(&model).unwrap();
        assert_eq!(snap.windows_sealed, 1);
        let w = &snap.windows[0];
        assert_eq!(w.index, 0);
        let mean = w.mean.as_ref().expect("80 values give a mean");
        assert!(mean.value.is_finite() && mean.stderr > 0.0);
        assert!(w.rr_frequency.is_some());
    }

    #[test]
    fn env_overrides_parse_strictly() {
        // `parse_env` reads the real environment; exercise the underlying
        // validators through a scrubbed config instead of mutating env.
        let cfg = ServiceConfig::new(2, 64).with_watermark_lag(3);
        assert_eq!(cfg.window_epochs, 2);
        assert_eq!(cfg.queue_frames, 64);
        assert_eq!(cfg.watermark_lag, 3);
        assert_eq!(cfg.quorum, 0.9);
    }
}
