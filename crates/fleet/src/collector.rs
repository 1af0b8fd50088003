//! The sharded, batch-ingesting, fault-tolerant collector.
//!
//! The collector is the untrusted aggregator of the LDP model: it sees only
//! wire-encoded privatized reports and folds them into per-query moment
//! accumulators (count, Σy, Σy², Σy³, Σy⁴, RR tally, exact quantile
//! sketch). Estimators debias these aggregates downstream.
//!
//! Unlike a lab-bench pipeline, the ingest path assumes a *lossy* transport
//! and *imperfect* senders:
//!
//! * **Stream resync** — a corrupt or truncated frame is counted and
//!   skipped, scanning forward for the next magic byte whose checksum
//!   verifies, instead of aborting the batch
//!   (`fleet.wire.corrupt_frames` / `fleet.wire.resyncs`);
//! * **Idempotent ingest** — a per-device, per-query dedup window (two
//!   64-epoch blocks) folds duplicated and reordered frames to the totals
//!   of the clean stream (`fleet.dedup.duplicates` / `fleet.dedup.stale`);
//! * **Quarantine** — senders that repeatedly emit attributable protocol
//!   violations (sequence drift, unknown kinds/queries, out-of-range RR
//!   payloads) are latched out, mirroring the device-side `HealthFault`
//!   latch (`fleet.quarantine.latched` / `fleet.quarantine.dropped`).
//!   In-flight corruption is *never* attributed: pre-checksum errors carry
//!   no trustworthy device id, so a healthy device behind a noisy link
//!   cannot be quarantined;
//! * **Degraded sealing** — [`EpochSeal::evaluate`] grades realized
//!   coverage against a quorum threshold, marking the seal
//!   [`SealStatus::Degraded`] instead of panicking; estimators already
//!   compute SE from realized (not assumed) response counts.
//!
//! # Ingest
//!
//! The default path ([`IngestPath::Columnar`]) is one sequential streaming
//! pass over the bytes, in blocks of at most 4,096 items held in one reused
//! buffer:
//!
//! 1. *decode*: the resync walk of [`decode_stream`] decodes each frame on
//!    the 20-byte grid, handing structural damage to the scanner, and each
//!    outcome is classified (unknown queries and attributable wire errors
//!    become strikes);
//! 2. *accumulate*: each item of the block passes, in stream order, through
//!    its device's shard: the quarantine latch, strike counting, the
//!    watermark check, the dedup window, and the accumulators.
//!
//! # Shards
//!
//! Device `d` belongs to shard `d mod shards` — a property of the report,
//! never of a schedule. Its dedup windows, strike count and quarantine
//! latch live *inside* the owning shard, in one row of the shard's state
//! columns: row `d / shards` for an id under the device capacity
//! ([`Collector::with_device_capacity`]), otherwise a row appended at the
//! id's first arrival. [`Collector::totals`] folds shards in index order.
//! Accumulator updates are exact integer additions and per-device state
//! never crosses shards, so the folded totals are **bit-identical for any
//! shard count and any thread count** — the same discipline (results are a
//! pure function of the data, never of the schedule) the `stream_seed`
//! seeding rules give the evaluation sweeps.

use std::collections::HashMap;

use ulp_obs::{Counter, Histogram, SpanTimer};

use crate::sketch::GridSketch;
use crate::wire::{decode_stream, walk_parts, Payload, Report, WireError, FRAME_LEN};

/// Reports accepted into shard accumulators, process-wide.
static INGESTED: Counter = Counter::new("fleet.reports.ingested");
/// Frames rejected by the wire decoder — recorded at every metrics level:
/// silent data loss at the collector edge must never be invisible.
static REJECTED: Counter = Counter::new("fleet.frames.rejected");
/// Corruption events skipped by the stream scanner.
static CORRUPT_FRAMES: Counter = Counter::new("fleet.wire.corrupt_frames");
/// Times the scanner recovered alignment at a non-adjacent offset.
static RESYNCS: Counter = Counter::new("fleet.wire.resyncs");
/// Frames folded away as retransmissions of an already-counted report.
static DUPLICATES: Counter = Counter::new("fleet.dedup.duplicates");
/// Frames older than the dedup window, rejected as unverifiable.
static STALE: Counter = Counter::new("fleet.dedup.stale");
/// Frames that arrived after their window's watermark sealed it.
static LATE: Counter = Counter::new("fleet.window.late");
/// Senders latched into quarantine — recorded at every metrics level:
/// excluding a sender is a fleet-integrity event, like a failed audit.
static QUARANTINE_LATCHED: Counter = Counter::new("fleet.quarantine.latched");
/// Frames dropped because their sender is quarantined.
static QUARANTINE_DROPPED: Counter = Counter::new("fleet.quarantine.dropped");
/// Shard accumulator folds performed by [`Collector::totals`].
static SHARD_MERGES: Counter = Counter::new("fleet.shard.merges");
/// Wall-clock of each ingested batch.
static INGEST_SPAN: SpanTimer = SpanTimer::new("fleet.collector.ingest");
/// Wall-clock of the decode phase of each block.
static DECODE_SPAN: SpanTimer = SpanTimer::new("fleet.collector.decode");
/// Wall-clock of the accumulate (shard pass) phase of each block.
static ACCUMULATE_SPAN: SpanTimer = SpanTimer::new("fleet.collector.accumulate");
/// Wall-clock of each [`Collector::totals`] shard fold.
static FOLD_SPAN: SpanTimer = SpanTimer::new("fleet.collector.fold");
/// Reports per ingested batch.
static BATCH_SIZE: Histogram = Histogram::new("fleet.collector.batch_reports", "reports");

/// Cumulative process-wide ingest phase timings, read via
/// [`ingest_phase_totals`]. Spans record only at `ULP_METRICS=full`;
/// below that every field stays zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestPhaseTotals {
    /// Nanoseconds decoding and classifying wire bytes.
    pub decode_ns: u64,
    /// Nanoseconds in the shard pass (latch, dedup, absorb).
    pub accumulate_ns: u64,
    /// Nanoseconds folding shard accumulators in [`Collector::totals`].
    pub fold_ns: u64,
}

/// Snapshots the cumulative ingest phase timers. Benchmarks subtract two
/// snapshots to attribute a region's decode/accumulate/fold split.
pub fn ingest_phase_totals() -> IngestPhaseTotals {
    IngestPhaseTotals {
        decode_ns: DECODE_SPAN.total_ns(),
        accumulate_ns: ACCUMULATE_SPAN.total_ns(),
        fold_ns: FOLD_SPAN.total_ns(),
    }
}

/// Typed per-class wire-error counters (the `fleet.wire.err.*` family).
static ERR_TRUNCATED: Counter = Counter::new("fleet.wire.err.truncated");
static ERR_BAD_MAGIC: Counter = Counter::new("fleet.wire.err.bad_magic");
static ERR_UNSUPPORTED_VERSION: Counter = Counter::new("fleet.wire.err.unsupported_version");
static ERR_UNKNOWN_KIND: Counter = Counter::new("fleet.wire.err.unknown_kind");
static ERR_NON_ZERO_RESERVED: Counter = Counter::new("fleet.wire.err.non_zero_reserved");
static ERR_CHECKSUM_MISMATCH: Counter = Counter::new("fleet.wire.err.checksum_mismatch");
static ERR_SEQ_MISMATCH: Counter = Counter::new("fleet.wire.err.seq_mismatch");
static ERR_PAYLOAD_OUT_OF_RANGE: Counter = Counter::new("fleet.wire.err.payload_out_of_range");

/// What a query aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Fixed-point noised values; moments plus an exact quantile sketch
    /// over `[sketch_min_k, sketch_max_k]` (the device output window).
    Numeric {
        /// Lowest sketch bin (grid units).
        sketch_min_k: i64,
        /// Highest sketch bin (grid units).
        sketch_max_k: i64,
    },
    /// Randomized-response bits; a ones tally.
    RrBit,
}

/// One registered aggregation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryConfig {
    /// Wire query id this stream accepts.
    pub id: u16,
    /// Payload type and sketch bounds.
    pub kind: QueryKind,
}

/// Exact aggregates for one query (one shard's share, or the fold of all
/// shards).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTotals {
    /// Reports accumulated.
    pub count: u64,
    /// Σ payload (numeric queries; RR bits contribute to `ones` instead).
    pub sum: i128,
    /// Σ payload².
    pub sum2: i128,
    /// Σ payload³.
    pub sum3: i128,
    /// Σ payload⁴.
    pub sum4: i128,
    /// RR `true` reports.
    pub ones: u64,
    /// Exact quantile sketch (numeric queries only).
    pub sketch: Option<GridSketch>,
}

impl Default for QueryTotals {
    /// Tally-only totals (no sketch) — the RR-query shape.
    fn default() -> Self {
        QueryTotals::new(QueryKind::RrBit)
    }
}

impl QueryTotals {
    pub(crate) fn new(kind: QueryKind) -> Self {
        let sketch = match kind {
            QueryKind::Numeric {
                sketch_min_k,
                sketch_max_k,
            } => Some(GridSketch::new(sketch_min_k, sketch_max_k)),
            QueryKind::RrBit => None,
        };
        QueryTotals {
            count: 0,
            sum: 0,
            sum2: 0,
            sum3: 0,
            sum4: 0,
            ones: 0,
            sketch,
        }
    }

    /// Absorbs one numeric report value (grid units). The sums stay
    /// exact: below 2¹⁵ in magnitude the powers are taken in `i64` (v⁴ <
    /// 2⁶⁰), above it in `i128`.
    #[inline]
    pub(crate) fn absorb_value(&mut self, v: i64) {
        self.count += 1;
        if v.unsigned_abs() < 1 << 15 {
            let v2 = v * v;
            self.sum += i128::from(v);
            self.sum2 += i128::from(v2);
            self.sum3 += i128::from(v2 * v);
            self.sum4 += i128::from(v2 * v2);
        } else {
            let w = i128::from(v);
            self.sum += w;
            self.sum2 += w * w;
            self.sum3 += w * w * w;
            self.sum4 += w * w * w * w;
        }
        if let Some(s) = self.sketch.as_mut() {
            s.record(v);
        }
    }

    /// Absorbs one randomized-response bit.
    #[inline]
    fn absorb_bit(&mut self, b: bool) {
        self.count += 1;
        self.ones += u64::from(b);
    }

    pub(crate) fn merge(&mut self, other: &QueryTotals) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum2 += other.sum2;
        self.sum3 += other.sum3;
        self.sum4 += other.sum4;
        self.ones += other.ones;
        match (self.sketch.as_mut(), other.sketch.as_ref()) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => unreachable!("same query kind implies same sketch presence"),
        }
    }
}

/// Per-class tallies of the typed wire errors seen by this collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct WireErrorTally {
    /// [`WireError::Truncated`] count.
    pub truncated: u64,
    /// [`WireError::BadMagic`] count.
    pub bad_magic: u64,
    /// [`WireError::UnsupportedVersion`] count.
    pub unsupported_version: u64,
    /// [`WireError::UnknownKind`] count.
    pub unknown_kind: u64,
    /// [`WireError::NonZeroReserved`] count.
    pub non_zero_reserved: u64,
    /// [`WireError::ChecksumMismatch`] count.
    pub checksum_mismatch: u64,
    /// [`WireError::SeqMismatch`] count.
    pub seq_mismatch: u64,
    /// [`WireError::PayloadOutOfRange`] count.
    pub payload_out_of_range: u64,
}

impl WireErrorTally {
    fn count(&mut self, e: &WireError) {
        match e {
            WireError::Truncated { .. } => {
                self.truncated += 1;
                ERR_TRUNCATED.inc();
            }
            WireError::BadMagic { .. } => {
                self.bad_magic += 1;
                ERR_BAD_MAGIC.inc();
            }
            WireError::UnsupportedVersion { .. } => {
                self.unsupported_version += 1;
                ERR_UNSUPPORTED_VERSION.inc();
            }
            WireError::UnknownKind { .. } => {
                self.unknown_kind += 1;
                ERR_UNKNOWN_KIND.inc();
            }
            WireError::NonZeroReserved { .. } => {
                self.non_zero_reserved += 1;
                ERR_NON_ZERO_RESERVED.inc();
            }
            WireError::ChecksumMismatch { .. } => {
                self.checksum_mismatch += 1;
                ERR_CHECKSUM_MISMATCH.inc();
            }
            WireError::SeqMismatch { .. } => {
                self.seq_mismatch += 1;
                ERR_SEQ_MISMATCH.inc();
            }
            WireError::PayloadOutOfRange { .. } => {
                self.payload_out_of_range += 1;
                ERR_PAYLOAD_OUT_OF_RANGE.inc();
            }
        }
    }
}

/// Outcome of one [`Collector::ingest_frames`] call (or, via
/// [`IngestStats::absorb`], a fold over many).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Reports accepted into shard accumulators (first copies only).
    pub accepted: u64,
    /// Frames rejected: decode failures, unknown queries, kind mismatches,
    /// stale epochs, and quarantine drops. Duplicates are *not* rejections
    /// (they fold to the clean-stream totals) and are counted separately.
    pub rejected: u64,
    /// Retransmitted copies folded away by the dedup window.
    pub duplicates: u64,
    /// Frames older than the dedup window (counted in `rejected` too).
    pub stale: u64,
    /// Frames whose epoch predates the collector's window floor — late
    /// arrivals for an already-sealed window under the service's watermark
    /// policy (counted in `rejected` too). Always zero while the floor
    /// stays at its default of epoch 0 (the batch path).
    pub late: u64,
    /// Corruption events the stream scanner skipped.
    pub corrupt_frames: u64,
    /// Times the scanner re-acquired alignment at a non-adjacent offset.
    pub resyncs: u64,
    /// Frames dropped because their sender is quarantined (in `rejected`).
    pub quarantine_dropped: u64,
    /// Senders newly latched into quarantine during this batch.
    pub quarantine_latched: u64,
}

impl IngestStats {
    /// Folds another stats record into this one (the per-epoch → per-run
    /// accumulation path).
    pub fn absorb(&mut self, other: IngestStats) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.duplicates += other.duplicates;
        self.stale += other.stale;
        self.late += other.late;
        self.corrupt_frames += other.corrupt_frames;
        self.resyncs += other.resyncs;
        self.quarantine_dropped += other.quarantine_dropped;
        self.quarantine_latched += other.quarantine_latched;
    }
}

/// How many epochs one dedup block covers (window = two blocks).
const DEDUP_BLOCK: u32 = 64;
/// Attributable protocol violations before a sender is latched out.
const DEFAULT_QUARANTINE_STRIKES: u32 = 3;
/// Items per block of the streaming drain: one block is decoded and
/// classified, then accumulated, before the next is decoded.
pub(crate) const DRAIN_BLOCK: usize = 4096;

/// Which ingest implementation [`Collector::ingest_frames`] runs. The two
/// paths produce **byte-identical** totals, stats, and digests for every
/// input. The streaming drain is the pipeline; the reference path is an
/// in-process differential-test oracle, selected only through
/// [`Collector::with_ingest_path`] (or the driver's
/// [`crate::FleetDriver::with_ingest_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPath {
    /// The streaming drain (the default): one sequential pass over the
    /// bytes in blocks of at most 4,096 items, each block decoded and
    /// classified, then accumulated item by item in stream order, each in
    /// its device's shard. The name predates the streaming drain and stays
    /// for existing callers.
    #[default]
    Columnar,
    /// The scalar pipeline: per-frame decode (parallel only when the whole
    /// batch is clean), then every shard filter-scans the full item list.
    Reference,
}

/// What the dedup window decided about a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    Fresh,
    Duplicate,
    Stale,
}

/// The dedup window for one `(device, query)` stream: two 64-epoch blocks
/// of seen-bits. Any interleaving of duplicates and reorderings whose
/// epochs span at most two blocks folds to the clean stream; epochs older
/// than both retained blocks are rejected as stale (they can no longer be
/// distinguished from replays).
///
/// 24 bytes: an empty block holds [`DedupSlot::EMPTY`], which no epoch
/// reaches (the largest block is `u32::MAX / 64`). Blocks fill in index
/// order, so block 1 is empty whenever block 0 is.
#[derive(Debug, Clone, Copy)]
struct DedupSlot {
    blocks: [u32; 2],
    bits: [u64; 2],
}

impl DedupSlot {
    /// The block number of an unused block.
    const EMPTY: u32 = u32::MAX;
    /// A slot that has seen nothing.
    const FRESH: DedupSlot = DedupSlot {
        blocks: [DedupSlot::EMPTY; 2],
        bits: [0; 2],
    };

    fn admit(&mut self, epoch: u32) -> Admit {
        let block = epoch / DEDUP_BLOCK;
        let bit = 1u64 << (epoch % DEDUP_BLOCK);
        for i in 0..2 {
            if self.blocks[i] == block {
                if self.bits[i] & bit != 0 {
                    return Admit::Duplicate;
                }
                self.bits[i] |= bit;
                return Admit::Fresh;
            }
            if self.blocks[i] == DedupSlot::EMPTY {
                self.blocks[i] = block;
                self.bits[i] = bit;
                return Admit::Fresh;
            }
        }
        // Both blocks resident: evict the older one, or reject the report
        // as stale if it predates both.
        let older = usize::from(self.blocks[1] < self.blocks[0]);
        if block < self.blocks[older] {
            return Admit::Stale;
        }
        self.blocks[older] = block;
        self.bits[older] = bit;
        Admit::Fresh
    }
}

/// Per-device dedup, strike and quarantine state, one row per device, in
/// three columns.
#[derive(Debug, Clone, Default)]
struct DeviceRows {
    /// Row-major dedup windows: one [`DedupSlot`] per registered query
    /// per row.
    dedup: Vec<DedupSlot>,
    /// Attributable-violation strike counts for unlatched devices.
    strikes: Vec<u32>,
    /// Latch flags: a latched (quarantined) sender stays latched, like
    /// `HealthFault`.
    latched: Vec<bool>,
}

impl DeviceRows {
    /// `rows` fresh rows for `nq` queries.
    fn new(rows: usize, nq: usize) -> DeviceRows {
        DeviceRows {
            dedup: vec![DedupSlot::FRESH; rows * nq],
            strikes: vec![0; rows],
            latched: vec![false; rows],
        }
    }

    fn len(&self) -> usize {
        self.latched.len()
    }
}

/// One shard's persistent state: accumulators plus one row of per-device
/// state for each device it owns (`d mod shards`) that has reported.
///
/// The shard's ids under [`Collector::with_device_capacity`]'s cap have
/// their rows in `capacity`, device `d` at row `d / shards`, so the
/// accumulate inner loop finds them with one comparison and no hash map.
/// An id at or above the cap (a forged id recovered from a corrupted
/// stream, or any id of a collector built without a capacity) gets a row
/// appended to `appended` at its first arrival, found again through
/// `appended_ids`. The capacity rows are allocated once and never grow: a
/// forged id that reallocated them would move the heap layout, and with it
/// the peak RSS (+6 MiB on a 25k-device chaos run). Every row runs the same
/// latch, strike, watermark, dedup and absorb steps, so where a device's
/// row sits is unobservable in the stats, totals, and quarantine state.
#[derive(Debug, Clone)]
struct ShardState {
    accs: Vec<QueryTotals>,
    /// Rows of the ids under the capacity.
    capacity: DeviceRows,
    /// Rows of the ids at or above the capacity, in first-arrival order.
    appended: DeviceRows,
    /// The row in `appended` of each id at or above the capacity.
    appended_ids: HashMap<u32, u32>,
}

/// A decoded batch item, in stream order: a well-formed report for a
/// registered query index `q`, or an attributable protocol violation.
/// Strikes ride alongside accepted candidates so each shard sees its
/// devices' violations and reports in their original interleaving. 16 B.
#[derive(Clone, Copy)]
enum Item {
    /// A reading for a numeric query.
    Value {
        q: u16,
        device: u32,
        epoch: u32,
        value: i32,
    },
    /// A randomized-response bit for an RR query.
    Bit {
        q: u16,
        device: u32,
        epoch: u32,
        one: bool,
    },
    /// An attributable protocol violation by `device`.
    Strike { device: u32 },
}

impl Item {
    #[inline]
    fn device(&self) -> u32 {
        match *self {
            Item::Value { device, .. } | Item::Bit { device, .. } | Item::Strike { device } => {
                device
            }
        }
    }

    /// The report's query index and epoch; `None` for a strike.
    #[inline]
    fn report(&self) -> Option<(usize, u32)> {
        match *self {
            Item::Value { q, epoch, .. } | Item::Bit { q, epoch, .. } => {
                Some((usize::from(q), epoch))
            }
            Item::Strike { .. } => None,
        }
    }

    /// Folds the report into its query's totals (a strike folds nothing).
    #[inline]
    fn absorb_into(&self, accs: &mut [QueryTotals]) {
        match *self {
            Item::Value { q, value, .. } => accs[usize::from(q)].absorb_value(i64::from(value)),
            Item::Bit { q, one, .. } => accs[usize::from(q)].absorb_bit(one),
            Item::Strike { .. } => {}
        }
    }
}

/// Outcome tallies of a shard pass: one per shard on the reference path,
/// summed afterwards; one for the whole batch on the streaming drain.
#[derive(Default, Clone, Copy)]
struct ShardBatch {
    accepted: u64,
    duplicates: u64,
    stale: u64,
    late: u64,
    quarantine_dropped: u64,
    quarantine_latched: u64,
}

/// Seal grade for one collection round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SealStatus {
    /// Coverage met the quorum threshold.
    Full,
    /// Coverage fell below quorum; estimates are still debiased and their
    /// SE already reflects the realized counts, but consumers should treat
    /// the round as partial.
    Degraded {
        /// Realized coverage (accepted / expected).
        coverage: f64,
    },
}

/// Coverage accounting for one sealed collection round. Built by
/// [`EpochSeal::evaluate`] — sealing **grades** a shortfall instead of
/// panicking on it, because the estimators downstream compute stderr and
/// bias bounds from realized response counts and remain valid (just wider)
/// under partial coverage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSeal {
    /// Reports the round would have produced under a perfect transport.
    pub expected: u64,
    /// Reports actually accepted.
    pub accepted: u64,
    /// `accepted / expected` (`1.0` for an empty expectation).
    pub coverage: f64,
    /// The seal grade against the quorum threshold.
    pub status: SealStatus,
}

impl EpochSeal {
    /// Grades realized coverage against a quorum threshold in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `quorum` is not a finite value in `[0, 1]`.
    pub fn evaluate(expected: u64, accepted: u64, quorum: f64) -> EpochSeal {
        assert!(
            quorum.is_finite() && (0.0..=1.0).contains(&quorum),
            "quorum must be in [0, 1], got {quorum}"
        );
        let coverage = if expected == 0 {
            1.0
        } else {
            accepted as f64 / expected as f64
        };
        let status = if coverage >= quorum {
            SealStatus::Full
        } else {
            SealStatus::Degraded { coverage }
        };
        EpochSeal {
            expected,
            accepted,
            coverage,
            status,
        }
    }

    /// Whether the round met quorum.
    pub fn is_full(&self) -> bool {
        matches!(self.status, SealStatus::Full)
    }
}

/// `⌈2⁶⁴ / shards⌉`, the reciprocal [`Collector::route`] divides by, for
/// two or more shards (0 for one).
fn reciprocal(shards: u32) -> u64 {
    if shards > 1 {
        u64::MAX / u64::from(shards) + 1
    } else {
        0
    }
}

/// Sharded per-query accumulators over privatized report batches, with
/// idempotent (dedup-windowed) ingest and sender quarantine.
#[derive(Debug, Clone)]
pub struct Collector {
    queries: Vec<QueryConfig>,
    shard_states: Vec<ShardState>,
    /// `shard_states.len()`, as the divisor of the device partition.
    shards: u32,
    /// [`reciprocal`]`(shards)`, for [`Collector::route`].
    shard_reciprocal: u64,
    strike_limit: u32,
    ingest_path: IngestPath,
    /// Reports with `epoch < window_floor` are late arrivals for a window
    /// the service already sealed; `0` (the default) disables the check.
    window_floor: u32,
    ingested: u64,
    rejected: u64,
    wire_errors: WireErrorTally,
    first_error: Option<WireError>,
}

impl Collector {
    /// Creates a collector with `shards` accumulator partitions for the
    /// given query streams, latching senders out after three attributable
    /// violations.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or above `u32::MAX`, `queries` is empty,
    /// or query ids repeat.
    pub fn new(shards: usize, queries: &[QueryConfig]) -> Self {
        assert!(shards > 0, "need at least one shard");
        let shards32 = u32::try_from(shards).expect("shard count fits a device id");
        assert!(!queries.is_empty(), "need at least one query");
        for (i, q) in queries.iter().enumerate() {
            assert!(
                queries[..i].iter().all(|p| p.id != q.id),
                "duplicate query id {}",
                q.id
            );
        }
        let shard_states = (0..shards)
            .map(|_| ShardState {
                accs: queries.iter().map(|q| QueryTotals::new(q.kind)).collect(),
                capacity: DeviceRows::default(),
                appended: DeviceRows::default(),
                appended_ids: HashMap::new(),
            })
            .collect();
        Collector {
            queries: queries.to_vec(),
            shard_states,
            shards: shards32,
            shard_reciprocal: reciprocal(shards32),
            strike_limit: DEFAULT_QUARANTINE_STRIKES,
            ingest_path: IngestPath::default(),
            window_floor: 0,
            ingested: 0,
            rejected: 0,
            wire_errors: WireErrorTally::default(),
            first_error: None,
        }
    }

    /// Pre-sizes the per-device dedup, strike, and quarantine columns for
    /// the ids below `cap`, each at a row its id computes.
    ///
    /// Without a capacity every id takes the row appended at its first
    /// arrival, found again through a hash map, and at ~10⁶ devices that
    /// lookup dominates the accumulate inner loop. Shard `s` holds only its
    /// own ids below the cap, `⌈(cap − s) / shards⌉` rows allocated here.
    /// Ids at or above the cap (e.g. forged ids recovered from a corrupted
    /// stream) still take appended rows. Every row runs the same
    /// admit/strike/latch code, so stats, totals, `Duplicate`/`Stale`
    /// counters, and quarantine state are byte-identical at any `cap` —
    /// only the lookup cost changes.
    ///
    /// # Panics
    ///
    /// Panics if any frames were already ingested (the fresh flat tables
    /// would shadow accumulated per-device state).
    pub fn with_device_capacity(mut self, cap: u32) -> Self {
        assert!(
            self.ingested == 0 && self.rejected == 0,
            "device capacity must be set before the first ingest"
        );
        let nq = self.queries.len();
        let shards = self.shards;
        for (s, st) in (0u32..).zip(&mut self.shard_states) {
            let rows = cap.saturating_sub(s).div_ceil(shards) as usize;
            st.capacity = DeviceRows::new(rows, nq);
        }
        self
    }

    /// Overrides the ingest path (default [`IngestPath::Columnar`]). Both
    /// paths produce byte-identical results; the reference path exists for
    /// differential testing.
    pub fn with_ingest_path(mut self, path: IngestPath) -> Self {
        self.ingest_path = path;
        self
    }

    /// The ingest path this collector runs.
    pub fn ingest_path(&self) -> IngestPath {
        self.ingest_path
    }

    /// Number of accumulator shards.
    pub fn shards(&self) -> usize {
        self.shard_states.len()
    }

    /// Reports accepted over the collector's lifetime.
    pub fn reports_ingested(&self) -> u64 {
        self.ingested
    }

    /// Frames rejected over the collector's lifetime.
    pub fn frames_rejected(&self) -> u64 {
        self.rejected
    }

    /// The senders currently latched into quarantine, ascending.
    pub fn quarantined_devices(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (s, st) in (0u32..).zip(&self.shard_states) {
            let capacity_rows = (0u32..)
                .zip(&st.capacity.latched)
                .filter(|&(_, &latched)| latched)
                .map(|(row, _)| row * self.shards + s);
            let appended_rows = st
                .appended_ids
                .iter()
                .filter(|&(_, &row)| st.appended.latched[row as usize])
                .map(|(&device, _)| device);
            out.extend(capacity_rows.chain(appended_rows));
        }
        out.sort_unstable();
        out
    }

    /// The shard owning `device` and the device's row in it, with no
    /// hardware divide: the row is `⌊device · r / 2⁶⁴⌋` for the reciprocal
    /// `r = ⌈2⁶⁴ / shards⌉`, which is `⌊device / shards⌋` exactly for
    /// every 32-bit id and every shard count from 2 to `u32::MAX` (64
    /// fraction bits cover a 32-bit numerator over a 32-bit divisor:
    /// Lemire, Kaser & Kurz, "Faster remainder by direct computation",
    /// 2019). One shard holds every id at its own row.
    #[inline]
    fn route(&self, device: u32) -> (usize, u32) {
        let row = if self.shards == 1 {
            device
        } else {
            ((u128::from(self.shard_reciprocal) * u128::from(device)) >> 64) as u32
        };
        ((device - row * self.shards) as usize, row)
    }

    /// The shard-pass item for a well-formed report: its registered
    /// query's index and payload, or a strike if no registered query has
    /// its id and payload kind.
    #[inline]
    fn report_item(&self, report: Report) -> Option<Item> {
        let q = self.queries.iter().position(|q| q.id == report.query)?;
        let (q, device, epoch) = (q as u16, report.device, report.epoch);
        match (self.queries[usize::from(q)].kind, report.payload) {
            (QueryKind::Numeric { .. }, Payload::Value(value)) => Some(Item::Value {
                q,
                device,
                epoch,
                value,
            }),
            (QueryKind::RrBit, Payload::RrBit(one)) => Some(Item::Bit {
                q,
                device,
                epoch,
                one,
            }),
            _ => None,
        }
    }

    /// Ingests a batch of concatenated wire frames.
    ///
    /// Decode recovers from corruption (the stream resync rules of
    /// [`decode_stream`]), then each decoded report passes, inside its
    /// owning shard and in stream order, through the quarantine latch and
    /// the dedup window before being absorbed — so duplicated and
    /// reordered deliveries fold to byte-identical accumulator totals, and
    /// persistently-malformed senders are latched out after `strike_limit`
    /// attributable violations.
    ///
    /// Runs the pipeline selected by [`Collector::with_ingest_path`]: the
    /// streaming drain (default) or the scalar reference path. The two
    /// produce **byte-identical** stats, totals, and quarantine state for
    /// every input.
    pub fn ingest_frames(&mut self, bytes: &[u8]) -> IngestStats {
        self.ingest_parts(&[bytes])
    }

    /// Ingests the concatenation of `parts` as one batch, exactly as
    /// [`Collector::ingest_frames`] would ingest `parts.concat()`. The
    /// streaming drain reads the parts in place (see [`walk_parts`]); the
    /// reference path concatenates them.
    pub(crate) fn ingest_parts(&mut self, parts: &[&[u8]]) -> IngestStats {
        let _span = INGEST_SPAN.enter();
        let stats = match self.ingest_path {
            IngestPath::Columnar => self.ingest_streaming(parts, DRAIN_BLOCK),
            IngestPath::Reference => self.ingest_reference(&parts.concat()),
        };
        self.ingested += stats.accepted;
        self.rejected += stats.rejected;
        INGESTED.add(stats.accepted);
        REJECTED.record_always(stats.rejected);
        CORRUPT_FRAMES.add(stats.corrupt_frames);
        RESYNCS.add(stats.resyncs);
        DUPLICATES.add(stats.duplicates);
        STALE.add(stats.stale);
        LATE.add(stats.late);
        QUARANTINE_DROPPED.add(stats.quarantine_dropped);
        QUARANTINE_LATCHED.record_always(stats.quarantine_latched);
        BATCH_SIZE.record(stats.accepted);
        stats
    }

    /// Classifies one decode outcome into a shard-pass item, tallying
    /// decode errors and unknown-query rejections; `None` for an error no
    /// sender can be held to. Shared by both ingest paths — the
    /// strike/report interleaving each shard sees is produced here, so the
    /// paths cannot diverge on it.
    #[inline]
    fn classify(
        &mut self,
        raw: Result<Report, WireError>,
        stats: &mut IngestStats,
    ) -> Option<Item> {
        match raw {
            Ok(report) => Some(self.report_item(report).unwrap_or_else(|| {
                // Unknown query id or kind/query mismatch: the frame
                // decoded (checksum-valid), so the sender is known and
                // the violation is attributable.
                stats.rejected += 1;
                Item::Strike {
                    device: report.device,
                }
            })),
            Err(e) => {
                stats.rejected += 1;
                self.wire_errors.count(&e);
                self.first_error.get_or_insert(e);
                e.attributable_device()
                    .map(|device| Item::Strike { device })
            }
        }
    }

    /// Applies one item to its owning shard, where the device's id
    /// computes `row`: the quarantine latch, strike counting, the watermark
    /// (late-arrival) check, the dedup window, and accumulator absorption,
    /// on the device's row of the shard's columns (an appended row for an
    /// id at or above the capacity). The single definition of per-item
    /// semantics — both ingest paths route every item through here, in the
    /// same per-shard order.
    #[inline]
    fn apply_item(
        st: &mut ShardState,
        row: u32,
        strike_limit: u32,
        window_floor: u32,
        item: &Item,
        batch: &mut ShardBatch,
    ) {
        let nq = st.accs.len();
        let (rows, r) = if (row as usize) < st.capacity.len() {
            (&mut st.capacity, row as usize)
        } else {
            let r = Self::appended_row(&mut st.appended_ids, &mut st.appended, item.device(), nq);
            (&mut st.appended, r)
        };
        match item.report() {
            None => {
                if rows.latched[r] {
                    return;
                }
                rows.strikes[r] += 1;
                if rows.strikes[r] >= strike_limit {
                    rows.strikes[r] = 0;
                    rows.latched[r] = true;
                    batch.quarantine_latched += 1;
                }
            }
            Some((q, epoch)) => {
                if rows.latched[r] {
                    batch.quarantine_dropped += 1;
                    return;
                }
                if epoch < window_floor {
                    batch.late += 1;
                    return;
                }
                match rows.dedup[r * nq + q].admit(epoch) {
                    Admit::Fresh => {
                        item.absorb_into(&mut st.accs);
                        batch.accepted += 1;
                    }
                    Admit::Duplicate => batch.duplicates += 1,
                    Admit::Stale => batch.stale += 1,
                }
            }
        }
    }

    /// The row in `appended` of `device`, an id at or above the shard's
    /// capacity: appended at its first arrival and found again through
    /// `ids` after that.
    #[cold]
    #[inline(never)]
    fn appended_row(
        ids: &mut HashMap<u32, u32>,
        appended: &mut DeviceRows,
        device: u32,
        nq: usize,
    ) -> usize {
        // At most one row per id the shard owns, so a row fits in a u32.
        let next = appended.len();
        let row = *ids.entry(device).or_insert(next as u32) as usize;
        if row == next {
            appended.dedup.resize((next + 1) * nq, DedupSlot::FRESH);
            appended.strikes.push(0);
            appended.latched.push(false);
        }
        row
    }

    /// Folds per-shard batch results into the call's stats.
    fn fold_shard_batches(stats: &mut IngestStats, batches: impl IntoIterator<Item = ShardBatch>) {
        for b in batches {
            stats.accepted += b.accepted;
            stats.duplicates += b.duplicates;
            stats.stale += b.stale;
            stats.late += b.late;
            stats.quarantine_dropped += b.quarantine_dropped;
            stats.quarantine_latched += b.quarantine_latched;
        }
        // Stale, late, and quarantined frames were delivered but not
        // folded.
        stats.rejected += stats.stale + stats.late + stats.quarantine_dropped;
    }

    /// The scalar reference pipeline (kept selectable for differential
    /// testing): per-frame decode — parallel only when the whole batch is
    /// aligned and clean — then every shard filter-scans the full item
    /// list for its own devices.
    fn ingest_reference(&mut self, bytes: &[u8]) -> IngestStats {
        let mut stats = IngestStats::default();

        // Phase 1: decode. Parallel aligned fast path; sequential resync
        // scan the moment anything in the batch is off.
        let decode_span = DECODE_SPAN.enter();
        const DECODE_CHUNK: usize = 16 * 1024;
        let aligned = bytes.len().is_multiple_of(FRAME_LEN);
        let mut decoded: Option<Vec<Result<Report, WireError>>> = None;
        if aligned {
            let chunks: Vec<&[u8]> = bytes.chunks(DECODE_CHUNK * FRAME_LEN).collect();
            let parts: Vec<Vec<Result<Report, WireError>>> = ulp_par::par_map(&chunks, |chunk| {
                chunk.chunks(FRAME_LEN).map(Report::decode).collect()
            });
            let flat: Vec<Result<Report, WireError>> = parts.into_iter().flatten().collect();
            if flat.iter().all(Result::is_ok) {
                decoded = Some(flat);
            }
        }
        let items_raw = match decoded {
            Some(flat) => flat,
            None => {
                let stream = decode_stream(bytes);
                stats.corrupt_frames = stream.corrupt_frames;
                stats.resyncs = stream.resyncs;
                stream.items
            }
        };
        drop(decode_span);

        // Phase 1.5: classify into shard-pass items, tallying errors.
        let items: Vec<Item> = items_raw
            .into_iter()
            .filter_map(|raw| self.classify(raw, &mut stats))
            .collect();

        // Phase 2: shard pass. Each shard owns its accumulators, dedup
        // windows, and quarantine records, and walks the item sequence in
        // stream order for its own devices. The shard a device belongs to
        // is a pure function of its id, so this is schedule-free.
        let accumulate_span = ACCUMULATE_SPAN.enter();
        let shards = self.shards;
        let strike_limit = self.strike_limit;
        let window_floor = self.window_floor;
        let guards: Vec<std::sync::Mutex<(u32, &mut ShardState)>> = (0u32..)
            .zip(self.shard_states.iter_mut())
            .map(std::sync::Mutex::new)
            .collect();
        let batches: Vec<ShardBatch> = ulp_par::par_map(&guards, |guard| {
            let mut locked = guard.lock().expect("shard guard poisoned");
            let (shard, ref mut st) = *locked;
            let mut batch = ShardBatch::default();
            for item in &items {
                let device = item.device();
                if device % shards != shard {
                    continue;
                }
                Self::apply_item(
                    st,
                    device / shards,
                    strike_limit,
                    window_floor,
                    item,
                    &mut batch,
                );
            }
            batch
        });
        drop(guards);
        drop(accumulate_span);
        Self::fold_shard_batches(&mut stats, batches);
        stats
    }

    /// The streaming drain: one sequential pass over the concatenation of
    /// `parts`, read in place, in blocks of at most `block` items. Each
    /// block is decoded and classified into one reused buffer, then
    /// accumulated item by item in stream order, each item in its own
    /// device's shard.
    ///
    /// # Why the result is byte-identical to the reference path
    ///
    /// The walk is [`decode_stream`]'s over the concatenated bytes, so the
    /// item sequence, `corrupt_frames`, and `resyncs` are the same for any
    /// bytes and any cut into parts; classification is shared code; and
    /// each shard consumes its own items in stream order through the same
    /// [`Collector::apply_item`], exactly the subsequence the reference
    /// path's filter scan feeds it. Every accumulator, dedup window, and
    /// quarantine latch therefore evolves through identical states,
    /// whatever the block size.
    fn ingest_streaming(&mut self, parts: &[&[u8]], block: usize) -> IngestStats {
        let mut stats = IngestStats::default();
        let mut batch = ShardBatch::default();
        let strike_limit = self.strike_limit;
        let window_floor = self.window_floor;
        let frames = parts.iter().map(|p| p.len()).sum::<usize>() / FRAME_LEN;
        let mut items: Vec<Item> = Vec::with_capacity(block.min(frames + 1));
        let (corrupt_frames, resyncs) = walk_parts(parts, |walk| loop {
            let decode_span = DECODE_SPAN.enter();
            let decoded = walk.decode_block(block, |raw| {
                if let Some(item) = self.classify(raw, &mut stats) {
                    items.push(item);
                }
            });
            drop(decode_span);
            let _accumulate_span = ACCUMULATE_SPAN.enter();
            for item in &items {
                let (shard, row) = self.route(item.device());
                let st = &mut self.shard_states[shard];
                Self::apply_item(st, row, strike_limit, window_floor, item, &mut batch);
            }
            items.clear();
            if decoded < block {
                break;
            }
        });
        stats.corrupt_frames = corrupt_frames;
        stats.resyncs = resyncs;
        Self::fold_shard_batches(&mut stats, [batch]);
        stats
    }

    /// Folds every shard's accumulators (in shard-index order) into the
    /// query's lifetime totals.
    ///
    /// # Panics
    ///
    /// Panics if `query_id` was not registered.
    pub fn totals(&self, query_id: u16) -> QueryTotals {
        let _span = FOLD_SPAN.enter();
        let idx = self
            .queries
            .iter()
            .position(|q| q.id == query_id)
            .unwrap_or_else(|| panic!("query {query_id} not registered"));
        let mut folded = QueryTotals::new(self.queries[idx].kind);
        for shard in &self.shard_states {
            folded.merge(&shard.accs[idx]);
            SHARD_MERGES.inc();
        }
        folded
    }

    /// The registered query streams.
    pub fn queries(&self) -> &[QueryConfig] {
        &self.queries
    }

    /// Raises the watermark floor to `floor` (the first epoch of the
    /// oldest still-open window). Called by the streaming service when it
    /// seals a window; every per-device dedup window, strike count, and
    /// quarantine latch is deliberately left intact so sender state
    /// carries across window boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `floor` would move the watermark backwards — a sealed
    /// window must never reopen.
    pub fn advance_window_floor(&mut self, floor: u32) {
        assert!(
            floor >= self.window_floor,
            "watermark cannot retreat: {} -> {floor}",
            self.window_floor
        );
        self.window_floor = floor;
    }

    /// Drains the accumulators of every registered query — the fold of
    /// [`Collector::totals`] over all queries, in registration order —
    /// and resets them to empty for the next window. Dedup windows,
    /// strikes, and quarantine latches persist; only the aggregates move
    /// out. The streaming service calls this at each window seal.
    pub fn take_window_totals(&mut self) -> Vec<QueryTotals> {
        let out: Vec<QueryTotals> = self.queries.iter().map(|q| self.totals(q.id)).collect();
        for st in &mut self.shard_states {
            st.accs = self
                .queries
                .iter()
                .map(|q| QueryTotals::new(q.kind))
                .collect();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAGIC;

    impl Collector {
        /// Overrides the quarantine strike limit (violations before latch).
        fn with_quarantine_strikes(mut self, strikes: u32) -> Self {
            assert!(strikes > 0, "strike limit must be positive");
            self.strike_limit = strikes;
            self
        }
    }

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

    fn value(device: u32, v: i32) -> Report {
        Report {
            device,
            query: 0,
            epoch: 0,
            payload: Payload::Value(v),
        }
    }

    fn value_at(device: u32, epoch: u32, v: i32) -> Report {
        Report {
            device,
            query: 0,
            epoch,
            payload: Payload::Value(v),
        }
    }

    #[test]
    fn accumulates_exact_moments_and_tallies() {
        let mut c = Collector::new(2, &[NUMERIC, RR]);
        let batch = frames(&[
            value(1, 3),
            value(2, -4),
            Report {
                device: 3,
                query: 1,
                epoch: 0,
                payload: Payload::RrBit(true),
            },
            Report {
                device: 4,
                query: 1,
                epoch: 0,
                payload: Payload::RrBit(false),
            },
        ]);
        let stats = c.ingest_frames(&batch);
        assert_eq!(
            stats,
            IngestStats {
                accepted: 4,
                ..IngestStats::default()
            }
        );
        let t = c.totals(0);
        assert_eq!(
            (t.count, t.sum, t.sum2, t.sum3, t.sum4),
            (2, -1, 25, -37, 337)
        );
        assert_eq!(t.sketch.as_ref().unwrap().total(), 2);
        let rr = c.totals(1);
        assert_eq!((rr.count, rr.ones), (2, 1));
    }

    #[test]
    fn shard_count_does_not_change_totals() {
        let reports: Vec<Report> = (0..500).map(|i| value(i, (i as i32 % 41) - 20)).collect();
        let batch = frames(&reports);
        let mut one = Collector::new(1, &[NUMERIC]);
        let mut eight = Collector::new(8, &[NUMERIC]);
        one.ingest_frames(&batch);
        eight.ingest_frames(&batch);
        assert_eq!(one.totals(0), eight.totals(0));
    }

    #[test]
    fn split_batches_equal_one_batch() {
        let reports: Vec<Report> = (0..100).map(|i| value(i, i as i32)).collect();
        let mut whole = Collector::new(4, &[NUMERIC]);
        whole.ingest_frames(&frames(&reports));
        let mut split = Collector::new(4, &[NUMERIC]);
        split.ingest_frames(&frames(&reports[..37]));
        split.ingest_frames(&frames(&reports[37..]));
        assert_eq!(whole.totals(0), split.totals(0));
        assert_eq!(whole.reports_ingested(), split.reports_ingested());
    }

    #[test]
    fn corrupt_frames_are_skipped_not_fatal_to_the_batch() {
        let mut c = Collector::new(2, &[NUMERIC]);
        let mut batch = frames(&[value(1, 5)]);
        // A checksum-corrupted frame in the middle of the stream...
        let mut bad = value(2, 6).encode();
        bad[6] ^= 0xFF;
        batch.extend_from_slice(&bad);
        // ...must not shadow the clean frames after it.
        batch.extend_from_slice(&value(3, 7).encode());
        batch.extend_from_slice(&value(4, 8).encode());
        let stats = c.ingest_frames(&batch);
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.resyncs, 0, "aligned corruption needs no resync");
        assert!(matches!(
            c.first_error,
            Some(WireError::ChecksumMismatch { .. })
        ));
        assert_eq!(c.wire_errors.checksum_mismatch, 1);
        assert_eq!(c.totals(0).count, 3);
    }

    #[test]
    fn truncated_mid_stream_frame_resyncs_on_the_next_magic() {
        let mut c = Collector::new(2, &[NUMERIC]);
        let mut batch = frames(&[value(1, 5)]);
        // Deliver only the first 11 bytes of one frame: everything after
        // it shifts off the 20-byte grid.
        batch.extend_from_slice(&value(2, 6).encode()[..11]);
        batch.extend_from_slice(&value(3, 7).encode());
        batch.extend_from_slice(&value(4, 8).encode());
        let stats = c.ingest_frames(&batch);
        assert_eq!(stats.accepted, 3, "frames after the cut must survive");
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.resyncs, 1, "misalignment requires a resync");
        assert_eq!(c.totals(0).count, 3);
    }

    #[test]
    fn trailing_partial_frame_is_one_truncated_rejection() {
        let mut c = Collector::new(2, &[NUMERIC]);
        let mut batch = frames(&[value(1, 5)]);
        batch.extend_from_slice(&[MAGIC, 0x01]);
        let stats = c.ingest_frames(&batch);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(c.wire_errors.truncated, 1);
    }

    #[test]
    fn duplicates_and_reorderings_fold_to_the_clean_totals() {
        let clean: Vec<Report> = (0..4).map(|e| value_at(9, e, 10 + e as i32)).collect();
        let mut reference = Collector::new(2, &[NUMERIC]);
        reference.ingest_frames(&frames(&clean));

        // Reversed order, every frame delivered twice, one delivered four
        // times: the window must fold all of it away.
        let mut noisy: Vec<Report> = clean.iter().rev().copied().collect();
        noisy.extend(clean.iter().copied());
        noisy.push(clean[2]);
        noisy.push(clean[2]);
        let mut c = Collector::new(2, &[NUMERIC]);
        let stats = c.ingest_frames(&frames(&noisy));
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.duplicates, 6);
        assert_eq!(stats.rejected, 0, "duplicates are not rejections");
        assert_eq!(c.totals(0), reference.totals(0));
    }

    #[test]
    fn duplicates_across_batches_are_still_folded() {
        let mut c = Collector::new(2, &[NUMERIC]);
        c.ingest_frames(&frames(&[value_at(5, 0, 3)]));
        let stats = c.ingest_frames(&frames(&[value_at(5, 0, 3)]));
        assert_eq!((stats.accepted, stats.duplicates), (0, 1));
        assert_eq!(c.totals(0).count, 1);
    }

    #[test]
    fn epochs_older_than_the_window_are_stale() {
        let mut c = Collector::new(1, &[NUMERIC]);
        // Blocks 2 and 3 occupy the window; block 0 then predates both.
        c.ingest_frames(&frames(&[value_at(1, 128, 1), value_at(1, 192, 2)]));
        let stats = c.ingest_frames(&frames(&[value_at(1, 0, 3)]));
        assert_eq!((stats.accepted, stats.stale, stats.rejected), (0, 1, 1));
        assert_eq!(c.totals(0).count, 2);
    }

    #[test]
    fn persistent_protocol_violations_latch_the_sender() {
        let mut c = Collector::new(2, &[NUMERIC]);
        let unknown_query = |epoch: u32| Report {
            device: 66,
            query: 9,
            epoch,
            payload: Payload::Value(1),
        };
        // Three attributable violations (default strike limit) latch the
        // sender...
        let stats = c.ingest_frames(&frames(&[
            unknown_query(0),
            unknown_query(1),
            unknown_query(2),
        ]));
        assert_eq!(stats.quarantine_latched, 1);
        assert_eq!(stats.rejected, 3);
        assert_eq!(c.quarantined_devices(), vec![66]);
        // ...after which even its *valid* frames are dropped.
        let stats = c.ingest_frames(&frames(&[value(66, 5), value(67, 6)]));
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.quarantine_dropped, 1);
        assert_eq!(c.totals(0).count, 1);
    }

    #[test]
    fn in_flight_corruption_never_strikes_the_sender() {
        let mut c = Collector::new(2, &[NUMERIC]);
        // Ten corrupted frames from the same honest device: checksum
        // failures are not attributable, so it must never be latched.
        let mut batch = Vec::new();
        for e in 0..10 {
            let mut f = value_at(8, e, 3).encode();
            f[15] ^= 0x40;
            batch.extend_from_slice(&f);
        }
        c.ingest_frames(&batch);
        assert!(c.quarantined_devices().is_empty());
        // The device's clean frames still count.
        let stats = c.ingest_frames(&frames(&[value_at(8, 11, 3)]));
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn sequence_drift_is_an_attributable_strike() {
        let mut c = Collector::new(2, &[NUMERIC]).with_quarantine_strikes(2);
        let mut batch = Vec::new();
        for epoch in 0..2u32 {
            let mut f = value_at(12, epoch, 1).encode();
            f[3] = f[3].wrapping_add(1); // a re-randomizing retrier drifts
            let sum = {
                // reseal so only the semantic violation remains
                let mut h: u32 = 0x811C_9DC5;
                for &b in &f[..18] {
                    h ^= u32::from(b);
                    h = h.wrapping_mul(0x0100_0193);
                }
                ((h >> 16) ^ (h & 0xFFFF)) as u16
            };
            f[18..20].copy_from_slice(&sum.to_le_bytes());
            batch.extend_from_slice(&f);
        }
        let stats = c.ingest_frames(&batch);
        assert_eq!(stats.quarantine_latched, 1);
        assert_eq!(c.wire_errors.seq_mismatch, 2);
        assert_eq!(c.quarantined_devices(), vec![12]);
    }

    #[test]
    fn seal_grades_coverage_against_quorum() {
        let full = EpochSeal::evaluate(100, 95, 0.9);
        assert!(full.is_full());
        assert_eq!(full.coverage, 0.95);
        let degraded = EpochSeal::evaluate(100, 70, 0.9);
        assert_eq!(degraded.status, SealStatus::Degraded { coverage: 0.70 });
        assert!(!degraded.is_full());
        // An empty expectation seals full by convention.
        assert!(EpochSeal::evaluate(0, 0, 0.9).is_full());
    }

    #[test]
    #[should_panic(expected = "duplicate query id")]
    fn duplicate_query_ids_panic() {
        Collector::new(1, &[RR, RR]);
    }

    /// A deliberately hostile stream: clean reports over several epochs,
    /// duplicates, stale epochs, unknown-query strikes (enough to latch),
    /// structural corruption forcing resyncs, and a truncated tail.
    fn hostile_stream() -> Vec<u8> {
        let mut batch = Vec::new();
        for epoch in 0..6u32 {
            for device in 0..300u32 {
                let r = if device % 5 == 0 {
                    Report {
                        device,
                        query: 1,
                        epoch,
                        payload: Payload::RrBit(device % 2 == 0),
                    }
                } else {
                    value_at(device, epoch, (device as i32 % 41) - 20)
                };
                r.encode_into(&mut batch);
                if device % 17 == 0 {
                    r.encode_into(&mut batch); // duplicate delivery
                }
            }
            // A persistent violator: unknown query id, checksum-valid.
            Report {
                device: 9000,
                query: 77,
                epoch,
                payload: Payload::Value(1),
            }
            .encode_into(&mut batch);
            // Out-of-window stale replay.
            value_at(3, 0, 5).encode_into(&mut batch);
        }
        // Structural damage: a smashed magic and a smashed checksum.
        batch[40 * FRAME_LEN] ^= 0xFF;
        let n = batch.len();
        batch[n - 50 * FRAME_LEN + 18] ^= 0x01;
        // Truncated tail.
        batch.extend_from_slice(&value_at(1, 5, 2).encode()[..7]);
        batch
    }

    /// Asserts two collectors agree on everything a caller can observe.
    fn assert_same_state(a: &Collector, b: &Collector) {
        assert_eq!(a.totals(0), b.totals(0));
        assert_eq!(a.totals(1), b.totals(1));
        assert_eq!(a.reports_ingested(), b.reports_ingested());
        assert_eq!(a.frames_rejected(), b.frames_rejected());
        assert_eq!(a.wire_errors, b.wire_errors);
        assert_eq!(a.first_error, b.first_error);
        assert_eq!(a.quarantined_devices(), b.quarantined_devices());
    }

    #[test]
    fn columnar_and_reference_paths_are_byte_identical() {
        let batch = hostile_stream();
        // Split the stream mid-frame so state carries across calls on both
        // paths identically.
        let cut = batch.len() / 2 - 3;
        for shards in [1usize, 3, 8] {
            let collector = || {
                Collector::new(shards, &[NUMERIC, RR])
                    .with_quarantine_strikes(3)
                    .with_device_capacity(256)
            };
            let mut reference = collector().with_ingest_path(IngestPath::Reference);
            let mut columnar = collector().with_ingest_path(IngestPath::Columnar);
            let r1 = reference.ingest_frames(&batch[..cut]);
            assert_eq!(r1, columnar.ingest_frames(&batch[..cut]));
            let r2 = reference.ingest_frames(&batch[cut..]);
            assert_eq!(r2, columnar.ingest_frames(&batch[cut..]));
            assert_same_state(&reference, &columnar);
            assert!(r1.accepted > 0, "hostile stream must still accept frames");
            assert!(r1.corrupt_frames > 0 && r2.corrupt_frames > 0);

            // Block boundaries are invisible: every drain block size,
            // down to one item, folds to the same stats and state.
            for block in [1, 2, 3, 7, DRAIN_BLOCK] {
                let mut streaming = collector();
                assert_eq!(streaming.ingest_streaming(&[&batch[..cut]], block), r1);
                assert_eq!(streaming.ingest_streaming(&[&batch[cut..]], block), r2);
                assert_eq!(streaming.totals(0), reference.totals(0), "block {block}");
                assert_eq!(streaming.totals(1), reference.totals(1), "block {block}");
                assert_eq!(streaming.wire_errors, reference.wire_errors);
                assert_eq!(streaming.first_error, reference.first_error);
                assert_eq!(
                    streaming.quarantined_devices(),
                    reference.quarantined_devices()
                );
            }
        }
    }

    #[test]
    fn parts_ingest_like_their_concatenation() {
        let batch = hostile_stream();
        // Cuts inside frames, on frame boundaries, inside the smashed
        // regions and the truncated tail, plus an empty part.
        for part_len in [1usize, 19, 20, 21, 997, 40 * FRAME_LEN + 7] {
            let mut parts: Vec<&[u8]> = batch.chunks(part_len).collect();
            parts.insert(parts.len() / 3, &[]);
            for shards in [1usize, 3] {
                let collector = || {
                    Collector::new(shards, &[NUMERIC, RR])
                        .with_quarantine_strikes(3)
                        .with_device_capacity(256)
                };
                let mut whole = collector();
                let mut split = collector();
                assert_eq!(
                    whole.ingest_frames(&batch),
                    split.ingest_parts(&parts),
                    "parts of {part_len}"
                );
                assert_same_state(&whole, &split);
            }
        }
    }

    /// Traffic at the edges of the flat tables for `cap` ids over `shards`
    /// shards: ids 0, cap − 1, cap and cap + shards report over three
    /// dedup blocks, with a reorder, a duplicate and a stale replay, and a
    /// violator in the last flat row of every shard latches. Returns the
    /// bytes and the violators' ids.
    fn edge_stream(cap: u32, shards: u32) -> (Vec<u8>, Vec<u32>) {
        let mut batch = Vec::new();
        for epoch in [0u32, 1, 70, 1, 130, 0] {
            for device in [0, cap - 1, cap, cap + shards] {
                value_at(device, epoch, device as i32 % 7).encode_into(&mut batch);
            }
        }
        let violators: Vec<u32> = (0..shards)
            .map(|s| ((cap - s).div_ceil(shards) - 1) * shards + s)
            .collect();
        for &device in &violators {
            for epoch in 0..3 {
                Report {
                    device,
                    query: 77,
                    epoch,
                    payload: Payload::Value(1),
                }
                .encode_into(&mut batch);
            }
            // Dropped: the sender is latched by now.
            value_at(device, 5, 1).encode_into(&mut batch);
        }
        (batch, violators)
    }

    /// The ids that took an appended row in each shard, ascending, after
    /// checking that each holds exactly one appended row of every column.
    fn appended_ids(c: &Collector) -> Vec<Vec<u32>> {
        let nq = c.queries.len();
        c.shard_states
            .iter()
            .map(|st| {
                let rows = st.appended_ids.len();
                let a = &st.appended;
                assert_eq!(
                    (a.latched.len(), a.strikes.len(), a.dedup.len()),
                    (rows, rows, rows * nq)
                );
                let mut taken: Vec<u32> = st.appended_ids.values().copied().collect();
                taken.sort_unstable();
                assert!(taken.iter().copied().eq(0..rows as u32));
                let mut ids: Vec<u32> = st.appended_ids.keys().copied().collect();
                ids.sort_unstable();
                ids
            })
            .collect()
    }

    #[test]
    fn capacity_rows_match_appended_rows() {
        let hostile = hostile_stream();
        // A cap that is a multiple of no shard count below, so the last
        // rows of the shards differ in length.
        let cap = 1_021u32;
        for shards in [1u32, 3, 4, 8] {
            let (edges, violators) = edge_stream(cap, shards);
            for path in [IngestPath::Columnar, IngestPath::Reference] {
                let collector = || {
                    Collector::new(shards as usize, &[NUMERIC, RR])
                        .with_quarantine_strikes(3)
                        .with_ingest_path(path)
                };
                // Without a capacity, every id takes an appended row.
                let mut appended = collector();
                // The cap covers the hostile stream's 300-device population
                // but not its 9000 violator, and splits the edge senders,
                // so capacity rows and appended rows run side by side in
                // the same pass.
                let mut flat = collector().with_device_capacity(cap);
                let cut = hostile.len() / 2 - 3;
                for bytes in [&hostile[..cut], &hostile[cut..], &edges[..]] {
                    assert_eq!(appended.ingest_frames(bytes), flat.ingest_frames(bytes));
                }
                assert_same_state(&appended, &flat);

                // Shard s holds exactly its own ids below the cap.
                let rows: Vec<usize> = flat
                    .shard_states
                    .iter()
                    .map(|st| st.capacity.len())
                    .collect();
                assert_eq!(rows.iter().sum::<usize>(), cap as usize, "{shards} shards");
                // Only ids at or above the cap take an appended row, once
                // each, in the shard of their partition; without a cap,
                // every sender does.
                let flat_ids = appended_ids(&flat);
                let mut senders = Vec::new();
                for (s, (ids, all)) in (0u32..).zip(flat_ids.iter().zip(appended_ids(&appended))) {
                    assert!(ids.iter().all(|&d| d >= cap && d % shards == s));
                    assert!(all.iter().all(|&d| d % shards == s));
                    senders.extend(all);
                }
                senders.sort_unstable();
                let mut expected: Vec<u32> = (0..300).chain([9000]).collect();
                expected.extend([cap - 1, cap, cap + shards]);
                expected.extend(&violators);
                expected.sort_unstable();
                expected.dedup();
                assert_eq!(senders, expected, "{shards} shards");
                let mut overflow = flat_ids.concat();
                overflow.sort_unstable();
                assert_eq!(overflow, [cap, cap + shards, 9000]);
                // Every last-row violator is latched in a capacity row and
                // listed under its global id.
                let quarantined = flat.quarantined_devices();
                for &v in &violators {
                    assert!(v < cap && v + shards >= cap, "{v} sits in a last row");
                    assert!(quarantined.contains(&v), "{shards} shards: {v} not latched");
                }
                assert!(quarantined.contains(&9000));
                assert_eq!(quarantined.len(), violators.len() + 1);
            }
        }
    }

    /// The dedup slot as first written, 40 bytes: `(block, bits)` pairs
    /// and a fill count. The reference for the 24-byte [`DedupSlot`].
    #[derive(Clone, Copy, Default)]
    struct ReferenceSlot {
        blocks: [(u32, u64); 2],
        used: u8,
    }

    impl ReferenceSlot {
        fn admit(&mut self, epoch: u32) -> Admit {
            let block = epoch / DEDUP_BLOCK;
            let bit = 1u64 << (epoch % DEDUP_BLOCK);
            for i in 0..usize::from(self.used) {
                if self.blocks[i].0 == block {
                    if self.blocks[i].1 & bit != 0 {
                        return Admit::Duplicate;
                    }
                    self.blocks[i].1 |= bit;
                    return Admit::Fresh;
                }
            }
            if usize::from(self.used) < 2 {
                self.blocks[usize::from(self.used)] = (block, bit);
                self.used += 1;
                return Admit::Fresh;
            }
            let older = usize::from(self.blocks[1].0 < self.blocks[0].0);
            if block < self.blocks[older].0 {
                return Admit::Stale;
            }
            self.blocks[older] = (block, bit);
            Admit::Fresh
        }
    }

    #[test]
    fn dedup_slot_is_24_bytes_and_keeps_the_top_block() {
        assert_eq!(std::mem::size_of::<DedupSlot>(), 24);
        // Block u32::MAX / 64 = 67,108,863 is the highest an epoch
        // reaches; it must read as resident, never as empty.
        let mut slot = DedupSlot::FRESH;
        assert_eq!(slot.admit(u32::MAX), Admit::Fresh);
        assert_eq!(slot.admit(u32::MAX), Admit::Duplicate);
        assert_eq!(slot.admit(u32::MAX - 64), Admit::Fresh);
        assert_eq!(slot.admit(u32::MAX - 1), Admit::Fresh);
        assert_eq!(slot.admit(u32::MAX - 1), Admit::Duplicate);
        assert_eq!(slot.admit(u32::MAX - 128), Admit::Stale);
        assert_eq!(slot.blocks, [u32::MAX / 64, u32::MAX / 64 - 1]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The 24-byte slot gives the reference slot's verdict on every
        /// report of any epoch stream: reorders, replays, and evictions
        /// across up to five blocks, anywhere on the epoch axis, up to
        /// `u32::MAX`.
        #[test]
        fn compact_dedup_slot_matches_the_reference_slot(
            base in proptest::prop_oneof![
                proptest::prelude::Just(0u32),
                proptest::prelude::Just(u32::MAX - 255),
                proptest::prelude::Just(u32::MAX - 100),
                proptest::prelude::any::<u32>(),
            ],
            offsets in proptest::collection::vec(0u32..256, 1..160),
        ) {
            let mut compact = DedupSlot::FRESH;
            let mut reference = ReferenceSlot::default();
            for off in offsets {
                let epoch = base.saturating_add(off);
                proptest::prop_assert_eq!(compact.admit(epoch), reference.admit(epoch));
            }
        }
    }

    /// Shard counts at the edges of the reciprocal's range: one and two
    /// shards, powers of two and their neighbours, and the largest.
    const EDGE_SHARDS: [usize; 10] = [
        1,
        2,
        3,
        7,
        1 << 16,
        (1 << 31) - 1,
        1 << 31,
        (1 << 31) + 1,
        u32::MAX as usize - 1,
        u32::MAX as usize,
    ];

    fn assert_routes_exactly(shards: usize, device: u32) {
        // The routing fields of a collector over `shards` shards, without
        // allocating that many.
        let s = shards as u32;
        let c = Collector {
            shards: s,
            shard_reciprocal: reciprocal(s),
            ..Collector::new(1, &[NUMERIC])
        };
        assert_eq!(
            c.route(device),
            ((device % s) as usize, device / s),
            "device {device} over {shards} shards"
        );
    }

    #[test]
    fn routing_divides_exactly_at_the_edges() {
        assert_eq!(
            Collector::new(3, &[NUMERIC]).shard_reciprocal,
            reciprocal(3)
        );
        for shards in EDGE_SHARDS {
            let s = shards as u32;
            for device in [0, 1, s - 1, s, s.saturating_add(1), u32::MAX - 1, u32::MAX] {
                assert_routes_exactly(shards, device);
            }
            // Every multiple of the shard count and its neighbours.
            for k in [1u32, 2, 3, 1000, u32::MAX / s] {
                let m = k.saturating_mul(s);
                for device in [m.saturating_sub(1), m, m.saturating_add(1)] {
                    assert_routes_exactly(shards, device);
                }
            }
        }
    }

    /// `absorb_value` as first written: every power in `i128`.
    fn reference_absorb(t: &mut QueryTotals, v: i64) {
        t.count += 1;
        let w = i128::from(v);
        t.sum += w;
        t.sum2 += w * w;
        t.sum3 += w * w * w;
        t.sum4 += w * w * w * w;
        if let Some(s) = t.sketch.as_mut() {
            s.record(v);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Division by reciprocal routes every id as `%` and `/` do, at
        /// any shard count.
        #[test]
        fn routing_equals_division(
            device in proptest::prelude::any::<u32>(),
            shards in proptest::prop_oneof![
                1usize..64,
                1usize..=u32::MAX as usize,
            ],
        ) {
            assert_routes_exactly(shards, device);
        }

        /// The `i64` powers give the `i128` sums, on both sides of 2¹⁵
        /// and over the whole `i32` payload range.
        #[test]
        fn absorb_value_equals_the_i128_sums(
            values in proptest::collection::vec(
                proptest::prop_oneof![
                    -40_000i64..40_000,
                    (1i64 << 15) - 2..(1i64 << 15) + 2,
                    -(1i64 << 15) - 2..-(1i64 << 15) + 2,
                    i64::from(i32::MIN)..=i64::from(i32::MAX),
                ],
                1..64,
            ),
        ) {
            let mut fast = QueryTotals::new(NUMERIC.kind);
            let mut reference = QueryTotals::new(NUMERIC.kind);
            for v in values {
                fast.absorb_value(v);
                reference_absorb(&mut reference, v);
            }
            proptest::prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn drain_items_are_16_bytes() {
        assert_eq!(std::mem::size_of::<Item>(), 16);
    }

    #[test]
    #[should_panic(expected = "device capacity must be set before the first ingest")]
    fn device_capacity_after_ingest_panics() {
        let mut c = Collector::new(1, &[NUMERIC]);
        c.ingest_frames(&frames(&[value(1, 2)]));
        let _ = c.with_device_capacity(16);
    }
}
