//! The simulated-fleet driver: N DP-Box devices streaming into a collector.
//!
//! Each healthy-URNG device is a lane of its chunk's [`DeviceArray`]: the
//! DP-Box datapath — URNG, continuous health monitor, noising, budget
//! control — advanced column by column, bit-identical to a scalar
//! [`dp_box::DpBox`] booted through the same command sequence. The scalar
//! FSM runs the faulty-URNG sidecar devices and is the reference oracle
//! the lanes are tested against. The driver
//!
//! 1. draws a population of sensor values from a dataset spec (via
//!    [`ldp_eval::GroundTruth`], the shared ground-truth preparation);
//! 2. boots every device through the hardware command sequence, running the
//!    power-on URNG self-test first so devices with degraded bit sources
//!    fail safe *before emitting a single report* (a value-independent
//!    exclusion, hence unbiased);
//! 3. streams the run round by round through a [`FleetService`] over a
//!    sharded [`Collector`], sealing epoch windows as the watermark passes —
//!    one window over every epoch ([`FleetDriver::one_window`]) is the whole
//!    run as a single batch;
//! 4. charges every fresh randomization once, from the run's one spend log,
//!    into its window's keyed ledger as the window seals (the double-spend
//!    audit), and digests the whole log at the end (the ε-spend digest);
//! 5. returns debiased per-window and rollup estimates next to the
//!    included-population ground truth.
//!
//! # The round loop
//!
//! Devices run in fixed-size chunks, one service ingest lane per chunk.
//! Each delivery round, every chunk steps its devices one epoch, encodes
//! their reports and sends them through the (possibly chaotic) uplink into
//! its ring of rounds in flight; the round's arrivals then leave the ring,
//! the service is offered them, and the windows whose watermark passed
//! seal. A chunk's device state lives only while the chunk has epochs
//! left, and its ring spans [`FleetConfig::delivery_slack`] + 1 rounds, so
//! the driver holds one round's frames plus what retries and delays keep
//! in flight ([`ServiceOutcome::max_inflight_bytes`]), never the run's
//! history. Only the batch engine's lockstep lanes run ahead: a chunk's
//! [`DeviceArray`] steps a fixed block of epochs per visit, while its
//! lanes' state is in cache, and their outcomes wait in columns until the
//! rounds that send them.
//!
//! # Determinism
//!
//! Every random stream is seeded by [`ulp_rng::stream_seed`] from
//! `(master seed, device id, role)`, each round fans the chunks out over
//! [`ulp_par::par_map`], a round's arrivals are offered in a stable order
//! by device — the order a device-major simulation of the whole run emits —
//! and the collector partitions devices by `d mod shards`, so the outcome
//! is a pure function of the configuration, bit-identical at any thread
//! count and shard count.

use core::fmt;
use std::sync::Mutex;

use dp_box::{DeviceArray, DeviceArrayConfig, DpBox, DpBoxError, HealthConfig, LaneOutcome};
use ldp_core::{BudgetLedger, LdpError, RandomizedResponse};
use ldp_datasets::DatasetSpec;
use ldp_eval::GroundTruth;
use ulp_obs::{Counter, Fnv64, SpanTimer};
use ulp_rng::{stream_seed, CorrelatedBits, RandomBits, Taus88};

use crate::chaos::{ChaosConfig, DeviceChaos, MAX_DELAY_ROUNDS};
use crate::collector::{
    Collector, EpochSeal, IngestPath, IngestStats, QueryConfig, QueryKind, SealStatus,
};
use crate::estimator::{Estimate, NoiseModel};
use crate::service::{FleetService, ServiceConfig, ServiceSnapshot};
use crate::wire::{Payload, Report, FRAME_LEN};

/// Devices booted, process-wide.
static DEVICES: Counter = Counter::new("fleet.devices.simulated");
/// Devices excluded by the power-on URNG self-test — recorded at every
/// metrics level: a fleet silently dropping devices must be visible.
static EXCLUDED: Counter = Counter::new("fleet.devices.excluded");
/// Wall-clock of each delivery round (simulation + ingest: the round's
/// device steps, its offers, and the seals it makes due).
static EPOCH_SPAN: SpanTimer = SpanTimer::new("fleet.driver.epoch");
/// Wall-clock of each round's device-simulation fan-out (boot, noising,
/// framing and transport, before the round's offers).
static SIM_SPAN: SpanTimer = SpanTimer::new("fleet.driver.simulate");

/// Nanoseconds spent in device simulation process-wide (recorded at
/// metrics level `full` only — the hook `bench_fleet` splits per-cell wall
/// time with).
pub fn sim_phase_ns() -> u64 {
    SIM_SPAN.total_ns()
}

/// Which engine [`FleetDriver::run_service`] simulates devices with. The
/// two engines produce **bit-identical** outcomes, spend logs, and digests
/// for every configuration — the batch engine advances a [`DeviceArray`]
/// per chunk and is the pipeline; the reference engine steps one [`DpBox`]
/// FSM per device and is an in-process differential-test oracle, selected
/// only through [`FleetDriver::with_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceEngine {
    /// Struct-of-arrays lockstep simulation (the default): one
    /// [`DeviceArray`] per chunk, faulty-URNG devices on a scalar sidecar.
    #[default]
    Batch,
    /// One full [`DpBox`] FSM per device.
    Reference,
}

/// Wire query id carrying fixed-point noised values.
pub const VALUE_QUERY: u16 = 0;
/// Wire query id carrying randomized-response threshold bits.
pub const RR_QUERY: u16 = 1;

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Population size (devices).
    pub devices: usize,
    /// Reporting epochs to stream.
    pub epochs: u32,
    /// Master seed every per-device stream derives from.
    pub seed: u64,
    /// Collector shard count.
    pub shards: usize,
    /// Dataset the sensor values are drawn from (`entries` is overridden
    /// by `devices`).
    pub spec: DatasetSpec,
    /// Privacy shift `n_m` (per-report ε = 2^−n_m).
    pub eps_shift: u8,
    /// ADC resolution in bits (codes span `[0, 2^adc_bits]`).
    pub adc_bits: u8,
    /// URNG width `Bu`.
    pub bu: u8,
    /// Datapath word width.
    pub word_bits: u8,
    /// Per-device privacy budget, in raw grid units of nats (loaded with
    /// the initialization-phase `SetEpsilon` overload).
    pub budget_raw: i64,
    /// Devices per thousand whose URNG is wired through a correlated-bits
    /// fault (they must fail the power-on self-test and be excluded).
    pub faulty_per_mille: u32,
    /// RR threshold: each device reports `RR(x ≥ threshold_code)`.
    pub threshold_code: i64,
    /// Devices per parallel simulation chunk.
    pub chunk: usize,
    /// Budget-control segment multiples.
    pub multiples: Vec<f64>,
    /// Transport fault injection between devices and collector (`None` =
    /// perfect wire).
    pub chaos: Option<ChaosConfig>,
    /// Retransmissions a device may attempt per unacked report (beyond
    /// the first send), under exponential backoff. Retries replay the
    /// *cached* report bytes verbatim — never a fresh randomization.
    pub retry_budget: u32,
    /// Planted adversarial senders (ids above the population) emitting
    /// checksum-valid frames for an unregistered query every epoch — the
    /// quarantine latch must catch them.
    pub malformed_senders: usize,
}

impl FleetConfig {
    /// The paper's operating point (`Bu = 17`, 8-bit ADC, 20-bit word,
    /// ε = ½) on a statlog-heart population, 5‰ faulty devices.
    pub fn paper_default(devices: usize, epochs: u32, seed: u64) -> Self {
        FleetConfig {
            devices,
            epochs,
            seed,
            shards: 4,
            spec: ldp_datasets::statlog_heart(),
            eps_shift: 1,
            adc_bits: 8,
            bu: 17,
            word_bits: 20,
            budget_raw: 1 << 18,
            faulty_per_mille: 5,
            threshold_code: 128,
            chunk: 1024,
            multiples: vec![1.5, 2.0, 2.5, 3.0],
            chaos: None,
            retry_budget: 2,
            malformed_senders: 0,
        }
    }

    /// Delivery rounds past the last epoch that its retries and delays can
    /// reach: under chaos, the full exponential backoff of a report's
    /// last retransmission plus the longest delivery delay; none on a
    /// perfect wire. A watermark lag this long marks nothing `late`.
    /// Assumes a retry budget of at most 6, as [`FleetDriver::new`]
    /// enforces.
    pub fn delivery_slack(&self) -> u32 {
        if self.chaos.is_some() {
            (1u32 << self.retry_budget) - 1 + MAX_DELAY_ROUNDS
        } else {
            0
        }
    }
}

/// Why a fleet run could not be carried out.
#[derive(Debug)]
pub enum FleetError {
    /// A configuration field failed validation.
    Config(&'static str),
    /// A device rejected the boot command sequence.
    Device(DpBoxError),
    /// Noise-model or mechanism construction failed.
    Privacy(LdpError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "invalid fleet config: {msg}"),
            FleetError::Device(e) => write!(f, "device error: {e}"),
            FleetError::Privacy(e) => write!(f, "privacy configuration error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Config(_) => None,
            FleetError::Device(e) => Some(e),
            FleetError::Privacy(e) => Some(e),
        }
    }
}

impl From<DpBoxError> for FleetError {
    fn from(e: DpBoxError) -> Self {
        FleetError::Device(e)
    }
}

impl From<LdpError> for FleetError {
    fn from(e: LdpError) -> Self {
        FleetError::Privacy(e)
    }
}

/// A device's bit source: healthy Tausworthe, or the same wrapped in a
/// lag-1 correlated-bits fault that the power-on self-test must catch.
#[derive(Debug, Clone)]
enum FleetUrng {
    Healthy(Taus88),
    Faulty(CorrelatedBits<Taus88>),
}

impl RandomBits for FleetUrng {
    fn next_u32(&mut self) -> u32 {
        match self {
            FleetUrng::Healthy(r) => r.next_u32(),
            FleetUrng::Faulty(r) => r.next_u32(),
        }
    }
}

/// Ground-truth population statistics over the included devices.
struct Truths {
    mean: f64,
    variance: f64,
    median: f64,
    fraction: f64,
}

/// What one [`FleetDriver::run_service`] run produced: the per-window
/// seals and digests, the live snapshot served at end of run, the
/// multi-epoch rollup, and the fleet-wide audits — everything
/// schedule-independent, plus wall-clock seal timings kept strictly
/// outside the digest. Under [`FleetDriver::one_window`] the rollup is the
/// whole run's batch result.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Devices booted (the configured population).
    pub devices_simulated: usize,
    /// Devices the power-on URNG self-test excluded before any report.
    pub devices_excluded: usize,
    /// Devices that stopped reporting mid-stream.
    pub devices_dropped: usize,
    /// Windows sealed over the run (every window, by construction).
    pub windows_sealed: usize,
    /// Each sealed window's canonical digest, ascending window index.
    pub window_digests: Vec<u64>,
    /// Each sealed window's coverage seal, ascending window index.
    pub window_seals: Vec<EpochSeal>,
    /// The live snapshot taken after the last seal: debiased per-window
    /// estimates exactly as a query client would have read them.
    pub snapshot: ServiceSnapshot,
    /// Debiased mean over the rollup's merged accumulators.
    pub rollup_mean: Option<Estimate>,
    /// Debiased variance over the rollup's merged accumulators.
    pub rollup_variance: Option<Estimate>,
    /// Median over the rollup's merged sketch.
    pub rollup_median: Option<Estimate>,
    /// Debiased RR frequency over the rollup's merged bits.
    pub rollup_rr_frequency: Option<Estimate>,
    /// Total privacy loss over every sealed window's ledger, in nats: the
    /// sequential sum of their charges in window order, what one ledger
    /// merged from them would hold (no merged ledger is built).
    pub rollup_ledger_total: f64,
    /// Charges over every sealed window's ledger.
    pub rollup_ledger_entries: usize,
    /// Coverage seal over the whole rollup.
    pub rollup_seal: EpochSeal,
    /// The rollup's order-canonical digest.
    pub rollup_digest: u64,
    /// Whether every window's ledger audited bitwise against its charges
    /// at its seal AND the rollup's streaming re-audit of the windows'
    /// ledgers, in window order, passed.
    pub audit_ok: bool,
    /// Service-lifetime ingest totals (including `late` arrivals).
    pub stats: IngestStats,
    /// Batches refused with typed backpressure (each was retried after a
    /// drain — refusal never loses reports).
    pub backpressure_rejections: u64,
    /// Largest staged frame count any single drain folded.
    pub max_drain_frames: usize,
    /// FNV-1a digest over every `(device, epoch, charge)` fresh-spend
    /// record, in (chunk, device, epoch) order, taken at the end of the run
    /// over its append-only spend log. Chaos acts only on cached
    /// frame bytes and windows only split the log, so this digest is
    /// **bitwise identical with and without transport faults, at every
    /// window width** — the retry-path ε-spend witness.
    pub ledger_digest: u64,
    /// `(device, epoch)` keys that recorded two fresh-randomization
    /// charges (expected 0).
    pub double_spends: u64,
    /// Retransmissions attempted fleet-wide.
    pub retry_attempts: u64,
    /// Reports whose retry budget expired without an ack.
    pub reports_unacked: u64,
    /// True mean (codes) over the included devices.
    pub truth_mean: f64,
    /// True variance (codes²) over the included devices.
    pub truth_variance: f64,
    /// True median (codes) over the included devices.
    pub truth_median: f64,
    /// True fraction of included devices at or above the RR threshold.
    pub truth_fraction: f64,
    /// Senders the collector latched into quarantine, ascending.
    pub quarantined: Vec<u32>,
    /// The thresholding window bound `n_th` (codes).
    pub n_th_k: i64,
    /// Wall-clock nanoseconds per seal — observability only, **never**
    /// rendered into the canonical text [`ServiceOutcome::digest`] hashes.
    pub seal_ns: Vec<u64>,
    /// Peak frame bytes sent by the devices but not yet offered to the
    /// service, over every round: one round's reports on a perfect wire,
    /// plus what retries and delays keep in flight under chaos — bounded by
    /// the delivery ring, not by the run's length. Memory observability
    /// only, **never** rendered into the canonical text
    /// [`ServiceOutcome::digest`] hashes.
    pub max_inflight_bytes: usize,
}

impl ServiceOutcome {
    /// Canonical rendering of every schedule-independent field — the text
    /// the service determinism digest is computed over. Exact float bits
    /// are rendered via [`f64::to_bits`]; wall-clock timings are excluded.
    fn canonical_text(&self) -> String {
        fn est(e: &Option<Estimate>) -> String {
            match e {
                None => "none".to_string(),
                Some(e) => format!(
                    "{:016x}:{:016x}:{}:{:016x}",
                    e.value.to_bits(),
                    e.stderr.to_bits(),
                    e.n,
                    e.bias_bound.to_bits()
                ),
            }
        }
        fn seal(s: &EpochSeal) -> String {
            let status = match s.status {
                SealStatus::Full => "full".to_string(),
                SealStatus::Degraded { coverage } => {
                    format!("degraded:{:016x}", coverage.to_bits())
                }
            };
            format!("{status}:{}:{}", s.expected, s.accepted)
        }
        let mut out = format!(
            "devices={} excluded={} dropped={} windows={}\n",
            self.devices_simulated,
            self.devices_excluded,
            self.devices_dropped,
            self.windows_sealed,
        );
        for (i, (digest, s)) in self
            .window_digests
            .iter()
            .zip(&self.window_seals)
            .enumerate()
        {
            out.push_str(&format!("window[{i}]={digest:016x} seal={}\n", seal(s)));
        }
        for w in &self.snapshot.windows {
            out.push_str(&format!(
                "snapshot[{}] mean={} variance={} median={} rr_frequency={}\n",
                w.index,
                est(&w.mean),
                est(&w.variance),
                est(&w.median),
                est(&w.rr_frequency),
            ));
        }
        out.push_str(&format!(
            "rollup mean={} variance={} median={} rr_frequency={}\n\
             rollup_ledger_total={:016x} rollup_ledger_entries={} rollup_seal={} \
             rollup_digest={:016x} audit_ok={}\n",
            est(&self.rollup_mean),
            est(&self.rollup_variance),
            est(&self.rollup_median),
            est(&self.rollup_rr_frequency),
            self.rollup_ledger_total.to_bits(),
            self.rollup_ledger_entries,
            seal(&self.rollup_seal),
            self.rollup_digest,
            self.audit_ok,
        ));
        let quarantined = {
            let mut h = Fnv64::new();
            for d in &self.quarantined {
                h.write(&d.to_le_bytes());
            }
            h.finish()
        };
        out.push_str(&format!(
            "accepted={} rejected={} duplicates={} stale={} late={} corrupt_frames={} \
             resyncs={} quarantine_dropped={} quarantine_latched={}\n\
             backpressure_rejections={} max_drain_frames={}\n\
             ledger_digest={:016x} double_spends={} retry_attempts={} reports_unacked={}\n\
             truth_mean={:016x} truth_variance={:016x} truth_median={:016x} truth_fraction={:016x}\n\
             quarantined={}:{:016x} n_th_k={}\n",
            self.stats.accepted,
            self.stats.rejected,
            self.stats.duplicates,
            self.stats.stale,
            self.stats.late,
            self.stats.corrupt_frames,
            self.stats.resyncs,
            self.stats.quarantine_dropped,
            self.stats.quarantine_latched,
            self.backpressure_rejections,
            self.max_drain_frames,
            self.ledger_digest,
            self.double_spends,
            self.retry_attempts,
            self.reports_unacked,
            self.truth_mean.to_bits(),
            self.truth_variance.to_bits(),
            self.truth_median.to_bits(),
            self.truth_fraction.to_bits(),
            self.quarantined.len(),
            quarantined,
            self.n_th_k,
        ));
        out
    }

    /// FNV-1a 64-bit digest of the canonical rendering of every
    /// schedule-independent field (exact float bits, no wall-clock
    /// timings): equal digests witness bit-identical runs across thread counts, shard
    /// counts, device engines, and ingest paths.
    pub fn digest(&self) -> u64 {
        Fnv64::hash(self.canonical_text().as_bytes())
    }
}

/// Epochs a chunk's [`DeviceArray`] steps at a time. Its lanes' state
/// stays in cache across the block instead of being fetched again every
/// round; the outcomes wait in columns, and frames still leave the chunk
/// one round at a time.
const STEP_BLOCK: usize = 8;

/// The run's one spend log: every fresh randomization, appended round by
/// round and never rewritten — the input of the keyed double-spend audit,
/// the window ledgers, and the ε-spend digest. Chaos never touches it: it
/// is produced by the device simulation alone.
///
/// It is the only record of the run's spends that lasts the whole run (the
/// digest reads all of it at the end), so it keeps 12 B per spend: a
/// device id and a charge, with the epoch implied by the list's place.
#[cfg_attr(test, derive(Clone))]
struct SpendLog {
    /// `chunks[c][e]`: chunk `c`'s spends of epoch `e`, in device order.
    chunks: Vec<Vec<EpochSpends>>,
}

/// One chunk's fresh spends of one epoch, in device order, as two columns.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
struct EpochSpends {
    devices: Vec<u32>,
    charges: Vec<f64>,
}

impl EpochSpends {
    fn push(&mut self, device: u32, charge: f64) {
        self.devices.push(device);
        self.charges.push(charge);
    }
}

/// A window's share of the spend log, folded when the window seals.
struct WindowSpends {
    /// The first charge of each `(device, epoch)` key inside the window.
    ledger: BudgetLedger,
    /// The charges the ledger accepted, in record order: the window
    /// accountant's input.
    charges: Vec<f64>,
    /// Spends refused as a second charge for an already-charged key.
    double_spends: u64,
}

impl SpendLog {
    fn new(chunks: usize) -> SpendLog {
        SpendLog {
            chunks: (0..chunks).map(|_| Vec::new()).collect(),
        }
    }

    /// Visits a chunk's spends of `epochs`, the lists of epochs `first..`,
    /// in (device, epoch) order as `(device, epoch, charge)`. Each list is
    /// in device order, the order the chunk steps its devices in, so this
    /// is a merge: the smallest device at any list's head goes next, with
    /// its spends taken list by list in epoch order.
    fn by_device(epochs: &[EpochSpends], first: u32, mut visit: impl FnMut(u32, u32, f64)) {
        let mut heads = vec![0; epochs.len()];
        let head_device = |heads: &[usize]| {
            let devices = epochs
                .iter()
                .zip(heads)
                .filter_map(|(e, &at)| e.devices.get(at));
            devices.min().copied()
        };
        while let Some(device) = head_device(&heads) {
            for ((epoch, spends), at) in (first..).zip(epochs).zip(&mut heads) {
                while spends.devices.get(*at) == Some(&device) {
                    visit(device, epoch, spends.charges[*at]);
                    *at += 1;
                }
            }
        }
    }

    /// Folds the spends of epochs `[lo, hi)` into a window ledger through
    /// its keyed `record_spend`, in (chunk, device, epoch) order — the
    /// canonical order the rollup audit re-folds. The window's spends are
    /// counted first, so the ledger and the charge list are allocated once,
    /// at their final size.
    ///
    /// A `(device, epoch)` key lands in exactly one window, so the window
    /// ledgers together refuse every duplicate a fleet-wide keyed ledger
    /// would: a retry path that re-privatized surfaces in `double_spends`
    /// as a typed `DoubleSpend`, never as silent extra accumulation.
    fn fold_window(&self, lo: u32, hi: u32) -> WindowSpends {
        let epochs = lo as usize..hi as usize;
        let windows = self.chunks.iter().map(|chunk| &chunk[epochs.clone()]);
        let spends = windows.clone().flatten().map(|e| e.devices.len()).sum();
        let mut fold = WindowSpends {
            ledger: BudgetLedger::with_capacity(spends),
            charges: Vec::with_capacity(spends),
            double_spends: 0,
        };
        for window in windows {
            Self::by_device(window, lo, |device, epoch, charge| {
                let ledger = &mut fold.ledger;
                match ledger.record_spend(device.into(), epoch.into(), charge) {
                    Ok(()) => fold.charges.push(charge),
                    Err(_) => fold.double_spends += 1,
                }
            });
        }
        fold
    }

    /// FNV-1a over every spend's `(device, epoch, charge bits)`, refused
    /// duplicates included, in (chunk, device, epoch) order. Chaos and
    /// windowing act only on delivered bytes, so the digest is the same for
    /// every window width and transport.
    fn digest(&self) -> u64 {
        let mut digest = Fnv64::new();
        for chunk in &self.chunks {
            Self::by_device(chunk, 0, |device, epoch, charge| {
                digest.write(&device.to_le_bytes());
                digest.write(&epoch.to_le_bytes());
                digest.write(&charge.to_bits().to_le_bytes());
            });
        }
        digest.finish()
    }
}

/// One chunk's frames in flight: slot `round % slots.len()` collects the
/// arrivals of `round`. An epoch's sends reach at most
/// [`FleetConfig::delivery_slack`] rounds past it, so that many slots past
/// the current round bound the ring.
struct DeliveryRing {
    slots: Vec<RoundSlot>,
    /// The chunk's first device id: an arrival's sort key is its device's
    /// index in the chunk.
    start: u32,
    /// Devices in the chunk.
    devices: usize,
    /// One counter per device of the chunk, all zero between takes: the
    /// counting sort's histogram, then its offsets. Allocated by the first
    /// take that sorts, so a chunk whose rounds all arrive in device order
    /// (every chunk on a perfect wire) never holds it.
    counts: Vec<u32>,
    /// Frame bytes held across every slot.
    held: usize,
}

#[derive(Default)]
struct RoundSlot {
    /// Arrivals in their place in the round.
    in_order: Arrivals,
    /// Arrivals displaced within their round.
    displaced: Arrivals,
}

/// Arrivals in arrival order: their bytes back to back, and each one's
/// sort key and length.
#[derive(Default)]
struct Arrivals {
    bytes: Vec<u8>,
    frames: Vec<(u32, u8)>,
}

impl Arrivals {
    /// Appends an arrival's `bytes` (a frame or a prefix of one) under
    /// `key` and returns them, to be edited in place.
    #[inline]
    fn push(&mut self, key: u32, bytes: &[u8]) -> &mut [u8] {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(bytes);
        self.frames.push((key, bytes.len() as u8));
        &mut self.bytes[at..]
    }

    /// Appends the arrivals' bytes to `out` in a stable order by key — by
    /// descending key, ties in reverse arrival order, when `reverse` —
    /// with one counting sort over `counts`, one zeroed counter per key,
    /// which it leaves zeroed.
    fn sort_into(&self, out: &mut Vec<u8>, counts: &mut [u32], reverse: bool) {
        let top = counts.len() - 1;
        let key = |k: u32| {
            if reverse {
                top - k as usize
            } else {
                k as usize
            }
        };
        for &(k, len) in &self.frames {
            counts[key(k)] += u32::from(len);
        }
        let mut at = 0;
        for c in counts.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        let base = out.len();
        out.resize(base + at as usize, 0);
        let mut place = |k: u32, src: usize, len: usize| {
            let dst = base + counts[key(k)] as usize;
            out[dst..dst + len].copy_from_slice(&self.bytes[src..src + len]);
            counts[key(k)] += len as u32;
        };
        if reverse {
            let mut src = self.bytes.len();
            for &(k, len) in self.frames.iter().rev() {
                src -= usize::from(len);
                place(k, src, usize::from(len));
            }
        } else {
            let mut src = 0;
            for &(k, len) in &self.frames {
                place(k, src, usize::from(len));
                src += usize::from(len);
            }
        }
        counts.fill(0);
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.frames.clear();
    }
}

impl DeliveryRing {
    /// A ring for the chunk of devices `[start, end)`.
    fn new(slack: u32, start: u32, end: u32) -> DeliveryRing {
        DeliveryRing {
            slots: (0..=slack).map(|_| RoundSlot::default()).collect(),
            start,
            devices: (end - start) as usize,
            counts: Vec::new(),
            held: 0,
        }
    }

    /// Lands `device`'s arriving `bytes` in `round`'s slot and returns
    /// them, to be edited in place.
    #[inline]
    fn deliver(&mut self, round: usize, device: u32, bytes: &[u8], displaced: bool) -> &mut [u8] {
        let slots = self.slots.len();
        let slot = &mut self.slots[round % slots];
        self.held += bytes.len();
        let arrivals = if displaced {
            &mut slot.displaced
        } else {
            &mut slot.in_order
        };
        arrivals.push(device - self.start, bytes)
    }

    /// Takes `round`'s arrivals as the bytes its lane offers, in a stable
    /// order by device — the order a device-major simulation of the whole
    /// run emits: every epoch's sends of device `d` before device
    /// `d + 1`'s — with displaced frames after the in-order ones in
    /// *reverse*, the displacement the dedup window must be insensitive
    /// to. In-order arrivals that already are in device order (every round
    /// of a perfect wire) leave as they are; others take one counting sort
    /// by device. The slot's storage is freed if the chunk sends no more
    /// (`refill` false).
    fn take(&mut self, round: usize, refill: bool) -> Vec<u8> {
        let slots = self.slots.len();
        let RoundSlot {
            in_order,
            displaced,
        } = &mut self.slots[round % slots];
        let in_device_order = in_order.frames.is_sorted_by_key(|f| f.0);
        if self.counts.is_empty() && !(in_device_order && displaced.frames.is_empty()) {
            self.counts = vec![0; self.devices];
        }
        let mut bytes = if in_device_order {
            // The round this slot serves next holds about as many bytes.
            let next = Vec::with_capacity(if refill { in_order.bytes.len() } else { 0 });
            std::mem::replace(&mut in_order.bytes, next)
        } else {
            let mut sorted = Vec::with_capacity(in_order.bytes.len() + displaced.bytes.len());
            in_order.sort_into(&mut sorted, &mut self.counts, false);
            sorted
        };
        if !displaced.frames.is_empty() {
            displaced.sort_into(&mut bytes, &mut self.counts, true);
        }
        if refill {
            in_order.clear();
            displaced.clear();
        } else {
            (*in_order, *displaced) = Default::default();
        }
        self.held -= bytes.len();
        bytes
    }
}

/// How a device noises its readings.
enum Noiser {
    /// A lane of its chunk's [`DeviceArray`].
    Lane(u32),
    /// Its own [`DpBox`] FSM: the batch engine's faulty-URNG sidecar, and
    /// every device under the reference engine.
    Scalar(Box<DpBox<FleetUrng>>),
}

/// A booted device's state between rounds.
struct Device {
    id: u32,
    noiser: Noiser,
    /// The host-side randomized-response generator.
    rr_rng: Taus88,
    /// The device's transport state (`None` on a perfect wire).
    chaos: Option<Box<DeviceChaos>>,
}

/// A booted chunk's live devices, in id order, and the array its healthy
/// lanes step in.
struct ChunkDevices {
    /// The batch engine's lockstep lanes (`None` under the reference
    /// engine).
    array: Option<DeviceArray>,
    /// Each lane's sensor value.
    xs: Vec<i64>,
    /// The array's outcome columns for the current block of
    /// [`STEP_BLOCK`] epochs, one per epoch.
    outcomes: Vec<Vec<LaneOutcome>>,
    /// Devices still reporting: self-test exclusions never join, and
    /// dropped devices leave.
    devices: Vec<Device>,
}

/// One simulation chunk: devices `[start, end)` and their frames in flight.
struct ChunkSim {
    start: u32,
    end: u32,
    /// Booted in round 0, dropped after the last epoch.
    devices: Option<ChunkDevices>,
    ring: DeliveryRing,
}

/// What one chunk produced in one round.
#[derive(Default)]
struct ChunkRound {
    /// The round's arrivals, as the chunk's lane offers them.
    bytes: Vec<u8>,
    /// Fresh spends of the round's epoch, in device order.
    spends: EpochSpends,
    /// Devices the power-on self-test excluded (round 0 only), ascending.
    excluded: Vec<u32>,
    /// Devices that stopped reporting this round.
    dropped: usize,
    /// Retransmissions attempted (beyond each report's first send).
    retry_attempts: u64,
    /// Reports whose retry budget expired without an ack.
    reports_unacked: u64,
    /// Frame bytes in flight once the round's sends are made, before its
    /// arrivals leave the ring.
    inflight: usize,
}

/// The simulated fleet: configuration plus the derived noise model.
#[derive(Debug, Clone)]
pub struct FleetDriver {
    cfg: FleetConfig,
    model: NoiseModel,
    /// Every device's synthesis parameters and boot operands: the array
    /// lanes boot with it, and each scalar device through `DpBox::boot`.
    device: DeviceArrayConfig,
    /// Device-side simulation engine: [`DeviceEngine::Batch`] unless a
    /// differential test selects the reference oracle.
    engine: DeviceEngine,
    /// Collector-side ingest pipeline: [`IngestPath::Columnar`] unless a
    /// differential test selects the reference oracle.
    ingest_path: IngestPath,
}

impl FleetDriver {
    /// Validates the configuration and builds the collector-side noise
    /// model for it.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] for empty populations/epochs/shards/chunks, a
    /// URNG width outside `3..=53`, an ADC range `2^adc_bits` the signed
    /// datapath word cannot hold, or an out-of-range threshold;
    /// [`FleetError::Privacy`] if the noise model cannot be built.
    pub fn new(cfg: FleetConfig) -> Result<Self, FleetError> {
        if cfg.devices == 0 {
            return Err(FleetError::Config("population must be non-empty"));
        }
        if cfg.epochs == 0 {
            return Err(FleetError::Config("need at least one epoch"));
        }
        if cfg.shards == 0 {
            return Err(FleetError::Config("need at least one shard"));
        }
        if cfg.chunk == 0 {
            return Err(FleetError::Config("chunk size must be positive"));
        }
        if cfg
            .devices
            .checked_add(cfg.malformed_senders)
            .is_none_or(|n| n > u32::MAX as usize)
        {
            return Err(FleetError::Config(
                "device ids (population + malformed senders) must fit in u32",
            ));
        }
        if cfg.retry_budget > 6 {
            return Err(FleetError::Config("retry budget must be at most 6"));
        }
        if let Some(chaos) = &cfg.chaos {
            chaos
                .validate()
                .map_err(|_| FleetError::Config("chaos fault class out of range"))?;
        }
        if !(3..=53).contains(&cfg.bu) {
            return Err(FleetError::Config("URNG width Bu must be in 3..=53"));
        }
        // The codes [0, 2^adc_bits] must fit a signed word of `word_bits`
        // bits, and no word is wider than 63.
        if u32::from(cfg.adc_bits) + 1 >= u32::from(cfg.word_bits.min(63)) {
            return Err(FleetError::Config(
                "ADC range 2^adc_bits must fit the signed datapath word",
            ));
        }
        let max_code = 1i64 << cfg.adc_bits;
        if !(0..=max_code).contains(&cfg.threshold_code) {
            return Err(FleetError::Config("RR threshold outside the ADC range"));
        }
        let model = NoiseModel::for_device(
            cfg.bu,
            cfg.word_bits,
            cfg.eps_shift,
            0,
            max_code,
            &cfg.multiples,
        )?;
        let device = DeviceArrayConfig {
            word_bits: cfg.word_bits,
            frac_bits: 0,
            bu: cfg.bu,
            cordic_iterations: 24,
            segment_multiples: cfg.multiples.clone(),
            // Power-on self-test: a short APT window keeps the startup draw
            // cheap while the lag-correlation test still catches the wired
            // fault deterministically.
            health: HealthConfig::new(40, 64, 4)
                .map_err(|e| FleetError::Device(DpBoxError::Rng(e)))?,
            budget_raw: cfg.budget_raw,
            eps_shift: cfg.eps_shift,
            range_lower: 0,
            range_upper: max_code,
        };
        Ok(FleetDriver {
            cfg,
            model,
            device,
            engine: DeviceEngine::default(),
            ingest_path: IngestPath::default(),
        })
    }

    /// Overrides the device engine (differential-test hook: the reference
    /// engine must reproduce the batch engine bit for bit).
    pub fn with_engine(mut self, engine: DeviceEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the collector ingest path (differential-test hook: the
    /// reference path must reproduce the streaming drain bit for bit).
    pub fn with_ingest_path(mut self, path: IngestPath) -> Self {
        self.ingest_path = path;
        self
    }

    /// The service configuration that runs the whole fleet as one batch:
    /// one window over every epoch, sealed only after the last delivery
    /// round (the watermark lag covers [`FleetConfig::delivery_slack`], so
    /// nothing is `late`), behind queues no run can fill (`offer` never
    /// refuses, so every round's bytes reach the collector in one drain at
    /// the seal).
    pub fn one_window(&self) -> ServiceConfig {
        ServiceConfig::new(self.cfg.epochs, usize::MAX)
            .with_watermark_lag(self.cfg.delivery_slack())
    }

    /// The collector-side noise model (estimators, window, RR mechanism).
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// Runs the full simulation — boot, stream, collect, estimate, audit —
    /// through the streaming service, one delivery round at a time: each
    /// round steps every chunk's devices one epoch, offers the round's
    /// arrivals to a [`FleetService`] (one ingest lane per simulation chunk
    /// plus one for the planted malformed senders), and seals the windows
    /// whose watermark passed, each with its share of the spend log. Live
    /// snapshots are served from sealed windows, and every sealed window
    /// folds into an order-canonicalized rollup.
    /// [`FleetDriver::one_window`] makes the run a single batch.
    ///
    /// Backpressure follows the service contract: a [`crate::Busy`]
    /// refusal triggers a drain and a same-round retry of the *same*
    /// bytes, so no admitted report is ever dropped and the outcome stays
    /// a pure function of the configuration — bit-identical at any thread
    /// or shard count, with either device engine and either ingest path.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] for a service that cannot run: a window of
    /// zero epochs, a queue of zero frames, or a quorum that is not a
    /// number in `[0, 1]` (checked before any device boots, since the
    /// fields are public and skip [`ServiceConfig::new`]'s asserts).
    /// Propagates device-boot and mechanism-construction failures. Devices
    /// excluded by the self-test or dropped mid-stream are *not* errors —
    /// they are the fail-safe path working as designed, and are reported in
    /// the outcome.
    pub fn run_service(&self, svc: &ServiceConfig) -> Result<ServiceOutcome, FleetError> {
        self.serve(svc).map(|(outcome, _)| outcome)
    }

    /// Runs as [`FleetDriver::run_service`] does, and also hands back the
    /// service the run went through: its sealed windows, rollup and
    /// collector, as the run left them.
    ///
    /// # Errors
    ///
    /// As [`FleetDriver::run_service`].
    pub fn serve(&self, svc: &ServiceConfig) -> Result<(ServiceOutcome, FleetService), FleetError> {
        if svc.window_epochs == 0 {
            return Err(FleetError::Config(
                "service window must cover at least one epoch",
            ));
        }
        if svc.queue_frames == 0 {
            return Err(FleetError::Config(
                "service queue must hold at least one frame",
            ));
        }
        if !(0.0..=1.0).contains(&svc.quorum) {
            return Err(FleetError::Config(
                "service quorum must be a number in [0, 1]",
            ));
        }
        let cfg = &self.cfg;
        let epochs = cfg.epochs as usize;
        let truth = self.prepare_truth()?;
        let rr = self.model.rr()?;
        let chunks = self.chunk_sims();
        let malformed_lane = chunks.len();
        let mut service = FleetService::new(
            self.fresh_collector(),
            svc.clone(),
            malformed_lane + 1,
            cfg.epochs,
        );
        let mut log = SpendLog::new(chunks.len());
        let mut excluded = Vec::new();
        let mut dropped = 0;
        let mut retry_attempts = 0;
        let mut reports_unacked = 0;
        let mut double_spends = 0;
        let mut max_inflight_bytes = 0;
        for round in 0..self.rounds() {
            let _span = EPOCH_SPAN.enter();
            let mut inflight = 0;
            let stepped = self.step_round(&chunks, round, &truth.codes_k, rr)?;
            for (lane, chunk) in stepped.into_iter().enumerate() {
                inflight += chunk.inflight;
                excluded.extend_from_slice(&chunk.excluded);
                dropped += chunk.dropped;
                retry_attempts += chunk.retry_attempts;
                reports_unacked += chunk.reports_unacked;
                if round < epochs {
                    log.chunks[lane].push(chunk.spends);
                }
                offer(&mut service, lane, &chunk.bytes);
            }
            max_inflight_bytes = max_inflight_bytes.max(inflight);
            if round < epochs {
                offer(
                    &mut service,
                    malformed_lane,
                    &self.malformed_round(round as u32),
                );
            }
            let completed = round as u32 + 1;
            while service.seal_due(completed) {
                double_spends += seal_window(&mut service, &log, cfg.devices - excluded.len());
            }
        }
        // Flush-seal windows whose watermark sits past the last round
        // (delivery is over, so the grace can't admit anything more).
        while service.active_window().is_some() {
            double_spends += seal_window(&mut service, &log, cfg.devices - excluded.len());
        }
        // Deliveries staged after the last seal (backoff/delay slack under
        // a strict watermark) still get classified — as the typed `late`
        // outcome, never a silent drop of admitted bytes.
        service.drain();
        let ledger_digest = log.digest();
        // The log's last use: free it before the rollup's finalize.
        drop(log);
        DEVICES.add(cfg.devices as u64);
        EXCLUDED.record_always(excluded.len() as u64);

        let snapshot = service.snapshot(&self.model)?;
        let rollup = service.rollup().finalize(svc.quorum);
        let truths = self.included_truths(&truth.codes_k, &excluded);
        let (numeric, rr_role) = crate::window::query_roles(service.collector().queries());
        let rollup_values = numeric.map(|q| &rollup.totals[q]);
        let rollup_bits = rr_role.map(|q| &rollup.totals[q]);
        let outcome = ServiceOutcome {
            devices_simulated: cfg.devices,
            devices_excluded: excluded.len(),
            devices_dropped: dropped,
            windows_sealed: service.sealed_windows().len(),
            window_digests: service
                .sealed_windows()
                .iter()
                .map(|w| w.digest())
                .collect(),
            window_seals: service.sealed_windows().iter().map(|w| w.seal).collect(),
            snapshot,
            rollup_mean: rollup_values.and_then(|t| self.model.mean(t)),
            rollup_variance: rollup_values.and_then(|t| self.model.variance(t)),
            rollup_median: rollup_values.and_then(|t| self.model.median(t)),
            rollup_rr_frequency: match rollup_bits {
                Some(t) => self.model.rr_frequency(t)?,
                None => None,
            },
            rollup_ledger_total: rollup.ledger.total(),
            rollup_ledger_entries: rollup.ledger.len(),
            rollup_seal: rollup.seal,
            rollup_digest: rollup.digest,
            audit_ok: rollup.audit_ok,
            stats: service.stats(),
            backpressure_rejections: service.backpressure_rejections(),
            max_drain_frames: service.max_drain_frames(),
            ledger_digest,
            double_spends,
            retry_attempts,
            reports_unacked,
            truth_mean: truths.mean,
            truth_variance: truths.variance,
            truth_median: truths.median,
            truth_fraction: truths.fraction,
            quarantined: service.collector().quarantined_devices(),
            n_th_k: self.model.n_th_k(),
            seal_ns: service.seal_ns().to_vec(),
            max_inflight_bytes,
        };
        Ok((outcome, service))
    }

    /// Draws the population's ground-truth sensor codes from the dataset
    /// spec.
    fn prepare_truth(&self) -> Result<GroundTruth, FleetError> {
        let cfg = &self.cfg;
        Ok(GroundTruth::prepare(
            &DatasetSpec {
                entries: cfg.devices,
                ..cfg.spec.clone()
            },
            2f64.powi(-i32::from(cfg.eps_shift)),
            cfg.seed,
        )?)
    }

    /// A fresh collector registered for the fleet's two queries.
    fn fresh_collector(&self) -> Collector {
        let cfg = &self.cfg;
        Collector::new(
            cfg.shards,
            &[
                QueryConfig {
                    id: VALUE_QUERY,
                    kind: QueryKind::Numeric {
                        sketch_min_k: self.model.window_lo(),
                        sketch_max_k: self.model.window_hi(),
                    },
                },
                QueryConfig {
                    id: RR_QUERY,
                    kind: QueryKind::RrBit,
                },
            ],
        )
        .with_ingest_path(self.ingest_path)
        // Every id the fleet mints (population + planted malformed
        // senders) takes the flat accumulate route; only forged ids
        // recovered from corrupted bytes fall back to the hash maps.
        .with_device_capacity((cfg.devices + cfg.malformed_senders) as u32)
    }

    /// The planted malformed senders' frames for `epoch`: checksum-valid
    /// frames for an unregistered query, enough per epoch to trip the
    /// default strike limit in the very first batch. Their ids sit above
    /// the population, so they touch no truth and no ledger.
    fn malformed_round(&self, epoch: u32) -> Vec<u8> {
        let cfg = &self.cfg;
        let mut bytes = Vec::new();
        for m in 0..cfg.malformed_senders {
            let id = (cfg.devices + m) as u32;
            for burst in 0..4 {
                Report {
                    device: id,
                    query: 0x7FFF,
                    epoch,
                    payload: Payload::Value(burst),
                }
                .encode_into(&mut bytes);
            }
        }
        bytes
    }

    /// Included-population ground truth: exclusion happens before any
    /// value-dependent computation, so this is an unbiased subsample.
    fn included_truths(&self, codes_k: &[i64], excluded: &[u32]) -> Truths {
        let mut is_excluded = vec![false; codes_k.len()];
        for &id in excluded {
            if let Some(flag) = is_excluded.get_mut(id as usize) {
                *flag = true;
            }
        }
        let mut included: Vec<i64> = codes_k
            .iter()
            .zip(&is_excluded)
            .filter(|&(_, &out)| !out)
            .map(|(&k, _)| k)
            .collect();
        let n = included.len().max(1) as f64;
        let mean = included.iter().map(|&k| k as f64).sum::<f64>() / n;
        let variance = included
            .iter()
            .map(|&k| (k as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        // The lower median, selected in place: the sums above are already
        // taken, and the count below does not depend on order.
        let median = if included.is_empty() {
            f64::NAN
        } else {
            let mid = (included.len() - 1) / 2;
            *included.select_nth_unstable(mid).1 as f64
        };
        let fraction = included
            .iter()
            .filter(|&&k| k >= self.cfg.threshold_code)
            .count() as f64
            / n;
        Truths {
            mean,
            variance,
            median,
            fraction,
        }
    }

    /// Delivery rounds per run: the configured epochs plus the slack the
    /// last epoch's backoff and delivery delays can reach into.
    fn rounds(&self) -> usize {
        (self.cfg.epochs + self.cfg.delivery_slack()) as usize
    }

    /// The run's simulation chunks, `chunk` devices each, none booted yet.
    fn chunk_sims(&self) -> Vec<Mutex<ChunkSim>> {
        let cfg = &self.cfg;
        (0..cfg.devices as u32)
            .step_by(cfg.chunk)
            .map(|start| {
                let end = (start as usize + cfg.chunk).min(cfg.devices) as u32;
                Mutex::new(ChunkSim {
                    start,
                    end,
                    devices: None,
                    ring: DeliveryRing::new(cfg.delivery_slack(), start, end),
                })
            })
            .collect()
    }

    /// Steps every chunk through `round` — `par_map` returns the chunks'
    /// rounds in chunk order regardless of schedule — or returns the first
    /// chunk's error.
    fn step_round(
        &self,
        chunks: &[Mutex<ChunkSim>],
        round: usize,
        codes_k: &[i64],
        rr: RandomizedResponse,
    ) -> Result<Vec<ChunkRound>, FleetError> {
        let _span = SIM_SPAN.enter();
        ulp_par::par_map(chunks, |chunk| {
            let mut chunk = chunk.lock().expect("a chunk is stepped by one worker");
            self.step_chunk(&mut chunk, round, codes_k, rr)
        })
        .into_iter()
        .collect()
    }

    /// Steps one chunk through `round`: boots it in round 0, steps its
    /// devices one epoch while it has epochs left (dropping their state
    /// after the last), and takes the round's arrivals out of its ring.
    fn step_chunk(
        &self,
        chunk: &mut ChunkSim,
        round: usize,
        codes_k: &[i64],
        rr: RandomizedResponse,
    ) -> Result<ChunkRound, FleetError> {
        let epochs = self.cfg.epochs as usize;
        let mut out = ChunkRound::default();
        if round == 0 {
            chunk.devices = Some(self.boot_chunk(chunk.start, chunk.end, codes_k, &mut out)?);
        }
        if round < epochs {
            let devices = chunk.devices.as_mut().expect("chunks boot in round 0");
            self.step_devices(devices, round, codes_k, rr, &mut chunk.ring, &mut out)?;
            if round + 1 == epochs {
                chunk.devices = None;
            }
        }
        out.inflight = chunk.ring.held;
        out.bytes = chunk.ring.take(round, chunk.devices.is_some());
        Ok(out)
    }

    /// Boots devices `[start, end)` through the hardware command sequence,
    /// recording self-test exclusions in `out`. The batch engine boots the
    /// healthy-URNG devices as one [`DeviceArray`] (lane-parallel power-on
    /// self-test, memoized CORDIC, no per-device FSM allocation) and each
    /// device wired through the correlated-bits fault as a scalar [`DpBox`]
    /// sidecar — those exist to exercise the full fault-latch machinery.
    /// The reference engine boots every device as a [`DpBox`].
    fn boot_chunk(
        &self,
        start: u32,
        end: u32,
        codes_k: &[i64],
        out: &mut ChunkRound,
    ) -> Result<ChunkDevices, FleetError> {
        let cfg = &self.cfg;
        let n = (end - start) as usize;
        // Healthy devices become array lanes: their RNG streams are
        // independent, so lockstep advance is safe.
        let mut lane_of: Vec<Option<u32>> = vec![None; n];
        let mut seeds = Vec::with_capacity(n);
        let mut xs = Vec::with_capacity(n);
        let array = match self.engine {
            DeviceEngine::Batch => {
                for id in start..end {
                    if !Self::is_faulty(cfg, id) {
                        lane_of[(id - start) as usize] = Some(seeds.len() as u32);
                        seeds.push(stream_seed(cfg.seed, &[u64::from(id), 0]));
                        xs.push(codes_k[id as usize]);
                    }
                }
                Some(DeviceArray::new(&self.device, &seeds)?)
            }
            DeviceEngine::Reference => None,
        };
        let mut devices = Vec::with_capacity(n);
        for id in start..end {
            let noiser = match lane_of[(id - start) as usize] {
                Some(lane) if array.as_ref().is_some_and(|a| a.is_excluded(lane as usize)) => None,
                Some(lane) => Some(Noiser::Lane(lane)),
                None => self
                    .boot_scalar(id)?
                    .map(|dev| Noiser::Scalar(Box::new(dev))),
            };
            let Some(noiser) = noiser else {
                out.excluded.push(id);
                continue;
            };
            devices.push(Device {
                id,
                noiser,
                rr_rng: Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 2])),
                // The transport state is per-device and seeded from the
                // chaos seed alone, so the fault pattern is independent of
                // chunk partition and thread schedule.
                chaos: cfg
                    .chaos
                    .as_ref()
                    .map(|c| Box::new(DeviceChaos::new(c, id))),
            });
        }
        Ok(ChunkDevices {
            array,
            xs,
            outcomes: Vec::new(),
            devices,
        })
    }

    /// Boots device `id` as a scalar [`DpBox`] FSM; `None` if its power-on
    /// self-test excluded it.
    fn boot_scalar(&self, id: u32) -> Result<Option<DpBox<FleetUrng>>, FleetError> {
        let cfg = &self.cfg;
        let urng = if Self::is_faulty(cfg, id) {
            FleetUrng::Faulty(CorrelatedBits::new(
                Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 1])),
                1,
                230,
            ))
        } else {
            FleetUrng::Healthy(Taus88::from_seed(stream_seed(
                cfg.seed,
                &[u64::from(id), 0],
            )))
        };
        Ok(DpBox::boot(&self.device, urng)?)
    }

    /// Whether `id`'s URNG is wired through the correlated-bits fault — a
    /// pure function of `(seed, id)`, identical in both engines.
    fn is_faulty(cfg: &FleetConfig, id: u32) -> bool {
        stream_seed(cfg.seed, &[u64::from(id), 7]) % 1000 < u64::from(cfg.faulty_per_mille)
    }

    /// Steps a chunk's live devices through `epoch`, in id order: each
    /// privatizes **at most once** per `(query, epoch)` — the encoded
    /// frames are the cached bytes every retransmission replays verbatim,
    /// and a fresh charge is logged under `(device, epoch)` for the
    /// double-spend audit — and pushes its frames through the uplink into
    /// the chunk's ring.
    fn step_devices(
        &self,
        chunk: &mut ChunkDevices,
        epoch: usize,
        codes_k: &[i64],
        rr: RandomizedResponse,
        ring: &mut DeliveryRing,
        out: &mut ChunkRound,
    ) -> Result<(), FleetError> {
        let ChunkDevices {
            array,
            xs,
            outcomes,
            devices,
        } = chunk;
        let block_at = epoch % STEP_BLOCK;
        if let (Some(array), 0) = (array, block_at) {
            let block = STEP_BLOCK.min(self.cfg.epochs as usize - epoch);
            outcomes.resize_with(block, Vec::new);
            for column in outcomes.iter_mut() {
                array.step(xs, column);
            }
        }
        out.spends.devices.reserve(devices.len());
        out.spends.charges.reserve(devices.len());
        let mut i = 0;
        while i < devices.len() {
            let dev = &mut devices[i];
            let x_code = codes_k[dev.id as usize];
            let y = match &mut dev.noiser {
                Noiser::Lane(lane) => match outcomes[block_at][*lane as usize] {
                    LaneOutcome::Fresh { y, charge } => {
                        out.spends.push(dev.id, charge);
                        Some(y)
                    }
                    LaneOutcome::Cached { y } => Some(y),
                    LaneOutcome::Dropped => None,
                },
                Noiser::Scalar(dpbox) => {
                    let before = dpbox.ledger().len();
                    match dpbox.noise_value(x_code) {
                        Ok((y, _cycles)) => {
                            if let Some(entry) = dpbox.ledger().entries().get(before) {
                                out.spends.push(dev.id, entry.charge);
                            }
                            Some(y)
                        }
                        // Fail-safe paths (runtime health trip, budget
                        // halt): the device stops reporting.
                        Err(DpBoxError::UrngHealthFault(_) | DpBoxError::BudgetExhausted) => None,
                        Err(e) => return Err(e.into()),
                    }
                }
            };
            let Some(y) = y else {
                devices.remove(i);
                out.dropped += 1;
                continue;
            };
            let value_frame = Report {
                device: dev.id,
                query: VALUE_QUERY,
                epoch: epoch as u32,
                payload: Payload::Value(y as i32),
            }
            .encode();
            let above = x_code >= self.cfg.threshold_code;
            let rr_frame = Report {
                device: dev.id,
                query: RR_QUERY,
                epoch: epoch as u32,
                payload: Payload::RrBit(rr.privatize(above, &mut dev.rr_rng)),
            }
            .encode();
            for frame in [value_frame, rr_frame] {
                let (extra, acked) =
                    self.transmit(dev.chaos.as_deref_mut(), dev.id, &frame, epoch, ring);
                out.retry_attempts += extra;
                out.reports_unacked += u64::from(!acked);
            }
            i += 1;
        }
        Ok(())
    }

    /// Sends one cached report from `device` through the uplink into
    /// `ring`: the first attempt plus up to `retry_budget` retransmissions
    /// of the *same bytes* under exponential backoff (attempt `a` departs
    /// at `epoch + 2^a − 1`). Each delivery's bytes are written once,
    /// straight into the ring, and any bit flips are applied there.
    /// Returns `(extra_attempts, acked)`.
    #[inline]
    fn transmit(
        &self,
        chaos: Option<&mut DeviceChaos>,
        device: u32,
        frame: &[u8; FRAME_LEN],
        epoch: usize,
        ring: &mut DeliveryRing,
    ) -> (u64, bool) {
        let Some(chaos) = chaos else {
            // Perfect wire: one attempt, delivered in its own epoch.
            ring.deliver(epoch, device, frame, false);
            return (0, true);
        };
        for attempt in 0..=self.cfg.retry_budget {
            let fate = chaos.fate();
            if fate.delivered() {
                let round = epoch + (1usize << attempt) - 1 + fate.delay_rounds();
                let bytes = ring.deliver(round, device, fate.arriving(frame), fate.displaced());
                fate.corrupt(bytes);
            }
            if fate.acked() {
                return (u64::from(attempt), true);
            }
        }
        (u64::from(self.cfg.retry_budget), false)
    }
}

/// Offers `bytes` on `lane`. Typed backpressure: a [`crate::Busy`] refusal
/// drains the service, then retries the same bytes — an empty lane always
/// admits.
fn offer(service: &mut FleetService, lane: usize, bytes: &[u8]) {
    if service.offer(lane, bytes).is_err() {
        service.drain();
        service.offer(lane, bytes).expect("drained lane admits");
    }
}

/// Seals the service's active window with its share of the spend log — the
/// fresh spends whose epoch falls inside it — graded against two reports
/// per epoch from each of the `included` devices. Returns the duplicate
/// charges its ledger refused.
fn seal_window(service: &mut FleetService, log: &SpendLog, included: usize) -> u64 {
    let window = service.active_window().expect("a window is open");
    let (lo, hi) = (window.epoch_lo(), window.epoch_hi());
    let fold = log.fold_window(lo, hi);
    service
        .seal_active(
            fold.ledger,
            fold.charges,
            2 * u64::from(hi - lo) * included as u64,
        )
        .expect("windows seal in order");
    fold.double_spends
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::window_spans;
    use ldp_core::CompositionLedger;

    fn small_cfg(devices: usize) -> FleetConfig {
        FleetConfig {
            chunk: 64,
            ..FleetConfig::paper_default(devices, 2, 99)
        }
    }

    /// The whole run as one batch: one window over every epoch.
    fn one_window(cfg: FleetConfig) -> ServiceOutcome {
        driver_run(cfg, FleetDriver::one_window)
    }

    /// Runs `cfg` under the service configuration `svc` picks for it.
    fn driver_run(cfg: FleetConfig, svc: impl Fn(&FleetDriver) -> ServiceConfig) -> ServiceOutcome {
        let driver = FleetDriver::new(cfg).unwrap();
        driver.run_service(&svc(&driver)).unwrap()
    }

    /// One delivery into a ring: its round, device, length and
    /// displacement. Its bytes are a pattern of its place in the sequence,
    /// so no two deliveries look alike.
    type Landing = (usize, u32, usize, bool);

    fn landing_bytes(i: usize) -> [u8; FRAME_LEN] {
        core::array::from_fn(|b| (i * 31 + b) as u8)
    }

    /// `round`'s arrivals as [`DeliveryRing::take`] must hand them out: the
    /// in-order ones stably sorted by device, then the displaced ones
    /// stably sorted by device and reversed.
    fn reference_take(landings: &[Landing], round: usize) -> Vec<u8> {
        let arrived = |displaced: bool| -> Vec<(u32, Vec<u8>)> {
            let mut frames: Vec<(u32, Vec<u8>)> = landings
                .iter()
                .enumerate()
                .filter(|(_, l)| l.0 == round && l.3 == displaced)
                .map(|(i, l)| (l.1, landing_bytes(i)[..l.2].to_vec()))
                .collect();
            frames.sort_by_key(|f| f.0);
            frames
        };
        let mut out: Vec<u8> = arrived(false).into_iter().flat_map(|f| f.1).collect();
        out.extend(arrived(true).into_iter().rev().flat_map(|f| f.1));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The counting-sort ring hands every round's arrivals out as a
        /// stable sort by device would: retries of one device within a
        /// round, delays into later rounds, displaced and truncated
        /// frames, and rounds that arrive in device order (the zero-copy
        /// path), with the slot refilled or released.
        #[test]
        fn ring_take_equals_a_stable_sort_by_device(
            start in 0u32..5000,
            devices in 1u32..40,
            raw in proptest::collection::vec(
                (0usize..6, 0u32..1000, 0usize..8, 0u8..10),
                0..160,
            ),
            sorted_rounds in 0usize..3,
        ) {
            let slack = 3;
            let mut landings: Vec<Landing> = raw
                .into_iter()
                .map(|(round, device, cut, kind)| {
                    let len = if cut == 0 { 1 + device as usize % (FRAME_LEN - 1) } else { FRAME_LEN };
                    (round, start + device % devices, len, kind == 0)
                })
                .collect();
            // Rounds whose in-order arrivals already are in device order.
            for round in 0..sorted_rounds {
                let mut at: Vec<usize> = (0..landings.len())
                    .filter(|&i| landings[i].0 == round && !landings[i].3)
                    .collect();
                let mut ids: Vec<u32> = at.iter().map(|&i| landings[i].1).collect();
                ids.sort_unstable();
                for (i, id) in at.drain(..).zip(ids) {
                    landings[i].1 = id;
                }
            }
            let mut ring = DeliveryRing::new(slack, start, start + devices);
            let rounds = 6;
            let mut next = 0;
            for round in 0..rounds {
                // Every landing sent up to this round is in the ring; a
                // round's slot is free again once taken.
                while next < landings.len() && landings[next].0 <= round + slack as usize {
                    let (r, device, len, displaced) = landings[next];
                    if r >= round {
                        let frame = landing_bytes(next);
                        let got = ring.deliver(r, device, &frame[..len], displaced);
                        proptest::prop_assert_eq!(&got[..], &frame[..len]);
                    }
                    next += 1;
                }
                let held: usize = landings[..next].iter().filter(|l| l.0 >= round).map(|l| l.2).sum();
                proptest::prop_assert_eq!(ring.held, held);
                let bytes = ring.take(round, round + 1 < rounds);
                let mut expected = reference_take(&landings[..next], round);
                if landings[..next].iter().any(|l| l.0 < round) {
                    // Landings for rounds already taken never reach the ring.
                    let kept: Vec<Landing> = landings[..next]
                        .iter()
                        .map(|&l| if l.0 < round { (usize::MAX, l.1, l.2, l.3) } else { l })
                        .collect();
                    expected = reference_take(&kept, round);
                }
                proptest::prop_assert_eq!(bytes, expected, "round {}", round);
            }
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_fleets() {
        for (mutate, msg) in [
            (
                Box::new(|c: &mut FleetConfig| c.devices = 0) as Box<dyn Fn(&mut FleetConfig)>,
                "population",
            ),
            (Box::new(|c: &mut FleetConfig| c.epochs = 0), "epoch"),
            (Box::new(|c: &mut FleetConfig| c.shards = 0), "shard"),
            (Box::new(|c: &mut FleetConfig| c.chunk = 0), "chunk"),
            (
                Box::new(|c: &mut FleetConfig| c.threshold_code = 1 << 12),
                "threshold",
            ),
            // `1 << 64` overflows: a typed refusal, never a panic or a
            // wrapped ADC range.
            (Box::new(|c: &mut FleetConfig| c.adc_bits = 64), "adc_bits"),
            (Box::new(|c: &mut FleetConfig| c.adc_bits = 19), "adc_bits"),
            // No sign bit: `bu − 1` must not underflow.
            (Box::new(|c: &mut FleetConfig| c.bu = 0), "Bu"),
            (
                Box::new(|c: &mut FleetConfig| c.multiples = vec![f64::NAN, 2.0]),
                "finite and positive",
            ),
        ] {
            let mut cfg = small_cfg(10);
            mutate(&mut cfg);
            // `expect_err` needs `FleetDriver: Debug`, which it doesn't carry.
            let Err(err) = FleetDriver::new(cfg).map(|_| ()) else {
                panic!("expected a config error mentioning {msg:?}");
            };
            assert!(err.to_string().contains(msg), "{err} missing {msg:?}");
        }
    }

    #[test]
    fn a_tiny_epsilon_is_a_typed_error_not_an_abort() {
        // ε = 2^-24 over a 40-bit word: a noise support of ~4.7·10^10
        // magnitudes, whose PMF would ask for hundreds of GB. The noise
        // model refuses it from the width alone, before allocating.
        let cfg = FleetConfig {
            word_bits: 40,
            eps_shift: 24,
            ..FleetConfig::paper_default(64, 1, 7)
        };
        let Err(err) = FleetDriver::new(cfg).map(|_| ()) else {
            panic!("a support past the PMF cap must be refused");
        };
        assert!(
            matches!(
                err,
                FleetError::Privacy(LdpError::Rng(ulp_rng::RngError::InvalidConfig(_)))
            ),
            "{err}"
        );
    }

    #[test]
    fn small_fleet_runs_audits_and_reports() {
        let out = one_window(small_cfg(200));
        assert_eq!(out.devices_simulated, 200);
        assert_eq!(out.devices_dropped, 0);
        assert_eq!(out.windows_sealed, 1);
        assert!(out.audit_ok, "fleet ledger must audit clean");
        assert_eq!(out.stats.rejected, 0);
        // Every included device reports one value + one bit per epoch.
        let included = 200 - out.devices_excluded as u64;
        assert_eq!(out.stats.accepted, included * 2 * 2);
        assert_eq!(out.rollup_ledger_entries as u64, included * 2);
        let mean = out.rollup_mean.unwrap();
        assert!(mean.value.is_finite() && mean.stderr > 0.0);
        assert!(out.rollup_rr_frequency.unwrap().value >= 0.0);
        assert!(out.rollup_median.is_some() && out.rollup_variance.is_some());
    }

    #[test]
    fn faulty_devices_are_excluded_before_reporting() {
        // Every device faulty: the self-test must exclude the whole fleet.
        let out = one_window(FleetConfig {
            faulty_per_mille: 1000,
            ..small_cfg(50)
        });
        assert_eq!(out.devices_excluded, 50);
        assert_eq!(out.stats.accepted, 0);
        assert_eq!(out.rollup_ledger_entries, 0);
        assert!(out.rollup_mean.is_none());
    }

    #[test]
    fn clean_runs_seal_full_with_no_retries() {
        let out = one_window(small_cfg(200));
        assert!(out.rollup_seal.is_full());
        assert_eq!(out.rollup_seal.coverage, 1.0);
        assert_eq!(out.retry_attempts, 0);
        assert_eq!(out.reports_unacked, 0);
        assert_eq!(out.double_spends, 0);
        assert!(out.quarantined.is_empty());
        // One window's queues never refuse, and its seal waits out the
        // whole run.
        assert_eq!(out.backpressure_rejections, 0);
        assert_eq!(out.stats.late, 0);
    }

    fn chaos(seed: u64) -> ChaosConfig {
        use crate::chaos::FaultClass;
        ChaosConfig {
            drop: FaultClass::bursty(0.1, 4.0),
            duplicate: FaultClass::flat(0.1),
            corrupt: FaultClass::flat(0.05),
            reorder: FaultClass::flat(0.05),
            delay: FaultClass::flat(0.05),
            truncate: FaultClass::flat(0.02),
            ..ChaosConfig::quiet(seed)
        }
    }

    #[test]
    fn chaos_preserves_the_ledger_digest_bitwise() {
        let quiet = one_window(small_cfg(300));
        let chaotic = one_window(FleetConfig {
            chaos: Some(chaos(0xC0FFEE)),
            ..small_cfg(300)
        });
        // Retries replay cached bytes: ε-spend is bitwise identical with
        // and without transport faults.
        assert_eq!(quiet.ledger_digest, chaotic.ledger_digest);
        assert_eq!(
            quiet.rollup_ledger_total.to_bits(),
            chaotic.rollup_ledger_total.to_bits()
        );
        assert_eq!(quiet.rollup_ledger_entries, chaotic.rollup_ledger_entries);
        assert_eq!(chaotic.double_spends, 0);
        assert!(chaotic.audit_ok);
        // The faults actually fired, the dedup window folded the
        // retransmissions away, and the one window's watermark lag
        // covered every delayed delivery.
        assert!(chaotic.retry_attempts > 0);
        assert!(chaotic.stats.duplicates > 0);
        assert!(chaotic.stats.corrupt_frames > 0);
        assert_eq!(chaotic.stats.late, 0);
        // Truths are transport-independent.
        assert_eq!(quiet.truth_mean.to_bits(), chaotic.truth_mean.to_bits());
        assert_eq!(quiet.devices_excluded, chaotic.devices_excluded);
    }

    impl FleetDriver {
        /// Every chunk's spend log, through the same round loop
        /// `run_service` drives (its frames are discarded).
        fn spend_log(&self) -> SpendLog {
            let truth = self.prepare_truth().unwrap();
            let (chunks, rr) = (self.chunk_sims(), self.model.rr().unwrap());
            let mut log = SpendLog::new(chunks.len());
            for round in 0..self.cfg.epochs as usize {
                let stepped = self.step_round(&chunks, round, &truth.codes_k, rr);
                for (chunk, out) in stepped.unwrap().into_iter().enumerate() {
                    log.chunks[chunk].push(out.spends);
                }
            }
            log
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The ε-spend digest is its definition: FNV-1a over every spend's
        /// `(device, epoch, charge bits)`, the records in (chunk, device,
        /// epoch) order by a plain stable sort, not by `by_device`'s merge.
        /// Each generated list is in device order, as the driver appends
        /// it: a step of 0 repeats a device (an adjacent duplicate), and
        /// skipped ids are devices that dropped out.
        #[test]
        fn spend_digest_is_fnv1a_over_the_sorted_spend_records(
            chunks in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0u32..3, 0u8..4), 0..10),
                    1..5,
                ),
                1..4,
            ),
        ) {
            let mut log = SpendLog::new(chunks.len());
            let mut records = Vec::new();
            for (c, (epochs, lists)) in chunks.iter().zip(&mut log.chunks).enumerate() {
                for (epoch, steps) in (0u32..).zip(epochs) {
                    let mut spends = EpochSpends::default();
                    let mut device = 0u32;
                    for &(step, class) in steps {
                        device += step;
                        let charge = 0.125 + f64::from(class) * 0.25;
                        spends.push(device, charge);
                        records.push((c, device, epoch, charge));
                    }
                    lists.push(spends);
                }
            }
            records.sort_by_key(|&(c, device, epoch, _)| (c, device, epoch));
            let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
            for &(_, device, epoch, charge) in &records {
                let bytes = [
                    &device.to_le_bytes()[..],
                    &epoch.to_le_bytes(),
                    &charge.to_bits().to_le_bytes(),
                ];
                for &b in bytes.concat().iter() {
                    fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            proptest::prop_assert_eq!(log.digest(), fnv);
        }
    }

    #[test]
    fn planted_double_spends_are_counted_refused_and_digested() {
        let driver = FleetDriver::new(small_cfg(200)).unwrap();
        let log = driver.spend_log();
        assert!(log.chunks.len() >= 2 && !log.chunks[0][0].devices.is_empty());
        let (epoch, device, first) = (0, log.chunks[0][0].devices[0], log.chunks[0][0].charges[0]);
        let epochs = driver.cfg.epochs;
        // One window over every epoch, then one-epoch windows.
        for width in [epochs, 1] {
            let fold = |log: &SpendLog| -> Vec<WindowSpends> {
                window_spans(epochs, width)
                    .into_iter()
                    .map(|(lo, hi)| log.fold_window(lo, hi))
                    .collect()
            };
            let double_spends =
                |windows: &[WindowSpends]| windows.iter().map(|w| w.double_spends).sum::<u64>();
            let clean = fold(&log);
            assert_eq!(double_spends(&clean), 0);
            // Replays `(device, epoch)` at `second`: right behind its first
            // charge, or at the end of a later chunk's log.
            let plant = |replays: &[(bool, f64)]| {
                let mut planted = log.clone();
                for &(adjacent, second) in replays {
                    if adjacent {
                        let spends = &mut planted.chunks[0][epoch];
                        spends.devices.insert(1, device);
                        spends.charges.insert(1, second);
                    } else {
                        planted.chunks[1][epoch].push(device, second);
                    }
                }
                planted
            };
            assert_eq!(
                double_spends(&fold(&plant(&[(true, first + 0.5), (false, first + 0.5)]))),
                2
            );
            for adjacent in [true, false] {
                let planted = plant(&[(adjacent, first + 0.5)]);
                let windows = fold(&planted);
                assert_eq!(double_spends(&windows), 1, "adjacent: {adjacent}");
                for (w, c) in windows.iter().zip(&clean) {
                    // The window ledgers keep only the first charge and
                    // still audit clean against the charges they accepted.
                    assert_eq!(w.ledger, c.ledger);
                    let mut accountant = CompositionLedger::new();
                    accountant.extend(w.charges.iter().copied());
                    w.ledger.audit(&accountant).unwrap();
                }
                // The ε-spend digest covers the refused charge too.
                assert_ne!(planted.digest(), log.digest());
                assert_ne!(
                    planted.digest(),
                    plant(&[(adjacent, first + 0.25)]).digest()
                );
            }
        }
    }

    #[test]
    fn malformed_senders_are_latched_without_touching_estimates() {
        let clean = one_window(small_cfg(200));
        let out = one_window(FleetConfig {
            malformed_senders: 3,
            ..small_cfg(200)
        });
        assert_eq!(out.quarantined, vec![200, 201, 202]);
        assert_eq!(out.stats.quarantine_latched, 3);
        // Their garbage never reaches an accumulator: every estimate is
        // bit-identical to the clean run.
        assert_eq!(clean.rollup_mean, out.rollup_mean);
        assert_eq!(clean.rollup_rr_frequency, out.rollup_rr_frequency);
        assert_eq!(clean.stats.accepted, out.stats.accepted);
    }

    #[test]
    fn heavy_loss_degrades_the_seal_instead_of_panicking() {
        use crate::chaos::FaultClass;
        let out = one_window(FleetConfig {
            chaos: Some(ChaosConfig {
                drop: FaultClass::bursty(0.5, 8.0),
                ..ChaosConfig::quiet(13)
            }),
            retry_budget: 0,
            ..small_cfg(300)
        });
        assert!(
            !out.rollup_seal.is_full(),
            "50% drop with no retries must degrade"
        );
        let SealStatus::Degraded { coverage } = out.rollup_seal.status else {
            panic!("expected a degraded seal");
        };
        assert!(coverage < 0.9 && coverage > 0.2, "coverage {coverage}");
        // Estimates still come out, debiased, with SE from realized counts.
        let mean = out
            .rollup_mean
            .expect("estimates survive degraded coverage");
        assert!(mean.value.is_finite() && mean.stderr > 0.0);
    }

    #[test]
    fn outcome_is_identical_at_any_shard_count_and_chunk_size() {
        let base = one_window(small_cfg(300));
        let resharded = one_window(FleetConfig {
            shards: 7,
            chunk: 17,
            ..small_cfg(300)
        });
        // Different shard/chunk partitions, same reports: the whole
        // canonical outcome matches exactly.
        assert_eq!(base.canonical_text(), resharded.canonical_text());
    }

    #[test]
    fn per_epoch_windows_roll_up_to_the_one_window_run() {
        let driver = FleetDriver::new(small_cfg(200)).unwrap();
        let batch = driver.run_service(&driver.one_window()).unwrap();
        let svc = driver.run_service(&ServiceConfig::new(1, 1 << 20)).unwrap();
        // One window per epoch, all full: the windowed fold accepts the
        // exact same reports and charges the exact same ε-spends.
        assert_eq!(svc.windows_sealed, 2);
        assert!(svc.window_seals.iter().all(|s| s.is_full()));
        assert_eq!(svc.stats.accepted, batch.stats.accepted);
        assert_eq!(svc.stats.late, 0);
        assert_eq!(svc.ledger_digest, batch.ledger_digest);
        assert_eq!(svc.double_spends, 0);
        assert!(svc.audit_ok, "rollup ledger must audit clean");
        assert_eq!(svc.backpressure_rejections, 0);
        // The rollup merges the windows back into the whole-run totals,
        // so its estimates are bit-equal to the one-window run's.
        assert_eq!(svc.rollup_mean, batch.rollup_mean);
        assert_eq!(svc.rollup_variance, batch.rollup_variance);
        assert_eq!(svc.rollup_median, batch.rollup_median);
        assert_eq!(svc.rollup_rr_frequency, batch.rollup_rr_frequency);
        // The live snapshot served one estimate set per sealed window.
        assert_eq!(svc.snapshot.windows_sealed, 2);
        assert!(svc.snapshot.windows[0].mean.is_some());
    }

    #[test]
    fn undersized_queues_backpressure_without_losing_reports() {
        // One 2-epoch window: no seal-drain between the two rounds, so an
        // 8-frame lane must refuse the second round's 128-frame batch.
        let driver = FleetDriver::new(small_cfg(200)).unwrap();
        let roomy = driver.run_service(&ServiceConfig::new(2, 1 << 20)).unwrap();
        let squeezed = driver.run_service(&ServiceConfig::new(2, 8)).unwrap();
        assert!(
            squeezed.backpressure_rejections > 0,
            "an 8-frame queue must refuse 128-frame rounds"
        );
        // Refusal + retry-after-drain loses nothing: the accepted totals,
        // window digests, and estimates are identical to the roomy run.
        assert_eq!(squeezed.stats.accepted, roomy.stats.accepted);
        assert_eq!(squeezed.window_digests, roomy.window_digests);
        assert_eq!(squeezed.rollup_mean, roomy.rollup_mean);
        assert_eq!(squeezed.rollup_digest, roomy.rollup_digest);
    }

    #[test]
    fn service_under_chaos_respects_the_watermark_grace() {
        let cfg = FleetConfig {
            chaos: Some(chaos(7)),
            ..small_cfg(300)
        };
        let driver = FleetDriver::new(cfg.clone()).unwrap();
        let batch = driver.run_service(&driver.one_window()).unwrap();
        // With the grace covering the full backoff/delay slack, every
        // delayed frame lands before its window seals: nothing is late and
        // the service accepts exactly what the one-window run accepted.
        let graced = driver
            .run_service(&ServiceConfig::new(1, 1 << 20).with_watermark_lag(cfg.delivery_slack()))
            .unwrap();
        assert_eq!(graced.stats.late, 0);
        assert_eq!(graced.stats.accepted, batch.stats.accepted);
        assert_eq!(graced.ledger_digest, batch.ledger_digest);
        assert!(graced.audit_ok);
        // With no grace, the same delayed frames surface as the typed
        // `late` outcome instead of vanishing (chaos run at these rates
        // reliably delays frames past their epoch).
        let strict = driver
            .run_service(&ServiceConfig {
                quorum: 0.5,
                ..ServiceConfig::new(1, 1 << 20)
            })
            .unwrap();
        assert!(strict.stats.late > 0, "delays must surface as late");
        // Late frames are refusals, not absorptions: the strict run
        // accepts a subset of the one-window run's reports, and every
        // missing acceptance is covered by at least one late-counted
        // delivery (a report can also go late *more* than once via
        // post-seal redeliveries).
        assert!(strict.stats.accepted < batch.stats.accepted);
        assert!(strict.stats.accepted + strict.stats.late >= batch.stats.accepted);
        assert_eq!(strict.ledger_digest, batch.ledger_digest);
    }

    #[test]
    fn unrunnable_service_configs_are_typed_errors() {
        let driver = FleetDriver::new(small_cfg(10)).unwrap();
        let valid = ServiceConfig::new(1, 64);
        for (svc, field) in [
            (
                ServiceConfig {
                    window_epochs: 0,
                    ..valid.clone()
                },
                "window",
            ),
            (
                ServiceConfig {
                    queue_frames: 0,
                    ..valid.clone()
                },
                "queue",
            ),
            (
                ServiceConfig {
                    quorum: 1.5,
                    ..valid.clone()
                },
                "quorum",
            ),
            (
                ServiceConfig {
                    quorum: f64::NAN,
                    ..valid.clone()
                },
                "quorum",
            ),
        ] {
            match driver.run_service(&svc) {
                Err(FleetError::Config(msg)) => assert!(msg.contains(field), "{svc:?}: {msg}"),
                other => panic!("{svc:?}: expected a config error, got {other:?}"),
            }
        }
        assert!(driver.run_service(&valid).is_ok());
    }

    #[test]
    fn a_watermark_lag_past_the_last_round_seals_at_the_flush() {
        let cfg = FleetConfig {
            epochs: 3,
            ..small_cfg(10)
        };
        let driver = FleetDriver::new(cfg).unwrap();
        let out = driver
            .run_service(&ServiceConfig::new(1, 64).with_watermark_lag(u32::MAX))
            .unwrap();
        // `epoch_hi + lag` saturates instead of wrapping round to an early
        // seal: every window waits for the flush, so every report lands.
        assert_eq!(out.windows_sealed, 3);
        assert_eq!(out.stats.late, 0);
        let included = 10 - out.devices_excluded as u64;
        assert_eq!(out.stats.accepted, included * 2 * 3);
        assert!(out.rollup_seal.is_full());
    }

    /// One round's frames: a value and an RR bit from every included device.
    fn round_bytes(out: &ServiceOutcome) -> usize {
        (out.devices_simulated - out.devices_excluded) * 2 * FRAME_LEN
    }

    #[test]
    fn clean_runs_hold_one_round_of_frames_at_any_length() {
        for epochs in [8, 64] {
            let out = driver_run(
                FleetConfig {
                    epochs,
                    ..small_cfg(200)
                },
                |_| ServiceConfig::new(1, 1 << 20),
            );
            assert_eq!(out.devices_dropped, 0);
            // Each round leaves the devices and reaches the service before
            // the next is simulated.
            assert_eq!(out.max_inflight_bytes, round_bytes(&out), "epochs {epochs}");
        }
    }

    #[test]
    fn chaos_keeps_a_bounded_ring_of_rounds_in_flight() {
        let cfg = FleetConfig {
            epochs: 64,
            chaos: Some(chaos(0xBEEF)),
            ..small_cfg(200)
        };
        let slack = cfg.delivery_slack() as usize;
        let attempts = cfg.retry_budget as usize + 1;
        let out = driver_run(cfg, |d| d.one_window());
        assert!(out.retry_attempts > 0 && out.stats.duplicates > 0);
        // An epoch's sends land within `slack` rounds of it, each report at
        // most `attempts` times: the ring holds at most `slack + 1` epochs'
        // worth of them, whatever the run's length. Holding all 64 rounds at
        // once would exceed this bound more than threefold.
        let bound = (slack + 1) * attempts * round_bytes(&out);
        assert!(
            out.max_inflight_bytes > round_bytes(&out) && out.max_inflight_bytes <= bound,
            "in flight {} of bound {bound}",
            out.max_inflight_bytes
        );
    }
}
