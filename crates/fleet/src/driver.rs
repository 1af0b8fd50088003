//! The simulated-fleet driver: N DP-Box devices streaming into a collector.
//!
//! Each device is a full [`dp_box::DpBox`] instance — FSM, budget ledger,
//! URNG health monitor — not a shortcut around the device model. The driver
//!
//! 1. draws a population of sensor values from a dataset spec (via
//!    [`ldp_eval::GroundTruth`], the shared ground-truth preparation);
//! 2. boots every device through the hardware command sequence, running the
//!    power-on URNG self-test first so devices with degraded bit sources
//!    fail safe *before emitting a single report* (a value-independent
//!    exclusion, hence unbiased);
//! 3. streams epochs of wire-encoded reports through a [`FleetService`]
//!    over a sharded [`Collector`], sealing epoch windows as the watermark
//!    passes — one window over every epoch ([`FleetDriver::one_window`])
//!    is the whole run as a single batch;
//! 4. charges every fresh randomization once, from each chunk's one spend
//!    log, into its window's keyed ledger (the double-spend audit and the
//!    ε-spend digest);
//! 5. returns debiased per-window and rollup estimates next to the
//!    included-population ground truth.
//!
//! # Determinism
//!
//! Every random stream is seeded by [`ulp_rng::stream_seed`] from
//! `(master seed, device id, role)`, device simulation fans out over
//! [`ulp_par::par_map`] in fixed-size chunks, and the collector's shard
//! partition hashes device ids — so the outcome is a pure function of the
//! configuration, bit-identical at any thread count and shard count.

use core::fmt;

use dp_box::{
    Command, DeviceArray, DeviceArrayConfig, DpBox, DpBoxConfig, DpBoxError, HealthConfig,
    LaneOutcome, Phase,
};
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
use crate::window::window_spans;
use crate::wire::{Payload, Report};

/// Devices booted, process-wide.
static DEVICES: Counter = Counter::new("fleet.devices.simulated");
/// Devices excluded by the power-on URNG self-test — recorded at every
/// metrics level: a fleet silently dropping devices must be visible.
static EXCLUDED: Counter = Counter::new("fleet.devices.excluded");
/// Wall-clock of each streamed epoch (simulation + ingest).
static EPOCH_SPAN: SpanTimer = SpanTimer::new("fleet.driver.epoch");
/// Wall-clock of the device-simulation fan-out (boot + noising + framing,
/// before any collector ingest).
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
    /// Total privacy loss in the rollup's merged ledger, in nats.
    pub rollup_ledger_total: f64,
    /// Entries in the rollup's merged ledger.
    pub rollup_ledger_entries: usize,
    /// Coverage seal over the whole rollup.
    pub rollup_seal: EpochSeal,
    /// The rollup's order-canonical digest.
    pub rollup_digest: u64,
    /// Whether every per-window audit AND the merged-ledger audit passed
    /// bitwise.
    pub audit_ok: bool,
    /// Service-lifetime ingest totals (including `late` arrivals).
    pub stats: IngestStats,
    /// Batches refused with typed backpressure (each was retried after a
    /// drain — refusal never loses reports).
    pub backpressure_rejections: u64,
    /// Largest staged frame count any single drain folded.
    pub max_drain_frames: usize,
    /// FNV-1a digest over every `(device, epoch, charge)` fresh-spend
    /// record, in (chunk, device, epoch) order. Chaos acts only on cached
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
    /// rendered into [`ServiceOutcome::canonical_text`].
    pub seal_ns: Vec<u64>,
}

impl ServiceOutcome {
    /// Canonical rendering of every schedule-independent field — the text
    /// the service determinism digest is computed over. Exact float bits
    /// are rendered via [`f64::to_bits`]; wall-clock timings are excluded.
    pub fn canonical_text(&self) -> String {
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

    /// FNV-1a 64-bit digest of [`ServiceOutcome::canonical_text`]: equal
    /// digests witness bit-identical runs across thread counts, shard
    /// counts, device engines, and ingest paths.
    pub fn digest(&self) -> u64 {
        Fnv64::hash(self.canonical_text().as_bytes())
    }
}

/// Per-chunk simulation result, folded on the main thread in chunk order.
#[cfg_attr(test, derive(Clone))]
struct ChunkResult {
    /// `frames[round]` holds the chunk's delivered wire bytes for that
    /// round (a round is an epoch plus the backoff/delay slack after the
    /// last epoch).
    frames: Vec<Vec<u8>>,
    /// The chunk's one spend log: every fresh randomization as
    /// `(device, epoch, charge)`, in device order — the input of the keyed
    /// double-spend audit, the window ledgers, and the ε-spend digest.
    /// Chaos never touches this: it is produced by the device simulation
    /// alone.
    spends: Vec<(u32, u32, f64)>,
    excluded: Vec<u32>,
    dropped: Vec<u32>,
    /// Retransmissions attempted (beyond each report's first send).
    retry_attempts: u64,
    /// Reports whose retry budget expired without an ack.
    reports_unacked: u64,
}

/// Every chunk's spends and tallies, folded on the main thread in
/// (chunk, device, epoch) order by [`fold_spends`].
struct SpendFold {
    /// Per window, the first charge of each `(device, epoch)` key whose
    /// epoch falls inside it.
    ledgers: Vec<BudgetLedger>,
    /// Per window, the charges its ledger accepted, in record order: the
    /// window accountant's input.
    charges: Vec<Vec<f64>>,
    /// FNV-1a over every fresh spend's `(device, epoch, charge bits)`,
    /// refused duplicates included.
    ledger_digest: u64,
    /// Spends refused as a second charge for an already-charged key.
    double_spends: u64,
    excluded: Vec<u32>,
    dropped: usize,
    retry_attempts: u64,
    reports_unacked: u64,
}

/// The one keyed pass over every fresh randomization: each spend goes to
/// window `epoch / window_epochs` of `windows`, through that window
/// ledger's keyed `record_spend`, and into the ε-spend digest.
///
/// A `(device, epoch)` key lands in exactly one window, so the window
/// ledgers together refuse every duplicate a fleet-wide keyed ledger
/// would: a retry path that re-privatized surfaces in `double_spends` as a
/// typed `DoubleSpend`, never as silent extra accumulation. Chaos and
/// windowing act only on delivered bytes, so the digest is the same for
/// every window width and transport.
fn fold_spends(chunks: &[ChunkResult], window_epochs: u32, windows: usize) -> SpendFold {
    let mut digest = Fnv64::new();
    let mut fold = SpendFold {
        ledgers: vec![BudgetLedger::new(); windows],
        charges: vec![Vec::new(); windows],
        ledger_digest: 0,
        double_spends: 0,
        excluded: Vec::new(),
        dropped: 0,
        retry_attempts: 0,
        reports_unacked: 0,
    };
    for chunk in chunks {
        for &(device, epoch, charge) in &chunk.spends {
            let w = (epoch / window_epochs) as usize;
            match fold.ledgers[w].record_spend(u64::from(device), u64::from(epoch), charge) {
                Ok(()) => fold.charges[w].push(charge),
                Err(_) => fold.double_spends += 1,
            }
            digest.write(&device.to_le_bytes());
            digest.write(&epoch.to_le_bytes());
            digest.write(&charge.to_bits().to_le_bytes());
        }
        fold.excluded.extend_from_slice(&chunk.excluded);
        fold.dropped += chunk.dropped.len();
        fold.retry_attempts += chunk.retry_attempts;
        fold.reports_unacked += chunk.reports_unacked;
    }
    fold.ledger_digest = digest.finish();
    fold
}

/// Delivered-frame buckets for one chunk: reordered frames are staged
/// per-frame and appended after the round's in-order bytes in *reverse*
/// arrival order — the displacement the dedup window must be insensitive
/// to.
struct RoundBuckets {
    normal: Vec<Vec<u8>>,
    displaced: Vec<Vec<Vec<u8>>>,
}

impl RoundBuckets {
    fn new(rounds: usize) -> RoundBuckets {
        RoundBuckets {
            normal: vec![Vec::new(); rounds],
            displaced: vec![Vec::new(); rounds],
        }
    }

    fn deliver(&mut self, round: usize, bytes: &[u8], displaced: bool) {
        if displaced {
            self.displaced[round].push(bytes.to_vec());
        } else {
            self.normal[round].extend_from_slice(bytes);
        }
    }

    fn finalize(self) -> Vec<Vec<u8>> {
        self.normal
            .into_iter()
            .zip(self.displaced)
            .map(|(mut n, d)| {
                for frame in d.into_iter().rev() {
                    n.extend_from_slice(&frame);
                }
                n
            })
            .collect()
    }
}

/// The simulated fleet: configuration plus the derived noise model.
#[derive(Debug, Clone)]
pub struct FleetDriver {
    cfg: FleetConfig,
    model: NoiseModel,
    max_code: i64,
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
    /// [`FleetError::Config`] for empty populations/epochs/shards/chunks or
    /// an out-of-range threshold; [`FleetError::Privacy`] if the noise
    /// model cannot be built.
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
        Ok(FleetDriver {
            cfg,
            model,
            max_code,
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
    /// through the streaming service: the deterministic device traffic is
    /// offered round-by-round to a [`FleetService`] (one ingest lane per
    /// simulation chunk plus one for the planted malformed senders),
    /// windows seal as the watermark passes, live snapshots are served
    /// from sealed windows, and every sealed window folds into an
    /// order-canonicalized rollup. [`FleetDriver::one_window`] makes the
    /// run a single batch.
    ///
    /// Backpressure follows the service contract: a [`crate::Busy`]
    /// refusal triggers a drain and a same-round retry of the *same*
    /// bytes, so no admitted report is ever dropped and the outcome stays
    /// a pure function of the configuration — bit-identical at any thread
    /// or shard count, with either device engine and either ingest path.
    ///
    /// # Errors
    ///
    /// Propagates device-boot and mechanism-construction failures. Devices
    /// excluded by the self-test or dropped mid-stream are *not* errors —
    /// they are the fail-safe path working as designed, and are reported in
    /// the outcome.
    pub fn run_service(&self, svc: &ServiceConfig) -> Result<ServiceOutcome, FleetError> {
        let cfg = &self.cfg;
        let truth = self.prepare_truth()?;
        let rr = self.model.rr()?;
        let chunks = self.simulate_fleet(&truth.codes_k, rr)?;
        let malformed = self.malformed_rounds();

        // Each window's share of the privacy ledger: the fresh spends
        // whose epoch falls inside the window, in (chunk, device, epoch)
        // order — the canonical order the rollup audit re-folds. The same
        // pass is the keyed double-spend audit and the ε-spend digest.
        let spans = window_spans(cfg.epochs, svc.window_epochs);
        let SpendFold {
            ledgers: mut window_ledgers,
            charges: mut window_charges,
            ledger_digest,
            double_spends,
            excluded,
            dropped,
            retry_attempts,
            reports_unacked,
        } = fold_spends(&chunks, svc.window_epochs, spans.len());
        DEVICES.add(cfg.devices as u64);
        EXCLUDED.record_always(excluded.len() as u64);
        let reports_per_window = |w: usize| {
            let (lo, hi) = spans[w];
            2 * u64::from(hi - lo) * (cfg.devices - excluded.len()) as u64
        };

        let lanes = chunks.len() + 1;
        let malformed_lane = chunks.len();
        let mut service = FleetService::new(self.fresh_collector(), svc.clone(), lanes, cfg.epochs);
        let rounds = self.rounds();
        let mut next_seal = 0usize;
        let mut seal_window = |service: &mut FleetService, next_seal: &mut usize| {
            let w = *next_seal;
            service
                .seal_active(
                    std::mem::take(&mut window_ledgers[w]),
                    std::mem::take(&mut window_charges[w]),
                    reports_per_window(w),
                )
                .expect("windows seal in order");
            *next_seal += 1;
        };
        for round in 0..rounds {
            let _span = EPOCH_SPAN.enter();
            for (lane, chunk) in chunks.iter().enumerate() {
                let bytes = &chunk.frames[round];
                if service.offer(lane, bytes).is_err() {
                    // Typed backpressure: drain, then retry the same
                    // bytes — an empty lane always admits.
                    service.drain();
                    service.offer(lane, bytes).expect("drained lane admits");
                }
            }
            if let Some(bytes) = malformed.get(round) {
                if service.offer(malformed_lane, bytes).is_err() {
                    service.drain();
                    service
                        .offer(malformed_lane, bytes)
                        .expect("drained lane admits");
                }
            }
            let completed = round as u32 + 1;
            while service.seal_due(completed) {
                seal_window(&mut service, &mut next_seal);
            }
        }
        // Flush-seal windows whose watermark sits past the last round
        // (delivery is over, so the grace can't admit anything more).
        while service.active_window().is_some() {
            seal_window(&mut service, &mut next_seal);
        }
        // Deliveries staged after the last seal (backoff/delay slack under
        // a strict watermark) still get classified — as the typed `late`
        // outcome, never a silent drop of admitted bytes.
        service.drain();

        let snapshot = service.snapshot(&self.model)?;
        let rollup = service.rollup().finalize(svc.quorum);
        let truths = self.included_truths(&truth.codes_k, &excluded);
        let (numeric, rr_role) = crate::window::query_roles(service.collector().queries());
        let rollup_values = numeric.map(|q| &rollup.totals[q]);
        let rollup_bits = rr_role.map(|q| &rollup.totals[q]);
        Ok(ServiceOutcome {
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
        })
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

    /// Simulates every device in fixed-size chunks; `par_map` returns
    /// chunk results in chunk order regardless of schedule.
    fn simulate_fleet(
        &self,
        codes_k: &[i64],
        rr: RandomizedResponse,
    ) -> Result<Vec<ChunkResult>, FleetError> {
        let cfg = &self.cfg;
        let chunk_starts: Vec<u32> = (0..cfg.devices as u32).step_by(cfg.chunk).collect();
        let chunk_results: Vec<Result<ChunkResult, FleetError>> = {
            let _span = SIM_SPAN.enter();
            ulp_par::par_map(&chunk_starts, |&start| {
                let end = (start as usize + cfg.chunk).min(cfg.devices) as u32;
                match self.engine {
                    DeviceEngine::Batch => self.simulate_chunk_batch(start, end, codes_k, rr),
                    DeviceEngine::Reference => self.simulate_chunk(start, end, codes_k, rr),
                }
            })
        };
        let mut chunks = Vec::with_capacity(chunk_results.len());
        for r in chunk_results {
            chunks.push(r?);
        }
        Ok(chunks)
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

    /// Planted malformed senders: checksum-valid frames for an
    /// unregistered query, enough per epoch to trip the default strike
    /// limit in the very first batch. Their ids sit above the population,
    /// so they touch no truth and no ledger.
    fn malformed_rounds(&self) -> Vec<Vec<u8>> {
        let cfg = &self.cfg;
        (0..cfg.epochs)
            .map(|epoch| {
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
            })
            .collect()
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

    /// Sends one cached report through the uplink: the first attempt plus
    /// up to `retry_budget` retransmissions of the *same bytes* under
    /// exponential backoff (attempt `a` departs at `epoch + 2^a − 1`).
    /// Returns `(extra_attempts, acked)`.
    fn transmit(
        &self,
        chaos: Option<&mut DeviceChaos>,
        frame: &[u8; crate::wire::FRAME_LEN],
        epoch: usize,
        buckets: &mut RoundBuckets,
    ) -> (u64, bool) {
        let Some(chaos) = chaos else {
            // Perfect wire: one attempt, delivered in its own epoch.
            buckets.deliver(epoch, frame, false);
            return (0, true);
        };
        let mut extra = 0u64;
        for attempt in 0..=self.cfg.retry_budget {
            if attempt > 0 {
                extra += 1;
            }
            let send_round = epoch + (1usize << attempt) - 1;
            let outcome = chaos.attempt(frame);
            if let Some(d) = outcome.delivery {
                buckets.deliver(send_round + d.delay_rounds as usize, &d.bytes, d.displaced);
            }
            if outcome.acked {
                return (extra, true);
            }
        }
        (extra, false)
    }

    /// Simulates devices `[start, end)`: boot each through the hardware
    /// command sequence, privatize **at most once** per `(query, epoch)`,
    /// and push the cached report bytes through the (possibly chaotic)
    /// uplink.
    fn simulate_chunk(
        &self,
        start: u32,
        end: u32,
        codes_k: &[i64],
        rr: RandomizedResponse,
    ) -> Result<ChunkResult, FleetError> {
        let rounds = self.rounds();
        let mut buckets = RoundBuckets::new(rounds);
        let mut out = ChunkResult {
            frames: Vec::new(),
            spends: Vec::new(),
            excluded: Vec::new(),
            dropped: Vec::new(),
            retry_attempts: 0,
            reports_unacked: 0,
        };
        for id in start..end {
            self.simulate_device_scalar(id, codes_k[id as usize], rr, &mut buckets, &mut out)?;
        }
        out.frames = buckets.finalize();
        Ok(out)
    }

    /// One device's full scalar simulation — a [`DpBox`] FSM booted,
    /// stepped one `noise_value` per epoch, and its cached report bytes
    /// pushed through the uplink. Shared by the reference engine (every
    /// device) and the batch engine (faulty-URNG sidecar).
    fn simulate_device_scalar(
        &self,
        id: u32,
        x_code: i64,
        rr: RandomizedResponse,
        buckets: &mut RoundBuckets,
        out: &mut ChunkResult,
    ) -> Result<(), FleetError> {
        let cfg = &self.cfg;
        let epochs = cfg.epochs as usize;
        {
            let faulty = Self::is_faulty(cfg, id);
            let urng = if faulty {
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
            let mut dev = DpBox::with_urng(
                DpBoxConfig {
                    word_bits: cfg.word_bits,
                    frac_bits: 0,
                    bu: cfg.bu,
                    cordic_iterations: 24,
                    segment_multiples: cfg.multiples.clone(),
                    seed: 0, // ignored: the URNG is caller-supplied
                },
                urng,
            )?;
            // Power-on self-test: a short APT window keeps the startup
            // draw cheap while the lag-correlation test still catches the
            // wired fault deterministically.
            dev.set_health_config(
                HealthConfig::new(40, 64, 4).map_err(|e| FleetError::Device(DpBoxError::Rng(e)))?,
            );
            dev.issue(Command::ResetHealth, 0)?;
            if dev.phase() == Phase::HealthFault {
                out.excluded.push(id);
                return Ok(());
            }
            // Initialization phase: budget, then freeze into waiting.
            dev.issue(Command::SetEpsilon, cfg.budget_raw)?;
            dev.issue(Command::StartNoising, 0)?;
            // Waiting phase: per-reading privacy level, range, mode.
            dev.issue(Command::SetEpsilon, i64::from(cfg.eps_shift))?;
            dev.issue(Command::SetSensorRangeLower, 0)?;
            dev.issue(Command::SetSensorRangeUpper, self.max_code)?;
            dev.issue(Command::SetThreshold, 0)?; // resampling → thresholding
            let mut rr_rng = Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 2]));
            let above = x_code >= cfg.threshold_code;
            // The transport state is per-device and seeded from the chaos
            // seed alone, so the fault pattern is independent of chunk
            // partition and thread schedule.
            let mut chaos = cfg.chaos.as_ref().map(|c| DeviceChaos::new(c, id));
            for epoch in 0..epochs {
                // Privatize AT MOST ONCE per (query, epoch): the encoded
                // frames below are the cached bytes every retransmission
                // replays verbatim. A fresh ledger charge is keyed by
                // (device, epoch) for the double-spend audit.
                let before = dev.ledger().len();
                let value_frame = match dev.noise_value(x_code) {
                    Ok((y, _cycles)) => Report {
                        device: id,
                        query: VALUE_QUERY,
                        epoch: epoch as u32,
                        payload: Payload::Value(y as i32),
                    }
                    .encode(),
                    // Fail-safe paths (runtime health trip, budget halt):
                    // the device stops reporting; the fleet records it.
                    Err(DpBoxError::UrngHealthFault(_)) | Err(DpBoxError::BudgetExhausted) => {
                        out.dropped.push(id);
                        break;
                    }
                    Err(e) => return Err(e.into()),
                };
                if dev.ledger().len() > before {
                    let entry = dev.ledger().entries()[before];
                    out.spends.push((id, epoch as u32, entry.charge));
                }
                let rr_frame = Report {
                    device: id,
                    query: RR_QUERY,
                    epoch: epoch as u32,
                    payload: Payload::RrBit(rr.privatize(above, &mut rr_rng)),
                }
                .encode();
                for frame in [&value_frame, &rr_frame] {
                    let (extra, acked) = self.transmit(chaos.as_mut(), frame, epoch, buckets);
                    out.retry_attempts += extra;
                    out.reports_unacked += u64::from(!acked);
                }
            }
        }
        Ok(())
    }

    /// Whether `id`'s URNG is wired through the correlated-bits fault — a
    /// pure function of `(seed, id)`, identical in both engines.
    fn is_faulty(cfg: &FleetConfig, id: u32) -> bool {
        stream_seed(cfg.seed, &[u64::from(id), 7]) % 1000 < u64::from(cfg.faulty_per_mille)
    }

    /// The batch engine: identical power-on self-tests, RNG streams,
    /// noising dataflow, frame bytes, and spend records as
    /// [`FleetDriver::simulate_chunk`] — proven bit-for-bit by the
    /// in-process differential tests — but the chunk's healthy-URNG devices
    /// advance in lockstep as one [`DeviceArray`] (vectorized startup
    /// self-test, memoized CORDIC, no per-device FSM allocation). Devices
    /// wired through the correlated-bits fault keep the scalar [`DpBox`]
    /// sidecar: they exist to exercise the full fault-latch machinery.
    ///
    /// Frames are emitted in device-id order from the precomputed lane
    /// outcomes, so every round's byte stream — and therefore every ingest
    /// stat, estimate, and digest — matches the reference engine exactly.
    fn simulate_chunk_batch(
        &self,
        start: u32,
        end: u32,
        codes_k: &[i64],
        rr: RandomizedResponse,
    ) -> Result<ChunkResult, FleetError> {
        let cfg = &self.cfg;
        let epochs = cfg.epochs as usize;
        let rounds = self.rounds();
        let mut buckets = RoundBuckets::new(rounds);
        let mut out = ChunkResult {
            frames: Vec::new(),
            spends: Vec::new(),
            excluded: Vec::new(),
            dropped: Vec::new(),
            retry_attempts: 0,
            reports_unacked: 0,
        };
        // Partition the chunk: healthy devices become array lanes (their
        // RNG streams are independent, so lockstep advance is safe);
        // faulty devices take the scalar sidecar during emission.
        let n = (end - start) as usize;
        let mut lane_of: Vec<Option<u32>> = vec![None; n];
        let mut seeds = Vec::with_capacity(n);
        for id in start..end {
            if !Self::is_faulty(cfg, id) {
                lane_of[(id - start) as usize] = Some(seeds.len() as u32);
                seeds.push(stream_seed(cfg.seed, &[u64::from(id), 0]));
            }
        }
        let array_cfg = DeviceArrayConfig {
            word_bits: cfg.word_bits,
            frac_bits: 0,
            bu: cfg.bu,
            cordic_iterations: 24,
            segment_multiples: cfg.multiples.clone(),
            // The same short-window power-on self-test the scalar boot
            // configures via `set_health_config`.
            health: HealthConfig::new(40, 64, 4)
                .map_err(|e| FleetError::Device(DpBoxError::Rng(e)))?,
            budget_raw: cfg.budget_raw,
            eps_shift: cfg.eps_shift,
            range_lower: 0,
            range_upper: self.max_code,
        };
        let mut array = DeviceArray::new(&array_cfg, &seeds)?;
        let mut xs = vec![0i64; seeds.len()];
        for id in start..end {
            if let Some(lane) = lane_of[(id - start) as usize] {
                xs[lane as usize] = codes_k[id as usize];
            }
        }
        // Advance every lane through all epochs, column-wise.
        let matrix: Vec<Vec<LaneOutcome>> = array.step_epochs(&xs, epochs);
        // Emission in device-id order: the exact per-device frame and spend
        // sequence the reference engine produces.
        for id in start..end {
            let Some(lane) = lane_of[(id - start) as usize] else {
                self.simulate_device_scalar(id, codes_k[id as usize], rr, &mut buckets, &mut out)?;
                continue;
            };
            let lane = lane as usize;
            if array.is_excluded(lane) {
                out.excluded.push(id);
                continue;
            }
            let x_code = codes_k[id as usize];
            let mut rr_rng = Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 2]));
            let above = x_code >= cfg.threshold_code;
            let mut chaos = cfg.chaos.as_ref().map(|c| DeviceChaos::new(c, id));
            for (epoch, col) in matrix.iter().enumerate() {
                let y = match col[lane] {
                    LaneOutcome::Fresh { y, charge } => {
                        out.spends.push((id, epoch as u32, charge));
                        y
                    }
                    LaneOutcome::Cached { y } => y,
                    LaneOutcome::Dropped => {
                        out.dropped.push(id);
                        break;
                    }
                };
                let value_frame = Report {
                    device: id,
                    query: VALUE_QUERY,
                    epoch: epoch as u32,
                    payload: Payload::Value(y as i32),
                }
                .encode();
                let rr_frame = Report {
                    device: id,
                    query: RR_QUERY,
                    epoch: epoch as u32,
                    payload: Payload::RrBit(rr.privatize(above, &mut rr_rng)),
                }
                .encode();
                for frame in [&value_frame, &rr_frame] {
                    let (extra, acked) = self.transmit(chaos.as_mut(), frame, epoch, &mut buckets);
                    out.retry_attempts += extra;
                    out.reports_unacked += u64::from(!acked);
                }
            }
        }
        out.frames = buckets.finalize();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::CompositionLedger;

    fn small_cfg(devices: usize) -> FleetConfig {
        FleetConfig {
            chunk: 64,
            ..FleetConfig::paper_default(devices, 2, 99)
        }
    }

    /// The whole run as one batch: one window over every epoch.
    fn one_window(cfg: FleetConfig) -> ServiceOutcome {
        let driver = FleetDriver::new(cfg).unwrap();
        driver.run_service(&driver.one_window()).unwrap()
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

    #[test]
    fn planted_double_spends_are_counted_refused_and_digested() {
        let driver = FleetDriver::new(small_cfg(200)).unwrap();
        let truth = driver.prepare_truth().unwrap();
        let chunks = driver
            .simulate_fleet(&truth.codes_k, driver.model.rr().unwrap())
            .unwrap();
        assert!(chunks.len() >= 2 && !chunks[0].spends.is_empty());
        let (device, epoch, first) = chunks[0].spends[0];
        let epochs = driver.cfg.epochs;
        // One window over every epoch, then one-epoch windows.
        for (width, windows) in [(epochs, 1), (1, epochs as usize)] {
            let clean = fold_spends(&chunks, width, windows);
            assert_eq!(clean.double_spends, 0);
            // Replays `(device, epoch)` at `second`: right behind its first
            // charge, or at the end of a later chunk.
            let plant = |replays: &[(bool, f64)]| {
                let mut planted = chunks.clone();
                for &(adjacent, second) in replays {
                    if adjacent {
                        planted[0].spends.insert(1, (device, epoch, second));
                    } else {
                        planted[1].spends.push((device, epoch, second));
                    }
                }
                fold_spends(&planted, width, windows)
            };
            assert_eq!(
                plant(&[(true, first + 0.5), (false, first + 0.5)]).double_spends,
                2
            );
            for adjacent in [true, false] {
                let fold = plant(&[(adjacent, first + 0.5)]);
                assert_eq!(fold.double_spends, 1, "adjacent: {adjacent}");
                // The window ledgers keep only the first charge and still
                // audit clean against the charges they accepted.
                assert_eq!(fold.ledgers, clean.ledgers);
                for (ledger, charges) in fold.ledgers.iter().zip(&fold.charges) {
                    let mut accountant = CompositionLedger::new();
                    accountant.extend(charges.iter().copied());
                    ledger.audit(&accountant).unwrap();
                }
                // The ε-spend digest covers the refused charge too.
                assert_ne!(fold.ledger_digest, clean.ledger_digest);
                assert_ne!(
                    fold.ledger_digest,
                    plant(&[(adjacent, first + 0.25)]).ledger_digest
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
            .run_service(&ServiceConfig::new(1, 1 << 20).with_quorum(0.5))
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
}
