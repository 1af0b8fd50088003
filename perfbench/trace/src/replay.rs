//! A replay of `FleetDriver::run_service`'s traffic through each layer's
//! public functions, with every call (or contiguous run of calls to one
//! cheap function) wrapped in a span.
//!
//! The replay follows `run_service` step for step: the same per-device
//! `stream_seed` streams, the same chunking, the same device-id emission
//! order, the same round-by-round offers and seals, and the same driver
//! bookkeeping (each chunk's ledger and charge list, the keyed
//! double-spend audit, the ε-spend digest, the window ledgers, the
//! included population's ground truth, the rollup estimates and the window
//! digests). At one seed its counts, digests and estimates therefore equal
//! the untraced run's; [`compare`] checks that, which is what lets the
//! layer numbers describe the measured work.
//!
//! Within a chunk the replay regroups the driver's per-device loop into
//! one pass per layer (boot, step, ledger, RR privatize, encode,
//! transmit). Every random stream is per device and every delivery lands
//! in device-id order, so the bytes reaching the service are unchanged.
//!
//! `FleetService::seal_active` audits the window's ledger inside the seal,
//! so the seal spans include that audit. To time `BudgetLedger::audit` on
//! its own, [`replay`] audits every sealed window again after the root
//! span closes: the root covers only the work `run_service` does.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use dp_box::{
    Command, DeviceArray, DeviceArrayConfig, DpBox, DpBoxConfig, DpBoxError, HealthConfig,
    LaneOutcome, Phase,
};
use ldp_core::{BudgetLedger, CompositionLedger, RandomizedResponse};
use ldp_eval::GroundTruth;
use perfbench::Workload;
use ulp_fleet::{
    window_spans, Collector, DeviceChaos, Estimate, FleetConfig, FleetService, IngestPath,
    IngestStats, NoiseModel, Payload, QueryConfig, QueryKind, Report, ServiceOutcome, FRAME_LEN,
    MAX_DELAY_ROUNDS, RR_QUERY, VALUE_QUERY,
};
use ulp_rng::{stream_seed, CorrelatedBits, Taus88};

use crate::span::Tracer;

/// The root span: its self time is the driver glue no layer span covers.
pub const ROOT_SPAN: &str = "fleet.driver.replay";

/// Ground truth over the devices the power-on self-test kept, as
/// `run_service` computes it for its outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Truths {
    /// Mean sensor code.
    pub mean: f64,
    /// Variance of the codes.
    pub variance: f64,
    /// Median code.
    pub median: f64,
    /// Share of codes at or above the RR threshold.
    pub fraction: f64,
}

/// What the replay did, counted at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Devices excluded by the power-on self-test, in id order.
    pub excluded: Vec<u32>,
    /// Devices that stopped reporting mid-stream.
    pub dropped: usize,
    /// Frames the population encoded and sent (two per device-epoch).
    pub frames_encoded: u64,
    /// Transport attempts: first sends plus retransmissions.
    pub attempts: u64,
    /// Offers of a non-empty batch to the service.
    pub offers: u64,
    /// Offers refused with `Busy`.
    pub busy: u64,
    /// Frames the service drained into the collector.
    pub frames_drained: u64,
    /// Nanoseconds from each admitted offer to the drain that folded it.
    pub queue_wait_ns: Vec<u64>,
    /// `(device, epoch)` spends refused as double-spends.
    pub double_spends: u64,
    /// FNV-1a digest of every fresh spend (`ServiceOutcome::ledger_digest`).
    pub ledger_digest: u64,
    /// Sealed windows whose ledger audit failed when repeated.
    pub audits_failed: u64,
    /// Ingest totals over the service lifetime.
    pub stats: IngestStats,
    /// Windows sealed.
    pub windows_sealed: usize,
    /// Each sealed window's canonical digest, ascending index.
    pub window_digests: Vec<u64>,
    /// Entries in the rollup's merged ledger.
    pub ledger_entries: usize,
    /// The rollup's order-canonical digest.
    pub rollup_digest: u64,
    /// Whether every window audit and the merged-ledger audit passed.
    pub audit_ok: bool,
    /// The rollup's mean, variance, median and RR-frequency estimates.
    pub rollup_estimates: [Option<Estimate>; 4],
    /// Ground truth over the included devices.
    pub truths: Truths,
    /// Senders latched into quarantine, ascending.
    pub quarantined: Vec<u32>,
}

/// A fresh collector registered exactly as the driver registers it.
pub fn fleet_collector(cfg: &FleetConfig, model: &NoiseModel) -> Collector {
    Collector::new(
        cfg.shards,
        &[
            QueryConfig {
                id: VALUE_QUERY,
                kind: QueryKind::Numeric {
                    sketch_min_k: model.window_lo(),
                    sketch_max_k: model.window_hi(),
                },
            },
            QueryConfig {
                id: RR_QUERY,
                kind: QueryKind::RrBit,
            },
        ],
    )
    .with_ingest_path(IngestPath::Columnar)
}

/// Ids the collector's flat tables cover: the population plus the
/// planted malformed senders.
pub fn device_capacity(cfg: &FleetConfig) -> u32 {
    (cfg.devices + cfg.malformed_senders) as u32
}

/// Everything the replay must share with the untraced run at the same
/// seed: counts, digests, ground truth and rollup estimates. Returns the
/// mismatches; empty means the replay did the same work.
pub fn compare(r: &Replay, o: &ServiceOutcome) -> Vec<String> {
    let pairs: [(&str, u64, u64); 13] = [
        ("accepted", r.stats.accepted, o.stats.accepted),
        ("rejected", r.stats.rejected, o.stats.rejected),
        ("duplicates", r.stats.duplicates, o.stats.duplicates),
        ("late", r.stats.late, o.stats.late),
        ("windows", r.windows_sealed as u64, o.windows_sealed as u64),
        (
            "ledger entries",
            r.ledger_entries as u64,
            o.rollup_ledger_entries as u64,
        ),
        ("excluded", r.excluded.len() as u64, o.devices_excluded as u64),
        ("dropped", r.dropped as u64, o.devices_dropped as u64),
        ("double-spends", r.double_spends, o.double_spends),
        (
            "retransmissions",
            r.attempts - r.frames_encoded,
            o.retry_attempts,
        ),
        ("busy refusals", r.busy, o.backpressure_rejections),
        ("ledger digest", r.ledger_digest, o.ledger_digest),
        ("rollup digest", r.rollup_digest, o.rollup_digest),
    ];
    let mut out: Vec<String> = pairs
        .iter()
        .filter(|(_, replay, run)| replay != run)
        .map(|(what, replay, run)| format!("replay {what} {replay} != run_service {run}"))
        .collect();
    let truths = [
        ("truth mean", r.truths.mean, o.truth_mean),
        ("truth variance", r.truths.variance, o.truth_variance),
        ("truth median", r.truths.median, o.truth_median),
        ("truth fraction", r.truths.fraction, o.truth_fraction),
    ];
    out.extend(
        truths
            .iter()
            .filter(|(_, replay, run)| replay.to_bits() != run.to_bits())
            .map(|(what, replay, run)| format!("replay {what} {replay} != run_service {run}")),
    );
    let estimates = [
        ("rollup mean", o.rollup_mean),
        ("rollup variance", o.rollup_variance),
        ("rollup median", o.rollup_median),
        ("rollup RR frequency", o.rollup_rr_frequency),
    ];
    for ((what, run), replay) in estimates.iter().zip(&r.rollup_estimates) {
        // `Debug` prints every float in full, so the texts differ
        // whenever a field does.
        let (replay, run) = (format!("{replay:?}"), format!("{run:?}"));
        if replay != run {
            out.push(format!("replay {what} {replay} != run_service {run}"));
        }
    }
    if r.window_digests != o.window_digests {
        out.push(format!(
            "replay window digests differ from run_service's ({} vs {} windows)",
            r.window_digests.len(),
            o.window_digests.len()
        ));
    }
    if r.quarantined != o.quarantined {
        out.push(format!(
            "replay quarantined {:?} != run_service {:?}",
            r.quarantined, o.quarantined
        ));
    }
    if !r.audit_ok || r.audits_failed > 0 {
        out.push(format!(
            "replay ledger audit failed ({} windows)",
            r.audits_failed
        ));
    }
    out
}

/// Whether `id`'s URNG is wired through the correlated-bits fault, as the
/// driver decides it.
fn is_faulty(cfg: &FleetConfig, id: u32) -> bool {
    stream_seed(cfg.seed, &[u64::from(id), 7]) % 1000 < u64::from(cfg.faulty_per_mille)
}

/// Delivery rounds: the epochs plus, under chaos, the backoff and delay
/// slack after the last one.
fn rounds(cfg: &FleetConfig) -> usize {
    let slack = if cfg.chaos.is_some() {
        (1usize << cfg.retry_budget) - 1 + MAX_DELAY_ROUNDS as usize
    } else {
        0
    };
    cfg.epochs as usize + slack
}

fn health() -> Result<HealthConfig, String> {
    HealthConfig::new(40, 64, 4).map_err(|e| e.to_string())
}

/// FNV-1a over every `(device, epoch, charge)` spend in little-endian
/// bytes, the fold behind `ServiceOutcome::ledger_digest`.
fn spend_digest(spends: impl Iterator<Item = (u32, u32, f64)>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (device, epoch, charge) in spends {
        for b in device
            .to_le_bytes()
            .into_iter()
            .chain(epoch.to_le_bytes())
            .chain(charge.to_bits().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The included population's ground truth, computed as `run_service`
/// computes it: a hash-set filter of the excluded ids, then the mean, the
/// variance, a sorted median and the share above the RR threshold.
fn included_truths(codes_k: &[i64], excluded: &[u32], threshold_code: i64) -> Truths {
    let excluded: HashSet<u32> = excluded.iter().copied().collect();
    let included: Vec<i64> = codes_k
        .iter()
        .enumerate()
        .filter(|(i, _)| !excluded.contains(&(*i as u32)))
        .map(|(_, &k)| k)
        .collect();
    let n = included.len().max(1) as f64;
    let mean = included.iter().map(|&k| k as f64).sum::<f64>() / n;
    let variance = included
        .iter()
        .map(|&k| (k as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let mut sorted = included.clone();
    sorted.sort_unstable();
    let median = sorted
        .get(sorted.len().saturating_sub(1) / 2)
        .map_or(f64::NAN, |&k| k as f64);
    let fraction = included.iter().filter(|&&k| k >= threshold_code).count() as f64 / n;
    Truths {
        mean,
        variance,
        median,
        fraction,
    }
}

/// Delivered-frame buckets for one chunk, as the driver fills them:
/// displaced frames go after the round's in-order bytes, in reverse.
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

/// One cached report through the uplink: the first send plus up to
/// `retry_budget` retransmissions under exponential backoff. Returns the
/// attempts made.
fn transmit(
    retry_budget: u32,
    chaos: Option<&mut DeviceChaos>,
    frame: &[u8; FRAME_LEN],
    epoch: usize,
    buckets: &mut RoundBuckets,
) -> u64 {
    let Some(chaos) = chaos else {
        buckets.deliver(epoch, frame, false);
        return 1;
    };
    for attempt in 0..=retry_budget {
        let send_round = epoch + (1usize << attempt) - 1;
        let outcome = chaos.attempt(frame);
        if let Some(d) = outcome.delivery {
            buckets.deliver(send_round + d.delay_rounds as usize, &d.bytes, d.displaced);
        }
        if outcome.acked {
            return u64::from(attempt) + 1;
        }
    }
    u64::from(retry_budget) + 1
}

/// A faulty-URNG device on the scalar `DpBox` path, as the driver runs
/// it: its fresh spends and the frames it hands the uplink.
#[derive(Default)]
struct Sidecar {
    excluded: bool,
    dropped: bool,
    spends: Vec<(u32, u32, f64)>,
    frames: Vec<(usize, [u8; FRAME_LEN])>,
}

fn sidecar(
    cfg: &FleetConfig,
    id: u32,
    x_code: i64,
    rr: RandomizedResponse,
    max_code: i64,
) -> Result<Sidecar, String> {
    let urng = CorrelatedBits::new(
        Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 1])),
        1,
        230,
    );
    let err = |e: DpBoxError| e.to_string();
    let mut dev = DpBox::with_urng(
        DpBoxConfig {
            word_bits: cfg.word_bits,
            frac_bits: 0,
            bu: cfg.bu,
            cordic_iterations: 24,
            segment_multiples: cfg.multiples.clone(),
            seed: 0,
        },
        urng,
    )
    .map_err(err)?;
    dev.set_health_config(health()?);
    dev.issue(Command::ResetHealth, 0).map_err(err)?;
    let mut out = Sidecar::default();
    if dev.phase() == Phase::HealthFault {
        out.excluded = true;
        return Ok(out);
    }
    for (cmd, input) in [
        (Command::SetEpsilon, cfg.budget_raw),
        (Command::StartNoising, 0),
        (Command::SetEpsilon, i64::from(cfg.eps_shift)),
        (Command::SetSensorRangeLower, 0),
        (Command::SetSensorRangeUpper, max_code),
        (Command::SetThreshold, 0),
    ] {
        dev.issue(cmd, input).map_err(err)?;
    }
    let mut rr_rng = Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 2]));
    let above = x_code >= cfg.threshold_code;
    for epoch in 0..cfg.epochs {
        let before = dev.ledger().len();
        let y = match dev.noise_value(x_code) {
            Ok((y, _cycles)) => y,
            Err(DpBoxError::UrngHealthFault(_)) | Err(DpBoxError::BudgetExhausted) => {
                out.dropped = true;
                break;
            }
            Err(e) => return Err(e.to_string()),
        };
        if dev.ledger().len() > before {
            out.spends
                .push((id, epoch, dev.ledger().entries()[before].charge));
        }
        let value = Report::new(id, VALUE_QUERY, epoch, Payload::Value(y as i32));
        let bit = Report::new(
            id,
            RR_QUERY,
            epoch,
            Payload::RrBit(rr.privatize(above, &mut rr_rng)),
        );
        out.frames.push((epoch as usize, value.encode()));
        out.frames.push((epoch as usize, bit.encode()));
    }
    Ok(out)
}

/// One simulation chunk's traffic and bookkeeping.
struct Chunk {
    frames: Vec<Vec<u8>>,
    spends: Vec<(u32, u32, f64)>,
}

/// The replay's fixed inputs.
struct Fleet<'a> {
    cfg: &'a FleetConfig,
    codes_k: &'a [i64],
    rr: RandomizedResponse,
    max_code: i64,
    array_cfg: DeviceArrayConfig,
    rounds: usize,
}

impl Fleet<'_> {
    /// Simulates devices `[start, end)` as `simulate_chunk_batch` does.
    fn chunk(
        &self,
        start: u32,
        end: u32,
        tr: &mut Tracer,
        r: &mut Replay,
    ) -> Result<Chunk, String> {
        let cfg = self.cfg;
        let n = (end - start) as usize;
        let mut lane_of: Vec<Option<usize>> = vec![None; n];
        let mut seeds = Vec::with_capacity(n);
        for id in start..end {
            if !is_faulty(cfg, id) {
                lane_of[(id - start) as usize] = Some(seeds.len());
                seeds.push(stream_seed(cfg.seed, &[u64::from(id), 0]));
            }
        }
        let mut array = tr
            .time("dpbox.array.new", seeds.len() as u64, || {
                DeviceArray::new(&self.array_cfg, &seeds)
            })
            .map_err(|e| e.to_string())?;
        let mut sidecars: Vec<Option<Sidecar>> = Vec::with_capacity(n);
        for id in start..end {
            sidecars.push(match lane_of[(id - start) as usize] {
                Some(_) => None,
                None => Some(tr.time("dpbox.device.sidecar", 1, || {
                    sidecar(cfg, id, self.codes_k[id as usize], self.rr, self.max_code)
                })?),
            });
        }
        let mut xs = vec![0i64; seeds.len()];
        for id in start..end {
            if let Some(lane) = lane_of[(id - start) as usize] {
                xs[lane] = self.codes_k[id as usize];
            }
        }
        let mut matrix = Vec::with_capacity(cfg.epochs as usize);
        for _ in 0..cfg.epochs {
            let mut col = Vec::new();
            let active = array.active_lanes() as u64;
            tr.time("dpbox.array.step", active, || array.step(&xs, &mut col));
            matrix.push(col);
        }

        // Bookkeeping in device-id order: which epochs each lane reports,
        // the fresh spends, exclusions and drops.
        let mut spends = Vec::new();
        let mut reporting: Vec<(u32, usize, usize)> = Vec::new();
        for id in start..end {
            let off = (id - start) as usize;
            let Some(lane) = lane_of[off] else {
                let s = sidecars[off].as_ref().expect("faulty ids run the sidecar");
                if s.excluded {
                    r.excluded.push(id);
                }
                r.dropped += usize::from(s.dropped);
                spends.extend_from_slice(&s.spends);
                continue;
            };
            if array.is_excluded(lane) {
                r.excluded.push(id);
                continue;
            }
            let mut reported = 0;
            for (epoch, col) in matrix.iter().enumerate() {
                match col[lane] {
                    LaneOutcome::Fresh { charge, .. } => spends.push((id, epoch as u32, charge)),
                    LaneOutcome::Cached { .. } => {}
                    LaneOutcome::Dropped => {
                        r.dropped += 1;
                        break;
                    }
                }
                reported += 1;
            }
            reporting.push((id, lane, reported));
        }
        let device_epochs: usize = reporting.iter().map(|&(_, _, k)| k).sum();

        // The chunk's own ledger and charge list, which the driver fills
        // beside the spends although `run_service` never reads them back.
        tr.time("ldp.ledger.record", spends.len() as u64, || {
            let mut ledger = BudgetLedger::new();
            let mut charges = Vec::with_capacity(spends.len());
            for &(_, _, charge) in &spends {
                ledger.record(charge);
                charges.push(charge);
            }
            black_box((ledger, charges));
        });

        let bits = tr.time("ldp.rr.privatize", device_epochs as u64, || {
            let mut bits = Vec::with_capacity(device_epochs);
            for &(id, _, k) in &reporting {
                let mut rng = Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(id), 2]));
                let above = self.codes_k[id as usize] >= cfg.threshold_code;
                for _ in 0..k {
                    bits.push(self.rr.privatize(above, &mut rng));
                }
            }
            bits
        });
        let wire = tr.time("fleet.wire.encode", 2 * device_epochs as u64, || {
            let mut wire = Vec::with_capacity(2 * device_epochs * FRAME_LEN);
            let mut bit = bits.iter();
            for &(id, lane, k) in &reporting {
                for (epoch, col) in matrix.iter().take(k).enumerate() {
                    let y = match col[lane] {
                        LaneOutcome::Fresh { y, .. } | LaneOutcome::Cached { y } => y,
                        LaneOutcome::Dropped => unreachable!("reporting epochs precede a drop"),
                    };
                    let epoch = epoch as u32;
                    Report::new(id, VALUE_QUERY, epoch, Payload::Value(y as i32))
                        .encode_into(&mut wire);
                    let b = *bit.next().expect("one RR bit per device-epoch");
                    Report::new(id, RR_QUERY, epoch, Payload::RrBit(b)).encode_into(&mut wire);
                }
            }
            wire
        });
        r.frames_encoded += 2 * device_epochs as u64;

        // Uplink, device by device in id order — the order deliveries land
        // in each round's bucket.
        let span = tr.enter("fleet.chaos.transmit");
        let mut buckets = RoundBuckets::new(self.rounds);
        let mut attempts = 0u64;
        let mut frames = wire.chunks_exact(FRAME_LEN);
        let mut next = reporting.iter().peekable();
        let chaos_for = |id: u32| cfg.chaos.as_ref().map(|c| DeviceChaos::new(c, id));
        for id in start..end {
            if let Some(s) = &sidecars[(id - start) as usize] {
                let mut chaos = chaos_for(id);
                for (epoch, frame) in &s.frames {
                    attempts += transmit(
                        cfg.retry_budget,
                        chaos.as_mut(),
                        frame,
                        *epoch,
                        &mut buckets,
                    );
                }
                r.frames_encoded += s.frames.len() as u64;
            } else if let Some(&(_, _, k)) = next.next_if(|&&(d, _, _)| d == id) {
                let mut chaos = chaos_for(id);
                for epoch in 0..k {
                    for _ in 0..2 {
                        let frame: &[u8; FRAME_LEN] = frames
                            .next()
                            .expect("one frame per report")
                            .try_into()
                            .expect("exact chunks");
                        attempts +=
                            transmit(cfg.retry_budget, chaos.as_mut(), frame, epoch, &mut buckets);
                    }
                }
            }
        }
        tr.exit(span, attempts);
        r.attempts += attempts;
        Ok(Chunk {
            frames: buckets.finalize(),
            spends,
        })
    }
}

/// The service side of the replay: offers, drains and seals, each timed,
/// with the staging the service does not expose tracked alongside.
struct Ingest {
    service: FleetService,
    staged_frames: u64,
    pending: Vec<Instant>,
}

impl Ingest {
    fn offer(&mut self, lane: usize, bytes: &[u8], tr: &mut Tracer, r: &mut Replay) {
        if bytes.is_empty() {
            return;
        }
        if !self.try_offer(lane, bytes, tr, r) {
            // Typed backpressure: drain, then retry the same bytes — an
            // empty lane always admits.
            self.drain(tr, r);
            assert!(self.try_offer(lane, bytes, tr, r), "a drained lane admits");
        }
    }

    fn try_offer(&mut self, lane: usize, bytes: &[u8], tr: &mut Tracer, r: &mut Replay) -> bool {
        let frames = bytes.len().div_ceil(FRAME_LEN) as u64;
        r.offers += 1;
        let ok = tr.time("fleet.service.offer", frames, || {
            self.service.offer(lane, bytes).is_ok()
        });
        if ok {
            self.staged_frames += frames;
            self.pending.push(Instant::now());
        } else {
            r.busy += 1;
        }
        ok
    }

    fn drain(&mut self, tr: &mut Tracer, r: &mut Replay) {
        let now = Instant::now();
        r.queue_wait_ns
            .extend(self.pending.drain(..).map(|t| (now - t).as_nanos() as u64));
        let frames = self.staged_frames;
        tr.time("fleet.service.drain", frames, || self.service.drain());
        r.frames_drained += frames;
        self.staged_frames = 0;
    }

    /// Seals the active window. The drain `seal_active` starts with runs
    /// first, in its own span, so the seal span holds the fold, the
    /// window's ledger audit and the rollup absorb.
    fn seal(
        &mut self,
        ledger: BudgetLedger,
        charges: Vec<f64>,
        expected: u64,
        tr: &mut Tracer,
        r: &mut Replay,
    ) -> Result<(), String> {
        self.drain(tr, r);
        tr.time("fleet.service.seal_active", 1, || {
            self.service
                .seal_active(ledger, charges, expected)
                .map(|_| ())
        })
        .map_err(|e| e.to_string())
    }
}

/// Replays workload `w` through the layers, recording spans into `tr`.
/// `model` is the driver's noise model (`FleetDriver::model`).
pub fn replay(w: &Workload, model: &NoiseModel, tr: &mut Tracer) -> Result<Replay, String> {
    let cfg = &w.fleet;
    let svc = &w.service;
    let mut r = Replay::default();
    let root = tr.enter(ROOT_SPAN);

    let mut spec = cfg.spec.clone();
    spec.entries = cfg.devices;
    let truth = tr
        .time("eval.setup.prepare", cfg.devices as u64, || {
            GroundTruth::prepare(&spec, 2f64.powi(-i32::from(cfg.eps_shift)), cfg.seed)
        })
        .map_err(|e| e.to_string())?;
    let max_code = 1i64 << cfg.adc_bits;
    let fleet = Fleet {
        cfg,
        codes_k: &truth.codes_k,
        rr: model.rr().map_err(|e| e.to_string())?,
        max_code,
        array_cfg: DeviceArrayConfig {
            word_bits: cfg.word_bits,
            frac_bits: 0,
            bu: cfg.bu,
            cordic_iterations: 24,
            segment_multiples: cfg.multiples.clone(),
            health: health()?,
            budget_raw: cfg.budget_raw,
            eps_shift: cfg.eps_shift,
            range_lower: 0,
            range_upper: max_code,
        },
        rounds: rounds(cfg),
    };
    let mut chunks = Vec::new();
    for start in (0..cfg.devices as u32).step_by(cfg.chunk) {
        let end = (start as usize + cfg.chunk).min(cfg.devices) as u32;
        chunks.push(fleet.chunk(start, end, tr, &mut r)?);
    }
    let malformed_calls = 4 * (cfg.malformed_senders as u64) * u64::from(cfg.epochs);
    let malformed: Vec<Vec<u8>> = tr.time("fleet.wire.encode", malformed_calls, || {
        (0..cfg.epochs)
            .map(|epoch| {
                let mut bytes = Vec::new();
                for m in 0..cfg.malformed_senders {
                    for burst in 0..4 {
                        let id = (cfg.devices + m) as u32;
                        Report::new(id, 0x7FFF, epoch, Payload::Value(burst))
                            .encode_into(&mut bytes);
                    }
                }
                bytes
            })
            .collect()
    });

    // The fleet-wide keyed double-spend audit and the ε-spend digest, then
    // each window's share of the ledger, all in (chunk, device, epoch)
    // order.
    let spends: u64 = chunks.iter().map(|c| c.spends.len() as u64).sum();
    r.double_spends = tr.time("ldp.ledger.record_spend", spends, || {
        let mut keyed = BudgetLedger::new();
        let mut refused = 0u64;
        for &(device, epoch, charge) in chunks.iter().flat_map(|c| &c.spends) {
            refused += u64::from(
                keyed
                    .record_spend(u64::from(device), u64::from(epoch), charge)
                    .is_err(),
            );
        }
        refused
    });
    r.ledger_digest = tr.time("fleet.driver.ledger_digest", spends, || {
        spend_digest(chunks.iter().flat_map(|c| c.spends.iter().copied()))
    });
    let spans = window_spans(cfg.epochs, svc.window_epochs);
    let (mut ledgers, mut charges) = tr.time("ldp.ledger.record_spend", spends, || {
        let mut ledgers: Vec<BudgetLedger> = spans.iter().map(|_| BudgetLedger::new()).collect();
        let mut charges: Vec<Vec<f64>> = spans.iter().map(|_| Vec::new()).collect();
        for &(device, epoch, charge) in chunks.iter().flat_map(|c| &c.spends) {
            let w = (epoch / svc.window_epochs) as usize;
            if ledgers[w]
                .record_spend(u64::from(device), u64::from(epoch), charge)
                .is_ok()
            {
                charges[w].push(charge);
            }
        }
        (ledgers, charges)
    });
    let included = (cfg.devices - r.excluded.len()) as u64;
    let expected = |w: usize| 2 * u64::from(spans[w].1 - spans[w].0) * included;

    let collector = tr.time("fleet.collector.new", 1, || {
        fleet_collector(cfg, model).with_device_capacity(device_capacity(cfg))
    });
    let lanes = chunks.len() + 1;
    let mut ing = Ingest {
        service: FleetService::new(collector, svc.clone(), lanes, cfg.epochs),
        staged_frames: 0,
        pending: Vec::new(),
    };
    let mut next_seal = 0usize;
    for round in 0..fleet.rounds {
        for (lane, chunk) in chunks.iter().enumerate() {
            ing.offer(lane, &chunk.frames[round], tr, &mut r);
        }
        if let Some(bytes) = malformed.get(round) {
            ing.offer(chunks.len(), bytes, tr, &mut r);
        }
        while ing.service.seal_due(round as u32 + 1) {
            let (l, c) = (
                std::mem::take(&mut ledgers[next_seal]),
                std::mem::take(&mut charges[next_seal]),
            );
            ing.seal(l, c, expected(next_seal), tr, &mut r)?;
            next_seal += 1;
        }
    }
    while ing.service.active_window().is_some() {
        let (l, c) = (
            std::mem::take(&mut ledgers[next_seal]),
            std::mem::take(&mut charges[next_seal]),
        );
        ing.seal(l, c, expected(next_seal), tr, &mut r)?;
        next_seal += 1;
    }
    ing.drain(tr, &mut r);

    let service = &ing.service;
    tr.time("fleet.service.snapshot", 1, || service.snapshot(model))
        .map_err(|e| e.to_string())?;
    let rollup = tr.time("fleet.window.rollup_finalize", 1, || {
        service.rollup().finalize(svc.quorum)
    });
    r.truths = tr.time("fleet.driver.included_truths", cfg.devices as u64, || {
        included_truths(&truth.codes_k, &r.excluded, cfg.threshold_code)
    });
    let queries = service.collector().queries();
    let numeric = queries
        .iter()
        .position(|q| matches!(q.kind, QueryKind::Numeric { .. }));
    let rr_query = queries
        .iter()
        .position(|q| matches!(q.kind, QueryKind::RrBit));
    r.rollup_estimates = tr.time("fleet.estimator.rollup", 4, || -> Result<_, String> {
        let values = numeric.map(|q| &rollup.totals[q]);
        let mean = values.and_then(|t| model.mean(t));
        let variance = values.and_then(|t| model.variance(t));
        let median = values.and_then(|t| model.median(t));
        let frequency = match rr_query {
            Some(q) => model
                .rr_frequency(&rollup.totals[q])
                .map_err(|e| e.to_string())?,
            None => None,
        };
        Ok([mean, variance, median, frequency])
    })?;
    let sealed = service.sealed_windows();
    r.window_digests = tr.time("fleet.window.digest", sealed.len() as u64, || {
        sealed.iter().map(|w| w.digest()).collect()
    });
    r.stats = service.stats();
    r.windows_sealed = sealed.len();
    r.ledger_entries = rollup.ledger.len();
    r.rollup_digest = rollup.digest;
    r.audit_ok = rollup.audit_ok;
    r.quarantined = service.collector().quarantined_devices();
    tr.exit(root, 1);

    // `seal_active` audited each window inside its seal span. Audit each
    // again here, outside the root, so `BudgetLedger::audit` is timed on
    // its own and the root times no work twice.
    for w in sealed {
        let mut accountant = CompositionLedger::new();
        for &c in &w.charges {
            accountant.record(c);
        }
        let ok = tr.time("ldp.ledger.audit", w.ledger.len() as u64, || {
            w.ledger.audit(&accountant).is_ok()
        });
        r.audits_failed += u64::from(!ok);
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbench::{check_outcome, WORKLOADS};
    use ulp_fleet::{FleetDriver, ServiceConfig};

    fn run(name: &str, seed: u64) -> (Workload, ServiceOutcome, Replay, Tracer) {
        let w = Workload::new(name, seed, true).unwrap();
        let driver = FleetDriver::new(w.fleet.clone()).unwrap();
        let o = driver.run_service(&w.service).unwrap();
        let mut tr = Tracer::new("test".into());
        let r = replay(&w, driver.model(), &mut tr).unwrap();
        (w, o, r, tr)
    }

    #[test]
    fn replay_does_the_work_of_run_service_on_every_workload() {
        for name in WORKLOADS {
            let (_, o, r, tr) = run(name, 5);
            assert_eq!(compare(&r, &o), Vec::<String>::new(), "{name}");
            // The repeated audits sit outside the root, one per window.
            let audits: Vec<_> = tr
                .spans()
                .iter()
                .filter(|s| s.name == "ldp.ledger.audit")
                .collect();
            assert_eq!(audits.len(), o.windows_sealed, "{name}");
            assert!(audits.iter().all(|s| s.parent.is_none()), "{name}");
        }
    }

    #[test]
    fn every_mismatch_trips_the_replay_check() {
        let (_, o, r, _) = run("chaos_25k", 5);
        let plant = |fault: fn(&mut Replay), expect: &str| {
            let mut bad = r.clone();
            fault(&mut bad);
            let found = compare(&bad, &o);
            assert!(
                found.iter().any(|m| m.contains(expect)),
                "{expect}: {found:?}"
            );
        };
        plant(|r| r.stats.accepted += 1, "accepted");
        plant(|r| r.stats.rejected += 1, "rejected");
        plant(|r| r.stats.duplicates += 1, "duplicates");
        plant(|r| r.stats.late += 1, "late");
        plant(|r| r.windows_sealed -= 1, "windows");
        plant(|r| r.ledger_entries += 1, "ledger entries");
        plant(|r| r.excluded.push(0), "excluded");
        plant(|r| r.dropped += 1, "dropped");
        plant(|r| r.double_spends += 1, "double-spends");
        plant(|r| r.attempts += 1, "retransmissions");
        plant(|r| r.busy += 1, "busy refusals");
        plant(|r| r.ledger_digest ^= 1, "ledger digest");
        plant(|r| r.rollup_digest ^= 1, "rollup digest");
        plant(|r| r.truths.median += 1.0, "truth median");
        plant(|r| r.truths.fraction *= 0.5, "truth fraction");
        plant(|r| r.window_digests[0] ^= 1, "window digests");
        plant(|r| r.rollup_estimates[0] = None, "rollup mean");
        plant(
            |r| {
                if let Some(e) = r.rollup_estimates[3].as_mut() {
                    e.value += 1e-9;
                }
            },
            "rollup RR frequency",
        );
        plant(
            |r| {
                r.quarantined.pop();
            },
            "quarantined",
        );
        plant(|r| r.audits_failed = 1, "audit");
    }

    #[test]
    fn a_swapped_window_ledger_trips_the_audit_check() {
        let rr = QueryConfig {
            id: 0,
            kind: QueryKind::RrBit,
        };
        let mut service =
            FleetService::new(Collector::new(1, &[rr]), ServiceConfig::new(1, 64), 1, 2);
        let (mut first, mut second) = (BudgetLedger::new(), BudgetLedger::new());
        first.record(0.5);
        second.record(0.25);
        second.record(0.25);
        // Each window sealed with the other's ledger but its own charges.
        assert!(!service.seal_active(second, vec![0.5], 0).unwrap().audit_ok);
        assert!(
            !service
                .seal_active(first, vec![0.25, 0.25], 0)
                .unwrap()
                .audit_ok
        );
        let rollup = service.rollup().finalize(0.9);
        assert!(!rollup.audit_ok);

        let (w, o, _, _) = run("stream_25k", 5);
        let mut swapped = o.clone();
        swapped.audit_ok = rollup.audit_ok;
        let fails = check_outcome(&w, &swapped);
        assert!(
            fails.iter().any(|f| f.contains("ledger audit failed")),
            "{fails:?}"
        );
    }
}
