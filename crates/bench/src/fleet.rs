//! The one fleet-cell runner behind `bench_fleet`, `chaos_campaign` and
//! `fleet_service`.
//!
//! A cell is one [`FleetDriver::run_service`] configuration. [`run_cell`]
//! builds its driver, makes one warm-up run at `ULP_METRICS=full` — the
//! run its [`Phases`] come from, since spans and histograms record only at
//! `full` — then three timed runs at the ambient level, and keeps the
//! fastest: on a shared host, noise only ever slows a run down. It then
//! holds the outcome to what every fleet artifact promises: all four runs
//! have one digest, the window and rollup ledger audits pass, no
//! `(device, epoch)` is spent twice, every window seals, no window starves
//! of estimates on a clean wire, and every sealed window's and the
//! rollup's mean and RR frequency, and the rollup's RR count, lie within
//! `3·SE + bias_bound` of the truth. A broken promise is returned, naming
//! the cell, and the binary ends on it with exit 1 before it writes a
//! report ([`crate::fail`]). What only one artifact promises — equal
//! digests across a shard sweep, the chaos baseline and quarantine, the
//! service's backpressure — stays in its binary.

use std::time::Instant;

use ulp_fleet::{
    decode_counter_totals, ingest_phase_totals, sim_phase_ns, DecodeCounterTotals, Estimate,
    FleetConfig, FleetDriver, IngestPhaseTotals, NoiseModel, ServiceConfig, ServiceOutcome,
};
use ulp_obs::MetricsLevel;

use crate::json::{Json, Obj};

/// The histogram of staged frames per drain: the queue depth the service
/// ran at.
const DRAIN_FRAMES: &str = "fleet.service.drain_frames";

/// One estimate lined up against its ground truth, gated at
/// `|estimate − truth| ≤ 3·SE + bias_bound`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The estimate (value, SE, report count, bias envelope).
    estimate: Estimate,
    /// The matching ground truth.
    truth: f64,
}

impl Gate {
    /// `|estimate − truth|`.
    fn abs_err(&self) -> f64 {
        (self.estimate.value - self.truth).abs()
    }

    /// `3·SE + bias_bound`.
    fn bound(&self) -> f64 {
        3.0 * self.estimate.stderr + self.estimate.bias_bound
    }

    /// Whether the error is within the bound.
    fn pass(&self) -> bool {
        self.abs_err() <= self.bound()
    }

    /// The gate as a report object; `with_n` adds the estimate's report
    /// count before `pass`.
    pub fn to_json(&self, with_n: bool) -> Obj {
        let mut obj = Obj::new()
            .with("estimate", Json::Fixed(self.estimate.value, 6))
            .with("truth", Json::Fixed(self.truth, 6))
            .with("abs_err", Json::Fixed(self.abs_err(), 6))
            .with("bound", Json::Fixed(self.bound(), 6));
        if with_n {
            obj.push("n", self.estimate.n);
        }
        obj.with("pass", self.pass())
    }
}

/// The accuracy gates of one outcome.
#[derive(Debug, Clone)]
pub struct Gates {
    /// The rollup's mean.
    pub mean: Gate,
    /// The rollup's RR frequency.
    pub frequency: Gate,
    /// The rollup's RR count.
    pub count: Gate,
    /// `(window, statistic, gate)` for the mean and the RR frequency of
    /// every sealed window that served them. Sensor values are constant
    /// across epochs, so every window shares the run's truth.
    windows: Vec<(u32, &'static str, Gate)>,
    /// Sealed windows whose arrival interval held too few reports to
    /// serve a mean (under a long watermark grace, a trailing window may
    /// hold only stragglers).
    pub starved_windows: usize,
}

impl Gates {
    /// Every gate with its label: each window's, then the rollup's.
    fn labelled(&self) -> impl Iterator<Item = (String, Gate)> + '_ {
        let windows = self
            .windows
            .iter()
            .map(|&(w, stat, gate)| (format!("window {w} {stat}"), gate));
        let rollup = [
            ("rollup mean", self.mean),
            ("rollup frequency", self.frequency),
            ("rollup count", self.count),
        ];
        windows.chain(rollup.map(|(label, gate)| (label.to_owned(), gate)))
    }

    /// Whether every gate passes.
    pub fn pass(&self) -> bool {
        self.labelled().all(|(_, gate)| gate.pass())
    }
}

/// What the warm-up run spent where: deltas of the process-wide spans,
/// counters and drain histogram across it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phases {
    /// Seconds in device simulation (`fleet.driver.simulate`).
    pub sim_s: f64,
    /// Seconds decoding and classifying wire bytes.
    pub decode_s: f64,
    /// Seconds in the shard pass (latch, dedup, absorb).
    pub accumulate_s: f64,
    /// Seconds folding shard accumulators.
    pub fold_s: f64,
    /// Frames decoded on the 20-byte grid.
    pub batch_frames: u64,
    /// Corrupt regions handed to the resync scanner (0 on a clean wire).
    pub fallback_chunks: u64,
    /// `(bucket floor, drains)` of the `fleet.service.drain_frames`
    /// histogram: each drain's staged depth.
    pub drain_depths: Vec<(u64, u64)>,
}

/// The cumulative totals [`Phases`] are differences of.
struct Totals {
    sim_ns: u64,
    ingest: IngestPhaseTotals,
    decode: DecodeCounterTotals,
    drains: Vec<(u64, u64)>,
}

impl Totals {
    fn now() -> Totals {
        let drains = ulp_obs::snapshot()
            .histograms
            .into_iter()
            .find(|h| h.name == DRAIN_FRAMES)
            .map(|h| h.buckets.iter().map(|b| (b.floor, b.count)).collect())
            .unwrap_or_default();
        Totals {
            sim_ns: sim_phase_ns(),
            ingest: ingest_phase_totals(),
            decode: decode_counter_totals(),
            drains,
        }
    }

    fn since(&self, before: &Totals) -> Phases {
        let seconds = |now: u64, then: u64| (now - then) as f64 * 1e-9;
        let drain_depths = self
            .drains
            .iter()
            .filter_map(|&(floor, count)| {
                let then = before
                    .drains
                    .iter()
                    .find(|b| b.0 == floor)
                    .map_or(0, |b| b.1);
                (count > then).then_some((floor, count - then))
            })
            .collect();
        Phases {
            sim_s: seconds(self.sim_ns, before.sim_ns),
            decode_s: seconds(self.ingest.decode_ns, before.ingest.decode_ns),
            accumulate_s: seconds(self.ingest.accumulate_ns, before.ingest.accumulate_ns),
            fold_s: seconds(self.ingest.fold_ns, before.ingest.fold_ns),
            batch_frames: self.decode.batch_frames - before.decode.batch_frames,
            fallback_chunks: self.decode.fallback_chunks - before.decode.fallback_chunks,
            drain_depths,
        }
    }
}

/// One cell, run and checked.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's name in the report.
    pub name: String,
    /// The fleet it ran.
    pub cfg: FleetConfig,
    /// The service the runs streamed through.
    pub svc: ServiceConfig,
    /// Wall time of the fastest timed run.
    pub seconds: f64,
    /// The warm-up run's phase split.
    pub phases: Phases,
    /// The fastest timed run's outcome.
    pub outcome: ServiceOutcome,
    /// Its accuracy gates, all passed.
    pub gates: Gates,
}

impl Cell {
    /// Reports accepted per second of the fastest timed run.
    pub fn reports_per_sec(&self) -> f64 {
        self.outcome.stats.accepted as f64 / self.seconds.max(1e-9)
    }
}

/// Runs one cell: the warm-up at `full`, then the best of three timed
/// runs at the ambient level, checked against what every fleet artifact
/// promises (see the module docs). `svc` is the service the runs stream
/// through; `None` runs the fleet as one window
/// ([`FleetDriver::one_window`]).
///
/// # Errors
///
/// One `name: message` line if the driver refuses `cfg`, a run fails, or
/// the outcome breaks a promise.
pub fn run_cell(name: &str, cfg: FleetConfig, svc: Option<ServiceConfig>) -> Result<Cell, String> {
    let named = |e: &dyn std::fmt::Display| format!("{name}: {e}");
    let driver = FleetDriver::new(cfg.clone()).map_err(|e| named(&e))?;
    let svc = svc.unwrap_or_else(|| driver.one_window());
    let run = || driver.run_service(&svc).map_err(|e| named(&e));

    // The warm-up also leaves allocator arenas and page mappings hot when
    // the clock starts, so cells compare whatever their order.
    let ambient = ulp_obs::level();
    ulp_obs::set_level(MetricsLevel::Full);
    let before = Totals::now();
    let warm_up = run();
    let phases = Totals::now().since(&before);
    ulp_obs::set_level(ambient);
    let warm_up = warm_up?;

    let mut digests = vec![warm_up.digest()];
    let mut fastest: Option<(f64, ServiceOutcome)> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let outcome = run()?;
        let seconds = start.elapsed().as_secs_f64();
        digests.push(outcome.digest());
        if fastest.as_ref().is_none_or(|(best, _)| seconds < *best) {
            fastest = Some((seconds, outcome));
        }
    }
    let (seconds, outcome) = fastest.expect("three timed runs");
    eprintln!(
        "  {name:<12} {seconds:>8.3}s  {:>9} reports  {:>10.0} rep/s  {} window(s)  \
         digest {:016x}",
        outcome.stats.accepted,
        outcome.stats.accepted as f64 / seconds.max(1e-9),
        outcome.windows_sealed,
        outcome.digest(),
    );
    let windows = cfg.epochs.div_ceil(svc.window_epochs) as usize;
    let gates = check(&outcome, windows, cfg.chaos.is_none(), &digests).map_err(|e| named(&e))?;
    Ok(Cell {
        name: name.to_owned(),
        cfg,
        svc,
        seconds,
        phases,
        outcome,
        gates,
    })
}

/// The module's promises for one outcome, given the `digests` of every
/// run of its cell, the `windows` it must seal and whether it ran on a
/// `clean_wire`. A pure function of its inputs, so tests can plant each
/// fault; `Err` holds the first broken promise.
fn check(
    outcome: &ServiceOutcome,
    windows: usize,
    clean_wire: bool,
    digests: &[u64],
) -> Result<Gates, String> {
    let o = outcome;
    if let Some(d) = digests.iter().find(|&&d| d != digests[0]) {
        return Err(format!(
            "outcome digest diverged across repeat runs: {:016x} then {d:016x}",
            digests[0]
        ));
    }
    if !o.audit_ok {
        return Err("window/rollup ledger audits failed".into());
    }
    if o.double_spends != 0 {
        return Err(format!("recorded {} double-spend(s)", o.double_spends));
    }
    if o.windows_sealed != windows {
        return Err(format!("sealed {} of {windows} windows", o.windows_sealed));
    }
    let starved_windows = o
        .snapshot
        .windows
        .iter()
        .filter(|w| w.mean.is_none())
        .count();
    if clean_wire && starved_windows > 0 {
        return Err(format!(
            "{starved_windows} window(s) served no estimate on a clean wire"
        ));
    }
    let (Some(mean), Some(frequency)) = (o.rollup_mean, o.rollup_rr_frequency) else {
        return Err("no rollup mean or RR frequency estimate".into());
    };
    let gate = |estimate, truth| Gate { estimate, truth };
    let count = NoiseModel::rr_count(frequency);
    let gates = Gates {
        mean: gate(mean, o.truth_mean),
        frequency: gate(frequency, o.truth_fraction),
        count: gate(count, o.truth_fraction * count.n as f64),
        windows: o
            .snapshot
            .windows
            .iter()
            .flat_map(|w| {
                let mean = w.mean.map(|e| (w.index, "mean", gate(e, o.truth_mean)));
                let freq = w
                    .rr_frequency
                    .map(|e| (w.index, "frequency", gate(e, o.truth_fraction)));
                mean.into_iter().chain(freq)
            })
            .collect(),
        starved_windows,
    };
    if let Some((label, g)) = gates.labelled().find(|(_, g)| !g.pass()) {
        return Err(format!(
            "{label} estimate {:.4} vs truth {:.4} exceeds 3*SE + bias = {:.4} \
             (SE from {} reports)",
            g.estimate.value,
            g.truth,
            g.bound(),
            g.estimate.n,
        ));
    }
    Ok(gates)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`run_cell`], one call at a time: the runner sets the process-wide
    /// metrics level, so two concurrent runs would blur each other's
    /// warm-up.
    fn run_alone(name: &str, cfg: FleetConfig, svc: Option<ServiceConfig>) -> Result<Cell, String> {
        static RUNNER: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _alone = RUNNER.lock().unwrap_or_else(|e| e.into_inner());
        run_cell(name, cfg, svc)
    }

    /// A small windowed cell: 256 devices, 4 epochs, 2-epoch windows, run
    /// once per process.
    fn small_cell() -> &'static Cell {
        static CELL: std::sync::OnceLock<Cell> = std::sync::OnceLock::new();
        CELL.get_or_init(|| {
            run_alone(
                "small",
                FleetConfig::paper_default(256, 4, 2018),
                Some(ServiceConfig::new(2, 1 << 14)),
            )
            .expect("the small cell keeps every promise")
        })
    }

    #[test]
    fn a_broken_promise_is_returned_naming_the_cell() {
        // One device serves no window estimate on a clean wire.
        let err = run_alone("tiny", FleetConfig::paper_default(1, 1, 2018), None).unwrap_err();
        assert_eq!(err, "tiny: 1 window(s) served no estimate on a clean wire");
        // A fleet the driver refuses is returned the same way.
        let zero_epochs = FleetConfig::paper_default(8, 0, 2018);
        let err = run_alone("empty", zero_epochs, None).unwrap_err();
        assert!(err.starts_with("empty: "), "{err}");
    }

    #[test]
    fn a_small_cell_passes_the_runner() {
        let cell = small_cell();
        assert_eq!(cell.outcome.windows_sealed, 2);
        assert_eq!(cell.gates.windows.len(), 4, "mean and frequency per window");
        assert_eq!(cell.gates.starved_windows, 0);
        assert!(cell.gates.pass());
        assert!(cell.seconds > 0.0 && cell.reports_per_sec() > 0.0);
        // The warm-up ran at `full`, so its drains were recorded.
        assert!(!cell.phases.drain_depths.is_empty());
        assert!(cell.phases.batch_frames > 0);
    }

    #[test]
    fn each_planted_fault_trips_the_check() {
        let cell = small_cell();
        let digests = [cell.outcome.digest(); 4];
        let clean = |o: &ServiceOutcome, digests: &[u64]| check(o, 2, true, digests);
        assert!(clean(&cell.outcome, &digests).is_ok());

        // The truth moved just past the rollup mean's 3·SE + bias.
        let mut shifted = cell.outcome.clone();
        shifted.truth_mean = cell.gates.mean.estimate.value + cell.gates.mean.bound() * 1.001;
        let err = clean(&shifted, &digests).unwrap_err();
        assert!(err.contains("mean") && err.contains("exceeds"), "{err}");

        let mut short = cell.outcome.clone();
        short.windows_sealed -= 1;
        let err = clean(&short, &digests).unwrap_err();
        assert!(err.contains("sealed 1 of 2 windows"), "{err}");

        let mut repeats = digests;
        repeats[2] ^= 1;
        let err = clean(&cell.outcome, &repeats).unwrap_err();
        assert!(err.contains("diverged"), "{err}");

        let mut spent_twice = cell.outcome.clone();
        spent_twice.double_spends = 1;
        let err = clean(&spent_twice, &digests).unwrap_err();
        assert!(err.contains("double-spend"), "{err}");
    }
}
