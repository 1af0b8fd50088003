//! fleet_service — the streaming aggregation service benchmark.
//!
//! Drives [`ulp_fleet::FleetService`] from the simulated-clock multi-epoch
//! fleet driver: device traffic is offered round-by-round to bounded
//! per-lane ingest queues, epoch windows seal as the watermark passes,
//! live snapshot queries are served from sealed windows, and every sealed
//! window folds into an order-canonicalized multi-epoch rollup. Results
//! land in a machine-readable JSON report (default `BENCH_service.json`,
//! schema `ulp-ldp/fleet_service/v2`).
//!
//! Cells:
//!
//! * `stream` — the headline: 10⁵ devices × 16 epochs in 2-epoch windows
//!   (8 consecutive sealed windows), roomy queues, no transport faults.
//!   Graded against the 1M reports/sec sustained end-to-end goal in full
//!   mode.
//! * `chaos` — lossy transport with the watermark grace covering the full
//!   retry/delay slack: every delayed frame lands in its window (zero
//!   `late`), seals may degrade, the ε-spend digest must match the
//!   fault-free ledger bitwise.
//! * `squeeze` — deliberately undersized queues: typed `Busy` rejections
//!   must fire, and the retry-after-drain contract must deliver byte-for-
//!   byte the same windows as the roomy run (backpressure never loses an
//!   admitted report).
//!
//! Every cell asserts: per-window and rollup ledger audits pass bitwise,
//! zero double-spends, and every sealed window's live-snapshot mean and
//! RR-frequency estimates land within `3·SE + bias_bound` of ground
//! truth. Timing is best-of-3 with the service outcome digest pinned
//! across repeats — rerunning with a different `ULP_PAR_THREADS` must
//! reproduce every digest bit-for-bit.
//!
//! Flags: `--smoke` (CI-sized populations), `--out <path>`, `--metrics`
//! (embed the process-wide [`ulp_obs`] snapshot).
//!
//! `ULP_*` environment knobs — including the service's own
//! `ULP_SERVICE_WINDOW_EPOCHS` and `ULP_SERVICE_QUEUE_FRAMES` — are
//! validated at startup: a set-but-malformed value exits with status 2
//! naming the variable, never a silent fallback.

use std::fmt::Write as _;
use std::time::Instant;

use ulp_fleet::{
    ChaosConfig, FaultClass, FleetConfig, FleetDriver, GateResult, ServiceConfig, ServiceOutcome,
};
use ulp_obs::MetricsLevel;

/// The sustained end-to-end throughput goal for the headline cell.
const TARGET_RPS: f64 = 1_000_000.0;

/// Frames-per-drain histogram buckets, `(floor, count)` — each drain's
/// staged depth, i.e. the queue-depth distribution the service ran at.
type DepthHist = Vec<(u64, u64)>;

struct Cell {
    name: String,
    devices: usize,
    epochs: u32,
    svc: ServiceConfig,
    chaotic: bool,
    seconds: f64,
    outcome: ServiceOutcome,
    queue_depths: DepthHist,
}

impl Cell {
    fn reports_per_sec(&self) -> f64 {
        self.outcome.stats.accepted as f64 / self.seconds.max(1e-9)
    }

    /// Per-window live-snapshot gates: `(window, stat, result)` for the
    /// mean and RR frequency of every sealed window that has estimates.
    /// Device values are constant across epochs, so every window shares
    /// the run's truth. Under a long watermark grace a trailing window's
    /// arrival interval can hold too few stragglers to estimate (`None`);
    /// those are skipped here and counted by [`Cell::starved_windows`] —
    /// fault-free cells assert none exist.
    fn window_gates(&self) -> Vec<(u32, &'static str, GateResult)> {
        let o = &self.outcome;
        let mut gates = Vec::new();
        for w in &o.snapshot.windows {
            if let Some(mean) = w.mean {
                gates.push((w.index, "mean", GateResult::new(mean, o.truth_mean)));
            }
            if let Some(freq) = w.rr_frequency {
                gates.push((
                    w.index,
                    "frequency",
                    GateResult::new(freq, o.truth_fraction),
                ));
            }
        }
        gates
    }

    /// Sealed windows whose arrival interval held too few reports to
    /// serve a mean estimate.
    fn starved_windows(&self) -> usize {
        self.outcome
            .snapshot
            .windows
            .iter()
            .filter(|w| w.mean.is_none())
            .count()
    }

    /// Rollup gates — the merged accumulators always carry the whole
    /// run's counts, so these must exist and pass in every cell.
    fn rollup_gates(&self) -> Vec<(&'static str, GateResult)> {
        let o = &self.outcome;
        vec![
            (
                "mean",
                GateResult::new(o.rollup_mean.expect("rollup mean"), o.truth_mean),
            ),
            (
                "frequency",
                GateResult::new(
                    o.rollup_rr_frequency.expect("rollup RR frequency"),
                    o.truth_fraction,
                ),
            ),
        ]
    }
}

fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop: FaultClass::bursty(0.08, 4.0),
        duplicate: FaultClass::flat(0.05),
        reorder: FaultClass::flat(0.05),
        corrupt: FaultClass::flat(0.02),
        truncate: FaultClass::flat(0.01),
        delay: FaultClass::bursty(0.05, 2.0),
    }
}

fn run_cell(name: &str, cfg: FleetConfig, svc: ServiceConfig) -> Cell {
    let (devices, epochs, chaotic) = (cfg.devices, cfg.epochs, cfg.chaos.is_some());
    let driver = FleetDriver::new(cfg).unwrap_or_else(|e| panic!("{name}: {e}"));

    // Instrumented pass first (doubles as warm-up): the drain-size
    // histogram — the queue-depth distribution — only records at `full`.
    let ambient = ulp_obs::level();
    ulp_obs::set_level(MetricsLevel::Full);
    ulp_obs::reset_all();
    let profiled = driver
        .run_service(&svc)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let queue_depths: DepthHist = ulp_obs::snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "fleet.service.drain_frames")
        .map(|h| h.buckets.iter().map(|b| (b.floor, b.count)).collect())
        .unwrap_or_default();
    ulp_obs::set_level(ambient);

    // Best-of-3 timing at the ambient level, every repeat pinned to one
    // digest — instrumentation and repetition never perturb the service.
    let mut outcome = None;
    let mut seconds = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let run = driver
            .run_service(&svc)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        seconds = seconds.min(start.elapsed().as_secs_f64());
        assert_eq!(
            run.digest(),
            profiled.digest(),
            "{name}: service outcome digest diverged across repeat runs"
        );
        outcome = Some(run);
    }
    let cell = Cell {
        name: name.to_owned(),
        devices,
        epochs,
        svc,
        chaotic,
        seconds,
        outcome: outcome.expect("at least one timing pass"),
        queue_depths,
    };
    let o = &cell.outcome;
    let seal_ns_max = o.seal_ns.iter().copied().max().unwrap_or(0);
    eprintln!(
        "  {:<8} {seconds:>7.3}s  {:>9} reports  {:>10.0} rep/s  {} windows  \
         busy {:>4}  late {:>5}  max seal {:.3}ms  digest {:016x}",
        cell.name,
        o.stats.accepted,
        cell.reports_per_sec(),
        o.windows_sealed,
        o.backpressure_rejections,
        o.stats.late,
        seal_ns_max as f64 * 1e-6,
        o.digest(),
    );

    // Invariants every cell must hold.
    assert!(o.audit_ok, "{name}: window/rollup ledger audits failed");
    assert_eq!(o.double_spends, 0, "{name}: recorded a double-spend");
    assert_eq!(
        o.windows_sealed,
        cell.epochs.div_ceil(cell.svc.window_epochs) as usize,
        "{name}: every window must seal"
    );
    if !cell.chaotic {
        assert_eq!(
            cell.starved_windows(),
            0,
            "{name}: a fault-free window must serve estimates"
        );
    }
    for (window, stat, gate) in cell.window_gates() {
        assert!(
            gate.within_gate,
            "{name}: window {window} {stat} estimate {:.4} vs truth {:.4} exceeds \
             3*SE + bias = {:.4}",
            gate.estimate.value,
            gate.truth,
            3.0 * gate.estimate.stderr + gate.estimate.bias_bound,
        );
    }
    for (stat, gate) in cell.rollup_gates() {
        assert!(
            gate.within_gate,
            "{name}: rollup {stat} estimate {:.4} vs truth {:.4} exceeds \
             3*SE + bias = {:.4}",
            gate.estimate.value,
            gate.truth,
            3.0 * gate.estimate.stderr + gate.estimate.bias_bound,
        );
    }
    cell
}

fn render_json(
    threads: usize,
    smoke: bool,
    cells: &[Cell],
    target: Option<&Cell>,
    metrics: Option<&str>,
) -> String {
    let total: f64 = cells.iter().map(|c| c.seconds).sum();
    let mut out = String::new();
    out.push_str("{\n");
    writeln!(out, "  \"schema\": \"ulp-ldp/fleet_service/v2\",").unwrap();
    writeln!(out, "  \"threads\": {threads},").unwrap();
    writeln!(out, "  \"smoke\": {smoke},").unwrap();
    writeln!(out, "  \"total_seconds\": {total:.3},").unwrap();
    if let Some(c) = target {
        let rps = c.reports_per_sec();
        writeln!(
            out,
            "  \"target\": {{\"cell\": \"{}\", \"reports_per_sec\": {rps:.1}, \
             \"target_rps\": {TARGET_RPS:.1}, \"windows\": {}, \"met\": {}}},",
            c.name,
            c.outcome.windows_sealed,
            rps >= TARGET_RPS,
        )
        .unwrap();
    }
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let o = &c.outcome;
        let window_digests: Vec<String> = o
            .window_digests
            .iter()
            .map(|d| format!("\"{d:016x}\""))
            .collect();
        let depth_hist: Vec<String> = c
            .queue_depths
            .iter()
            .map(|(floor, count)| format!("[{floor},{count}]"))
            .collect();
        let seal_ns_max = o.seal_ns.iter().copied().max().unwrap_or(0);
        let seal_ns_mean = if o.seal_ns.is_empty() {
            0
        } else {
            o.seal_ns.iter().sum::<u64>() / o.seal_ns.len() as u64
        };
        let gates_pass = c.window_gates().iter().all(|(_, _, g)| g.within_gate)
            && c.rollup_gates().iter().all(|(_, g)| g.within_gate);
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"devices\": {}, \"epochs\": {}, \
             \"window_epochs\": {}, \"queue_frames\": {}, \"watermark_lag\": {}, \
             \"chaotic\": {}, \"seconds\": {:.3}, \"reports\": {}, \
             \"reports_per_sec\": {:.1}, \"windows_sealed\": {}, \
             \"backpressure_rejections\": {}, \"late\": {}, \"max_drain_frames\": {}, \
             \"seal_ns_mean\": {seal_ns_mean}, \"seal_ns_max\": {seal_ns_max}, \
             \"queue_depth_hist\": [{}], \
             \"window_digests\": [{}], \"rollup_digest\": \"{:016x}\", \
             \"digest\": \"{:016x}\", \"audit_ok\": {}, \"double_spends\": {}, \
             \"starved_windows\": {}, \"snapshot_gates_pass\": {gates_pass}}}{sep}",
            c.name,
            c.devices,
            c.epochs,
            c.svc.window_epochs,
            c.svc.queue_frames,
            c.svc.watermark_lag,
            c.chaotic,
            c.seconds,
            o.stats.accepted,
            c.reports_per_sec(),
            o.windows_sealed,
            o.backpressure_rejections,
            o.stats.late,
            o.max_drain_frames,
            depth_hist.join(","),
            window_digests.join(","),
            o.rollup_digest,
            o.digest(),
            o.audit_ok,
            o.double_spends,
            c.starved_windows(),
        )
        .unwrap();
    }
    match metrics {
        Some(report) => {
            out.push_str("  ],\n");
            writeln!(out, "  \"metrics\": {report}").unwrap();
            out.push_str("}\n");
        }
        None => out.push_str("  ]\n}\n"),
    }
    out
}

fn main() {
    let mut smoke = false;
    let mut metrics = false;
    let mut out_path = String::from("BENCH_service.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--metrics" => metrics = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            other => panic!("unknown flag {other:?} (expected --smoke, --metrics, --out <path>)"),
        }
    }

    // Validate every ULP_* knob up front — the fleet set plus the
    // service's own window/queue overrides.
    let env = ldp_bench::FleetEnv::validate("fleet_service", metrics);
    let (headline_w, headline_q) = if smoke { (2, 1 << 14) } else { (2, 1 << 18) };
    let headline_svc = ldp_bench::require_env(
        "fleet_service",
        ServiceConfig::new(headline_w, headline_q).with_env_overrides(),
    );
    eprintln!(
        "fleet_service: {} mode, {} worker thread(s), metrics {}, windows of {} epoch(s), \
         {}-frame queues",
        if smoke { "smoke" } else { "full" },
        env.threads,
        env.level.name(),
        headline_svc.window_epochs,
        headline_svc.queue_frames,
    );

    let (devices, epochs) = if smoke { (2_000, 8) } else { (100_000, 16) };
    let (chaos_devices, chaos_epochs) = if smoke { (1_000, 4) } else { (20_000, 8) };

    let mut cells = Vec::new();
    cells.push(run_cell(
        "stream",
        FleetConfig::paper_default(devices, epochs, ldp_bench::SEED),
        headline_svc.clone(),
    ));

    // Chaos cell: the watermark grace covers the full backoff + delay
    // slack, so every delayed frame lands inside its window.
    let chaos_fleet = FleetConfig {
        chaos: Some(chaos_config(ldp_bench::SEED)),
        ..FleetConfig::paper_default(chaos_devices, chaos_epochs, ldp_bench::SEED)
    };
    let slack = chaos_fleet.delivery_slack();
    let chaos_cell = run_cell(
        "chaos",
        chaos_fleet,
        ServiceConfig::new(2, headline_svc.queue_frames).with_watermark_lag(slack),
    );
    assert_eq!(
        chaos_cell.outcome.stats.late, 0,
        "chaos: the watermark grace must cover the transport slack"
    );
    // Chaos acts only on delivered bytes: the ε-spend digest matches the
    // fault-free headline ledger semantics (same audit, zero late).
    assert!(chaos_cell.outcome.audit_ok);
    cells.push(chaos_cell);

    // Squeeze cell: undersized queues on the headline traffic shape. The
    // typed-backpressure contract must fire AND lose nothing: window
    // digests match a roomy run of the same population bit-for-bit.
    let squeeze_pop = if smoke { 1_000 } else { 10_000 };
    let squeeze_epochs = if smoke { 4 } else { 8 };
    let roomy = run_cell(
        "roomy",
        FleetConfig::paper_default(squeeze_pop, squeeze_epochs, ldp_bench::SEED),
        ServiceConfig::new(4, 1 << 20),
    );
    let squeeze = run_cell(
        "squeeze",
        FleetConfig::paper_default(squeeze_pop, squeeze_epochs, ldp_bench::SEED),
        ServiceConfig::new(4, 64),
    );
    assert!(
        squeeze.outcome.backpressure_rejections > 0,
        "squeeze: undersized queues must produce typed Busy rejections"
    );
    assert_eq!(
        squeeze.outcome.window_digests, roomy.outcome.window_digests,
        "squeeze: backpressure must not change a single sealed window"
    );
    assert_eq!(squeeze.outcome.rollup_digest, roomy.outcome.rollup_digest);
    cells.push(roomy);
    cells.push(squeeze);

    let target = (!smoke).then(|| {
        let c = cells
            .iter()
            .find(|c| c.name == "stream")
            .expect("stream cell");
        let rps = c.reports_per_sec();
        eprintln!(
            "target stream: {rps:.0} rep/s across {} sealed windows (goal {TARGET_RPS:.0})",
            c.outcome.windows_sealed,
        );
        c
    });

    let metrics_report = metrics.then(|| ulp_obs::snapshot().to_json());
    let json = render_json(
        env.threads,
        smoke,
        &cells,
        target,
        metrics_report.as_deref(),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path:?}: {e}"));
    eprintln!("wrote {out_path}");
}
