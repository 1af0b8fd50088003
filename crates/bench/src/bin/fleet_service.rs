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
//! Every cell runs through [`ldp_bench::fleet::run_cell`], which asserts:
//! per-window and rollup ledger audits pass bitwise, zero double-spends,
//! every window sealed, and every sealed window's live-snapshot and the
//! rollup's mean and RR-frequency estimates within `3·SE + bias_bound` of
//! ground truth. Timing is a warm-up at `full` (which records the
//! queue-depth histogram), then the best of 3 with the service outcome
//! digest pinned across repeats — rerunning with a different
//! `ULP_PAR_THREADS` must reproduce every digest bit-for-bit.
//!
//! Flags: `--smoke` (CI-sized populations), `--out <path>`, `--metrics`
//! (embed the process-wide [`ulp_obs`] snapshot).
//!
//! `ULP_*` environment knobs — including the service's own
//! `ULP_SERVICE_WINDOW_EPOCHS` and `ULP_SERVICE_QUEUE_FRAMES` — are
//! validated at startup: a set-but-malformed value exits with status 2
//! naming the variable, never a silent fallback.

use ldp_bench::fleet::{run_cell, Cell};
use ldp_bench::json::{Json, Obj};
use ldp_bench::{require_flag, unknown_flag};
use ulp_fleet::{ChaosConfig, FaultClass, FleetConfig, ServiceConfig};

/// The sustained end-to-end throughput goal for the headline cell.
const TARGET_RPS: f64 = 1_000_000.0;

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

fn cell_json(c: &Cell) -> Json {
    let o = &c.outcome;
    let seal_ns_max = o.seal_ns.iter().copied().max().unwrap_or(0);
    let seal_ns_mean = if o.seal_ns.is_empty() {
        0
    } else {
        o.seal_ns.iter().sum::<u64>() / o.seal_ns.len() as u64
    };
    let depth_hist = c
        .phases
        .drain_depths
        .iter()
        .map(|&(floor, count)| Json::Arr(vec![floor.into(), count.into()]))
        .collect();
    Obj::new()
        .with("name", c.name.as_str())
        .with("devices", c.cfg.devices)
        .with("epochs", c.cfg.epochs)
        .with("window_epochs", c.svc.window_epochs)
        .with("queue_frames", c.svc.queue_frames)
        .with("watermark_lag", c.svc.watermark_lag)
        .with("chaotic", c.cfg.chaos.is_some())
        .with("seconds", Json::Fixed(c.seconds, 3))
        .with("reports", o.stats.accepted)
        .with("reports_per_sec", Json::Fixed(c.reports_per_sec(), 1))
        .with("windows_sealed", o.windows_sealed)
        .with("backpressure_rejections", o.backpressure_rejections)
        .with("late", o.stats.late)
        .with("max_drain_frames", o.max_drain_frames)
        .with("seal_ns_mean", seal_ns_mean)
        .with("seal_ns_max", seal_ns_max)
        .with("queue_depth_hist", Json::Arr(depth_hist))
        .with(
            "window_digests",
            Json::Arr(o.window_digests.iter().map(|&d| Json::hex(d)).collect()),
        )
        .with("rollup_digest", Json::hex(o.rollup_digest))
        .with("digest", Json::hex(o.digest()))
        .with("audit_ok", o.audit_ok)
        .with("double_spends", o.double_spends)
        .with("starved_windows", c.gates.starved_windows)
        .with("snapshot_gates_pass", c.gates.pass())
        .into()
}

fn render_json(
    threads: usize,
    smoke: bool,
    cells: &[Cell],
    target: Option<&Cell>,
    metrics: Option<String>,
) -> String {
    let total: f64 = cells.iter().map(|c| c.seconds).sum();
    let mut doc = Obj::new()
        .with("schema", "ulp-ldp/fleet_service/v2")
        .with("threads", threads)
        .with("smoke", smoke)
        .with("total_seconds", Json::Fixed(total, 3));
    if let Some(c) = target {
        let rps = c.reports_per_sec();
        doc.push(
            "target",
            Obj::new()
                .with("cell", c.name.as_str())
                .with("reports_per_sec", Json::Fixed(rps, 1))
                .with("target_rps", Json::Fixed(TARGET_RPS, 1))
                .with("windows", c.outcome.windows_sealed)
                .with("met", rps >= TARGET_RPS),
        );
    }
    doc.push("cells", Json::Rows(cells.iter().map(cell_json).collect()));
    if let Some(report) = metrics {
        doc.push("metrics", Json::Raw(report));
    }
    doc.to_report()
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
            "--out" => out_path = require_flag("fleet_service", "--out", args.next(), "a path"),
            other => unknown_flag("fleet_service", other, "--smoke --metrics --out"),
        }
    }

    // Validate every ULP_* knob up front — the fleet set plus the
    // service's own window/queue overrides — and the report path.
    let env = ldp_bench::FleetEnv::validate("fleet_service", metrics);
    let (headline_w, headline_q) = if smoke { (2, 1 << 14) } else { (2, 1 << 18) };
    let headline_svc = ldp_bench::require_env(
        "fleet_service",
        ServiceConfig::new(headline_w, headline_q).with_env_overrides(),
    );
    ldp_bench::require_writable("fleet_service", &out_path);
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
        Some(headline_svc.clone()),
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
        Some(ServiceConfig::new(2, headline_svc.queue_frames).with_watermark_lag(slack)),
    );
    assert_eq!(
        chaos_cell.outcome.stats.late, 0,
        "chaos: the watermark grace must cover the transport slack"
    );
    cells.push(chaos_cell);

    // Squeeze cell: undersized queues on the headline traffic shape. The
    // typed-backpressure contract must fire AND lose nothing: window
    // digests match a roomy run of the same population bit-for-bit.
    let squeeze_pop = if smoke { 1_000 } else { 10_000 };
    let squeeze_epochs = if smoke { 4 } else { 8 };
    let roomy = run_cell(
        "roomy",
        FleetConfig::paper_default(squeeze_pop, squeeze_epochs, ldp_bench::SEED),
        Some(ServiceConfig::new(4, 1 << 20)),
    );
    let squeeze = run_cell(
        "squeeze",
        FleetConfig::paper_default(squeeze_pop, squeeze_epochs, ldp_bench::SEED),
        Some(ServiceConfig::new(4, 64)),
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
    let json = render_json(env.threads, smoke, &cells, target, metrics_report);
    ldp_bench::write_report("fleet_service", &out_path, &json);
    eprintln!("wrote {out_path}");
}
