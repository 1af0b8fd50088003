//! bench_fleet — the fleet-scale aggregation benchmark.
//!
//! Sweeps the simulated DP-Box fleet across population sizes (and, at a
//! fixed population, across collector shard counts), timing the full
//! pipeline — device simulation, wire encoding, sharded ingest, estimation,
//! ledger audit — as one-window [`ulp_fleet::FleetDriver::run_service`]
//! runs, and writes a machine-readable JSON report (default
//! `BENCH_fleet.json`, schema `ulp-ldp/bench_fleet/v4`).
//!
//! Each cell records:
//!
//! * throughput (reports ingested per second), plus the phase breakdown —
//!   device simulation (`fleet.driver.simulate`), decode, accumulate,
//!   fold — attributed from the span timers, with sim-only, decode-only,
//!   and accumulate-only throughput derived from the same deltas;
//! * the streaming-decode counters: `fleet.decode.batch_frames`, the
//!   frames decoded on the 20-byte grid, and `fleet.decode.fallback_chunks`,
//!   the corrupt regions handed to the resync scanner (0 on a clean
//!   stream);
//! * the [`ulp_fleet::ServiceOutcome`] determinism digest — rerunning with a
//!   different `ULP_PAR_THREADS` must reproduce every digest bit-for-bit;
//! * the accuracy gates: mean, RR frequency, and RR count must land within
//!   `3·SE + bias_bound` of ground truth. A gate failure aborts the run —
//!   a benchmark that quietly reports wrong estimates is worse than none.
//!
//! Full (non-smoke) reports also carry a `target` block grading the
//! 10⁶-device cell against the 1M reports/sec end-to-end goal (no
//! single-core fallback: the batch device engine plus flat-table
//! accumulate is expected to clear it on one core).
//!
//! Flags:
//!
//! * `--smoke` — tiny populations (CI-friendly, seconds not minutes);
//! * `--out <path>` — where to write the JSON report;
//! * `--metrics` — embed the process-wide [`ulp_obs`] snapshot in the JSON
//!   report.
//!
//! `ULP_*` environment knobs are validated at startup: a set-but-malformed
//! value exits with status 2 naming the variable — never a silent fallback.
//!
//! Each cell runs through [`ldp_bench::fleet::run_cell`]: a warm-up run
//! at level `full` gives the phase breakdown, and throughput is the best
//! of three timed runs at the ambient metrics level (host noise only ever
//! slows a run down). All runs of a cell must produce one digest —
//! instrumentation and repetition never perturb the pipeline.

use ldp_bench::fleet::{run_cell, Cell};
use ldp_bench::json::{Json, Obj};
use ldp_bench::{require_flag, unknown_flag};
use ulp_fleet::FleetConfig;

/// The `n1000000` end-to-end throughput from the committed v2 baseline
/// (`BENCH_fleet.json` before the batch device engine and flat-table
/// accumulate), on the single-core reference host. Reported for context
/// alongside the absolute target.
const V2_BASELINE_RPS: f64 = 683_323.7;
/// The headline end-to-end throughput goal for the 10⁶-device cell.
const TARGET_RPS: f64 = 1_000_000.0;

/// Reports per second through one phase alone (0 when the phase was not
/// timed).
fn phase_rps(c: &Cell, phase_seconds: f64) -> Json {
    let rps = if phase_seconds > 0.0 {
        c.outcome.stats.accepted as f64 / phase_seconds
    } else {
        0.0
    };
    Json::Fixed(rps, 1)
}

fn cell_json(c: &Cell) -> Json {
    let (o, p, g) = (&c.outcome, &c.phases, &c.gates);
    Obj::new()
        .with("name", c.name.as_str())
        .with("devices", o.devices_simulated)
        .with("shards", c.cfg.shards)
        .with("epochs", c.cfg.epochs)
        .with("seconds", Json::Fixed(c.seconds, 3))
        .with("reports", o.stats.accepted)
        .with("rejected", o.stats.rejected)
        .with("excluded", o.devices_excluded)
        .with("reports_per_sec", Json::Fixed(c.reports_per_sec(), 1))
        .with("sim_seconds", Json::Fixed(p.sim_s, 6))
        .with("decode_seconds", Json::Fixed(p.decode_s, 6))
        .with("accumulate_seconds", Json::Fixed(p.accumulate_s, 6))
        .with("fold_seconds", Json::Fixed(p.fold_s, 6))
        .with("sim_reports_per_sec", phase_rps(c, p.sim_s))
        .with("decode_reports_per_sec", phase_rps(c, p.decode_s))
        .with("accumulate_reports_per_sec", phase_rps(c, p.accumulate_s))
        .with("batch_frames", p.batch_frames)
        .with("fallback_chunks", p.fallback_chunks)
        .with("digest", Json::hex(o.digest()))
        .with("audit_ok", o.audit_ok)
        .with("mean", g.mean.to_json(false))
        .with("frequency", g.frequency.to_json(false))
        .with("count", g.count.to_json(false))
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
    let total_reports: u64 = cells.iter().map(|c| c.outcome.stats.accepted).sum();
    let mut doc = Obj::new()
        .with("schema", "ulp-ldp/bench_fleet/v4")
        .with("threads", threads)
        .with("smoke", smoke)
        .with("total_seconds", Json::Fixed(total, 3))
        .with("total_reports", total_reports);
    if let Some(c) = target {
        let rps = c.reports_per_sec();
        doc.push(
            "target",
            Obj::new()
                .with("cell", c.name.as_str())
                .with("reports_per_sec", Json::Fixed(rps, 1))
                .with("target_rps", Json::Fixed(TARGET_RPS, 1))
                .with("v2_baseline_rps", Json::Fixed(V2_BASELINE_RPS, 1))
                .with("speedup_vs_v2", Json::Fixed(rps / V2_BASELINE_RPS, 2))
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
    let mut out_path = String::from("BENCH_fleet.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--metrics" => metrics = true,
            "--out" => out_path = require_flag("bench_fleet", "--out", args.next(), "a path"),
            other => unknown_flag("bench_fleet", other, "--smoke --metrics --out"),
        }
    }

    // Validate every ULP_* knob up front: a typo exits with a clear message
    // naming the variable instead of silently selecting a default.
    // `--metrics` with no explicit ULP_METRICS raises the level to `full`
    // so the embedded snapshot actually contains data. (The per-cell phase
    // breakdown does not need this: it comes from each cell's warm-up
    // run at `full`, whatever the ambient level.)
    let env = ldp_bench::FleetEnv::validate("bench_fleet", metrics);
    ldp_bench::require_writable("bench_fleet", &out_path);
    let (threads, level) = (env.threads, env.level);
    eprintln!(
        "bench_fleet: {} mode, {threads} worker thread(s) (ULP_PAR_THREADS to override), \
         metrics {}",
        if smoke { "smoke" } else { "full" },
        level.name(),
    );

    // Population sweep at the default shard count, then a shard sweep at a
    // fixed population. Epochs are chosen so the largest full-mode cell
    // ingests 2 × 10⁶ reports (2 queries/device/epoch).
    let populations: &[usize] = if smoke {
        &[500, 2_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let (shard_pop, shard_counts): (usize, &[usize]) = if smoke {
        (2_000, &[1, 8])
    } else {
        (100_000, &[1, 2, 8])
    };

    let mut cells = Vec::new();
    for &devices in populations {
        cells.push(run_cell(
            &format!("n{devices}"),
            FleetConfig::paper_default(devices, 1, ldp_bench::SEED),
            None,
        ));
    }
    for &shards in shard_counts {
        cells.push(run_cell(
            &format!("shards{shards}"),
            FleetConfig {
                shards,
                ..FleetConfig::paper_default(shard_pop, 1, ldp_bench::SEED)
            },
            None,
        ));
    }

    // Shard count must not change the outcome: every shard-sweep cell (and
    // the matching population cell) shares one digest.
    let shard_digests: Vec<u64> = cells
        .iter()
        .filter(|c| c.cfg.devices == shard_pop)
        .map(|c| c.outcome.digest())
        .collect();
    assert!(
        shard_digests.windows(2).all(|w| w[0] == w[1]),
        "shard sweep digests diverged: {shard_digests:016x?}"
    );

    // Grade the headline cell in full mode (smoke populations are too
    // small to say anything about steady-state throughput).
    let target = (!smoke).then(|| {
        cells
            .iter()
            .find(|c| c.name == "n1000000")
            .expect("full sweep includes the n1000000 cell")
    });
    if let Some(c) = target {
        let rps = c.reports_per_sec();
        eprintln!(
            "target n1000000: {rps:.0} rep/s ({:.2}x the v2 baseline; goal {TARGET_RPS:.0} \
             end-to-end)",
            rps / V2_BASELINE_RPS,
        );
    }

    let metrics_report = metrics.then(|| ulp_obs::snapshot().to_json());
    let json = render_json(threads, smoke, &cells, target, metrics_report);
    ldp_bench::write_report("bench_fleet", &out_path, &json);
    eprintln!("wrote {out_path}");
}
