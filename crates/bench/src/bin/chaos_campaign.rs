//! chaos_campaign — fault-injected fleet ingest under accuracy gates.
//!
//! Sweeps the [`ulp_fleet`] chaos transport across per-class fault rates
//! (0–20%, correlated bursts) at a fixed population, and asserts that the
//! resilient ingest path holds every promise the clean path makes:
//!
//! * **accuracy** — mean, RR frequency, and RR count stay within
//!   `3·SE + bias_bound` of ground truth, with SE computed from the
//!   reports that actually *survived* the transport (realized coverage,
//!   never the assumed population);
//! * **replay safety** — every cell's per-device ε-spend digest is
//!   bitwise identical to the no-fault baseline (retries replay cached
//!   report bytes; they never re-randomize), and the keyed
//!   `(device, epoch)` ledger replay reports **zero double-spends**;
//! * **quarantine** — the planted malformed senders are latched in every
//!   cell;
//! * **degraded sealing** — a blackout cell (50% bursty drop, no retries)
//!   seals `Degraded{coverage}` instead of panicking, and still produces
//!   debiased estimates.
//!
//! Every cell is one one-window [`FleetDriver::run_service`] run whose
//! watermark lag covers the transport's retry and delay slack. Results
//! land in a machine-readable JSON report (default `BENCH_chaos.json`,
//! schema `ulp-ldp/chaos_campaign/v2`).
//!
//! Flags:
//!
//! * `--smoke` — small population (CI-friendly, seconds);
//! * `--out <path>` — where to write the JSON report;
//! * `--devices <n>` / `--epochs <n>` / `--seed <n>` — population overrides;
//! * `--drop/--duplicate/--reorder/--corrupt/--truncate/--delay <rate>` —
//!   run a single custom cell with the given per-class rates (plus the
//!   baseline it is audited against) instead of the standard sweep.
//!
//! The chaos seed comes from `ULP_CHAOS_SEED` (strict-parsed: a malformed
//! value exits 2 naming the variable, never a silent default).

use std::fmt::Write as _;
use std::time::Instant;

use ulp_fleet::{
    chaos_seed_from_env, ChaosConfig, FaultClass, FleetConfig, FleetDriver, FleetSweepRow,
    GateResult, SealStatus, ServiceOutcome,
};

/// Default chaos seed when `ULP_CHAOS_SEED` is unset.
const DEFAULT_CHAOS_SEED: u64 = 2018;

struct Cell {
    name: String,
    rates: [f64; 6],
    retry_budget: u32,
    seconds: f64,
    outcome: ServiceOutcome,
    /// The outcome's estimates lined up against ground truth.
    row: FleetSweepRow,
}

/// Rates in flag order: drop, duplicate, reorder, corrupt, truncate, delay.
fn chaos_from_rates(seed: u64, rates: [f64; 6]) -> ChaosConfig {
    ChaosConfig {
        seed,
        // Loss and delay arrive in fades (burst 4); the rest uncorrelated.
        drop: FaultClass::bursty(rates[0], 4.0),
        duplicate: FaultClass::flat(rates[1]),
        reorder: FaultClass::flat(rates[2]),
        corrupt: FaultClass::flat(rates[3]),
        truncate: FaultClass::flat(rates[4]),
        delay: FaultClass::bursty(rates[5], 2.0),
    }
}

fn run_cell(
    name: &str,
    base: &FleetConfig,
    chaos_seed: u64,
    rates: [f64; 6],
    retry_budget: u32,
) -> Cell {
    let quiet = rates.iter().all(|&r| r == 0.0);
    let cfg = FleetConfig {
        chaos: (!quiet).then(|| chaos_from_rates(chaos_seed, rates)),
        retry_budget,
        ..base.clone()
    };
    let driver = FleetDriver::new(cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    let one_window = driver.one_window();
    let start = Instant::now();
    let outcome = driver
        .run_service(&one_window)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let seconds = start.elapsed().as_secs_f64();
    let row = FleetSweepRow::from_outcome(&outcome)
        .unwrap_or_else(|| panic!("{name}: no mean or RR frequency estimate"));
    let cell = Cell {
        name: name.to_owned(),
        rates,
        retry_budget,
        seconds,
        outcome,
        row,
    };
    let o = &cell.outcome;
    eprintln!(
        "  {:<12} {seconds:>7.2}s  accepted {:>8}  dup {:>6}  corrupt {:>5}  resync {:>4}  \
         retries {:>6}  coverage {:.4}  seal {}",
        cell.name,
        o.stats.accepted,
        o.stats.duplicates,
        o.stats.corrupt_frames,
        o.stats.resyncs,
        o.retry_attempts,
        o.rollup_seal.coverage,
        match o.rollup_seal.status {
            SealStatus::Full => "full".to_string(),
            SealStatus::Degraded { coverage } => format!("degraded({coverage:.3})"),
        },
    );

    // Invariants every cell must hold, chaotic or not.
    assert!(o.audit_ok, "{name}: fleet privacy ledger failed its audit");
    assert_eq!(
        o.double_spends, 0,
        "{name}: retry path recorded a double-spend"
    );
    for (stat, gate) in cell.row.gates() {
        assert!(
            gate.within_gate,
            "{name}: {stat} estimate {:.4} vs truth {:.4} exceeds 3*SE + bias = {:.4} \
             (SE from {} surviving reports)",
            gate.estimate.value,
            gate.truth,
            3.0 * gate.estimate.stderr + gate.estimate.bias_bound,
            gate.estimate.n,
        );
    }
    let planted: Vec<u32> = (0..base.malformed_senders)
        .map(|m| (base.devices + m) as u32)
        .collect();
    assert_eq!(
        o.quarantined, planted,
        "{name}: quarantine must latch exactly the planted malformed senders"
    );
    cell
}

fn render_json(
    threads: usize,
    smoke: bool,
    chaos_seed: u64,
    baseline_digest: u64,
    cells: &[Cell],
) -> String {
    let total: f64 = cells.iter().map(|c| c.seconds).sum();
    let digests_match = cells
        .iter()
        .all(|c| c.outcome.ledger_digest == baseline_digest);
    let zero_double_spends = cells.iter().all(|c| c.outcome.double_spends == 0);
    let mut out = String::new();
    out.push_str("{\n");
    writeln!(out, "  \"schema\": \"ulp-ldp/chaos_campaign/v2\",").unwrap();
    writeln!(out, "  \"threads\": {threads},").unwrap();
    writeln!(out, "  \"smoke\": {smoke},").unwrap();
    writeln!(out, "  \"chaos_seed\": {chaos_seed},").unwrap();
    writeln!(out, "  \"total_seconds\": {total:.3},").unwrap();
    writeln!(
        out,
        "  \"baseline_ledger_digest\": \"{baseline_digest:016x}\","
    )
    .unwrap();
    writeln!(out, "  \"ledger_digests_match_baseline\": {digests_match},").unwrap();
    writeln!(out, "  \"zero_double_spends\": {zero_double_spends},").unwrap();
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let o = &c.outcome;
        let gate_json = |g: &GateResult| {
            format!(
                "{{\"estimate\": {:.6}, \"truth\": {:.6}, \"abs_err\": {:.6}, \
                 \"bound\": {:.6}, \"n\": {}, \"pass\": {}}}",
                g.estimate.value,
                g.truth,
                g.abs_err,
                3.0 * g.estimate.stderr + g.estimate.bias_bound,
                g.estimate.n,
                g.within_gate,
            )
        };
        let seal = match o.rollup_seal.status {
            SealStatus::Full => "\"full\"".to_string(),
            SealStatus::Degraded { .. } => "\"degraded\"".to_string(),
        };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"devices\": {}, \"retry_budget\": {}, \
             \"rates\": {{\"drop\": {}, \"duplicate\": {}, \"reorder\": {}, \"corrupt\": {}, \
             \"truncate\": {}, \"delay\": {}}}, \
             \"seconds\": {:.3}, \"accepted\": {}, \"rejected\": {}, \"duplicates\": {}, \
             \"stale\": {}, \"corrupt_frames\": {}, \"resyncs\": {}, \
             \"quarantine_latched\": {}, \"quarantine_dropped\": {}, \
             \"retry_attempts\": {}, \"reports_unacked\": {}, \
             \"coverage\": {:.6}, \"seal\": {seal}, \
             \"ledger_digest\": \"{:016x}\", \"double_spends\": {}, \"audit_ok\": {}, \
             \"digest\": \"{:016x}\", \
             \"mean\": {}, \"frequency\": {}, \"count\": {}}}{sep}",
            c.name,
            o.devices_simulated,
            c.retry_budget,
            c.rates[0],
            c.rates[1],
            c.rates[2],
            c.rates[3],
            c.rates[4],
            c.rates[5],
            c.seconds,
            o.stats.accepted,
            o.stats.rejected,
            o.stats.duplicates,
            o.stats.stale,
            o.stats.corrupt_frames,
            o.stats.resyncs,
            o.stats.quarantine_latched,
            o.stats.quarantine_dropped,
            o.retry_attempts,
            o.reports_unacked,
            o.rollup_seal.coverage,
            o.ledger_digest,
            o.double_spends,
            o.audit_ok,
            o.digest(),
            gate_json(&c.row.mean),
            gate_json(&c.row.frequency),
            gate_json(&c.row.count),
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

fn parse_rate(flag: &str, raw: Option<String>) -> f64 {
    let raw = raw.unwrap_or_else(|| panic!("{flag} needs a rate in [0, 0.5]"));
    match raw.parse::<f64>() {
        Ok(r) if r.is_finite() && (0.0..=0.5).contains(&r) => r,
        _ => panic!("{flag}: {raw:?} is not a rate in [0, 0.5]"),
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_chaos.json");
    let mut devices: Option<usize> = None;
    let mut epochs: Option<u32> = None;
    let mut seed: Option<u64> = None;
    let mut custom: Option<[f64; 6]> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let rate_slot = |custom: &mut Option<[f64; 6]>, i: usize, v: f64| {
            custom.get_or_insert([0.0; 6])[i] = v;
        };
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--devices" => {
                devices = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--devices needs a positive integer"),
                );
            }
            "--epochs" => {
                epochs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--epochs needs a positive integer"),
                );
            }
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a u64"),
                );
            }
            "--drop" => rate_slot(&mut custom, 0, parse_rate("--drop", args.next())),
            "--duplicate" => rate_slot(&mut custom, 1, parse_rate("--duplicate", args.next())),
            "--reorder" => rate_slot(&mut custom, 2, parse_rate("--reorder", args.next())),
            "--corrupt" => rate_slot(&mut custom, 3, parse_rate("--corrupt", args.next())),
            "--truncate" => rate_slot(&mut custom, 4, parse_rate("--truncate", args.next())),
            "--delay" => rate_slot(&mut custom, 5, parse_rate("--delay", args.next())),
            other => panic!(
                "unknown flag {other:?} (expected --smoke, --out, --devices, --epochs, --seed, \
                 or a per-class rate flag)"
            ),
        }
    }

    // Validate every ULP_* knob up front (the driver reads the fleet
    // knobs at construction; the shared helper keeps the exit-2 contract:
    // name the variable, never default).
    let chaos_seed = ldp_bench::require_env("chaos_campaign", chaos_seed_from_env())
        .unwrap_or(DEFAULT_CHAOS_SEED);
    let env = ldp_bench::FleetEnv::validate("chaos_campaign", false);
    let threads = env.threads;

    let devices = devices.unwrap_or(if smoke { 2_000 } else { 100_000 });
    let epochs = epochs.unwrap_or(2);
    let seed = seed.unwrap_or(ldp_bench::SEED);
    let base = FleetConfig {
        malformed_senders: 3,
        ..FleetConfig::paper_default(devices, epochs, seed)
    };
    eprintln!(
        "chaos_campaign: {} mode, {devices} devices x {epochs} epochs, fleet seed {seed}, \
         chaos seed {chaos_seed} (ULP_CHAOS_SEED to override), {threads} worker thread(s)",
        if smoke { "smoke" } else { "full" },
    );

    // Every cell shares the population config, so per-device ε-spend must
    // be bitwise identical across the whole sweep — the baseline digest is
    // the reference the replay-safety assertion checks against.
    let mut cells = vec![run_cell("baseline", &base, chaos_seed, [0.0; 6], 2)];
    let baseline_digest = cells[0].outcome.ledger_digest;
    assert!(
        cells[0].outcome.rollup_seal.is_full(),
        "baseline must seal full"
    );
    assert_eq!(cells[0].outcome.stats.duplicates, 0);
    assert_eq!(cells[0].outcome.stats.corrupt_frames, 0);

    match custom {
        Some(rates) => {
            cells.push(run_cell("custom", &base, chaos_seed, rates, 2));
        }
        None => {
            // The acceptance cell (10% drop + 10% duplicate + 5% corrupt),
            // per-class solos at 10%, an everything-at-20% stress cell, and
            // a blackout that must degrade the seal rather than panic.
            let sweep: &[(&str, [f64; 6], u32)] = &[
                ("acceptance", [0.10, 0.10, 0.0, 0.05, 0.0, 0.0], 2),
                ("drop10", [0.10, 0.0, 0.0, 0.0, 0.0, 0.0], 2),
                ("dup10", [0.0, 0.10, 0.0, 0.0, 0.0, 0.0], 2),
                ("reorder10", [0.0, 0.0, 0.10, 0.0, 0.0, 0.0], 2),
                ("corrupt10", [0.0, 0.0, 0.0, 0.10, 0.0, 0.0], 2),
                ("truncate10", [0.0, 0.0, 0.0, 0.0, 0.10, 0.0], 2),
                ("delay10", [0.0, 0.0, 0.0, 0.0, 0.0, 0.10], 2),
                ("heavy20", [0.20, 0.20, 0.20, 0.20, 0.20, 0.20], 2),
                ("blackout", [0.50, 0.0, 0.0, 0.0, 0.0, 0.0], 0),
            ];
            for &(name, rates, retry_budget) in sweep {
                cells.push(run_cell(name, &base, chaos_seed, rates, retry_budget));
            }
            let blackout = cells.last().expect("blackout cell");
            assert!(
                !blackout.outcome.rollup_seal.is_full(),
                "a 50% bursty blackout with no retries must degrade the seal"
            );
        }
    }

    for c in &cells {
        assert_eq!(
            c.outcome.ledger_digest, baseline_digest,
            "{}: per-device ε-spend diverged from the no-fault baseline",
            c.name
        );
    }

    let json = render_json(threads, smoke, chaos_seed, baseline_digest, &cells);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path:?}: {e}"));
    eprintln!("wrote {out_path}");
}
