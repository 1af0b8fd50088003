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
//! Every cell is a one-window [`ulp_fleet::FleetDriver::run_service`]
//! configuration whose watermark lag covers the transport's retry and
//! delay slack, run through [`ldp_bench::fleet::run_cell`]: a warm-up,
//! then the best of three timed runs, all four with one digest. Results
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

use std::num::{NonZeroU32, NonZeroUsize};

use ldp_bench::fleet::{run_cell, Cell};
use ldp_bench::json::{Json, Obj};
use ldp_bench::{require_flag, unknown_flag};
use ulp_fleet::{
    chaos_seed_from_env, ChaosConfig, FaultClass, FleetConfig, FleetDriver, SealStatus,
};

const BIN: &str = "chaos_campaign";

/// Default chaos seed when `ULP_CHAOS_SEED` is unset.
const DEFAULT_CHAOS_SEED: u64 = 2018;

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

/// One one-window cell of `base` behind the given transport, with the
/// campaign's own check: quarantine latches exactly the planted
/// malformed senders.
fn chaos_cell(
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
    let cell = run_cell(name, cfg, None);
    let planted: Vec<u32> = (0..base.malformed_senders)
        .map(|m| (base.devices + m) as u32)
        .collect();
    assert_eq!(
        cell.outcome.quarantined, planted,
        "{name}: quarantine must latch exactly the planted malformed senders"
    );
    cell
}

fn cell_json(c: &Cell) -> Json {
    let (o, g) = (&c.outcome, &c.gates);
    // A quiet cell runs no chaos transport: every rate is zero.
    let quiet = chaos_from_rates(0, [0.0; 6]);
    let chaos = c.cfg.chaos.as_ref().unwrap_or(&quiet);
    let rates = Obj::new()
        .with("drop", Json::Float(chaos.drop.rate))
        .with("duplicate", Json::Float(chaos.duplicate.rate))
        .with("reorder", Json::Float(chaos.reorder.rate))
        .with("corrupt", Json::Float(chaos.corrupt.rate))
        .with("truncate", Json::Float(chaos.truncate.rate))
        .with("delay", Json::Float(chaos.delay.rate));
    let seal = match o.rollup_seal.status {
        SealStatus::Full => "full",
        SealStatus::Degraded { .. } => "degraded",
    };
    Obj::new()
        .with("name", c.name.as_str())
        .with("devices", o.devices_simulated)
        .with("retry_budget", c.cfg.retry_budget)
        .with("rates", rates)
        .with("seconds", Json::Fixed(c.seconds, 3))
        .with("accepted", o.stats.accepted)
        .with("rejected", o.stats.rejected)
        .with("duplicates", o.stats.duplicates)
        .with("stale", o.stats.stale)
        .with("corrupt_frames", o.stats.corrupt_frames)
        .with("resyncs", o.stats.resyncs)
        .with("quarantine_latched", o.stats.quarantine_latched)
        .with("quarantine_dropped", o.stats.quarantine_dropped)
        .with("retry_attempts", o.retry_attempts)
        .with("reports_unacked", o.reports_unacked)
        .with("coverage", Json::Fixed(o.rollup_seal.coverage, 6))
        .with("seal", seal)
        .with("ledger_digest", Json::hex(o.ledger_digest))
        .with("double_spends", o.double_spends)
        .with("audit_ok", o.audit_ok)
        .with("digest", Json::hex(o.digest()))
        .with("mean", g.mean.to_json(true))
        .with("frequency", g.frequency.to_json(true))
        .with("count", g.count.to_json(true))
        .into()
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
    Obj::new()
        .with("schema", "ulp-ldp/chaos_campaign/v2")
        .with("threads", threads)
        .with("smoke", smoke)
        .with("chaos_seed", chaos_seed)
        .with("total_seconds", Json::Fixed(total, 3))
        .with("baseline_ledger_digest", Json::hex(baseline_digest))
        .with("ledger_digests_match_baseline", digests_match)
        .with("zero_double_spends", zero_double_spends)
        .with("cells", Json::Rows(cells.iter().map(cell_json).collect()))
        .to_report()
}

/// The rate after `flag`, in [0, 0.5].
fn parse_rate(flag: &str, value: Option<String>) -> f64 {
    let rate: f64 = require_flag(BIN, flag, value, "a rate in [0, 0.5]");
    if !(0.0..=0.5).contains(&rate) {
        ldp_bench::reject(BIN, format!("{flag}: {rate} is not a rate in [0, 0.5]"));
    }
    rate
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
            "--out" => out_path = require_flag(BIN, "--out", args.next(), "a path"),
            "--devices" => {
                let n: NonZeroUsize =
                    require_flag(BIN, "--devices", args.next(), "a positive integer");
                devices = Some(n.get());
            }
            "--epochs" => {
                let n: NonZeroU32 =
                    require_flag(BIN, "--epochs", args.next(), "a positive integer");
                epochs = Some(n.get());
            }
            "--seed" => seed = Some(require_flag(BIN, "--seed", args.next(), "a u64")),
            "--drop" => rate_slot(&mut custom, 0, parse_rate("--drop", args.next())),
            "--duplicate" => rate_slot(&mut custom, 1, parse_rate("--duplicate", args.next())),
            "--reorder" => rate_slot(&mut custom, 2, parse_rate("--reorder", args.next())),
            "--corrupt" => rate_slot(&mut custom, 3, parse_rate("--corrupt", args.next())),
            "--truncate" => rate_slot(&mut custom, 4, parse_rate("--truncate", args.next())),
            "--delay" => rate_slot(&mut custom, 5, parse_rate("--delay", args.next())),
            other => unknown_flag(BIN, other, "--smoke --out --devices --epochs --seed, rates"),
        }
    }

    // Validate every ULP_* knob up front (the driver reads the fleet
    // knobs at construction; the shared helper keeps the exit-2 contract:
    // name the variable, never default).
    let chaos_seed =
        ldp_bench::require_env(BIN, chaos_seed_from_env()).unwrap_or(DEFAULT_CHAOS_SEED);
    let env = ldp_bench::FleetEnv::validate(BIN, false);
    ldp_bench::require_writable(BIN, &out_path);
    let threads = env.threads;

    let devices = devices.unwrap_or(if smoke { 2_000 } else { 100_000 });
    let epochs = epochs.unwrap_or(2);
    let seed = seed.unwrap_or(ldp_bench::SEED);
    let base = FleetConfig {
        malformed_senders: 3,
        ..FleetConfig::paper_default(devices, epochs, seed)
    };
    // FleetDriver::new's checks, before any work: the population and the planted
    // malformed senders must have device ids that fit in u32.
    if let Err(e) = FleetDriver::new(base.clone()) {
        ldp_bench::reject(BIN, format!("--devices {devices}: {e}"));
    }
    eprintln!(
        "chaos_campaign: {} mode, {devices} devices x {epochs} epochs, fleet seed {seed}, \
         chaos seed {chaos_seed} (ULP_CHAOS_SEED to override), {threads} worker thread(s)",
        if smoke { "smoke" } else { "full" },
    );

    // Every cell shares the population config, so per-device ε-spend must
    // be bitwise identical across the whole sweep — the baseline digest is
    // the reference the replay-safety assertion checks against.
    let mut cells = vec![chaos_cell("baseline", &base, chaos_seed, [0.0; 6], 2)];
    let baseline_digest = cells[0].outcome.ledger_digest;
    assert!(
        cells[0].outcome.rollup_seal.is_full(),
        "baseline must seal full"
    );
    assert_eq!(cells[0].outcome.stats.duplicates, 0);
    assert_eq!(cells[0].outcome.stats.corrupt_frames, 0);

    match custom {
        Some(rates) => {
            cells.push(chaos_cell("custom", &base, chaos_seed, rates, 2));
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
                cells.push(chaos_cell(name, &base, chaos_seed, rates, retry_budget));
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
    ldp_bench::write_report(BIN, &out_path, &json);
    eprintln!("wrote {out_path}");
}
