//! fleet_trace — the traced run of one workload, driven by
//! `perfbench/run.py --trace 1`.
//!
//! ```text
//! fleet_trace --workload NAME --seed N [--reps K] [--out FILE] [--smoke]
//! ```
//!
//! 1. Times a cold `FleetDriver::new` and the RSS growth across
//!    `Collector::with_device_capacity`.
//! 2. Runs `run_service` at `ULP_METRICS=off`, reads `VmHWM`, then
//!    alternates `K` more runs at `off` and `K` at `full`. The program's
//!    own `ulp-obs` spans and decode counters supply the decode/accumulate
//!    split and the fallback share; the fastest run at each level gives
//!    the tracing overhead.
//! 3. Replays the same traffic through the layers' public functions
//!    ([`perfbench_trace::replay`]) with every call in a span, and checks
//!    that the replay's counts, digests and estimates equal the untraced
//!    run's. The replay root's wall time over the fastest untraced run
//!    (`replay_over_off`) shows how much of the program's work it covers.
//!
//! The last stdout line is one JSON object with the per-layer metrics,
//! per-layer call counts and busy/self seconds, and any failed check. The
//! spans go to `FILE` when the run ends. Exit status: 0 if every check
//! passed, 1 if one failed, 2 on bad arguments.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use perfbench::{check_outcome, json_list, status_field, Workload};
use perfbench_trace::replay::{compare, device_capacity, fleet_collector, replay, ROOT_SPAN};
use perfbench_trace::span::{layer_totals, Tracer};
use perfbench_trace::{layer_metrics, Measured};
use ulp_fleet::{decode_counter_totals, ingest_phase_totals, FleetDriver, IngestPhaseTotals};
use ulp_obs::{set_level, MetricsLevel};
use ulp_rng::stream_seed;

struct Args {
    workload: Workload,
    seed: u64,
    reps: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut reps, mut out, mut smoke) = (None, None, 3usize, None, false);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => name = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--reps" => {
                reps = value("--reps")?
                    .parse::<usize>()
                    .map_err(|e| format!("--reps: {e}"))?
                    .max(1)
            }
            "--out" => out = Some(value("--out")?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let name = name.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let workload = Workload::new(&name, seed, smoke).ok_or(format!("unknown workload {name:?}"))?;
    Ok(Args {
        workload,
        seed,
        reps,
        out,
    })
}

fn kib(field: &str) -> i64 {
    status_field(field).unwrap_or(0) as i64
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let w = &args.workload;
    set_level(MetricsLevel::Off);
    let mut failures = Vec::new();
    let mut runs = 0u64;

    let t = Instant::now();
    let driver = FleetDriver::new(w.fleet.clone()).map_err(|e| e.to_string())?;
    let model_build_ns = t.elapsed().as_nanos() as u64;

    let collector = fleet_collector(&w.fleet, driver.model());
    let rss0 = kib("VmRSS");
    let collector = collector.with_device_capacity(device_capacity(&w.fleet));
    let table_kib = kib("VmRSS") - rss0;
    drop(collector);
    let table_bytes_per_device = (table_kib * 1024) as f64 / f64::from(device_capacity(&w.fleet));

    let rss_before = kib("VmRSS");
    let outcome = driver.run_service(&w.service).map_err(|e| e.to_string())?;
    runs += 1;
    let retained_bytes_per_report =
        ((kib("VmHWM") - rss_before) * 1024) as f64 / outcome.stats.accepted.max(1) as f64;
    failures.extend(check_outcome(w, &outcome));
    let digest = outcome.digest();

    let (mut off_best_s, mut full_best_s) = (f64::INFINITY, f64::INFINITY);
    let mut phases = IngestPhaseTotals::default();
    let mut batch_frames = 0;
    for _ in 0..args.reps {
        for level in [MetricsLevel::Off, MetricsLevel::Full] {
            set_level(level);
            let (p0, d0) = (ingest_phase_totals(), decode_counter_totals());
            let t = Instant::now();
            let o = driver.run_service(&w.service).map_err(|e| e.to_string())?;
            let seconds = t.elapsed().as_secs_f64();
            let (p1, d1) = (ingest_phase_totals(), decode_counter_totals());
            set_level(MetricsLevel::Off);
            runs += 1;
            if o.digest() != digest {
                failures.push(format!(
                    "run_service at {} gave digest {:016x}, the first run {digest:016x}",
                    level.name(),
                    o.digest()
                ));
            }
            if level == MetricsLevel::Off {
                off_best_s = off_best_s.min(seconds);
            } else if seconds < full_best_s {
                full_best_s = seconds;
                phases = IngestPhaseTotals {
                    decode_ns: p1.decode_ns - p0.decode_ns,
                    accumulate_ns: p1.accumulate_ns - p0.accumulate_ns,
                    fold_ns: p1.fold_ns - p0.fold_ns,
                };
                batch_frames = d1.batch_frames - d0.batch_frames;
            }
        }
    }

    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let trace_id = format!(
        "{:016x}",
        stream_seed(args.seed, &[u64::from(std::process::id()), nanos])
    );
    let mut tr = Tracer::new(trace_id);
    let r = replay(w, driver.model(), &mut tr)?;
    runs += 1;
    failures.extend(compare(&r, &outcome));
    let totals = layer_totals(tr.spans());
    let replay_s = totals
        .get(ROOT_SPAN)
        .map_or(0.0, |t| t.busy_ns as f64 / 1e9);

    let stats = outcome.stats;
    let metrics = layer_metrics(&Measured {
        model_build_ns,
        table_bytes_per_device,
        retained_bytes_per_report,
        off_best_s,
        full_best_s,
        phases,
        batch_frames,
        decoded_items: stats.accepted + stats.rejected + stats.duplicates,
        replay: &r,
        spans: tr.spans(),
    });
    if let Some(path) = &args.out {
        std::fs::write(path, tr.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let mut line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace_id\": \"{}\", \"attempted\": {runs}, \
         \"off_best_s\": {off_best_s}, \"full_best_s\": {full_best_s}, \"replay_s\": {replay_s}, \
         \"replay_over_off\": {}, \"metrics\": {{",
        w.name,
        args.seed,
        tr.trace_id,
        replay_s / off_best_s
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}, \"layers\": {");
    eprintln!(
        "{:<34} {:>6} {:>10} {:>9} {:>9}",
        "span", "spans", "calls", "busy_s", "self_s"
    );
    for (i, (name, t)) in totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let (busy, own) = (t.busy_ns as f64 / 1e9, t.self_ns as f64 / 1e9);
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"spans\": {}, \"calls\": {}, \"busy_s\": {busy}, \"self_s\": {own}}}",
            t.spans, t.calls
        );
        eprintln!(
            "{name:<34} {:>6} {:>10} {busy:>9.4} {own:>9.4}",
            t.spans, t.calls
        );
    }
    let _ = write!(
        line,
        "}}, \"counts\": {{\"accepted\": {}, \"rejected\": {}, \"duplicates\": {}, \"late\": {}, \
         \"windows\": {}, \"ledger_entries\": {}, \"frames_drained\": {}, \"attempts\": {}}}, \
         \"failures\": {}}}",
        r.stats.accepted,
        r.stats.rejected,
        r.stats.duplicates,
        r.stats.late,
        r.windows_sealed,
        r.ledger_entries,
        r.frames_drained,
        r.attempts,
        json_list(&failures)
    );
    for f in &failures {
        eprintln!("fleet_trace: check failed: {f}");
    }
    Ok((line, failures.is_empty()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleet_trace: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("fleet_trace: {e}");
            ExitCode::from(1)
        }
    }
}
