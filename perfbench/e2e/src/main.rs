//! fleet_e2e — one benchmark process, driven by `perfbench/run.py`.
//!
//! ```text
//! fleet_e2e timed --workload NAME --seed N --seconds S [--smoke]
//! fleet_e2e setup --workload NAME --seed N [--smoke]
//! ```
//!
//! `timed` builds the workload's `FleetDriver`, runs one warm-up
//! repetition, then calls `run_service` in a closed loop until `S`
//! seconds have passed. Every repetition, warm-up included, is checked
//! (`perfbench::check_outcome`) and its outcome digest compared with the
//! first; each prints one JSON line with its wall time and the host
//! diagnostics sampled around it. A last line carries `VmHWM`.
//!
//! `setup` measures the cold start a fresh process pays before its first
//! report: `FleetDriver::new` plus one `SETUP_DEVICES`-device, one-epoch
//! `run_service`.
//!
//! The exit status is 1 if any check failed and 2 on bad arguments.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::{
    alu_probe, check_outcome, json_list, mem_probe, proc_sample, status_field, RepetitionChecks,
    Workload,
};
use ulp_fleet::FleetDriver;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or("missing mode (timed | setup)")?;
    let (mut name, mut seed, mut seconds, mut smoke) = (None, None, None, false);
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
            "--seconds" => {
                seconds = Some(
                    value("--seconds")?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if mode != "timed" && mode != "setup" {
        return Err(format!("unknown mode {mode:?} (timed | setup)"));
    }
    if mode == "timed" && seconds.is_none() {
        return Err("timed needs --seconds".into());
    }
    let name = name.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let workload = Workload::new(&name, seed, smoke).ok_or(format!("unknown workload {name:?}"))?;
    Ok(Args {
        mode,
        workload,
        seed,
        seconds: seconds.unwrap_or_default(),
    })
}

/// Repetitions after which `VmHWM` is read: the warm-up plus one timed
/// repetition. The high-water mark creeps as repetitions accumulate, so it
/// is read at a fixed count, never at the end of the time-bound loop.
const HWM_AFTER_REPS: usize = 2;

fn setup(args: &Args) -> Result<bool, String> {
    let small = args.workload.setup_variant();
    let t0 = Instant::now();
    let driver = FleetDriver::new(small.fleet.clone()).map_err(|e| e.to_string())?;
    let outcome = driver
        .run_service(&small.service)
        .map_err(|e| e.to_string())?;
    let seconds = t0.elapsed().as_secs_f64();
    let fails = check_outcome(&small, &outcome);
    println!(
        "{{\"setup_s\": {seconds}, \"digest\": \"{:016x}\", \"failures\": {}}}",
        outcome.digest(),
        json_list(&fails)
    );
    Ok(fails.is_empty())
}

fn timed(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let rss_before_kib = status_field("VmRSS").unwrap_or(0);
    let driver = FleetDriver::new(w.fleet.clone()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut checks = RepetitionChecks::default();
    let mut all_ok = true;
    let mut rep = 0usize;
    let mut hwm_kib = 0;
    loop {
        let before = proc_sample();
        let t0 = Instant::now();
        let outcome = driver.run_service(&w.service).map_err(|e| e.to_string())?;
        let seconds = t0.elapsed().as_secs_f64();
        let after = proc_sample();
        if rep + 1 == HWM_AFTER_REPS {
            hwm_kib = status_field("VmHWM").unwrap_or(0);
        }
        let fails = checks.check(w, &outcome);
        let digest = outcome.digest();
        all_ok &= fails.is_empty();
        let alu_s = alu_probe();
        let mem_s = mem_probe();
        println!(
            "{{\"rep\": {rep}, \"warmup\": {}, \"seconds\": {seconds}, \"accepted\": {}, \
             \"expected\": {}, \"digest\": \"{digest:016x}\", \"cpu_s\": {}, \"minflt\": {}, \
             \"nivcsw\": {}, \"steal_ticks\": {}, \"alu_s\": {alu_s}, \"mem_s\": {mem_s}, \
             \"failures\": {}}}",
            rep == 0,
            outcome.stats.accepted,
            outcome.rollup_seal.expected,
            after.cpu_s - before.cpu_s,
            after.minflt - before.minflt,
            after.nivcsw - before.nivcsw,
            after.steal_ticks - before.steal_ticks,
            json_list(&fails),
        );
        rep += 1;
        // One warm-up plus at least two timed repetitions, then stop once
        // the time budget is spent.
        if rep >= 3 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"reps\": {rep}, \"rss_before_kib\": {rss_before_kib}, \
         \"hwm_kib\": {hwm_kib}}}",
        w.name, args.seed,
    );
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleet_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.mode == "setup" {
        setup(&args)
    } else {
        timed(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fleet_e2e: {e}");
            ExitCode::from(1)
        }
    }
}
