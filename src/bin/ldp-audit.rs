//! `ldp-audit` — command-line auditor for fixed-point LDP configurations.
//!
//! Given a hardware RNG specification and a sensor range, machine-checks
//! whether ε-LDP holds for the naive implementation (it never does), solves
//! the resampling/thresholding windows for a loss target, and prints the
//! budget-segment table a DP-Box would use.
//!
//! ```text
//! Usage: ldp-audit [--bu N] [--by N] [--adc-bits N] [--eps X] [--multiple X]
//!
//!   --bu N         URNG width in bits            (default 17)
//!   --by N         output word width in bits     (default 20)
//!   --adc-bits N   sensor ADC resolution         (default 8, at most 12)
//!   --eps X        privacy parameter ε           (default 0.5)
//!   --multiple X   loss target as multiple of ε  (default 2.0)
//! ```

use std::process::ExitCode;

use ulp_ldp::ldp::{
    exact_threshold, worst_case_loss, LimitMode, PrivacyLoss, QuantizedRange, SegmentTable,
};
use ulp_ldp::rng::{FxpLaplaceConfig, FxpNoisePmf};

struct Args {
    bu: u8,
    by: u8,
    adc_bits: u8,
    eps: f64,
    multiple: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bu: 17,
        by: 20,
        adc_bits: 8,
        eps: 0.5,
        multiple: 2.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--bu" => args.bu = value(&mut it)?.parse().map_err(|e| format!("--bu: {e}"))?,
            "--by" => args.by = value(&mut it)?.parse().map_err(|e| format!("--by: {e}"))?,
            "--adc-bits" => {
                args.adc_bits = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--adc-bits: {e}"))?
            }
            "--eps" => args.eps = value(&mut it)?.parse().map_err(|e| format!("--eps: {e}"))?,
            "--multiple" => {
                args.multiple = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--multiple: {e}"))?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: ldp-audit [--bu N] [--by N] [--adc-bits N] [--eps X] \
                            [--multiple X]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other}; try --help")),
        }
    }
    Ok(args)
}

fn run(a: &Args) -> Result<(), String> {
    // The all-pairs check scans every sensor code for every output.
    if a.adc_bits > 12 {
        return Err(format!("--adc-bits {}: at most 12 bits", a.adc_bits));
    }
    let span = 1i64 << a.adc_bits;
    let lambda = span as f64 / a.eps;
    let cfg = FxpLaplaceConfig::new(a.bu, a.by, 1.0, lambda).map_err(|e| e.to_string())?;
    let range = QuantizedRange::new(0, span, 1.0).map_err(|e| e.to_string())?;
    FxpNoisePmf::check_support(cfg).map_err(|e| e.to_string())?;
    let pmf = FxpNoisePmf::closed_form(cfg);

    println!(
        "configuration: Bu={}, By={}, {}-bit sensor, ε={}, λ={} codes",
        a.bu, a.by, a.adc_bits, a.eps, lambda
    );
    println!(
        "noise support: |n| ≤ {} codes; interior zero-probability gaps: {}{}",
        pmf.support_max_k(),
        pmf.interior_gap_count(),
        if cfg.saturates() {
            " (output word saturates!)"
        } else {
            ""
        }
    );

    match worst_case_loss(&pmf, range, LimitMode::Thresholding, None) {
        PrivacyLoss::Infinite => {
            println!("naive noising: worst-case loss ∞ — NOT differentially private")
        }
        PrivacyLoss::Finite(l) => println!("naive noising: worst-case loss {l:.4} nats"),
    }

    for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
        match exact_threshold(cfg, &pmf, range, a.multiple, mode) {
            Ok(spec) => println!(
                "{mode:?}: window ±{} codes guarantees loss ≤ {:.4} nats ({}ε)",
                spec.n_th_k, spec.guaranteed_loss, a.multiple
            ),
            Err(e) => println!("{mode:?}: target {}ε unreachable — {e}", a.multiple),
        }
    }

    // Budget segments a DP-Box would hard-wire for this configuration.
    let multiples: Vec<f64> = [1.5, 2.0, 2.5, 3.0]
        .iter()
        .copied()
        .filter(|&m| m <= a.multiple + 1.0)
        .collect();
    if let Ok(table) = SegmentTable::build(cfg, &pmf, range, &multiples, LimitMode::Thresholding) {
        println!("budget segments (thresholding):");
        println!("  within range: charge {:.4} nats", table.base_loss());
        let mut prev = 0i64;
        for &(t, loss) in table.segments() {
            println!("  overshoot ({prev}, {t}] codes: charge {loss:.4} nats");
            prev = t;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}
