//! bench_perf — the evaluation-engine performance baseline.
//!
//! Times the regeneration of each paper artifact through the shared
//! renderers in `ldp_bench` and writes a machine-readable JSON report
//! (default `BENCH_eval.json`): wall-clock seconds, evaluation cells,
//! cells/sec, and an FNV-1a digest of the rendered text per artifact.
//!
//! The digest is the determinism witness: rerunning with a different
//! `ULP_PAR_THREADS` must reproduce every digest bit-for-bit, because all
//! sweeps seed their RNG streams per cell rather than per thread.
//!
//! Flags:
//!
//! * `--smoke` — tiny repetition counts (CI-friendly, seconds not minutes);
//! * `--out <path>` — where to write the JSON report;
//! * `--reference` — pin the cycle-faithful reference samplers (equivalent
//!   to `ULP_SAMPLER_PATH=reference`); without it the alias fast path is
//!   used for batch privatization;
//! * `--compare <baseline.json>` — print per-artifact cells/sec deltas
//!   against a previous report and exit non-zero if any shared artifact
//!   regressed by more than 25%;
//! * `--metrics` — embed the process-wide [`ulp_obs`] snapshot in the JSON
//!   report (raises the level to `full` unless `ULP_METRICS` pins it).
//!
//! All `ULP_*` environment knobs (`ULP_METRICS`, `ULP_PAR_THREADS`,
//! `ULP_SAMPLER_PATH`) are validated at startup: a set-but-malformed value
//! exits with status 2 and a message naming the variable — never a silent
//! fallback.

use std::time::Instant;

use ldp_bench::json::{Json, Obj};
use ldp_bench::Artifact;
use ldp_bench::{require_flag, unknown_flag};
use ldp_core::SamplerPath;
use ulp_obs::Fnv64;

const BIN: &str = "bench_perf";

struct Timed {
    name: &'static str,
    seconds: f64,
    cells: u64,
    digest: u64,
}

impl Timed {
    fn cells_per_sec(&self) -> f64 {
        self.cells as f64 / self.seconds.max(1e-9)
    }
}

fn time_artifact(name: &'static str, f: impl FnOnce() -> Artifact) -> Timed {
    let start = Instant::now();
    let artifact = f();
    let seconds = start.elapsed().as_secs_f64();
    // FNV-1a over the rendered artifact text: a stable fingerprint for
    // cross-thread-count comparison.
    let digest = Fnv64::hash(artifact.text.as_bytes());
    eprintln!(
        "  {name:<16} {seconds:>8.3}s  {:>6} cells  digest {digest:016x}",
        artifact.cells,
    );
    Timed {
        name,
        seconds,
        cells: artifact.cells,
        digest,
    }
}

fn render_json(
    threads: usize,
    smoke: bool,
    sampler_path: &str,
    results: &[Timed],
    metrics: Option<String>,
) -> String {
    let total: f64 = results.iter().map(|r| r.seconds).sum();
    let artifacts = results
        .iter()
        .map(|r| {
            Obj::new()
                .with("name", r.name)
                .with("seconds", Json::Fixed(r.seconds, 3))
                .with("cells", r.cells)
                .with("cells_per_sec", Json::Fixed(r.cells_per_sec(), 1))
                .with("digest", Json::hex(r.digest))
                .into()
        })
        .collect();
    let mut doc = Obj::new()
        .with("schema", "ulp-ldp/bench_eval/v1")
        .with("threads", threads)
        .with("smoke", smoke)
        .with("sampler_path", sampler_path)
        .with("total_seconds", Json::Fixed(total, 3))
        .with("artifacts", Json::Rows(artifacts));
    if let Some(report) = metrics {
        doc.push("metrics", Json::Raw(report));
    }
    doc.to_report()
}

/// Extracts `(name, cells_per_sec, seconds)` triples from a previous
/// report. The format is the one `render_json` writes through
/// [`ldp_bench::json`] (one artifact object per line, names that need no
/// escaping), so a line-oriented scan is a faithful parser for our own
/// output; fields from newer schema revisions are simply ignored.
fn parse_baseline(text: &str) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = extract_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(cps) = extract_num(line, "\"cells_per_sec\": ") else {
            continue;
        };
        let Some(secs) = extract_num(line, "\"seconds\": ") else {
            continue;
        };
        out.push((name, cps, secs));
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads the `--compare` baseline before the run, exiting through
/// [`ldp_bench::reject`] with one line naming the path if it cannot be
/// read or holds no artifacts.
fn read_baseline(path: &str) -> Vec<(String, f64, f64)> {
    let baseline = parse_baseline(&ldp_bench::read_input(BIN, path));
    if baseline.is_empty() {
        ldp_bench::reject(BIN, format!("baseline {path:?} contains no artifacts"));
    }
    baseline
}

/// Prints the per-artifact throughput deltas and returns `true` if any
/// artifact present in both reports lost more than 25% of its cells/sec.
fn compare_against(
    baseline_path: &str,
    baseline: &[(String, f64, f64)],
    results: &[Timed],
) -> bool {
    eprintln!("compare vs {baseline_path}:");
    // Sub-50ms artifacts are timer/jitter noise, not throughput signal;
    // report them but keep them out of the pass/fail decision.
    const GATE_FLOOR_SECS: f64 = 0.05;
    let mut regressed = false;
    for r in results {
        let Some((_, old, old_secs)) = baseline.iter().find(|(n, _, _)| n == r.name) else {
            eprintln!("  {:<16} (not in baseline)", r.name);
            continue;
        };
        let new = r.cells_per_sec();
        let ratio = new / old.max(1e-9);
        let gated = r.seconds >= GATE_FLOOR_SECS && *old_secs >= GATE_FLOOR_SECS;
        let flag = if !gated {
            "  (below timing floor, not gated)"
        } else if ratio < 0.75 {
            regressed = true;
            "  REGRESSION (>25%)"
        } else {
            ""
        };
        eprintln!(
            "  {:<16} {old:>9.1} -> {new:>9.1} cells/s  ({:+.1}%){flag}",
            r.name,
            (ratio - 1.0) * 100.0,
        );
    }
    regressed
}

fn main() {
    let mut smoke = false;
    let mut metrics = false;
    let mut out_path = String::from("BENCH_eval.json");
    let mut compare_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--metrics" => metrics = true,
            "--out" => out_path = require_flag(BIN, "--out", args.next(), "a path"),
            "--reference" => std::env::set_var("ULP_SAMPLER_PATH", "reference"),
            "--compare" => {
                compare_path = Some(require_flag(BIN, "--compare", args.next(), "a path"))
            }
            other => unknown_flag(BIN, other, "--smoke --metrics --out --reference --compare"),
        }
    }

    // Validate every ULP_* knob up front: a typo exits with a clear message
    // naming the variable instead of silently selecting a default.
    // `--metrics` with no explicit ULP_METRICS raises the level to `full`
    // so the embedded snapshot actually contains data.
    let ldp_bench::FleetEnv { level, threads } = ldp_bench::FleetEnv::validate(BIN, metrics);
    let sampler_path = match ldp_bench::require_env(BIN, SamplerPath::from_env()) {
        SamplerPath::Reference => "reference",
        SamplerPath::Fast => "fast",
        SamplerPath::Secure => "secure",
    };
    let baseline = compare_path.map(|path| {
        let baseline = read_baseline(&path);
        (path, baseline)
    });
    ldp_bench::require_writable(BIN, &out_path);
    eprintln!(
        "bench_perf: {} mode, {threads} worker thread(s) (ULP_PAR_THREADS to override), \
         {sampler_path} sampler path, metrics {}",
        if smoke { "smoke" } else { "full" },
        level.name(),
    );

    // Smoke counts keep CI in seconds; full counts match the regeneration
    // binaries (except the fault campaign's healthy-run length, trimmed so
    // one artifact doesn't dominate the baseline).
    let (trials, rr_reps, scaling_trials, svm_reps) = if smoke {
        (5, 3, 3, 1)
    } else {
        (ldp_bench::TRIALS, 50, 40, 12)
    };
    let adversary_cp: &[u64] = if smoke {
        &[1, 10, 100, 1_000]
    } else {
        &[1, 10, 100, 1_000, 10_000, 50_000]
    };
    let scaling_sizes: &[usize] = if smoke {
        &[100, 300, 1_000]
    } else {
        &[100, 300, 1_000, 3_000, 10_000]
    };
    let (det_trials, loss_trials, healthy_words) = if smoke {
        (3, 3, 200_000)
    } else {
        (20, 40, 2_000_000)
    };

    let results = vec![
        time_artifact("utility_mean", || {
            ldp_bench::render_utility_table(
                "Table II — MAE for mean query",
                ldp_datasets::Query::Mean,
                trials,
            )
        }),
        time_artifact("counting", || ldp_bench::render_counting_table(trials)),
        time_artifact("latency", || ldp_bench::render_latency(trials)),
        time_artifact("adversary", || ldp_bench::render_adversary(adversary_cp)),
        time_artifact("rr", || ldp_bench::render_rr(rr_reps)),
        time_artifact("scaling", || {
            ldp_bench::render_scaling(scaling_sizes, scaling_trials)
        }),
        time_artifact("svm", || ldp_bench::render_svm(svm_reps)),
        time_artifact("fault_campaign", || {
            ldp_bench::render_fault_campaign(det_trials, loss_trials, healthy_words)
        }),
    ];

    let snapshot = metrics.then(|| ulp_obs::snapshot().to_json());
    let json = render_json(threads, smoke, sampler_path, &results, snapshot);
    ldp_bench::write_report(BIN, &out_path, &json);
    let total: f64 = results.iter().map(|r| r.seconds).sum();
    eprintln!("total {total:.3}s -> {out_path}");
    print!("{json}");

    if let Some((path, baseline)) = baseline {
        if compare_against(&path, &baseline, &results) {
            eprintln!("bench_perf: throughput regression detected");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_baseline_reads_what_render_json_writes() {
        let results = [
            Timed {
                name: "utility_mean",
                seconds: 0.7034,
                cells: 28,
                digest: 0xb8a9_a1eb_4154_9097,
            },
            Timed {
                name: "fault_campaign",
                seconds: 0.0012,
                cells: 13,
                digest: 1,
            },
        ];
        let metrics = r#"{"histograms":[{"name":"h","count":1}],"spans":[]}"#;
        let report = render_json(4, true, "fast", &results, Some(metrics.into()));
        let parsed = parse_baseline(&report);
        assert_eq!(parsed.len(), results.len(), "{report}");
        for (r, (name, cells_per_sec, seconds)) in results.iter().zip(&parsed) {
            assert_eq!(name, r.name);
            let written = |v: f64, digits: usize| format!("{v:.digits$}").parse::<f64>().unwrap();
            assert_eq!(*cells_per_sec, written(r.cells_per_sec(), 1));
            assert_eq!(*seconds, written(r.seconds, 3));
        }
    }
}
