//! The strict `ULP_*` environment contract, enforced end to end.
//!
//! Every binary that reads a `ULP_*` knob validates it at startup: a
//! set-but-malformed value must exit with status 2 and a message naming
//! the variable — never a silent fallback to a default. This test drives
//! the real binaries (via `CARGO_BIN_EXE_*`) through every documented
//! variable so a newly added knob cannot ship without joining the
//! contract: add it to [`CASES`] and the README list together.

use std::process::Command;

/// Every documented `ULP_*` variable, with a binary that validates it.
const CASES: &[(&str, &str)] = &[
    (env!("CARGO_BIN_EXE_bench_perf"), "ULP_METRICS"),
    (env!("CARGO_BIN_EXE_bench_perf"), "ULP_PAR_THREADS"),
    (env!("CARGO_BIN_EXE_bench_perf"), "ULP_SAMPLER_PATH"),
    (env!("CARGO_BIN_EXE_bench_fleet"), "ULP_METRICS"),
    (env!("CARGO_BIN_EXE_bench_fleet"), "ULP_PAR_THREADS"),
    (env!("CARGO_BIN_EXE_chaos_campaign"), "ULP_CHAOS_SEED"),
    (env!("CARGO_BIN_EXE_chaos_campaign"), "ULP_METRICS"),
    (env!("CARGO_BIN_EXE_chaos_campaign"), "ULP_PAR_THREADS"),
    (env!("CARGO_BIN_EXE_fleet_service"), "ULP_METRICS"),
    (env!("CARGO_BIN_EXE_fleet_service"), "ULP_PAR_THREADS"),
    (
        env!("CARGO_BIN_EXE_fleet_service"),
        "ULP_SERVICE_WINDOW_EPOCHS",
    ),
    (
        env!("CARGO_BIN_EXE_fleet_service"),
        "ULP_SERVICE_QUEUE_FRAMES",
    ),
    (env!("CARGO_BIN_EXE_attack_campaign"), "ULP_ATTACK_SEED"),
    (env!("CARGO_BIN_EXE_attack_campaign"), "ULP_PAR_THREADS"),
    (env!("CARGO_BIN_EXE_attack_campaign"), "ULP_SAMPLER_PATH"),
];

/// All knobs, for scrubbing the inherited environment so a caller's own
/// `ULP_*` settings cannot leak into a case.
const ALL_VARS: &[&str] = &[
    "ULP_METRICS",
    "ULP_PAR_THREADS",
    "ULP_SAMPLER_PATH",
    "ULP_CHAOS_SEED",
    "ULP_ATTACK_SEED",
    "ULP_SERVICE_WINDOW_EPOCHS",
    "ULP_SERVICE_QUEUE_FRAMES",
];

fn scrubbed(bin: &str) -> Command {
    let mut cmd = Command::new(bin);
    for var in ALL_VARS {
        cmd.env_remove(var);
    }
    cmd
}

#[test]
fn every_ulp_var_rejects_malformed_values_with_exit_2() {
    let out_dir = std::env::temp_dir().join("ulp_env_strict");
    std::fs::create_dir_all(&out_dir).expect("tmp out dir");
    for (bin, var) in CASES {
        let out_file = out_dir.join("never_written.json");
        let output = scrubbed(bin)
            .args(["--smoke", "--out", out_file.to_str().expect("utf-8 tmp")])
            .env(var, "bogus-value")
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{bin} with {var}=bogus-value: expected exit 2, got {:?}\nstderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(var),
            "{bin} rejection must name {var}; stderr: {stderr}"
        );
        assert!(
            !out_file.exists(),
            "{bin} with malformed {var} must not write its report"
        );
    }
}

/// Positive control: with every knob set to a valid value the attack
/// campaign runs to completion, writes its report, and exits 0 — proving
/// the rejections above come from validation, not incidental breakage.
#[test]
fn valid_env_values_are_accepted() {
    let out_file = std::env::temp_dir().join("ulp_env_strict_ok.json");
    let output = scrubbed(env!("CARGO_BIN_EXE_attack_campaign"))
        .args(["--smoke", "--out", out_file.to_str().expect("utf-8 tmp")])
        .env("ULP_METRICS", "counters")
        .env("ULP_PAR_THREADS", "2")
        .env("ULP_SAMPLER_PATH", "fast")
        .env("ULP_ATTACK_SEED", "7")
        .output()
        .expect("spawn attack_campaign");
    assert!(
        output.status.success(),
        "valid env rejected: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json = std::fs::read_to_string(&out_file).expect("report written");
    assert!(json.contains("\"schema\": \"ulp-ldp/attack_campaign/v1\""));
    assert!(json.contains("\"seed\": 7"), "ULP_ATTACK_SEED must win");
    std::fs::remove_file(&out_file).ok();
}

/// Positive control for the service knobs: valid `ULP_SERVICE_*` values
/// override the headline cell's window width and queue capacity, and the
/// report records them.
#[test]
fn valid_service_overrides_are_applied() {
    let out_file = std::env::temp_dir().join("ulp_env_strict_service_ok.json");
    let output = scrubbed(env!("CARGO_BIN_EXE_fleet_service"))
        .args(["--smoke", "--out", out_file.to_str().expect("utf-8 tmp")])
        .env("ULP_SERVICE_WINDOW_EPOCHS", "4")
        .env("ULP_SERVICE_QUEUE_FRAMES", "8192")
        .output()
        .expect("spawn fleet_service");
    assert!(
        output.status.success(),
        "valid service env rejected: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json = std::fs::read_to_string(&out_file).expect("report written");
    assert!(json.contains("\"schema\": \"ulp-ldp/fleet_service/v2\""));
    assert!(
        json.contains("\"name\": \"stream\", \"devices\": 2000, \"epochs\": 8, \"window_epochs\": 4, \"queue_frames\": 8192"),
        "ULP_SERVICE_* must win for the stream cell"
    );
    std::fs::remove_file(&out_file).ok();
}
