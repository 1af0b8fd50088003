//! The fleet runs the integration tests share: the three configurations
//! every differential property (device engine, ingest path, thread count,
//! shard count) is checked on.

// Each test crate includes this module and uses a subset of it.
#![allow(dead_code)]

use ulp_ldp::fleet::{
    ChaosConfig, DeviceEngine, FaultClass, FleetConfig, FleetDriver, IngestPath, ServiceConfig,
    ServiceOutcome,
};

/// A clean 400-device, 2-epoch fleet in 64-device chunks.
pub fn clean_cfg() -> FleetConfig {
    FleetConfig {
        chunk: 64,
        ..FleetConfig::paper_default(400, 2, 77)
    }
}

/// [`clean_cfg`] through 10% bursty drop, 10% duplicate, 5% reorder,
/// 5% corrupt, 2% truncate and 5% delay, plus two planted malformed
/// senders (ids 400 and 401).
pub fn chaos_cfg() -> FleetConfig {
    FleetConfig {
        chaos: Some(ChaosConfig {
            seed: 0xC4A05,
            drop: FaultClass::bursty(0.10, 4.0),
            duplicate: FaultClass::flat(0.10),
            reorder: FaultClass::flat(0.05),
            corrupt: FaultClass::flat(0.05),
            truncate: FaultClass::flat(0.02),
            delay: FaultClass::flat(0.05),
        }),
        malformed_senders: 2,
        ..clean_cfg()
    }
}

/// A 4-epoch fleet served in two 2-epoch windows.
pub fn service_cfg() -> (FleetConfig, ServiceConfig) {
    let fleet = FleetConfig {
        epochs: 4,
        ..clean_cfg()
    };
    (fleet, ServiceConfig::new(2, 1 << 14))
}

/// The three differential runs: the clean and chaos fleets as one window
/// (`None`: [`FleetDriver::one_window`]), and the multi-window service run.
pub fn differential_runs() -> [(&'static str, FleetConfig, Option<ServiceConfig>); 3] {
    let (service_fleet, svc) = service_cfg();
    [
        ("clean", clean_cfg(), None),
        ("chaos", chaos_cfg(), None),
        ("service", service_fleet, Some(svc)),
    ]
}

/// Runs `driver` under `svc`, or as one window when `svc` is `None`.
pub fn run(driver: FleetDriver, svc: Option<&ServiceConfig>) -> ServiceOutcome {
    let one_window = driver.one_window();
    driver.run_service(svc.unwrap_or(&one_window)).unwrap()
}

/// Runs fleet `cfg` as one window.
pub fn one_window(cfg: FleetConfig) -> ServiceOutcome {
    run(FleetDriver::new(cfg).unwrap(), None)
}

/// Runs fleet `cfg` (under `svc`, or as one window) on the production
/// pipeline and on each in-process oracle — the reference device engine
/// (one `DpBox` FSM per device) and the scalar reference ingest path —
/// asserts the three canonical outcomes are byte-identical, and returns
/// the production outcome.
pub fn assert_oracles_agree(
    name: &str,
    cfg: FleetConfig,
    svc: Option<&ServiceConfig>,
) -> ServiceOutcome {
    let production = run(FleetDriver::new(cfg.clone()).unwrap(), svc);
    let engine = FleetDriver::new(cfg.clone())
        .unwrap()
        .with_engine(DeviceEngine::Reference);
    assert_eq!(
        production.digest(),
        run(engine, svc).digest(),
        "{name}: batch engine vs reference engine"
    );
    let ingest = FleetDriver::new(cfg)
        .unwrap()
        .with_ingest_path(IngestPath::Reference);
    assert_eq!(
        production.digest(),
        run(ingest, svc).digest(),
        "{name}: columnar ingest vs reference ingest"
    );
    // The 5‰ fault plant fires, so the batch engine's scalar sidecar and
    // the reference engine's boot-time exclusion both run.
    assert!(production.devices_excluded > 0, "{name}: no faulty device");
    production
}

/// What a re-executed child test prints for [`digest_at_1_and_4_threads`].
pub fn print_digest(out: &ServiceOutcome) {
    println!("DIGEST {:016x}", out.digest());
}

/// `ulp_par::threads()` latches once per process, so thread-count variation
/// needs fresh processes: re-executes this test binary, filtered to the
/// ignored test `child`, at 1 and 4 workers, asserts both print the same
/// digest, and returns it.
pub fn digest_at_1_and_4_threads(child: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let digest_at = |threads: &str| -> String {
        let output = std::process::Command::new(&exe)
            .args([child, "--exact", "--ignored", "--nocapture"])
            .env("ULP_PAR_THREADS", threads)
            .output()
            .expect("re-exec test binary");
        assert!(
            output.status.success(),
            "{child} failed at {threads} threads: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        // libtest may print a marker on the same line as its own "test …"
        // prefix, so split on the marker rather than on line starts.
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let digests: Vec<&str> = stdout
            .split("DIGEST ")
            .skip(1)
            .map(|rest| rest.split_whitespace().next().unwrap_or(""))
            .collect();
        assert_eq!(digests.len(), 1, "{child} printed {stdout}");
        digests[0].to_string()
    };
    let serial = digest_at("1");
    assert_eq!(
        digest_at("4"),
        serial,
        "{child}: outcome must be bit-identical at 1 and 4 threads"
    );
    serial
}
