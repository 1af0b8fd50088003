//! Outcome digests pinned to fixed values.
//!
//! Every other digest test compares two paths built from the same source —
//! thread counts, shard counts, device engines, ingest paths — so an
//! ordering bug that all of them share would pass every one. These pins
//! cannot drift with the code: each was taken from the driver that
//! simulated every round before ingesting any, and the round-by-round
//! driver must reproduce it byte for byte. A change that moves one re-pins
//! it, with its reason, like a committed `BENCH_*.json` digest.

mod common;

use common::{chaos_cfg, differential_runs, run};
use ulp_ldp::fleet::{FleetConfig, FleetDriver, ServiceConfig};

#[test]
fn differential_runs_reproduce_their_pinned_digests() {
    let pins = [
        ("clean", 0x5f77_bb64_c58e_5634),
        ("chaos", 0x4153_6221_f3c6_7b36),
        ("service", 0x6893_3595_4bcd_c86b),
    ];
    for ((name, cfg, svc), (pinned, pin)) in differential_runs().into_iter().zip(pins) {
        assert_eq!(name, pinned, "the differential runs changed order");
        let digest = run(FleetDriver::new(cfg).unwrap(), svc.as_ref()).digest();
        assert_eq!(
            digest, pin,
            "{name}: digest {digest:016x}, pinned {pin:016x}"
        );
    }
}

#[test]
fn windowed_chaos_under_backpressure_reproduces_its_pinned_digest() {
    // Delays and backoff retries reach across 2-epoch window edges, the
    // grace of the full delivery slack lets every one land, and 64-frame
    // queues refuse whole rounds with `Busy`.
    let cfg = FleetConfig {
        epochs: 8,
        ..chaos_cfg()
    };
    let svc = ServiceConfig::new(2, 64).with_watermark_lag(cfg.delivery_slack());
    let out = FleetDriver::new(cfg).unwrap().run_service(&svc).unwrap();
    assert_eq!(out.windows_sealed, 4);
    assert!(out.backpressure_rejections > 0, "no Busy refusal");
    assert!(
        out.retry_attempts > 0 && out.stats.duplicates > 0,
        "no retry"
    );
    assert_eq!(out.stats.late, 0);
    let pin = 0xa3ab_9f68_db58_3ac2;
    assert_eq!(
        out.digest(),
        pin,
        "digest {:016x}, pinned {pin:016x}",
        out.digest()
    );
}
