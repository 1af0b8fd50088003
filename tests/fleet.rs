//! Fleet subsystem end-to-end and property tests: wire-format round-trips,
//! the differential oracles (reference device engine and reference ingest
//! path, in-process), schedule-independence digests across thread and
//! shard counts, and population-statistics recovery with fail-safe device
//! exclusion.

mod common;

use proptest::prelude::*;
use ulp_ldp::datasets::DatasetSpec;
use ulp_ldp::eval::GroundTruth;
use ulp_ldp::fleet::{FleetConfig, FleetDriver, Payload, Report, WireError, FRAME_LEN};

fn arb_report() -> impl Strategy<Value = Report> {
    (
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<i32>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(device, query, epoch, value, is_rr, bit)| Report {
            device,
            query,
            epoch,
            payload: if is_rr {
                Payload::RrBit(bit)
            } else {
                Payload::Value(value)
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_roundtrip_is_identity(report in arb_report()) {
        let frame = report.encode();
        prop_assert_eq!(frame.len(), FRAME_LEN);
        prop_assert_eq!(Report::decode(&frame).unwrap(), report);
    }

    #[test]
    fn truncated_frames_are_typed_errors(report in arb_report(), keep in 0usize..FRAME_LEN) {
        let frame = report.encode();
        prop_assert_eq!(
            Report::decode(&frame[..keep]),
            Err(WireError::Truncated { got: keep })
        );
    }

    #[test]
    fn corrupted_frames_never_decode_silently(
        report in arb_report(),
        byte in 0usize..FRAME_LEN,
        mask in 1u8..=255,
    ) {
        let mut frame = report.encode();
        frame[byte] ^= mask;
        // The 16-bit checksum can collide (p ≈ 2⁻¹⁶); a "successful"
        // decode must at least never resurrect the original report
        // from different bytes.
        if let Ok(decoded) = Report::decode(&frame) {
            prop_assert_ne!(decoded, report);
        }
    }

    #[test]
    fn future_versions_are_rejected(report in arb_report(), version in 3u8..=255) {
        let mut frame = report.encode();
        frame[1] = version;
        prop_assert_eq!(
            Report::decode(&frame),
            Err(WireError::UnsupportedVersion { found: version })
        );
    }
}

/// Child half of [`digest_identical_across_threads_paths_and_engines`]:
/// prints the clean run's digest under the parent's `ULP_PAR_THREADS`.
#[test]
#[ignore = "helper re-executed by digest_identical_across_threads_paths_and_engines"]
fn thread_digest_child() {
    common::print_digest(&common::one_window(common::clean_cfg()));
}

/// The clean one-window run's canonical outcome is byte-identical on the
/// batch and reference device engines and on the columnar and reference
/// ingest paths (in-process), and its digest is bit-identical at 1 and 4
/// worker threads (re-exec).
#[test]
fn digest_identical_across_threads_paths_and_engines() {
    let out = common::assert_oracles_agree("clean", common::clean_cfg(), None);
    assert_eq!(
        common::digest_at_1_and_4_threads("thread_digest_child"),
        format!("{:016x}", out.digest())
    );
}

/// Device `d` lives in shard `d mod shards`, and every fold is exact
/// integer arithmetic in shard order: each differential run's canonical
/// outcome is byte-identical at 1 and 8 collector shards.
#[test]
fn digest_identical_at_1_and_8_shards() {
    for (name, cfg, svc) in common::differential_runs() {
        let at = |shards: usize| {
            let cfg = FleetConfig {
                shards,
                ..cfg.clone()
            };
            common::run(FleetDriver::new(cfg).unwrap(), svc.as_ref())
        };
        let (one, eight) = (at(1), at(8));
        assert_eq!(one.digest(), eight.digest(), "{name}");
    }
}

/// 10k devices answer the RR threshold query; the debiased frequency must
/// land within 3 analytic standard errors of the truth, with the
/// health-faulted subset excluded fail-safe (before reporting) and without
/// biasing the estimate relative to the *full* population either.
#[test]
fn rr_frequency_recovered_within_three_se_with_faulted_subset_excluded() {
    let cfg = FleetConfig {
        epochs: 1,
        shards: 4,
        chunk: 512,
        faulty_per_mille: 5,
        ..FleetConfig::paper_default(10_000, 1, 2018)
    };
    let spec = cfg.spec.clone();
    let (seed, threshold, eps_shift) = (cfg.seed, cfg.threshold_code, cfg.eps_shift);
    let out = common::one_window(cfg);

    // ~5‰ of 10k devices wired faulty: all of them (and only them) must be
    // caught by the power-on self-test.
    assert!(
        (20..=90).contains(&out.devices_excluded),
        "expected ≈50 excluded devices, got {}",
        out.devices_excluded
    );
    assert_eq!(out.devices_dropped, 0);
    assert_eq!(out.stats.rejected, 0);
    assert_eq!(
        out.stats.accepted,
        2 * (10_000 - out.devices_excluded) as u64
    );
    assert!(out.audit_ok, "fleet privacy ledger must audit clean");

    let est = out.rollup_rr_frequency.expect("populated RR estimate");
    let gate = 3.0 * est.stderr;
    assert!(
        (est.value - out.truth_fraction).abs() <= gate,
        "RR frequency {:.4} vs included-population truth {:.4} exceeds 3·SE = {:.4}",
        est.value,
        out.truth_fraction,
        gate
    );

    // Exclusion is value-independent, so the estimate is also unbiased for
    // the full pre-exclusion population.
    let full = GroundTruth::prepare(
        &DatasetSpec {
            entries: 10_000,
            ..spec
        },
        2f64.powi(-i32::from(eps_shift)),
        seed,
    )
    .unwrap();
    let above = full.codes_k.iter().filter(|&&k| k >= threshold).count();
    let full_truth = above as f64 / full.len() as f64;
    assert!(
        (est.value - full_truth).abs() <= gate + 0.01,
        "RR frequency {:.4} vs full-population truth {:.4} exceeds 3·SE + subsample slack",
        est.value,
        full_truth
    );

    // The mean estimator rides along: within its own gate.
    let mean = out.rollup_mean.expect("populated mean estimate");
    assert!(
        (mean.value - out.truth_mean).abs() <= 3.0 * mean.stderr + mean.bias_bound,
        "mean {:.3} vs truth {:.3} exceeds 3·SE + bias bound {:.3}",
        mean.value,
        out.truth_mean,
        3.0 * mean.stderr + mean.bias_bound
    );
}
