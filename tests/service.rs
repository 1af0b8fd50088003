//! Streaming-service determinism: rollup order-invariance (property),
//! windowed rollups equal to the one-window run, and the multi-window run's
//! thread, engine and ingest-path invariance. Its shard-count invariance is
//! checked with the other differential runs in `fleet.rs`.

mod common;

use proptest::prelude::*;
use ulp_ldp::fleet::{
    Collector, FleetDriver, Payload, QueryConfig, QueryKind, Report, Rollup, SealedWindow,
    ServiceConfig,
};
use ulp_ldp::ldp::BudgetLedger;

const NUMERIC: QueryConfig = QueryConfig {
    id: 0,
    kind: QueryKind::Numeric {
        sketch_min_k: -64,
        sketch_max_k: 64,
    },
};
const RR: QueryConfig = QueryConfig {
    id: 1,
    kind: QueryKind::RrBit,
};

/// Drives a real [`ulp_ldp::fleet::FleetService`] through `windows`
/// single-epoch windows — distinct devices and values per epoch, a real
/// per-window ε ledger — and returns the sealed windows.
fn sealed_windows(windows: u32) -> Vec<SealedWindow> {
    let mut service = ulp_ldp::fleet::FleetService::new(
        Collector::new(2, &[NUMERIC, RR]),
        ServiceConfig::new(1, 1 << 12),
        2,
        windows,
    );
    for epoch in 0..windows {
        let mut bytes = Vec::new();
        let mut ledger = BudgetLedger::new();
        let mut charges = Vec::new();
        for d in 0..16u32 {
            let device = epoch * 100 + d;
            Report {
                device,
                query: 0,
                epoch,
                payload: Payload::Value(i32::try_from(device).unwrap() % 7 - 3),
            }
            .encode_into(&mut bytes);
            Report {
                device,
                query: 1,
                epoch,
                payload: Payload::RrBit(device % 3 == 0),
            }
            .encode_into(&mut bytes);
            let charge = 0.25 + f64::from(d) / 64.0;
            ledger
                .record_spend(u64::from(device), u64::from(epoch), charge)
                .expect("distinct devices never double-spend");
            charges.push(charge);
        }
        service.offer((epoch % 2) as usize, &bytes).unwrap();
        assert!(service.seal_due(epoch + 1));
        let sealed = service.seal_active(ledger, charges, 32).unwrap();
        assert!(sealed.seal.is_full());
        assert!(sealed.audit_ok);
    }
    service.sealed_windows().to_vec()
}

/// Deterministic Fisher–Yates driven by a splitmix-style step, so the
/// property samples arbitrary permutations from a plain `u64` seed.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x243F_6A88_85A3_08D3);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Absorbing the same sealed windows in *any* order must finalize to
    /// byte-identical rollup accumulators, ε-ledger, and digest — the
    /// rollup canonicalizes on window index, not arrival order.
    #[test]
    fn rollup_is_invariant_to_absorption_order(seed in any::<u64>(), windows in 2u32..7) {
        let sealed = sealed_windows(windows);

        let mut baseline = Rollup::new();
        for w in &sealed {
            baseline.absorb(w.clone()).unwrap();
        }
        let baseline = baseline.finalize(1.0);

        let mut shuffled = Rollup::new();
        for &i in &permutation(sealed.len(), seed) {
            shuffled.absorb(sealed[i].clone()).unwrap();
        }
        let shuffled = shuffled.finalize(1.0);

        prop_assert_eq!(shuffled.digest, baseline.digest);
        prop_assert_eq!(&shuffled.totals, &baseline.totals);
        prop_assert_eq!(&shuffled.ledger, &baseline.ledger);
        prop_assert_eq!(shuffled.ledger.total().to_bits(), baseline.ledger.total().to_bits());
        prop_assert_eq!(shuffled.audit_ok, baseline.audit_ok);
        prop_assert_eq!(
            (shuffled.windows, shuffled.epoch_lo, shuffled.epoch_hi),
            (baseline.windows, baseline.epoch_lo, baseline.epoch_hi)
        );
    }

    /// Re-absorbing any window index is a typed error, never a silent
    /// double-count.
    #[test]
    fn duplicate_window_absorption_is_rejected(dup in 0usize..4) {
        let sealed = sealed_windows(4);
        let mut rollup = Rollup::new();
        for w in &sealed {
            rollup.absorb(w.clone()).unwrap();
        }
        prop_assert!(rollup.absorb(sealed[dup].clone()).is_err());
    }
}

/// Child half of [`service_digest_identical_across_threads_and_engines`]:
/// prints the multi-window run's digest under the parent's
/// `ULP_PAR_THREADS`.
#[test]
#[ignore = "helper re-executed by service_digest_identical_across_threads_and_engines"]
fn service_digest_child() {
    let (fleet, svc) = common::service_cfg();
    common::print_digest(&FleetDriver::new(fleet).unwrap().run_service(&svc).unwrap());
}

/// The multi-window run's canonical outcome — window digests and seals,
/// rollup estimates and digest, ε-ledger digest — is byte-identical on the
/// batch and reference device engines (and on the columnar and reference
/// ingest paths) in-process, and its digest is bit-identical at 1 and 4
/// worker threads (re-exec).
#[test]
fn service_digest_identical_across_threads_and_engines() {
    let (fleet, svc) = common::service_cfg();
    let out = common::assert_oracles_agree("service", fleet, Some(&svc));
    assert_eq!(out.windows_sealed, 2);
    assert_eq!(
        common::digest_at_1_and_4_threads("service_digest_child"),
        format!("{:016x}", out.digest())
    );
}

/// The rollup of a windowed run reproduces the one-window (batch) run's
/// estimates bit for bit — windowing plus merge loses nothing.
#[test]
fn windowed_rollup_matches_batch_estimates() {
    let (fleet, svc) = common::service_cfg();
    let batch = common::one_window(fleet.clone());
    let windowed = FleetDriver::new(fleet).unwrap().run_service(&svc).unwrap();
    assert_eq!((batch.windows_sealed, windowed.windows_sealed), (1, 2));
    assert_eq!(windowed.stats.accepted, batch.stats.accepted);
    assert_eq!(windowed.ledger_digest, batch.ledger_digest);
    assert_eq!(windowed.rollup_ledger_entries, batch.rollup_ledger_entries);
    for (w, b) in [
        (windowed.rollup_mean, batch.rollup_mean),
        (windowed.rollup_variance, batch.rollup_variance),
        (windowed.rollup_median, batch.rollup_median),
        (windowed.rollup_rr_frequency, batch.rollup_rr_frequency),
    ] {
        let (w, b) = (w.expect("windowed estimate"), b.expect("batch estimate"));
        assert_eq!(w.value.to_bits(), b.value.to_bits());
        assert_eq!(w.stderr.to_bits(), b.stderr.to_bits());
        assert_eq!(w.n, b.n);
    }
}
