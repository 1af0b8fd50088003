//! Streaming-service determinism: rollup order-invariance (property),
//! windowed rollups equal to the one-window run, and the multi-window run's
//! thread, engine and ingest-path invariance. Its shard-count invariance is
//! checked with the other differential runs in `fleet.rs`. Also the ε-ledger
//! the service keeps: the rollup's streaming audit against the merged
//! ledger it replaced, and what a sealed window still holds.

mod common;

use proptest::prelude::*;
use ulp_ldp::fleet::{
    Collector, FleetConfig, FleetDriver, Payload, QueryConfig, QueryKind, Report, Rollup,
    SealedWindow, ServiceConfig,
};
use ulp_ldp::ldp::{BudgetLedger, CompositionLedger};

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

        let mut in_order = Rollup::new();
        for w in &sealed {
            in_order.absorb(w.clone()).unwrap();
        }
        let baseline = in_order.finalize(1.0);

        let mut permuted = Rollup::new();
        for &i in &permutation(sealed.len(), seed) {
            permuted.absorb(sealed[i].clone()).unwrap();
        }
        let shuffled = permuted.finalize(1.0);

        prop_assert_eq!(shuffled.digest, baseline.digest);
        prop_assert_eq!(&shuffled.totals, &baseline.totals);
        prop_assert_eq!(shuffled.ledger, baseline.ledger);
        prop_assert_eq!(shuffled.ledger.total().to_bits(), baseline.ledger.total().to_bits());
        // The entry sequence the streaming audit reads, window after window
        // in index order — what the merged ledger used to replay.
        let entries = |r: &Rollup| {
            r.windows().iter().flat_map(|w| w.ledger.entries().to_vec()).collect::<Vec<_>>()
        };
        prop_assert_eq!(entries(&permuted), entries(&in_order));
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

/// The rollup's verdict, entry count and total bits, folded as `finalize`
/// folded before its streaming pass: every window ledger merged into one
/// `BudgetLedger`, audited against a `CompositionLedger` over every
/// window's charges, after the windows' own seal verdicts.
fn merged_fold(windows: &[SealedWindow]) -> (bool, usize, u64) {
    let mut ledger = BudgetLedger::new();
    let mut accountant = CompositionLedger::new();
    for w in windows {
        ledger.merge(&w.ledger);
        accountant.extend(w.charges.iter().copied());
    }
    let audit_ok = windows.iter().all(|w| w.audit_ok) && ledger.audit(&accountant).is_ok();
    (audit_ok, ledger.len(), ledger.total().to_bits())
}

/// Charges tampered with after the seal — one extra trailing charge, two
/// charges swapped, one charge a bit off — fail the rollup's streaming
/// audit, which agrees with the merged-ledger fold in verdict, entry count
/// and total bits on clean windows and under every mutation.
#[test]
fn tampered_charges_fail_the_rollup_audit_like_the_merged_fold() {
    let sealed = sealed_windows(4);
    type Tamper = fn(&mut Vec<f64>);
    let mutations: [(&str, Tamper); 3] = [
        ("extra trailing charge", |c| c.push(0.5)),
        ("two charges swapped", |c| c.swap(0, 1)),
        ("one charge a bit off", |c| {
            c[2] = f64::from_bits(c[2].to_bits() ^ 1)
        }),
    ];
    let check = |windows: &[SealedWindow], what: &str| -> bool {
        let mut rollup = Rollup::new();
        for w in windows.iter().rev() {
            rollup.absorb(w.clone()).unwrap();
        }
        let outcome = rollup.finalize(1.0);
        let streamed = (
            outcome.audit_ok,
            outcome.ledger.len(),
            outcome.ledger.total().to_bits(),
        );
        assert_eq!(streamed, merged_fold(windows), "{what}");
        outcome.audit_ok
    };
    assert!(check(&sealed, "clean"));
    for (what, mutate) in mutations {
        for k in 0..sealed.len() {
            let mut tampered = sealed.clone();
            mutate(&mut tampered[k].charges);
            assert!(!check(&tampered, what), "{what} in window {k} audits clean");
        }
    }
}

/// After a multi-window run every sealed window holds its share of the
/// ε-ledger once: the keyed double-spend index was released at the seal,
/// and the ledger's entries pair one to one with the charges it was
/// audited against.
#[test]
fn sealed_windows_release_their_spend_index() {
    let (clean, svc) = common::service_cfg();
    let chaos = FleetConfig {
        epochs: 4,
        ..common::chaos_cfg()
    };
    for (name, fleet) in [("service", clean), ("chaos", chaos)] {
        let (out, service) = FleetDriver::new(fleet).unwrap().serve(&svc).unwrap();
        assert_eq!(out.windows_sealed, 2, "{name}");
        assert!(out.audit_ok, "{name}");
        for w in service.sealed_windows() {
            assert!(
                !w.charges.is_empty(),
                "{name}: window {} charged nothing",
                w.index
            );
            assert_eq!(w.ledger.spend_keys(), 0, "{name}: window {}", w.index);
            assert_eq!(
                w.ledger.len(),
                w.charges.len(),
                "{name}: window {}",
                w.index
            );
        }
        let entries: usize = service
            .sealed_windows()
            .iter()
            .map(|w| w.ledger.len())
            .sum();
        assert_eq!(out.rollup_ledger_entries, entries, "{name}");
    }
}
