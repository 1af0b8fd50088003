//! Chaos-path integration tests: idempotent-ingest fold equivalence under
//! arbitrary duplication + reordering, and the replay-safe retry audit
//! (retries never re-spend privacy budget; malformed senders are
//! quarantined), and the chaotic run's thread, engine and ingest-path
//! invariance. Its shard-count invariance is checked with the other
//! differential runs in `fleet.rs`.

mod common;

use proptest::prelude::*;
use ulp_ldp::fleet::{
    Collector, FleetConfig, IngestStats, Payload, QueryConfig, QueryKind, Report, RR_QUERY,
    VALUE_QUERY,
};

const SKETCH_K: i64 = 64;

fn test_queries() -> [QueryConfig; 2] {
    [
        QueryConfig {
            id: VALUE_QUERY,
            kind: QueryKind::Numeric {
                sketch_min_k: -SKETCH_K,
                sketch_max_k: SKETCH_K,
            },
        },
        QueryConfig {
            id: RR_QUERY,
            kind: QueryKind::RrBit,
        },
    ]
}

/// Reports with unique `(device, query, epoch)` keys, epochs confined to the
/// collector's two-block dedup window so admission is order-insensitive.
fn arb_unique_reports() -> impl Strategy<Value = Vec<Report>> {
    proptest::collection::vec(
        (
            0u32..8,
            0u32..128,
            any::<bool>(),
            -(SKETCH_K as i32)..=SKETCH_K as i32,
            any::<bool>(),
        ),
        1..40,
    )
    .prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (device, epoch, is_rr, value, bit) in raw {
            let (query, payload) = if is_rr {
                (RR_QUERY, Payload::RrBit(bit))
            } else {
                (VALUE_QUERY, Payload::Value(value))
            };
            if seen.insert((device, query, epoch)) {
                out.push(Report {
                    device,
                    query,
                    epoch,
                    payload,
                });
            }
        }
        out
    })
}

fn ingest_all(reports: &[Report], shards: usize) -> (Collector, IngestStats) {
    let mut collector = Collector::new(shards, &test_queries());
    let bytes: Vec<u8> = reports.iter().flat_map(|r| r.encode()).collect();
    let stats = collector.ingest_frames(&bytes);
    (collector, stats)
}

/// Seeded Fisher–Yates (splitmix64 steps) so shuffles are reproducible from
/// the proptest case alone.
fn shuffle(v: &mut [Report], mut s: u64) {
    for i in (1..v.len()).rev() {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        v.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of duplicated + reordered frames must fold to the
    /// exact totals of the clean stream: duplicates are absorbed by the
    /// dedup window, reordering by the order-insensitive accumulators.
    #[test]
    fn duplicated_reordered_streams_fold_to_the_clean_digest(
        clean in arb_unique_reports(),
        copies in proptest::collection::vec(0usize..4, 64),
        shuffle_seed in any::<u64>(),
        shards in 1usize..4,
    ) {
        let mut chaotic = Vec::new();
        let mut extra = 0usize;
        for (i, r) in clean.iter().enumerate() {
            let c = copies[i % copies.len()];
            extra += c;
            for _ in 0..=c {
                chaotic.push(*r);
            }
        }
        shuffle(&mut chaotic, shuffle_seed);
        let (mut reference, _) = ingest_all(&clean, 1);
        let (mut folded, stats) = ingest_all(&chaotic, shards);
        prop_assert_eq!(folded.take_window_totals(), reference.take_window_totals());
        prop_assert_eq!(folded.reports_ingested(), clean.len() as u64);
        prop_assert_eq!(folded.frames_rejected(), 0);
        prop_assert_eq!(
            stats.duplicates,
            extra as u64,
            "every extra copy must be counted as a duplicate"
        );
    }
}

/// Child half of [`chaos_digest_identical_across_threads_paths_and_engines`]:
/// prints the chaotic run's digest under the parent's `ULP_PAR_THREADS`.
#[test]
#[ignore = "helper re-executed by chaos_digest_identical_across_threads_paths_and_engines"]
fn chaos_thread_digest_child() {
    common::print_digest(&common::one_window(common::chaos_cfg()));
}

/// The fault pattern is a pure function of `(chaos seed, device, attempt)`,
/// so even under 10% drop / 10% duplicate / 5% corrupt transport with two
/// planted malformed senders the canonical outcome — totals, retries,
/// quarantine, seal, ε-ledger digest — is byte-identical on the batch and
/// reference device engines and on the columnar and reference ingest paths
/// (in-process), and its digest is bit-identical at 1 and 4 worker threads
/// (re-exec).
#[test]
fn chaos_digest_identical_across_threads_paths_and_engines() {
    let out = common::assert_oracles_agree("chaos", common::chaos_cfg(), None);
    // Both ingest paths went through resync, dedup and quarantine.
    let s = out.stats;
    assert!(s.corrupt_frames > 0 && s.resyncs > 0 && s.duplicates > 0);
    assert_eq!(s.quarantine_latched, 2);
    assert_eq!(
        common::digest_at_1_and_4_threads("chaos_thread_digest_child"),
        format!("{:016x}", out.digest())
    );
}

/// End-to-end replay-safety audit: a lossy run spends exactly the budget of
/// the clean run (bitwise, per device), records zero double-spends, and
/// latches the planted malformed senders without touching the estimates.
#[test]
fn retries_never_respend_budget_and_quarantine_latches() {
    let chaotic = common::one_window(common::chaos_cfg());
    let quiet = common::one_window(FleetConfig {
        chaos: None,
        ..common::chaos_cfg()
    });

    // The transport was genuinely hostile...
    assert!(chaotic.retry_attempts > 0, "chaos must force retries");
    assert!(chaotic.stats.duplicates > 0, "chaos must duplicate frames");
    assert!(
        chaotic.stats.corrupt_frames > 0,
        "chaos must corrupt frames"
    );

    // ...yet the privacy spend is bitwise the no-fault spend.
    assert_eq!(chaotic.ledger_digest, quiet.ledger_digest);
    assert_eq!(chaotic.rollup_ledger_entries, quiet.rollup_ledger_entries);
    assert_eq!(
        chaotic.rollup_ledger_total.to_bits(),
        quiet.rollup_ledger_total.to_bits()
    );
    assert_eq!(chaotic.double_spends, 0);
    assert_eq!(quiet.double_spends, 0);
    assert!(chaotic.audit_ok && quiet.audit_ok);

    // The planted malformed senders (ids above the honest population) are
    // latched in both runs; honest devices never are.
    assert_eq!(chaotic.quarantined, vec![400, 401]);
    assert_eq!(quiet.quarantined, vec![400, 401]);
}
