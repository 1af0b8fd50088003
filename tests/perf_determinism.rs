//! Determinism and cache-coherence guarantees of the parallel evaluation
//! engine.
//!
//! The engine's contract is that every sweep is **byte-identical at any
//! thread count**: each cell seeds its own RNG stream from the cell
//! coordinates alone, [`ulp_par`] reassembles results in item order, and a
//! worker thread never leaks state into a cell. These tests pin that
//! contract in-process by comparing three executions of the same sweep:
//!
//! * forced-serial (`par_map_with(1, …)`),
//! * forced-wide (`par_map_with(k, …)` for several `k`),
//! * nested-inside-a-pool (a worker's `IN_POOL` guard degrades inner
//!   `par_map` calls to serial — so a sweep run *inside* a single-item
//!   outer pool exercises the serial path of the same public function
//!   whose top-level call takes the parallel path).
//!
//! The cross-*process* leg — `ULP_PAR_THREADS=1` vs `=4` digests over the
//! full artifact set — runs in CI via `bench_perf` (see
//! `.github/workflows/ci.yml` and DESIGN.md §Performance architecture).
//!
//! The caching leg asserts that the memoized PMF/threshold lookups are
//! indistinguishable from fresh construction.

use proptest::prelude::*;
use ulp_ldp::datasets::{all_benchmarks, statlog_heart, Query};
use ulp_ldp::eval::{
    adversary_curves, averaging_attack, campaign_row, pre_detection_loss, rr_curve, utility_row,
    utility_table, CampaignConfig, ExperimentSetup, FaultKind,
};
use ulp_ldp::ldp::{
    exact_threshold, exact_threshold_cached, segment_table_cached, LimitMode, QuantizedRange,
    RandomizedResponse, SegmentTable,
};
use ulp_ldp::rng::{cached_pmf, stream_seed, FxpLaplaceConfig, FxpNoisePmf};

const EPS: f64 = 0.5;
const MULTIPLE: f64 = 2.0;
const SEED: u64 = 2018;

/// Runs `f` inside a 2-wide outer pool on a single item, which forces every
/// inner `par_map` in `f` onto the serial path (the `IN_POOL` guard).
fn forced_serial<R: Send>(f: impl Fn() -> R + Sync) -> R {
    ulp_par::par_map_with(2, &[()], |_| f())
        .into_iter()
        .next()
        .expect("one item in, one result out")
}

#[test]
fn utility_rows_are_thread_count_invariant() {
    let specs: Vec<_> = all_benchmarks().into_iter().take(3).collect();
    let row = |spec: &ulp_ldp::datasets::DatasetSpec| {
        utility_row(spec, Query::Mean, EPS, MULTIPLE, 20, SEED).expect("utility row")
    };
    let serial: Vec<_> = ulp_par::par_map_with(1, &specs, row);
    for k in [2, 3, 8] {
        assert_eq!(serial, ulp_par::par_map_with(k, &specs, row), "width {k}");
    }
    // The public parallel table equals the forced-serial map, cell for cell.
    let table = utility_table(&specs, Query::Mean, EPS, MULTIPLE, 20, SEED).expect("table");
    assert_eq!(serial, table);
}

#[test]
fn utility_row_parallel_kinds_equal_serial_kinds() {
    // Top-level: the four mechanism kinds evaluate in parallel. Inside an
    // outer pool: the same call runs them serially. Same bytes either way.
    let spec = statlog_heart();
    let parallel = utility_row(&spec, Query::Mean, EPS, MULTIPLE, 25, SEED).unwrap();
    let serial = forced_serial(|| utility_row(&spec, Query::Mean, EPS, MULTIPLE, 25, SEED))
        .expect("forced-serial row");
    assert_eq!(parallel, serial);
}

#[test]
fn adversary_curves_equal_serial_attacks() {
    let setup = ExperimentSetup::paper_default(&statlog_heart(), EPS).unwrap();
    let budgets = [None, Some(50.0), Some(10.0)];
    let multiples = [1.5, 2.0, 3.0];
    let checkpoints = [1u64, 10, 100, 1_000];
    let parallel =
        adversary_curves(&setup, 131.0, &budgets, &multiples, &checkpoints, SEED).unwrap();
    let serial: Vec<_> = budgets
        .iter()
        .map(|&b| averaging_attack(&setup, 131.0, b, &multiples, &checkpoints, SEED).unwrap())
        .collect();
    assert_eq!(parallel, serial);
}

#[test]
fn fault_campaign_row_is_thread_count_invariant() {
    let fault = FaultKind::StuckAt {
        bit: 31,
        value: true,
    };
    let cc = CampaignConfig::default();
    let parallel = campaign_row(fault, &cc, 4, 7).unwrap();
    let serial = forced_serial(|| campaign_row(fault, &cc, 4, 7)).expect("forced-serial row");
    assert_eq!(parallel, serial);
}

#[test]
fn pre_detection_loss_is_thread_count_invariant() {
    let fault = FaultKind::Biased { extra_256: 64 };
    let cc = CampaignConfig::default();
    let parallel = pre_detection_loss(fault, &cc, 2, 0xABCD).unwrap();
    let serial =
        forced_serial(|| pre_detection_loss(fault, &cc, 2, 0xABCD)).expect("forced-serial loss");
    assert_eq!(parallel, serial);
}

#[test]
fn rr_curve_is_thread_count_invariant() {
    let rr = RandomizedResponse::new(0.25).unwrap();
    let parallel = rr_curve(rr, 0.68, &[100, 1_000, 5_000], 10, SEED);
    let serial = forced_serial(|| rr_curve(rr, 0.68, &[100, 1_000, 5_000], 10, SEED));
    assert_eq!(parallel, serial);
}

#[test]
fn cached_pmf_equals_fresh_closed_form() {
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
    assert_eq!(*cached_pmf(cfg).unwrap(), FxpNoisePmf::closed_form(cfg));
}

#[test]
fn cached_threshold_equals_fresh_solve() {
    let cfg = FxpLaplaceConfig::new(14, 12, 1.0, 30.0).unwrap();
    let range = QuantizedRange::new(0, 30, 1.0).unwrap();
    let pmf = FxpNoisePmf::closed_form(cfg);
    for mode in [LimitMode::Resampling, LimitMode::Thresholding] {
        let fresh = exact_threshold(cfg, &pmf, range, MULTIPLE, mode).unwrap();
        let cached = exact_threshold_cached(cfg, range, MULTIPLE, mode).unwrap();
        assert_eq!(fresh.n_th_k, cached.n_th_k, "{mode:?}");
        assert_eq!(
            fresh.guaranteed_loss.to_bits(),
            cached.guaranteed_loss.to_bits(),
            "{mode:?}"
        );
    }
}

#[test]
fn cached_segment_table_equals_fresh_build() {
    let cfg = FxpLaplaceConfig::new(14, 12, 1.0, 30.0).unwrap();
    let range = QuantizedRange::new(0, 30, 1.0).unwrap();
    let multiples = [1.5, 2.0, 3.0];
    let pmf = FxpNoisePmf::closed_form(cfg);
    let fresh = SegmentTable::build(cfg, &pmf, range, &multiples, LimitMode::Thresholding).unwrap();
    let cached = segment_table_cached(cfg, range, &multiples, LimitMode::Thresholding).unwrap();
    assert_eq!(fresh, cached);
    // A second lookup must serve the same value again.
    let again = segment_table_cached(cfg, range, &multiples, LimitMode::Thresholding).unwrap();
    assert_eq!(cached, again);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `par_map_with` preserves per-item results and ordering for any
    /// width, even when each item owns a seeded RNG stream (the structure
    /// every evaluation sweep relies on).
    #[test]
    fn par_map_rng_streams_are_width_invariant(master in any::<u64>(), width in 1usize..9) {
        let items: Vec<u64> = (0..23).collect();
        let cell = |&i: &u64| {
            let mut rng = ulp_ldp::rng::Taus88::from_seed(stream_seed(master, &[i]));
            use ulp_ldp::rng::RandomBits;
            (0..50).map(|_| u64::from(rng.next_u32())).sum::<u64>()
        };
        let serial: Vec<u64> = items.iter().map(cell).collect();
        let wide = ulp_par::par_map_with(width, &items, cell);
        prop_assert_eq!(serial, wide);
    }

    /// Per-cell stream seeds depend only on the coordinates, never on
    /// evaluation order.
    #[test]
    fn stream_seed_is_pure(master in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(stream_seed(master, &[a, b]), stream_seed(master, &[a, b]));
        if a != b {
            prop_assert_ne!(stream_seed(master, &[a, b]), stream_seed(master, &[b, a]));
        }
    }
}
