//! Process-wide memoization of threshold solutions and segment tables.
//!
//! The exact threshold search ([`crate::threshold::exact_threshold`]) runs a
//! binary search whose every probe builds two exact conditional
//! distributions — by far the most expensive step of constructing a
//! mechanism. Every regeneration sweep re-solves the *same* handful of
//! (config, range, loss-multiple, mode) instances for each of its thousands
//! of cells, so the solutions are memoized here.
//!
//! # Semantics
//!
//! Both caches are keyed on every input of the pure function they shadow,
//! with `f64` inputs keyed by **bit pattern**:
//!
//! * [`exact_threshold_cached`] ↔ [`crate::threshold::exact_threshold`]
//!   against the closed-form PMF of the config (fetched through
//!   [`ulp_rng::cached_pmf`]);
//! * [`segment_table_cached`] ↔ [`SegmentTable::build`] against the same
//!   PMF.
//!
//! Cached values are structurally equal to freshly computed ones (asserted
//! by the cache-coherence tests below and in `tests/perf_determinism.rs`),
//! so callers may switch freely between the cached and direct paths without
//! changing a single output byte. Entries are immutable and never
//! invalidated — a different configuration is a different key. Only `Ok`
//! results are cached; errors re-run the (cheap, fail-fast) validation.
//! Both maps live behind `RwLock`s so that after warm-up, parallel sweep
//! cells take only read locks and never serialize on the cache.
//!
//! # Poisoning
//!
//! Cached values are immutable once inserted, so a thread that panics while
//! holding a lock cannot leave a half-written entry behind. Lock poisoning
//! is therefore *recovered* (via [`RwLock`]'s `into_inner`) rather than
//! propagated — one panicking sweep cell must not wedge every other worker
//! behind a permanently poisoned cache. Each recovery increments the
//! `ldp.cache.poison_recoveries` counter (recorded even at metrics level
//! `off`) so the event is observable.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use ulp_obs::Counter;
use ulp_rng::{cached_pmf, FxpLaplaceConfig};

use crate::budget::SegmentTable;
use crate::error::LdpError;
use crate::loss::LimitMode;
use crate::range::QuantizedRange;
use crate::threshold::{exact_threshold, ThresholdSpec};

/// Bit-exact key over everything `exact_threshold` reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SolveKey {
    bu: u8,
    by: u8,
    delta_bits: u64,
    lambda_bits: u64,
    min_k: i64,
    max_k: i64,
    range_delta_bits: u64,
    /// Loss multiples (one for a threshold, several for a segment table).
    multiple_bits: Vec<u64>,
    mode: LimitMode,
}

impl SolveKey {
    fn new(
        cfg: FxpLaplaceConfig,
        range: QuantizedRange,
        multiples: &[f64],
        mode: LimitMode,
    ) -> Self {
        SolveKey {
            bu: cfg.bu(),
            by: cfg.by(),
            delta_bits: cfg.delta().to_bits(),
            lambda_bits: cfg.lambda().to_bits(),
            min_k: range.min_k(),
            max_k: range.max_k(),
            range_delta_bits: range.delta().to_bits(),
            multiple_bits: multiples.iter().map(|m| m.to_bits()).collect(),
            mode,
        }
    }
}

fn threshold_cache() -> &'static RwLock<HashMap<SolveKey, ThresholdSpec>> {
    static CACHE: OnceLock<RwLock<HashMap<SolveKey, ThresholdSpec>>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

fn segment_cache() -> &'static RwLock<HashMap<SolveKey, SegmentTable>> {
    static CACHE: OnceLock<RwLock<HashMap<SolveKey, SegmentTable>>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

static THRESHOLD_HITS: Counter = Counter::new("ldp.cache.threshold.hits");
static THRESHOLD_MISSES: Counter = Counter::new("ldp.cache.threshold.misses");
static SEGMENT_HITS: Counter = Counter::new("ldp.cache.segment.hits");
static SEGMENT_MISSES: Counter = Counter::new("ldp.cache.segment.misses");
static POISON_RECOVERIES: Counter = Counter::new("ldp.cache.poison_recoveries");

/// Read-locks `lock`, recovering (and counting) a poisoned guard instead of
/// panicking: entries are immutable, so the data is intact either way.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.record_always(1);
        poisoned.into_inner()
    })
}

/// Write-locks `lock`, recovering (and counting) a poisoned guard.
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.record_always(1);
        poisoned.into_inner()
    })
}

/// [`exact_threshold`](crate::threshold::exact_threshold) against the
/// memoized closed-form PMF of `cfg`, with the solution itself memoized.
///
/// Returns exactly what the direct solver returns for the same inputs.
///
/// # Errors
///
/// Same conditions as [`crate::threshold::exact_threshold`], plus
/// [`LdpError::Rng`] for a support too wide to hold
/// ([`ulp_rng::FxpNoisePmf::check_support`]).
pub fn exact_threshold_cached(
    cfg: FxpLaplaceConfig,
    range: QuantizedRange,
    multiple: f64,
    mode: LimitMode,
) -> Result<ThresholdSpec, LdpError> {
    let key = SolveKey::new(cfg, range, &[multiple], mode);
    if let Some(hit) = read_lock(threshold_cache()).get(&key) {
        THRESHOLD_HITS.inc();
        return Ok(*hit);
    }
    THRESHOLD_MISSES.inc();
    // Solve outside the lock: a solve takes milliseconds and concurrent
    // workers frequently race on the same key at sweep startup.
    let pmf = cached_pmf(cfg)?;
    let spec = exact_threshold(cfg, &pmf, range, multiple, mode)?;
    write_lock(threshold_cache()).insert(key, spec);
    Ok(spec)
}

/// [`SegmentTable::build`] against the memoized closed-form PMF of `cfg`,
/// with the finished table memoized. This is the DP-Box device's noising
/// context in one lookup — the fault campaign constructs thousands of
/// devices with identical configurations.
///
/// # Errors
///
/// Same conditions as [`SegmentTable::build`], plus [`LdpError::Rng`] for
/// a support too wide to hold ([`ulp_rng::FxpNoisePmf::check_support`]).
pub fn segment_table_cached(
    cfg: FxpLaplaceConfig,
    range: QuantizedRange,
    multiples: &[f64],
    mode: LimitMode,
) -> Result<SegmentTable, LdpError> {
    let key = SolveKey::new(cfg, range, multiples, mode);
    if let Some(hit) = read_lock(segment_cache()).get(&key) {
        SEGMENT_HITS.inc();
        return Ok(hit.clone());
    }
    SEGMENT_MISSES.inc();
    let pmf = cached_pmf(cfg)?;
    let table = SegmentTable::build(cfg, &pmf, range, multiples, mode)?;
    write_lock(segment_cache()).insert(key, table.clone());
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::FxpNoisePmf;

    fn paper_setup() -> (FxpLaplaceConfig, QuantizedRange) {
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        (cfg, range)
    }

    #[test]
    fn cached_threshold_equals_direct_solve() {
        let (cfg, range) = paper_setup();
        let pmf = FxpNoisePmf::closed_form(cfg);
        for mode in [LimitMode::Thresholding, LimitMode::Resampling] {
            for multiple in [1.5, 2.0, 3.0] {
                let cached = exact_threshold_cached(cfg, range, multiple, mode).unwrap();
                let fresh = exact_threshold(cfg, &pmf, range, multiple, mode).unwrap();
                assert_eq!(cached, fresh, "{mode:?} n={multiple}");
                // Second lookup (now a hit) must agree too.
                let hit = exact_threshold_cached(cfg, range, multiple, mode).unwrap();
                assert_eq!(hit, fresh);
            }
        }
    }

    #[test]
    fn cached_segment_table_equals_direct_build() {
        let (cfg, range) = paper_setup();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let multiples = [1.5, 2.0, 2.5, 3.0];
        let cached = segment_table_cached(cfg, range, &multiples, LimitMode::Thresholding).unwrap();
        let fresh =
            SegmentTable::build(cfg, &pmf, range, &multiples, LimitMode::Thresholding).unwrap();
        assert_eq!(cached, fresh);
    }

    #[test]
    fn distinct_multiples_are_distinct_entries() {
        let (cfg, range) = paper_setup();
        let a = exact_threshold_cached(cfg, range, 1.5, LimitMode::Thresholding).unwrap();
        let b = exact_threshold_cached(cfg, range, 3.0, LimitMode::Thresholding).unwrap();
        assert!(a.n_th_k < b.n_th_k);
    }

    #[test]
    fn errors_are_not_cached_as_successes() {
        let (cfg, range) = paper_setup();
        assert!(exact_threshold_cached(cfg, range, 1.0, LimitMode::Thresholding).is_err());
        assert!(exact_threshold_cached(cfg, range, 1.0, LimitMode::Thresholding).is_err());
        // A valid multiple still solves after the failed attempts.
        assert!(exact_threshold_cached(cfg, range, 2.0, LimitMode::Thresholding).is_ok());
    }
}
