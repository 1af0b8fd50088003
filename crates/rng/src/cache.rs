//! Process-wide memoization of exact noise PMFs and alias tables.
//!
//! The exact [`FxpNoisePmf`] is the trust anchor of every privacy-loss
//! computation in this workspace: the evaluation sweeps re-derive it for the
//! same [`FxpLaplaceConfig`] in every (dataset × mechanism × ε × rep) cell.
//! Because the PMF is a *pure function* of its configuration, caching is
//! semantically invisible — [`cached_pmf`] returns a value structurally
//! equal to a fresh [`FxpNoisePmf::closed_form`] (asserted by the workspace
//! cache-coherence tests) and never changes any downstream byte. The same
//! argument covers [`cached_alias_full`] / [`cached_alias_window`]: an
//! [`AliasTable`] is a pure function of the PMF (itself pure in the config)
//! and the window bounds.
//!
//! # Key and invalidation
//!
//! The key is the full configuration — `(Bu, By, Δ, λ)` with the `f64`
//! fields compared by **bit pattern** (`f64::to_bits`), so two
//! configurations share an entry iff they are bit-identical. Entries are
//! immutable (`Arc`-shared) and never invalidated: a PMF can only become
//! stale if its config changes, and a changed config is a different key.
//!
//! # Locking
//!
//! All maps live behind `RwLock`s: after warm-up every access is a read
//! lock, so parallel sweep cells never serialize on the cache. Writers
//! build outside the lock and insert with `entry().or_insert()` — a racing
//! duplicate build is discarded, and both callers observe the same `Arc`.
//!
//! A panic while holding a lock poisons it; since every cached value is
//! immutable once inserted (`Arc`-shared, never mutated in place), a
//! poisoned map is still structurally sound, so the accessors recover the
//! guard with [`std::sync::PoisonError::into_inner`] instead of wedging
//! every subsequent sweep cell. Each recovery is counted
//! (`rng.cache.poison_recoveries`, recorded at every metrics level).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use ulp_obs::Counter;

use crate::alias::AliasTable;
use crate::error::RngError;
use crate::fxp::FxpLaplaceConfig;
use crate::pmf::FxpNoisePmf;

static PMF_HITS: Counter = Counter::new("rng.cache.pmf.hits");
static PMF_MISSES: Counter = Counter::new("rng.cache.pmf.misses");
static ALIAS_HITS: Counter = Counter::new("rng.cache.alias.hits");
static ALIAS_MISSES: Counter = Counter::new("rng.cache.alias.misses");
static GRID_HITS: Counter = Counter::new("rng.cache.grid.hits");
static GRID_MISSES: Counter = Counter::new("rng.cache.grid.misses");
static POISON_RECOVERIES: Counter = Counter::new("rng.cache.poison_recoveries");

/// Read-locks a cache map, recovering (and counting) a poisoned lock.
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| {
        POISON_RECOVERIES.record_always(1);
        e.into_inner()
    })
}

/// Write-locks a cache map, recovering (and counting) a poisoned lock.
fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| {
        POISON_RECOVERIES.record_always(1);
        e.into_inner()
    })
}

/// Bit-exact cache key for a [`FxpLaplaceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PmfKey {
    bu: u8,
    by: u8,
    delta_bits: u64,
    lambda_bits: u64,
}

impl PmfKey {
    fn new(cfg: FxpLaplaceConfig) -> Self {
        PmfKey {
            bu: cfg.bu(),
            by: cfg.by(),
            delta_bits: cfg.delta().to_bits(),
            lambda_bits: cfg.lambda().to_bits(),
        }
    }
}

/// Cache key for an alias table: the PMF key plus the (optional) window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AliasKey {
    pmf: PmfKey,
    window: Option<(i64, i64)>,
}

type PmfMap = RwLock<HashMap<PmfKey, Arc<FxpNoisePmf>>>;
type AliasMap = RwLock<HashMap<AliasKey, Arc<AliasTable>>>;
/// Rounded-continuous-Laplace tables, keyed by the scale's bit pattern.
type GridMap = RwLock<HashMap<u64, Arc<AliasTable>>>;

fn cache() -> &'static PmfMap {
    static CACHE: OnceLock<PmfMap> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

fn alias_cache() -> &'static AliasMap {
    static CACHE: OnceLock<AliasMap> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

fn grid_cache() -> &'static GridMap {
    static CACHE: OnceLock<GridMap> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The closed-form (Eq. 11) PMF for `cfg`, memoized process-wide.
///
/// Structurally equal to `FxpNoisePmf::closed_form(cfg)`; the `Arc` lets
/// concurrent evaluation cells share one copy.
///
/// # Errors
///
/// [`RngError::InvalidConfig`] if the support is too wide to hold
/// ([`FxpNoisePmf::check_support`]); nothing is allocated then.
pub fn cached_pmf(cfg: FxpLaplaceConfig) -> Result<Arc<FxpNoisePmf>, RngError> {
    let key = PmfKey::new(cfg);
    if let Some(hit) = read_lock(cache()).get(&key) {
        PMF_HITS.inc();
        return Ok(Arc::clone(hit));
    }
    FxpNoisePmf::check_support(cfg)?;
    PMF_MISSES.inc();
    // Build outside the lock: closed_form is O(support) exp() calls and
    // concurrent workers frequently miss on the same key at startup.
    let pmf = Arc::new(FxpNoisePmf::closed_form(cfg));
    Ok(Arc::clone(write_lock(cache()).entry(key).or_insert(pmf)))
}

/// The alias table over the full signed support of `cfg`'s exact PMF,
/// memoized process-wide.
///
/// Structurally equal to `AliasTable::from_pmf(&cached_pmf(cfg))`.
///
/// # Errors
///
/// Propagates [`AliasTable::from_pmf`] construction errors (only
/// reachable for pathological widths). Errors are not cached.
pub fn cached_alias_full(cfg: FxpLaplaceConfig) -> Result<Arc<AliasTable>, RngError> {
    cached_alias(cfg, None)
}

/// The alias table for the conditional law of `cfg`'s exact PMF restricted
/// to `lo ..= hi`, memoized process-wide.
///
/// # Errors
///
/// [`RngError::InvalidConfig`] if the window carries no probability mass.
/// Errors are not cached.
pub fn cached_alias_window(
    cfg: FxpLaplaceConfig,
    lo: i64,
    hi: i64,
) -> Result<Arc<AliasTable>, RngError> {
    cached_alias(cfg, Some((lo, hi)))
}

fn cached_alias(
    cfg: FxpLaplaceConfig,
    window: Option<(i64, i64)>,
) -> Result<Arc<AliasTable>, RngError> {
    let key = AliasKey {
        pmf: PmfKey::new(cfg),
        window,
    };
    if let Some(hit) = read_lock(alias_cache()).get(&key) {
        ALIAS_HITS.inc();
        return Ok(Arc::clone(hit));
    }
    ALIAS_MISSES.inc();
    let pmf = cached_pmf(cfg)?;
    let table = Arc::new(match window {
        None => AliasTable::from_pmf(&pmf)?,
        Some((lo, hi)) => AliasTable::from_pmf_window(&pmf, lo, hi)?,
    });
    Ok(Arc::clone(
        write_lock(alias_cache()).entry(key).or_insert(table),
    ))
}

/// The rounded-continuous-Laplace grid table for scale `lambda`
/// ([`AliasTable::laplace_grid`]), memoized process-wide by the scale's
/// bit pattern.
///
/// # Errors
///
/// Propagates [`AliasTable::laplace_grid`] construction errors (scale not
/// positive/finite, or too wide to tabulate). Errors are not cached.
pub fn cached_alias_laplace_grid(lambda: f64) -> Result<Arc<AliasTable>, RngError> {
    let key = lambda.to_bits();
    if let Some(hit) = read_lock(grid_cache()).get(&key) {
        GRID_HITS.inc();
        return Ok(Arc::clone(hit));
    }
    GRID_MISSES.inc();
    let table = Arc::new(AliasTable::laplace_grid(lambda)?);
    Ok(Arc::clone(
        write_lock(grid_cache()).entry(key).or_insert(table),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmf::MAX_PMF_SUPPORT;

    fn cfg(lambda: f64) -> FxpLaplaceConfig {
        FxpLaplaceConfig::new(12, 12, 0.3125, lambda).unwrap()
    }

    #[test]
    fn cached_pmf_equals_fresh_closed_form() {
        let c = cfg(20.0);
        let cached = cached_pmf(c).unwrap();
        assert_eq!(*cached, FxpNoisePmf::closed_form(c));
    }

    #[test]
    fn repeated_lookups_share_one_allocation() {
        let c = cfg(21.0);
        let a = cached_pmf(c).unwrap();
        let b = cached_pmf(c).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_configs_get_distinct_entries() {
        let a = cached_pmf(cfg(22.0)).unwrap();
        let b = cached_pmf(cfg(23.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(*a, *b);
    }

    #[test]
    fn oversized_support_is_refused_before_allocating() {
        // λ = 2^32 over a 40-bit word: ~4.7·10^10 magnitudes, hundreds of
        // GB of counts. The refusal comes from the width alone.
        let wide = FxpLaplaceConfig::new(16, 40, 1.0, 256.0 * f64::from(1u32 << 24)).unwrap();
        assert!(wide.support_max_k() as u64 > MAX_PMF_SUPPORT);
        assert!(matches!(cached_pmf(wide), Err(RngError::InvalidConfig(_))));
        assert!(cached_alias_full(wide).is_err());
        assert!(FxpNoisePmf::check_support(wide).is_err());
        // The widest support the cap admits is accepted.
        let at_cap = FxpLaplaceConfig::new(26, 27, 1.0, 1e9).unwrap();
        assert_eq!(at_cap.support_max_k() as u64, MAX_PMF_SUPPORT - 1);
        assert!(FxpNoisePmf::check_support(at_cap).is_ok());
    }

    #[test]
    fn cached_alias_equals_fresh_build() {
        let c = cfg(25.0);
        let pmf = cached_pmf(c).unwrap();
        let full = cached_alias_full(c).unwrap();
        assert_eq!(*full, AliasTable::from_pmf(&pmf).unwrap());
        assert!(Arc::ptr_eq(&full, &cached_alias_full(c).unwrap()));

        let win = cached_alias_window(c, -5, 40).unwrap();
        assert_eq!(*win, AliasTable::from_pmf_window(&pmf, -5, 40).unwrap());
        assert!(Arc::ptr_eq(&win, &cached_alias_window(c, -5, 40).unwrap()));
        // Full and windowed entries do not collide.
        assert!(!Arc::ptr_eq(&full, &win));
    }

    #[test]
    fn alias_window_errors_are_not_cached() {
        let c = cfg(26.0);
        let far = cached_pmf(c).unwrap().support_max_k() + 10;
        assert!(cached_alias_window(c, far, far + 1).is_err());
        let key = AliasKey {
            pmf: PmfKey::new(c),
            window: Some((far, far + 1)),
        };
        assert!(!read_lock(alias_cache()).contains_key(&key));
    }
}
