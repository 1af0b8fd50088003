//! `ulp-obs`: zero-dependency observability for the DP-Box workspace.
//!
//! Process-wide registries of atomic [`Counter`]s, log-bucketed
//! [`Histogram`]s, and lightweight [`SpanTimer`]s, plus
//! [`snapshot`] → [`MetricsReport`] with deterministic JSON/text
//! renderings. Everything is `const`-constructible so instrumentation is a
//! `static` next to the code it observes, and everything is gated on one
//! cached process-wide [`MetricsLevel`] (`ULP_METRICS=off|counters|full`):
//! with metrics off, each site costs a single relaxed atomic load and a
//! branch (< 2 ns, pinned by `benches/overhead.rs`).
//!
//! The crate also owns the workspace's strict environment-variable parsing
//! ([`parse_env`] / [`EnvError`]): a set-but-invalid `ULP_*` value is a
//! typed error, never a silent fallback to a default. And it owns the one
//! FNV-1a digest ([`Fnv64`]) every canonical text, ε-spend log and shard
//! assignment in the workspace is fingerprinted with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod env;
mod fnv;
mod gauge;
mod hist;
mod level;
mod registry;
mod report;
mod span;

pub use counter::Counter;
pub use env::{parse_env, EnvError};
pub use fnv::Fnv64;
pub use gauge::Gauge;
pub use hist::{bucket_floor, Histogram, BUCKETS};
pub use level::{counters_enabled, full_enabled, level, set_level, MetricsLevel, METRICS_ENV};
pub use report::{
    snapshot, BucketSnapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsReport,
    SpanSnapshot,
};
pub use span::{SpanGuard, SpanTimer};

/// Serializes tests that mutate the process-wide metrics level.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock, PoisonError};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}
