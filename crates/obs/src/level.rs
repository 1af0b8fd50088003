//! The process-wide metrics level (`ULP_METRICS`).
//!
//! Every instrumentation site starts with one relaxed atomic load of the
//! cached level — the *only* cost the observability layer imposes when
//! metrics are off (< 2 ns per site; pinned by `benches/overhead.rs`).

use std::sync::atomic::{AtomicU8, Ordering};

use crate::env::{parse_env, EnvError};

/// Environment variable selecting the metrics level.
pub const METRICS_ENV: &str = "ULP_METRICS";
/// The values [`MetricsLevel::parse`] accepts.
const METRICS_LEVELS: &str = "off | counters | full";

/// How much the observability layer records.
///
/// Ordered: `Off < Counters < Full`, so a site gated at
/// [`MetricsLevel::Counters`] is also active at [`MetricsLevel::Full`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum MetricsLevel {
    /// Nothing is recorded; every site costs one atomic load + branch.
    Off = 0,
    /// Counters only (cheap relaxed adds on hot paths).
    Counters = 1,
    /// Counters, histograms, and span timers.
    Full = 2,
}

impl MetricsLevel {
    /// Parses `off`, `counters`, or `full` (case-insensitive).
    ///
    /// # Errors
    ///
    /// [`EnvError`] for any other value — misspellings like `ful` must be
    /// surfaced, not silently treated as `off`.
    fn parse(raw: &str) -> Result<Self, EnvError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(MetricsLevel::Off),
            "counters" => Ok(MetricsLevel::Counters),
            "full" => Ok(MetricsLevel::Full),
            _ => Err(EnvError {
                var: METRICS_ENV,
                value: raw.to_string(),
                expected: METRICS_LEVELS,
            }),
        }
    }

    /// Reads and validates [`METRICS_ENV`] without touching the cached
    /// process-wide level; unset selects [`MetricsLevel::Off`]. Binaries
    /// call this at startup so a typo aborts with a clear message instead
    /// of silently disabling metrics.
    ///
    /// # Errors
    ///
    /// [`EnvError`] on a set-but-invalid value.
    pub fn from_env() -> Result<Self, EnvError> {
        let level = parse_env(METRICS_ENV, METRICS_LEVELS, |s| MetricsLevel::parse(s).ok())?;
        Ok(level.unwrap_or(MetricsLevel::Off))
    }

    /// Short lowercase name (`"off"`, `"counters"`, `"full"`).
    pub fn name(self) -> &'static str {
        match self {
            MetricsLevel::Off => "off",
            MetricsLevel::Counters => "counters",
            MetricsLevel::Full => "full",
        }
    }
}

/// Sentinel meaning "not yet initialized from the environment".
const UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

/// The active metrics level, initializing it from [`METRICS_ENV`] on first
/// use.
///
/// # Panics
///
/// Panics if `ULP_METRICS` is set to an invalid value **and** no binary
/// validated it first — an explicit failure by design (never a silent
/// fallback). Binaries should call [`MetricsLevel::from_env`] +
/// [`set_level`] at startup to turn that panic into a clean error message.
#[inline(always)]
pub fn level() -> MetricsLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => MetricsLevel::Off,
        1 => MetricsLevel::Counters,
        2 => MetricsLevel::Full,
        _ => init_level(),
    }
}

#[cold]
fn init_level() -> MetricsLevel {
    let l = match MetricsLevel::from_env() {
        Ok(l) => l,
        Err(e) => panic!("{e}"),
    };
    LEVEL.store(l as u8, Ordering::Relaxed);
    l
}

/// Overrides the process-wide metrics level (tests, benches, and binaries
/// that validated the environment themselves).
pub fn set_level(l: MetricsLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether counter sites are active (`Counters` or `Full`).
#[inline(always)]
pub fn counters_enabled() -> bool {
    level() >= MetricsLevel::Counters
}

/// Whether histogram/span sites are active (`Full` only).
#[inline(always)]
pub fn full_enabled() -> bool {
    level() >= MetricsLevel::Full
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_three_levels_case_insensitively() {
        assert_eq!(MetricsLevel::parse("off"), Ok(MetricsLevel::Off));
        assert_eq!(MetricsLevel::parse("Counters"), Ok(MetricsLevel::Counters));
        assert_eq!(MetricsLevel::parse(" FULL "), Ok(MetricsLevel::Full));
    }

    #[test]
    fn parse_rejects_misspellings_with_a_typed_error() {
        for bad in ["ful", "on", "1", "count", "OFFf"] {
            let err = MetricsLevel::parse(bad).unwrap_err();
            assert_eq!(err.var, METRICS_ENV);
            assert_eq!(err.value, bad);
        }
    }

    #[test]
    fn levels_are_ordered() {
        assert!(MetricsLevel::Off < MetricsLevel::Counters);
        assert!(MetricsLevel::Counters < MetricsLevel::Full);
    }

    #[test]
    fn names_round_trip() {
        for l in [
            MetricsLevel::Off,
            MetricsLevel::Counters,
            MetricsLevel::Full,
        ] {
            assert_eq!(MetricsLevel::parse(l.name()), Ok(l));
        }
    }
}
