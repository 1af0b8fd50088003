//! Shared strict startup validation for the campaign binaries.
//!
//! Every campaign binary (`bench_fleet`, `chaos_campaign`,
//! `fleet_service`, …) enforces the same contract: a malformed `ULP_*`
//! variable or command-line flag exits with status 2 and one message naming
//! it — never a silent default, never a panic. This module is the single
//! implementation of that boilerplate; binaries call [`FleetEnv::validate`],
//! [`require_env`] and [`require_flag`] instead of hand-rolling it.

use std::str::FromStr;

use ulp_obs::MetricsLevel;

/// Exits with status 2 and one `bin: message` line on stderr — the
/// campaign binaries' shared rejection path for a malformed knob or flag.
pub fn reject(bin: &str, message: impl std::fmt::Display) -> ! {
    eprintln!("{bin}: {message}");
    std::process::exit(2);
}

/// Unwraps a strict environment parse, exiting through [`reject`] when the
/// value is malformed. The message comes from the parse error and names
/// the offending variable.
pub fn require_env<T, E: std::fmt::Display>(bin: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| reject(bin, e))
}

/// Refuses unknown command-line flag `flag` through [`reject`], listing
/// the `expected` ones.
pub fn unknown_flag(bin: &str, flag: &str, expected: &str) -> ! {
    reject(bin, format!("unknown flag {flag:?} (expected {expected})"))
}

/// Parses `value`, the argument after command-line flag `flag`, exiting
/// through [`reject`] with a message naming the flag when it is missing or
/// is not `expected` ("a path", "a positive integer", …).
pub fn require_flag<T: FromStr>(bin: &str, flag: &str, value: Option<String>, expected: &str) -> T {
    match value {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| reject(bin, format!("{flag}: {raw:?} is not {expected}"))),
        None => reject(bin, format!("{flag} needs {expected}")),
    }
}

/// The knobs every fleet campaign binary validates up front:
/// `ULP_METRICS` and `ULP_PAR_THREADS`.
#[derive(Debug, Clone, Copy)]
pub struct FleetEnv {
    /// The resolved metrics level (already applied process-wide).
    pub level: MetricsLevel,
    /// Worker threads `ulp_par` will fan out over.
    pub threads: usize,
}

impl FleetEnv {
    /// Validates both knobs, exiting with status 2 (naming the variable)
    /// on the first malformed value, and applies the resolved metrics
    /// level process-wide.
    ///
    /// `raise_to_full` is the `--metrics` flag behavior: when set and
    /// `ULP_METRICS` is *not* in the environment, the level is raised to
    /// `full` so an embedded snapshot actually contains data. An explicit
    /// `ULP_METRICS` always wins.
    pub fn validate(bin: &str, raise_to_full: bool) -> FleetEnv {
        let level = require_env(bin, MetricsLevel::from_env());
        let level = if raise_to_full && std::env::var_os(ulp_obs::METRICS_ENV).is_none() {
            MetricsLevel::Full
        } else {
            level
        };
        ulp_obs::set_level(level);
        FleetEnv {
            level,
            threads: require_env(bin, ulp_par::try_threads()),
        }
    }
}
