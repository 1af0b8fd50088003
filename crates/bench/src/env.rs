//! Shared strict `ULP_*` startup validation for the campaign binaries.
//!
//! Every campaign binary (`bench_fleet`, `chaos_campaign`,
//! `fleet_service`, …) enforces the same contract: a set-but-malformed
//! `ULP_*` variable exits with status 2 and a message naming the variable
//! — never a silent fallback to a default. This module is the single
//! implementation of that boilerplate; binaries call
//! [`FleetEnv::validate`] (or [`require_env`] for their extra knobs)
//! instead of hand-rolling the match/exit ladder.

use ulp_obs::MetricsLevel;

/// Unwraps a strict environment parse, exiting with status 2 and a
/// `bin: message` line on stderr when the value is malformed — the
/// campaign binaries' shared rejection path. The message comes from the
/// parse error and names the offending variable.
pub fn require_env<T, E: std::fmt::Display>(bin: &str, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        }
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
