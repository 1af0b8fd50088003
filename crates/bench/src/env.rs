//! Shared strict startup validation for the campaign binaries.
//!
//! Every campaign binary (`bench_fleet`, `chaos_campaign`,
//! `fleet_service`, …) enforces the same contract: a malformed `ULP_*`
//! variable or command-line flag exits with status 2 and one message naming
//! it — never a silent default, never a panic — and a run that breaks a
//! promise exits with status 1 and one message naming the cell. This
//! module is the single implementation of that boilerplate; binaries call
//! [`FleetEnv::validate`], [`require_env`] and [`require_flag`] instead of
//! hand-rolling it.

use std::str::FromStr;

use ulp_obs::MetricsLevel;

/// Exits with status 2 and one `bin: message` line on stderr — the
/// campaign binaries' shared rejection path for a malformed knob or flag.
pub fn reject(bin: &str, message: impl std::fmt::Display) -> ! {
    eprintln!("{bin}: {message}");
    std::process::exit(2);
}

/// Exits with status 1 and one `bin: message` line on stderr — the
/// campaign binaries' ending for a run that broke a promise (a cell that
/// failed its checks), as against [`reject`]'s exit 2 for a malformed
/// input.
pub fn fail(bin: &str, message: impl std::fmt::Display) -> ! {
    eprintln!("{bin}: {message}");
    std::process::exit(1);
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

/// Checks, before the run, that the report `path` can be written, and
/// leaves no trace: it opens the path for writing, creating the file if
/// absent, and removes the file it created (an existing report is left as
/// it is until [`write_report`] replaces it). A symlink is followed, as
/// [`write_report`] follows it: the file created for a dangling link is
/// its target, and the link itself stays. A path that cannot be opened
/// exits through [`reject`] with one line naming it, instead of a panic
/// after the whole run.
pub fn require_writable(bin: &str, path: &str) {
    // `exists` follows symlinks: a dangling link names no file yet.
    let existed = std::path::Path::new(path).exists();
    let opened = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path);
    match opened {
        Ok(_) if !existed => {
            // Best effort: the run writes the path again at its end.
            if let Ok(created) = std::fs::canonicalize(path) {
                let _ = std::fs::remove_file(created);
            }
        }
        Ok(_) => {}
        Err(e) => reject(bin, format!("cannot write {path:?}: {e}")),
    }
}

/// Writes the report `contents` to `path`, exiting through [`reject`]
/// with one line naming the path if the write fails.
pub fn write_report(bin: &str, path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        reject(bin, format!("cannot write {path:?}: {e}"));
    }
}

/// Reads the file at `path`, exiting through [`reject`] with one line
/// naming the path if it cannot be read.
pub fn read_input(bin: &str, path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| reject(bin, format!("cannot read {path:?}: {e}")))
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    /// A fresh, empty directory under the system temp dir, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("ldp-bench-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, file: &str) -> PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn check(path: &Path) {
        require_writable("test", path.to_str().unwrap());
    }

    #[test]
    fn a_fresh_path_is_left_absent() {
        let dir = Scratch::new("fresh");
        let out = dir.path("x.json");
        check(&out);
        assert!(std::fs::symlink_metadata(&out).is_err());
    }

    #[test]
    fn an_existing_report_is_left_as_it_is() {
        let dir = Scratch::new("existing");
        let out = dir.path("x.json");
        std::fs::write(&out, "{}").unwrap();
        check(&out);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "{}");
    }

    #[cfg(unix)]
    #[test]
    fn a_dangling_symlink_keeps_its_link_and_gains_no_target() {
        let dir = Scratch::new("dangling");
        let (link, target) = (dir.path("x.json"), dir.path("target.json"));
        std::os::unix::fs::symlink(&target, &link).unwrap();
        check(&link);
        let meta = std::fs::symlink_metadata(&link).unwrap();
        assert!(meta.file_type().is_symlink(), "the link was replaced");
        assert!(!target.exists(), "the link's target was left behind");
        // The report then lands where the link points, as before the check.
        write_report("test", link.to_str().unwrap(), "{}");
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "{}");
        assert!(std::fs::symlink_metadata(&link)
            .unwrap()
            .file_type()
            .is_symlink());
    }
}
