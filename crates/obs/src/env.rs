//! Strict environment-variable parsing.
//!
//! Every `ULP_*` knob in this workspace is parsed through [`parse_env`]:
//! an unset variable selects the documented default, a well-formed value is
//! honored, and **anything else is a typed error** — never a silent
//! fallback. The motivating bug class: a misspelled sampler path
//! (`refrence`) once quietly selected the fast path, which is exactly the
//! kind of invisible misconfiguration the paper warns about for privacy
//! parameters.

use core::fmt;

/// A malformed environment-variable value.
///
/// Carries the variable name, the offending value, and a human-readable
/// description of what would have been accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// The rejected value (lossily decoded if not valid Unicode).
    pub value: String,
    /// What the variable accepts, e.g. `"off | counters | full"`.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} value {:?} (expected {}; unset selects the default)",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Reads `var` and applies `parse` to its trimmed value.
///
/// Returns `Ok(None)` when the variable is unset (the caller supplies the
/// default), `Ok(Some(v))` when `parse` accepts the value, and
/// [`EnvError`] — naming the variable, the offending value, and the
/// accepted grammar — when `parse` rejects it or the value is not Unicode.
///
/// # Errors
///
/// [`EnvError`] on any set-but-unparsable value.
pub fn parse_env<T>(
    var: &'static str,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, EnvError> {
    match std::env::var(var) {
        Ok(raw) => match parse(raw.trim()) {
            Some(v) => Ok(Some(v)),
            None => Err(EnvError {
                var,
                value: raw,
                expected,
            }),
        },
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(os)) => Err(EnvError {
            var,
            value: os.to_string_lossy().into_owned(),
            expected,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_variable_and_value() {
        let e = EnvError {
            var: "ULP_METRICS",
            value: "ful".into(),
            expected: "off | counters | full",
        };
        let msg = e.to_string();
        assert!(msg.contains("ULP_METRICS"));
        assert!(msg.contains("\"ful\""));
        assert!(msg.contains("off | counters | full"));
    }

    #[test]
    fn unset_variable_is_ok_none() {
        // A name no test environment defines.
        let r = parse_env::<u32>("ULP_OBS_TEST_UNSET_XYZZY", "a number", |s| s.parse().ok());
        assert_eq!(r, Ok(None));
    }
}
