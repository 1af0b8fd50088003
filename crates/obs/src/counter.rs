//! Monotonic atomic counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::level::counters_enabled;
use crate::registry::{register_once, registry};

/// A named monotonic counter.
///
/// Declare one as a `static` next to the code it observes:
///
/// ```
/// use ulp_obs::Counter;
///
/// static RETRIES: Counter = Counter::new("ldp.resample.retries");
/// RETRIES.inc(); // no-op unless ULP_METRICS is counters/full
/// ```
///
/// [`Counter::inc`]/[`Counter::add`] are gated on the metrics level: when
/// metrics are off they cost one relaxed atomic load and a branch.
/// [`Counter::record_always`] bypasses the gate for rare, operationally
/// critical events (lock-poison recoveries, health faults) that must be
/// counted even when routine metrics are disabled.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates a counter (const, so it can be a `static`).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` if counters are enabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if counters_enabled() {
            self.record(n);
        }
    }

    /// Increments by one if counters are enabled.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Adds `n` unconditionally — reserved for rare events that must be
    /// visible in every snapshot regardless of the metrics level.
    #[inline]
    pub fn record_always(&'static self, n: u64) {
        self.record(n);
    }

    #[inline]
    fn record(&'static self, n: u64) {
        register_once(&self.registered, &registry().counters, self);
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_level, MetricsLevel};
    use crate::test_lock;

    impl Counter {
        /// Resets to zero, isolating a test from earlier ones.
        fn reset(&self) {
            self.value.store(0, Ordering::Relaxed);
        }
    }

    #[test]
    fn gated_increments_respect_the_level() {
        static C: Counter = Counter::new("test.counter.gated");
        let _guard = test_lock();
        set_level(MetricsLevel::Off);
        C.inc();
        assert_eq!(C.get(), 0, "off level must not record");
        set_level(MetricsLevel::Counters);
        C.inc();
        C.add(4);
        assert_eq!(C.get(), 5);
        set_level(MetricsLevel::Off);
        C.inc();
        assert_eq!(C.get(), 5);
    }

    #[test]
    fn record_always_ignores_the_level() {
        static C: Counter = Counter::new("test.counter.always");
        let _guard = test_lock();
        set_level(MetricsLevel::Off);
        C.record_always(3);
        assert_eq!(C.get(), 3);
        C.reset();
        assert_eq!(C.get(), 0);
    }
}
