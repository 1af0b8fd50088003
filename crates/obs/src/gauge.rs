//! Point-in-time atomic gauges.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use crate::level::counters_enabled;
use crate::registry::{register_once, registry};

/// A named signed gauge: a level that moves both ways, unlike the
/// monotonic [`crate::Counter`].
///
/// Declare one as a `static` next to the code it observes:
///
/// ```
/// use ulp_obs::Gauge;
///
/// static QUEUE_DEPTH: Gauge = Gauge::new("fleet.service.queue_depth");
/// QUEUE_DEPTH.add(3); // no-op unless ULP_METRICS is counters/full
/// QUEUE_DEPTH.add(-1);
/// ```
///
/// [`Gauge::set`]/[`Gauge::add`] are gated on the metrics
/// level exactly like [`crate::Counter::add`]: when metrics are off each
/// site costs one relaxed atomic load and a branch.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    registered: AtomicBool,
}

impl Gauge {
    /// Creates a gauge (const, so it can be a `static`).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicI64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the level to `v` if counters are enabled.
    #[inline]
    pub fn set(&'static self, v: i64) {
        if counters_enabled() {
            register_once(&self.registered, &registry().gauges, self);
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Moves the level by `n` (down when negative) if counters are enabled.
    #[inline]
    pub fn add(&'static self, n: i64) {
        if counters_enabled() {
            register_once(&self.registered, &registry().gauges, self);
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_level, MetricsLevel};
    use crate::test_lock;

    impl Gauge {
        /// Resets to zero, isolating a test from earlier ones.
        fn reset(&self) {
            self.value.store(0, Ordering::Relaxed);
        }
    }

    #[test]
    fn gated_updates_respect_the_level() {
        static G: Gauge = Gauge::new("test.gauge.gated");
        let _guard = test_lock();
        set_level(MetricsLevel::Off);
        G.set(9);
        G.add(4);
        assert_eq!(G.get(), 0, "off level must not record");
        set_level(MetricsLevel::Counters);
        G.set(9);
        G.add(4);
        G.add(-3);
        assert_eq!(G.get(), 10);
        set_level(MetricsLevel::Off);
        G.add(-10);
        assert_eq!(G.get(), 10);
        set_level(MetricsLevel::Counters);
        G.reset();
        assert_eq!(G.get(), 0);
        set_level(MetricsLevel::Off);
    }

    #[test]
    fn gauges_go_negative() {
        static G: Gauge = Gauge::new("test.gauge.negative");
        let _guard = test_lock();
        set_level(MetricsLevel::Counters);
        G.reset();
        G.add(-2);
        assert_eq!(G.get(), -2);
        set_level(MetricsLevel::Off);
    }
}
