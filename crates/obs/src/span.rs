//! Lightweight span timers with a thread-local span stack.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::level::full_enabled;
use crate::registry::{register_once, registry};

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A named wall-clock timer for a region of code.
///
/// [`SpanTimer::enter`] returns a guard; dropping the guard records the
/// elapsed nanoseconds. While the guard lives, the span's name sits on a
/// thread-local stack, outermost first. Spans are gated at
/// [`MetricsLevel::Full`](crate::MetricsLevel::Full); when disabled,
/// `enter` costs one relaxed load and returns an inert guard.
///
/// ```
/// use ulp_obs::SpanTimer;
///
/// static SWEEP: SpanTimer = SpanTimer::new("eval.utility");
/// {
///     let _span = SWEEP.enter();
///     // … timed work …
/// } // drop records elapsed ns (if ULP_METRICS=full)
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    calls: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    registered: AtomicBool,
}

impl SpanTimer {
    /// Creates a span timer (const, so it can be a `static`).
    pub const fn new(name: &'static str) -> Self {
        SpanTimer {
            name,
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The span's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Opens the span; the returned guard records on drop. Inert (one load,
    /// no clock read) unless the level is `full`.
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        if !full_enabled() {
            return SpanGuard { active: None };
        }
        SPAN_STACK.with(|s| s.borrow_mut().push(self.name));
        SpanGuard {
            active: Some((self, Instant::now())),
        }
    }

    /// Completed calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Longest single call in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Resets all totals to zero.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    fn finish(&'static self, started: Instant) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        register_once(&self.registered, &registry().spans, self);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own frame; tolerate a mismatched stack (a guard moved
            // across threads) rather than panicking in a Drop impl.
            if stack.last() == Some(&self.name) {
                stack.pop();
            }
        });
    }
}

/// Guard returned by [`SpanTimer::enter`]; records elapsed time on drop.
#[derive(Debug)]
#[must_use = "dropping the guard immediately records a ~0ns span"]
pub struct SpanGuard {
    active: Option<(&'static SpanTimer, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((timer, started)) = self.active.take() {
            timer.finish(started);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_level, MetricsLevel};
    use crate::test_lock;

    /// The names of the spans currently open on this thread, outermost
    /// first (empty unless the level is `full`).
    fn span_stack() -> Vec<&'static str> {
        SPAN_STACK.with(|s| s.borrow().clone())
    }

    #[test]
    fn spans_record_and_nest() {
        static OUTER: SpanTimer = SpanTimer::new("test.span.outer");
        static INNER: SpanTimer = SpanTimer::new("test.span.inner");
        let _guard = test_lock();
        set_level(MetricsLevel::Full);
        OUTER.reset();
        INNER.reset();
        {
            let _o = OUTER.enter();
            assert_eq!(span_stack(), vec!["test.span.outer"]);
            {
                let _i = INNER.enter();
                assert_eq!(span_stack(), vec!["test.span.outer", "test.span.inner"]);
            }
            assert_eq!(span_stack(), vec!["test.span.outer"]);
        }
        assert!(span_stack().is_empty());
        assert_eq!(OUTER.calls(), 1);
        assert_eq!(INNER.calls(), 1);
        assert!(OUTER.total_ns() >= INNER.total_ns());
        assert!(OUTER.max_ns() <= OUTER.total_ns());
        set_level(MetricsLevel::Off);
    }

    #[test]
    fn disabled_spans_are_inert() {
        static S: SpanTimer = SpanTimer::new("test.span.inert");
        let _guard = test_lock();
        set_level(MetricsLevel::Off);
        {
            let _s = S.enter();
            assert!(span_stack().is_empty());
        }
        assert_eq!(S.calls(), 0);
    }
}
