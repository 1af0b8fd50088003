//! Log-bucketed histograms for latencies and retry counts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::level::full_enabled;
use crate::registry::{register_once, registry};

/// Bucket count: bucket 0 holds the value `0`, bucket `i ≥ 1` holds values
/// in `[2^(i-1), 2^i)` — 64 powers of two cover the full `u64` range.
pub const BUCKETS: usize = 65;

/// A named histogram with power-of-two buckets.
///
/// Records are gated at [`MetricsLevel::Full`](crate::MetricsLevel::Full);
/// an off/counters-level record costs one relaxed load and a branch. The
/// log-bucket layout trades resolution for a fixed, allocation-free
/// footprint — right for the quantities we track (nanosecond latencies,
/// retry counts, cycle counts) whose interesting structure is in the order
/// of magnitude.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    unit: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    registered: AtomicBool,
}

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, …).
pub fn bucket_floor(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// Creates a histogram (const, so it can be a `static`). `unit` labels
    /// the recorded quantity in reports (`"ns"`, `"cycles"`, `"retries"`).
    pub const fn new(name: &'static str, unit: &'static str) -> Self {
        Histogram {
            name,
            unit,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit label.
    pub fn unit(&self) -> &'static str {
        self.unit
    }

    /// Records one observation if the level is `full`.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if full_enabled() {
            self.record_unconditionally(v);
        }
    }

    pub(crate) fn record_unconditionally(&'static self, v: u64) {
        register_once(&self.registered, &registry().histograms, self);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (saturating only at `u64` wrap).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The current per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, b) in out.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_level, MetricsLevel};
    use crate::test_lock;

    impl Histogram {
        /// Resets all buckets and totals to zero, isolating a test from
        /// earlier ones.
        fn reset(&self) {
            for b in &self.buckets {
                b.store(0, Ordering::Relaxed);
            }
            self.count.store(0, Ordering::Relaxed);
            self.sum.store(0, Ordering::Relaxed);
        }
    }

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
        }
    }

    #[test]
    fn records_are_gated_at_full() {
        static H: Histogram = Histogram::new("test.hist.gated", "ns");
        let _guard = test_lock();
        set_level(MetricsLevel::Counters);
        H.record(5);
        assert_eq!(H.count(), 0, "counters level must not record histograms");
        set_level(MetricsLevel::Full);
        H.record(0);
        H.record(5);
        H.record(5);
        assert_eq!(H.count(), 3);
        assert_eq!(H.sum(), 10);
        let buckets = H.bucket_counts();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[bucket_index(5)], 2);
        set_level(MetricsLevel::Off);
        H.reset();
        assert_eq!(H.count(), 0);
    }
}
