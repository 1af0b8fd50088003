//! Point-in-time snapshots of every registered metric.

use crate::hist::{bucket_floor, BUCKETS};
use crate::level::{level, MetricsLevel};
use crate::registry::{lock, registry};

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// Snapshot of one gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Level at snapshot time.
    pub value: i64,
}

/// One non-empty histogram bucket: `[floor, 2*floor)` saw `count` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Inclusive lower bound of the bucket.
    pub floor: u64,
    /// Observations that landed in the bucket.
    pub count: u64,
}

/// Snapshot of one histogram (only non-empty buckets are listed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Unit label (`"ns"`, `"retries"`, …).
    pub unit: &'static str,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets in ascending floor order.
    pub buckets: Vec<BucketSnapshot>,
}

/// Snapshot of one span timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Completed calls.
    pub calls: u64,
    /// Total nanoseconds across calls.
    pub total_ns: u64,
    /// Longest single call in nanoseconds.
    pub max_ns: u64,
}

/// Everything the observability layer knows, at one instant.
///
/// Produced by [`snapshot`]; rendered with [`MetricsReport::to_json`].
/// Entries are
/// sorted by name so renderings are deterministic regardless of
/// registration order (which is first-record order and thread-dependent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// The metrics level active when the snapshot was taken.
    pub level: MetricsLevel,
    /// All registered counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All registered gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All registered histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All registered span timers, sorted by name.
    pub spans: Vec<SpanSnapshot>,
}

/// Captures the current value of every registered metric.
pub fn snapshot() -> MetricsReport {
    let reg = registry();
    let mut counters: Vec<CounterSnapshot> = lock(&reg.counters)
        .iter()
        .map(|c| CounterSnapshot {
            name: c.name(),
            value: c.get(),
        })
        .collect();
    counters.sort_by_key(|c| c.name);

    let mut gauges: Vec<GaugeSnapshot> = lock(&reg.gauges)
        .iter()
        .map(|g| GaugeSnapshot {
            name: g.name(),
            value: g.get(),
        })
        .collect();
    gauges.sort_by_key(|g| g.name);

    let mut histograms: Vec<HistogramSnapshot> = lock(&reg.histograms)
        .iter()
        .map(|h| {
            let counts = h.bucket_counts();
            let buckets = (0..BUCKETS)
                .filter(|&i| counts[i] != 0)
                .map(|i| BucketSnapshot {
                    floor: bucket_floor(i),
                    count: counts[i],
                })
                .collect();
            HistogramSnapshot {
                name: h.name(),
                unit: h.unit(),
                count: h.count(),
                sum: h.sum(),
                buckets,
            }
        })
        .collect();
    histograms.sort_by_key(|h| h.name);

    let mut spans: Vec<SpanSnapshot> = lock(&reg.spans)
        .iter()
        .map(|s| SpanSnapshot {
            name: s.name(),
            calls: s.calls(),
            total_ns: s.total_ns(),
            max_ns: s.max_ns(),
        })
        .collect();
    spans.sort_by_key(|s| s.name);

    MetricsReport {
        level: level(),
        counters,
        gauges,
        histograms,
        spans,
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl MetricsReport {
    /// Renders the report as a deterministic JSON object (no external
    /// serializer; names are escaped, numbers are plain `u64`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"level\":");
        push_json_str(&mut out, self.level.name());
        out.push_str(",\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, c.name);
            out.push(':');
            out.push_str(&c.value.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, g.name);
            out.push(':');
            out.push_str(&g.value.to_string());
        }
        out.push_str("},\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, h.name);
            out.push_str(",\"unit\":");
            push_json_str(&mut out, h.unit);
            out.push_str(&format!(
                ",\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            ));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", b.floor, b.count));
            }
            out.push_str("]}");
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, s.name);
            out.push_str(&format!(
                ",\"calls\":{},\"total_ns\":{},\"max_ns\":{}}}",
                s.calls, s.total_ns, s.max_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::set_level;
    use crate::test_lock;
    use crate::Counter;

    #[test]
    fn snapshot_renders_deterministic_json() {
        static CB: Counter = Counter::new("test.report.b");
        static CA: Counter = Counter::new("test.report.a");
        let _guard = test_lock();
        set_level(MetricsLevel::Counters);
        CB.reset();
        CA.reset();
        CB.add(2);
        CA.add(1);
        let report = snapshot();
        let a = report
            .counters
            .iter()
            .position(|c| c.name == "test.report.a")
            .expect("a registered");
        let b = report
            .counters
            .iter()
            .position(|c| c.name == "test.report.b")
            .expect("b registered");
        assert!(a < b, "counters must be sorted by name");
        let json = report.to_json();
        assert!(json.contains("\"test.report.a\":1"), "json: {json}");
        assert!(json.contains("\"test.report.b\":2"), "json: {json}");
        assert!(json.starts_with("{\"level\":"));
        set_level(MetricsLevel::Off);
    }
}
