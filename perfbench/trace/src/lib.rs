//! The fleet benchmark's traced run: a span recorder, a replay of
//! `run_service`'s traffic through each layer's public functions, and the
//! per-layer metrics derived from the two.
//!
//! This crate is built apart from `perfbench/e2e`: it calls layer
//! functions whose signatures later changes may alter, and such a change
//! should break the trace, never the end-to-end numbers.

pub mod replay;
pub mod span;

use ulp_fleet::IngestPhaseTotals;

use crate::replay::{Replay, ROOT_SPAN};
use crate::span::{layer_totals, Span};

/// Everything the traced run measured, the input of [`layer_metrics`].
#[derive(Debug)]
pub struct Measured<'a> {
    /// A cold `FleetDriver::new` (the noise model build), ns.
    pub model_build_ns: u64,
    /// RSS growth across `Collector::with_device_capacity` ÷ capacity.
    pub table_bytes_per_device: f64,
    /// (`VmHWM` − RSS before the first `run_service`) ÷ accepted reports.
    pub retained_bytes_per_report: f64,
    /// Fastest `run_service` at `ULP_METRICS=off`, s.
    pub off_best_s: f64,
    /// Fastest `run_service` at `ULP_METRICS=full`, s.
    pub full_best_s: f64,
    /// The program's ingest phase spans over that fastest full run.
    pub phases: IngestPhaseTotals,
    /// Frames the program's columnar decoder took from clean chunks over
    /// that run (its `fleet.decode.batch_frames` counter).
    pub batch_frames: u64,
    /// Stream items the collector classified in one run: accepted +
    /// rejected + duplicates, from the run's own `IngestStats`.
    pub decoded_items: u64,
    /// The replay's counts.
    pub replay: &'a Replay,
    /// The replay's spans.
    pub spans: &'a [Span],
}

/// Nearest-rank percentile `q` of `values` (0 when empty).
pub fn percentile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
}

/// Every per-layer metric as `(name, value, unit)`, in the order the
/// benchmark documents them.
pub fn layer_metrics(m: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    let totals = layer_totals(m.spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Busy time per call; spans covering a loop count each call.
    let per_call = |name: &str| {
        let t = get(name);
        t.busy_ns as f64 / t.calls.max(1) as f64
    };
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let r = m.replay;
    let seals: Vec<u64> = m
        .spans
        .iter()
        .filter(|s| s.name == "fleet.service.seal_active")
        .map(Span::duration_ns)
        .collect();
    let root = get(ROOT_SPAN);
    vec![
        (
            "eval.setup.truth_ns_per_device",
            per_call("eval.setup.prepare"),
            "ns",
        ),
        (
            "fleet.estimator.model_build_ms",
            m.model_build_ns as f64 / 1e6,
            "ms",
        ),
        (
            "dpbox.array.boot_ns_per_device",
            per_call("dpbox.array.new"),
            "ns",
        ),
        (
            "dpbox.array.step_ns_per_device_epoch",
            per_call("dpbox.array.step"),
            "ns",
        ),
        (
            "fleet.wire.encode_ns_per_frame",
            per_call("fleet.wire.encode"),
            "ns",
        ),
        (
            "fleet.wire.decode_ns_per_frame",
            ratio(m.phases.decode_ns, r.frames_drained),
            "ns",
        ),
        (
            "fleet.wire.fallback_frame_share",
            1.0 - ratio(m.batch_frames, m.decoded_items),
            "fraction",
        ),
        (
            "fleet.chaos.attempt_ns",
            per_call("fleet.chaos.transmit"),
            "ns",
        ),
        (
            "fleet.chaos.sends_per_report",
            ratio(r.attempts, r.frames_encoded),
            "sends/report",
        ),
        (
            "fleet.service.offer_ns_per_frame",
            per_call("fleet.service.offer"),
            "ns",
        ),
        (
            "fleet.service.busy_share",
            ratio(r.busy, r.offers),
            "fraction",
        ),
        (
            "fleet.service.queue_wait_ms_p50",
            percentile(&r.queue_wait_ns, 0.5) as f64 / 1e6,
            "ms",
        ),
        (
            "fleet.service.drain_ns_per_frame",
            per_call("fleet.service.drain"),
            "ns",
        ),
        (
            "fleet.service.seal_ms_p50",
            percentile(&seals, 0.5) as f64 / 1e6,
            "ms",
        ),
        (
            "fleet.service.seal_ms_p90",
            percentile(&seals, 0.9) as f64 / 1e6,
            "ms",
        ),
        (
            "fleet.collector.accumulate_ns_per_report",
            ratio(m.phases.accumulate_ns, r.stats.accepted),
            "ns",
        ),
        (
            "fleet.collector.accepted_share",
            ratio(r.stats.accepted, r.frames_drained),
            "fraction",
        ),
        (
            "fleet.collector.table_bytes_per_device",
            m.table_bytes_per_device,
            "B",
        ),
        (
            "fleet.window.rollup_finalize_ms",
            get("fleet.window.rollup_finalize").busy_ns as f64 / 1e6,
            "ms",
        ),
        (
            "ldp.ledger.record_spend_ns",
            per_call("ldp.ledger.record_spend"),
            "ns",
        ),
        (
            "ldp.ledger.audit_ns_per_entry",
            per_call("ldp.ledger.audit"),
            "ns",
        ),
        (
            "mem.retained_bytes_per_report",
            m.retained_bytes_per_report,
            "B",
        ),
        (
            "fleet.driver.unattributed_share",
            ratio(root.self_ns, root.busy_ns),
            "fraction",
        ),
        (
            "trace.overhead_share",
            m.full_best_s / m.off_best_s - 1.0,
            "fraction",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(percentile(&[4, 1, 3, 2], 0.5), 2);
        assert_eq!(percentile(&(1..=10).collect::<Vec<_>>(), 0.9), 9);
    }
}
