//! The fleet accuracy sweep: estimates vs ground truth across populations.
//!
//! Lines each debiased estimate of a one-window fleet run up against the
//! included-population ground truth (`bench_fleet` and `chaos_campaign`
//! sweep populations and chaos cells this way), together with its *gate*: the mean, frequency, and count estimators
//! carry analytic standard errors and deterministic bias envelopes, so
//! `|estimate − truth| ≤ 3·SE + bias_bound` is a checkable soundness claim,
//! not a vibe. Variance and median are reported for inspection but not
//! gated (their envelopes are loose / not claimed — see
//! [`NoiseModel`]).

use ldp_eval::TextTable;

use crate::driver::ServiceOutcome;
use crate::estimator::{Estimate, NoiseModel};

/// One estimator's showing in a sweep row.
#[derive(Debug, Clone, Copy)]
pub struct GateResult {
    /// The estimate (value, SE, bias envelope).
    pub estimate: Estimate,
    /// The matching ground truth.
    pub truth: f64,
    /// `|estimate − truth|`.
    pub abs_err: f64,
    /// Whether the error is within `3·SE + bias_bound`.
    pub within_gate: bool,
}

impl GateResult {
    /// Lines an estimate up against its ground truth and evaluates the
    /// `3·SE + bias_bound` gate.
    pub fn new(estimate: Estimate, truth: f64) -> Self {
        let abs_err = (estimate.value - truth).abs();
        GateResult {
            estimate,
            truth,
            abs_err,
            within_gate: abs_err <= 3.0 * estimate.stderr + estimate.bias_bound,
        }
    }
}

/// One population size's fleet-vs-truth comparison.
#[derive(Debug, Clone)]
pub struct FleetSweepRow {
    /// Population simulated.
    pub devices: usize,
    /// Devices the power-on self-test excluded.
    pub excluded: usize,
    /// Reports the collector accepted.
    pub reports: u64,
    /// Mean estimator vs truth (gated).
    pub mean: GateResult,
    /// RR frequency estimator vs truth (gated).
    pub frequency: GateResult,
    /// RR count estimator vs truth (gated).
    pub count: GateResult,
    /// Variance estimate and truth (reported, not gated).
    pub variance: Option<(Estimate, f64)>,
    /// Median estimate and truth (reported, not gated).
    pub median: Option<(Estimate, f64)>,
    /// Whether the fleet ledger audited clean.
    pub audit_ok: bool,
}

impl FleetSweepRow {
    /// Lines a run's rollup estimates up against its included-population
    /// ground truth — under
    /// [`FleetDriver::one_window`](crate::FleetDriver::one_window), the
    /// whole run's batch estimates. `None` when the run produced no mean or
    /// RR frequency (e.g. the entire population excluded).
    pub fn from_outcome(out: &ServiceOutcome) -> Option<FleetSweepRow> {
        let mean = out.rollup_mean?;
        let frequency = out.rollup_rr_frequency?;
        let count = NoiseModel::rr_count(frequency);
        Some(FleetSweepRow {
            devices: out.devices_simulated,
            excluded: out.devices_excluded,
            reports: out.stats.accepted,
            mean: GateResult::new(mean, out.truth_mean),
            frequency: GateResult::new(frequency, out.truth_fraction),
            count: GateResult::new(count, out.truth_fraction * count.n as f64),
            variance: out.rollup_variance.map(|v| (v, out.truth_variance)),
            median: out.rollup_median.map(|m| (m, out.truth_median)),
            audit_ok: out.audit_ok,
        })
    }

    /// The gated estimators, by name.
    pub fn gates(&self) -> [(&'static str, GateResult); 3] {
        [
            ("mean", self.mean),
            ("frequency", self.frequency),
            ("count", self.count),
        ]
    }
}

/// Renders sweep rows as a text table (the `bench_fleet` report body).
pub fn render_sweep(rows: &[FleetSweepRow]) -> TextTable {
    let mut table = TextTable::new(vec![
        "devices",
        "excluded",
        "reports",
        "stat",
        "estimate",
        "truth",
        "|err|",
        "3*SE+bias",
        "gate",
    ]);
    for row in rows {
        let mut stat = |name: &str, g: &GateResult, gated: bool| {
            table.row(vec![
                row.devices.to_string(),
                row.excluded.to_string(),
                row.reports.to_string(),
                name.to_string(),
                format!("{:.4}", g.estimate.value),
                format!("{:.4}", g.truth),
                format!("{:.4}", g.abs_err),
                format!("{:.4}", 3.0 * g.estimate.stderr + g.estimate.bias_bound),
                if !gated {
                    "-".to_string()
                } else if g.within_gate {
                    "pass".to_string()
                } else {
                    "FAIL".to_string()
                },
            ]);
        };
        for (name, gate) in row.gates() {
            stat(name, &gate, true);
        }
        if let Some((est, truth)) = row.variance {
            stat("variance", &GateResult::new(est, truth), false);
        }
        if let Some((est, truth)) = row.median {
            stat("median", &GateResult::new(est, truth), false);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{FleetConfig, FleetDriver};

    /// The sweep row of `cfg` run as one window.
    fn row(cfg: FleetConfig) -> FleetSweepRow {
        let driver = FleetDriver::new(cfg).unwrap();
        let out = driver.run_service(&driver.one_window()).unwrap();
        FleetSweepRow::from_outcome(&out).expect("the run produced estimates")
    }

    #[test]
    fn sweep_gates_pass_at_modest_populations() {
        let rows = [500, 2000].map(|devices| {
            row(FleetConfig {
                chunk: 256,
                ..FleetConfig::paper_default(devices, 2, 424)
            })
        });
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.gates().iter().all(|(_, g)| g.within_gate) && row.audit_ok,
                "gates failed at n = {}: mean err {:.3} (bound {:.3}), freq err {:.4} (bound {:.4})",
                row.devices,
                row.mean.abs_err,
                3.0 * row.mean.estimate.stderr + row.mean.estimate.bias_bound,
                row.frequency.abs_err,
                3.0 * row.frequency.estimate.stderr + row.frequency.estimate.bias_bound,
            );
        }
        // SE shrinks with population.
        assert!(rows[1].mean.estimate.stderr < rows[0].mean.estimate.stderr);
    }

    #[test]
    fn render_produces_one_block_per_statistic() {
        let rows = [row(FleetConfig {
            chunk: 128,
            ..FleetConfig::paper_default(300, 1, 5)
        })];
        let table = render_sweep(&rows);
        assert_eq!(table.len(), 5); // mean, frequency, count, variance, median
        let text = table.to_string();
        assert!(text.contains("mean") && text.contains("median"));
    }
}
