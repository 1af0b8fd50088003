//! Fault-injection campaign for the URNG health monitor and fail-safe
//! pipeline.
//!
//! The ε-LDP guarantee has two legs: a *structural* window bound that holds
//! for any bit source, and a *distributional* bound that holds only while
//! the Tausworthe URNG is actually uniform. The campaign quantifies what
//! the continuous health tests buy when the second leg breaks:
//!
//! * `inject_fault` — one device run with a fault switched on mid-mission
//!   ([`ulp_rng::OnsetBits`]), measuring detection latency in URNG words and
//!   device cycles, and collecting the outputs released between onset and
//!   alarm;
//! * [`healthy_alarm_count`] — the false-positive side: alarms raised over a
//!   long healthy [`Taus88`] run (the acceptance bar is zero over ≥10⁷ words
//!   at the default cutoffs);
//! * [`pre_detection_loss`] — the privacy exposure of the detection window:
//!   empirical conditional output distributions at the two extreme inputs,
//!   built from pre-detection outputs across many trials and compared via
//!   the exact machinery in `ldp_core::loss`
//!   ([`ConditionalDist::from_weights`]).

use std::collections::BTreeMap;

use dp_box::{
    Command, DpBox, DpBoxConfig, DpBoxError, HealthAlarm, HealthConfig, Phase, UrngHealth,
};
use ldp_core::{worst_case_loss, ConditionalDist, LimitMode, QuantizedRange};
use ulp_obs::{Counter, SpanTimer};
use ulp_rng::{
    BiasedBits, CorrelatedBits, FxpNoisePmf, OnsetBits, RandomBits, StuckAtBits, Taus88,
};

/// One injectable URNG fault model, with its severity parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One output bit wedged at a constant level ([`StuckAtBits`]).
    StuckAt {
        /// Bit position (31 is the sign bit the noise pipeline consumes).
        bit: u8,
        /// The constant level.
        value: bool,
    },
    /// Every bit independently forced to 1 with probability
    /// `extra_256 / 256` on top of the fair coin ([`BiasedBits`]).
    Biased {
        /// Bias strength in 1/256ths.
        extra_256: u8,
    },
    /// Every bit copies the bit `lag` words earlier with probability
    /// `rho_256 / 256` ([`CorrelatedBits`]).
    Correlated {
        /// Correlation lag in words.
        lag: u8,
        /// Copy probability in 1/256ths.
        rho_256: u8,
    },
}

impl FaultKind {
    /// Short human-readable label for campaign tables.
    pub fn label(&self) -> String {
        match self {
            FaultKind::StuckAt { bit, value } => {
                format!("stuck-at bit {bit} = {}", u8::from(*value))
            }
            FaultKind::Biased { extra_256 } => {
                format!("biased +{:.1}% ones", f64::from(*extra_256) / 256.0 * 50.0)
            }
            FaultKind::Correlated { lag, rho_256 } => {
                format!(
                    "correlated lag {lag} rho {:.2}",
                    f64::from(*rho_256) / 256.0
                )
            }
        }
    }

    /// Wraps a seeded healthy generator in this fault.
    fn wrap(self, seed: u64) -> Box<dyn RandomBits> {
        let inner = Taus88::from_seed(seed);
        match self {
            FaultKind::StuckAt { bit, value } => Box::new(StuckAtBits::new(inner, bit, value)),
            FaultKind::Biased { extra_256 } => Box::new(BiasedBits::new(inner, extra_256)),
            FaultKind::Correlated { lag, rho_256 } => {
                Box::new(CorrelatedBits::new(inner, lag, rho_256))
            }
        }
    }
}

/// A representative severity sweep: the faults the paper's deployment
/// hazard discussion motivates, at strengths the default cutoffs must
/// catch. (Milder severities than these sit below the Hoeffding cutoffs by
/// design — the monitor trades them for a ≈2⁻⁴⁰ per-decision false-positive
/// rate.)
pub fn default_fault_suite() -> Vec<FaultKind> {
    vec![
        FaultKind::StuckAt {
            bit: 31,
            value: true,
        }, // wedged sign bit
        FaultKind::StuckAt {
            bit: 13,
            value: false,
        }, // wedged magnitude bit
        FaultKind::Biased { extra_256: 16 }, // +3.1% ones
        FaultKind::Biased { extra_256: 64 }, // +12.5% ones
        FaultKind::Correlated {
            lag: 1,
            rho_256: 128,
        },
        FaultKind::Correlated {
            lag: 4,
            rho_256: 192,
        },
    ]
}

/// Shared experiment parameters for one injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Sensor range upper code (range is `[0, span]` grid units).
    pub span: i64,
    /// ε exponent: the device noises at `ε = 2^-n_m` per release.
    pub n_m: i64,
    /// URNG word index at which the fault switches on.
    pub onset_word: u64,
}

/// Noising requests after which an injection run gives up (fault
/// undetected).
const MAX_NOISINGS: u64 = 4096;

impl Default for CampaignConfig {
    /// The quickstart operating point: `[0, 320]` codes (= `[0, 10.0]` at
    /// Δ = 1/32), ε = 2⁻¹, fault onset at word 256.
    fn default() -> Self {
        CampaignConfig {
            span: 320,
            n_m: 1,
            onset_word: 256,
        }
    }
}

/// Outcome of one fault-injection run ([`inject_fault`]).
#[derive(Debug, Clone, PartialEq)]
struct FaultInjection {
    /// The injected fault.
    fault: FaultKind,
    /// Whether the health monitor tripped within the noising budget.
    detected: bool,
    /// The alarm that latched, if any.
    alarm: Option<HealthAlarm>,
    /// Words consumed between fault onset and the alarm (inclusive of the
    /// tripping word).
    latency_words: Option<u64>,
    /// Device cycles elapsed between the first post-onset noising request
    /// and the alarm.
    latency_cycles: Option<u64>,
    /// Outputs released from samples drawn at least partly after onset but
    /// before the alarm — the privacy-relevant exposure window.
    pre_detection_outputs: Vec<i64>,
    /// Whether every pre-detection output stayed inside the structural
    /// window `[−n_th, span + n_th]`.
    contained: bool,
}

fn configure<R: RandomBits>(dev: &mut DpBox<R>, cc: &CampaignConfig) -> Result<(), DpBoxError> {
    dev.issue(Command::StartNoising, 0)?; // leave initialization
    dev.issue(Command::SetEpsilon, cc.n_m)?;
    dev.issue(Command::SetSensorRangeLower, 0)?;
    dev.issue(Command::SetSensorRangeUpper, cc.span)?;
    dev.issue(Command::SetThreshold, 0)?; // toggle to thresholding
    Ok(())
}

/// Runs one mission with `fault` switching on at `cc.onset_word`, noising
/// the fixed sensor code `x_code` until the monitor trips (or the noising
/// budget runs out).
///
/// # Errors
///
/// Device configuration errors propagate; [`DpBoxError::UrngHealthFault`]
/// is the expected detection outcome and is *not* an error here.
///
/// # Panics
///
/// Panics if `x_code` lies outside `[0, cc.span]`.
fn inject_fault(
    fault: FaultKind,
    cc: &CampaignConfig,
    x_code: i64,
    seed: u64,
) -> Result<FaultInjection, DpBoxError> {
    assert!(
        (0..=cc.span).contains(&x_code),
        "x_code {x_code} outside [0, {}]",
        cc.span
    );
    let faulty = fault.wrap(seed ^ 0xFA17_FA17_FA17_FA17);
    let source = OnsetBits::new(Taus88::from_seed(seed), faulty, cc.onset_word, None);
    let mut dev = DpBox::with_urng(DpBoxConfig::default(), source)?;
    configure(&mut dev, cc)?;
    // The noising context (and with it the threshold) is built lazily on
    // the first request, so `n_th` is read after the first release.
    let mut n_th: Option<i64> = None;

    let mut pre_detection_outputs = Vec::new();
    let mut contained = true;
    // Device cycle count when the first post-onset request started;
    // recorded conservatively at the request boundary.
    let mut onset_cycles: Option<u64> = None;
    for _ in 0..MAX_NOISINGS {
        let cycles_before = dev.cycles();
        let result = dev.noise_value(x_code);
        if let Some(alarm) = dev.health_alarm() {
            // `word_index` is zero-based, so `word_index + 1` words were
            // consumed when the alarm latched.
            let latency_words = (alarm.word_index + 1).saturating_sub(cc.onset_word);
            let latency_cycles = dev.cycles() - onset_cycles.unwrap_or(cycles_before);
            debug_assert_eq!(dev.phase(), Phase::HealthFault);
            dev.audit()
                .expect("device ledger must match the composition accountant");
            return Ok(FaultInjection {
                fault,
                detected: true,
                alarm: Some(alarm),
                latency_words: Some(latency_words),
                latency_cycles: Some(latency_cycles),
                pre_detection_outputs,
                contained,
            });
        }
        let (y, _) = result?;
        if n_th.is_none() {
            n_th = dev.threshold_k();
        }
        let n_th = n_th.expect("thresholding context built after first release");
        let words_after = dev.health().map_or(0, UrngHealth::words);
        if words_after > cc.onset_word {
            // This release consumed at least one post-onset word: its
            // distributional certificate is void, so it counts as exposure.
            if onset_cycles.is_none() {
                onset_cycles = Some(cycles_before);
            }
            pre_detection_outputs.push(y);
            if y < -n_th || y > cc.span + n_th {
                contained = false;
            }
        }
    }
    dev.audit()
        .expect("device ledger must match the composition accountant");
    Ok(FaultInjection {
        fault,
        detected: false,
        alarm: None,
        latency_words: None,
        latency_cycles: None,
        pre_detection_outputs,
        contained,
    })
}

/// Aggregated detection statistics for one fault across `trials` seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Trials run.
    pub trials: u64,
    /// Trials in which the monitor tripped.
    pub detected: u64,
    /// Mean detection latency in URNG words over detected trials.
    pub mean_latency_words: Option<f64>,
    /// Worst detection latency in URNG words over detected trials.
    pub max_latency_words: Option<u64>,
    /// Worst detection latency in device cycles over detected trials.
    pub max_latency_cycles: Option<u64>,
    /// Mean number of outputs released inside the exposure window.
    pub mean_pre_detection_outputs: f64,
    /// Whether every pre-detection output in every trial stayed inside the
    /// structural window.
    pub contained: bool,
}

/// Runs `trials` independent injections of `fault` and aggregates the
/// detection metrics.
///
/// # Errors
///
/// Device configuration errors propagate.
pub fn campaign_row(
    fault: FaultKind,
    cc: &CampaignConfig,
    trials: u64,
    seed: u64,
) -> Result<CampaignRow, DpBoxError> {
    static SWEEP: SpanTimer = SpanTimer::new("eval.campaign_row");
    static CELLS: Counter = Counter::new("eval.campaign.trials");
    let _span = SWEEP.enter();
    CELLS.add(trials);
    // Every trial seeds its own device and fault wrapper from `(seed, t)`,
    // so trials fan out over `ulp_par` and aggregate in trial order —
    // byte-identical to the serial loop.
    let trial_ids: Vec<u64> = (0..trials).collect();
    let runs: Vec<FaultInjection> = ulp_par::par_map(&trial_ids, |&t| {
        let s = seed
            .wrapping_add(t)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        inject_fault(fault, cc, cc.span / 2, s)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let mut detected = 0u64;
    let mut sum_words = 0u64;
    let mut max_words: Option<u64> = None;
    let mut max_cycles: Option<u64> = None;
    let mut sum_outputs = 0u64;
    let mut contained = true;
    for run in runs {
        contained &= run.contained;
        sum_outputs += run.pre_detection_outputs.len() as u64;
        if run.detected {
            detected += 1;
            let w = run.latency_words.expect("detected runs report latency");
            sum_words += w;
            max_words = Some(max_words.map_or(w, |m| m.max(w)));
            let c = run.latency_cycles.expect("detected runs report cycles");
            max_cycles = Some(max_cycles.map_or(c, |m| m.max(c)));
        }
    }
    Ok(CampaignRow {
        trials,
        detected,
        mean_latency_words: (detected > 0).then(|| sum_words as f64 / detected as f64),
        max_latency_words: max_words,
        max_latency_cycles: max_cycles,
        mean_pre_detection_outputs: sum_outputs as f64 / trials.max(1) as f64,
        contained,
    })
}

/// Feeds `words` healthy [`Taus88`] words through a standalone
/// [`UrngHealth`] monitor, resetting after any alarm, and returns the
/// number of alarms raised — the campaign's false-positive measurement.
/// At the default α = 2⁻⁴⁰ cutoffs the expected count over 10⁷ words is
/// ≈3·10⁻⁴, so the acceptance bar is exactly zero.
pub fn healthy_alarm_count(words: u64, cfg: HealthConfig, seed: u64) -> u64 {
    let mut monitor = UrngHealth::new(cfg);
    let mut rng = Taus88::from_seed(seed);
    let mut alarms = 0u64;
    for _ in 0..words {
        if monitor.observe(rng.next_u32()).is_err() {
            alarms += 1;
            monitor.reset();
        }
    }
    alarms
}

/// The privacy exposure of the detection window for one fault.
#[derive(Debug, Clone, PartialEq)]
pub struct PreDetectionLoss {
    /// Pre-detection outputs collected at `x = 0` across all trials.
    pub samples_lo: u64,
    /// Pre-detection outputs collected at `x = span` across all trials.
    pub samples_hi: u64,
    /// Worst empirical loss over the common support of the two observed
    /// output histograms (`None` if either histogram is empty or the
    /// supports are disjoint).
    pub empirical_loss: Option<f64>,
    /// Larger of the two disjoint-support masses — the evidence the
    /// common-support comparison cannot see.
    pub disjoint_mass: f64,
    /// The exact certified worst-case loss of the *healthy* thresholding
    /// mechanism at this operating point, for comparison.
    pub certified_loss: Option<f64>,
    /// Whether every pre-detection output stayed inside the structural
    /// window (this must hold regardless of the fault).
    pub contained: bool,
}

/// Measures the empirical privacy loss of pre-detection outputs: runs
/// `trials` injections at each extreme input, accumulates the observed
/// output histograms, and compares them through the exact
/// [`ConditionalDist`] machinery against the certified healthy bound.
///
/// # Errors
///
/// Device configuration and range-construction errors propagate.
pub fn pre_detection_loss(
    fault: FaultKind,
    cc: &CampaignConfig,
    trials: u64,
    seed: u64,
) -> Result<PreDetectionLoss, DpBoxError> {
    // Each trial's pair of runs (x = 0 and x = span) is seeded from
    // `(seed, t, x)` only, so trials fan out over `ulp_par` and the
    // histograms merge in trial order — identical to the serial loop.
    let trial_ids: Vec<u64> = (0..trials).collect();
    let per_trial: Vec<(Vec<i64>, Vec<i64>, bool)> = ulp_par::par_map(&trial_ids, |&t| {
        let s = seed
            .wrapping_add(t)
            .wrapping_mul(0xD134_2543_DE82_EF95)
            .wrapping_add(1);
        let mut outputs = [Vec::new(), Vec::new()];
        let mut contained = true;
        for (slot, x) in [(0usize, 0i64), (1, cc.span)] {
            let run = inject_fault(fault, cc, x, s ^ (x as u64) << 32)?;
            contained &= run.contained;
            outputs[slot] = run.pre_detection_outputs;
        }
        let [lo, hi] = outputs;
        Ok::<_, DpBoxError>((lo, hi, contained))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let mut lo_counts: BTreeMap<i64, u128> = BTreeMap::new();
    let mut hi_counts: BTreeMap<i64, u128> = BTreeMap::new();
    let mut contained = true;
    for (lo, hi, trial_contained) in per_trial {
        contained &= trial_contained;
        for y in lo {
            *lo_counts.entry(y).or_insert(0) += 1;
        }
        for y in hi {
            *hi_counts.entry(y).or_insert(0) += 1;
        }
    }
    let samples_lo: u64 = lo_counts.values().map(|&w| w as u64).sum();
    let samples_hi: u64 = hi_counts.values().map(|&w| w as u64).sum();
    let d_lo = ConditionalDist::from_weights(lo_counts);
    let d_hi = ConditionalDist::from_weights(hi_counts);
    let (empirical_loss, disjoint_mass) = match (&d_lo, &d_hi) {
        (Some(a), Some(b)) => (
            a.worst_common_support_loss(b),
            a.disjoint_mass(b).max(b.disjoint_mass(a)),
        ),
        _ => (None, 1.0),
    };

    // The certified healthy bound at the same operating point, from the
    // exact PMF — what the distributional leg guarantees while the URNG is
    // uniform.
    let mut reference = DpBox::new(DpBoxConfig::default())?;
    configure(&mut reference, cc)?;
    let _ = reference.noise_value(0)?; // force lazy context construction
    let lap = reference.laplace_config().expect("context built");
    let n_th = reference.threshold_k().expect("context built");
    let pmf = FxpNoisePmf::closed_form(lap);
    let range = QuantizedRange::new(0, cc.span, lap.delta())
        .map_err(|_| DpBoxError::InvalidConfig("campaign range"))?;
    let certified_loss = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(n_th)).finite();

    Ok(PreDetectionLoss {
        samples_lo,
        samples_hi,
        empirical_loss,
        disjoint_mass,
        certified_loss,
        contained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_box::HealthTest;

    const CC: CampaignConfig = CampaignConfig {
        span: 320,
        n_m: 1,
        onset_word: 256,
    };

    #[test]
    fn stuck_sign_bit_is_detected_quickly() {
        let fault = FaultKind::StuckAt {
            bit: 31,
            value: true,
        };
        let run = inject_fault(fault, &CC, 160, 0xC0FFEE).unwrap();
        assert!(run.detected, "stuck sign bit must trip the monitor");
        let alarm = run.alarm.unwrap();
        assert!(
            matches!(alarm.test, HealthTest::RepetitionCount { bit: 31, .. }),
            "expected RCT on bit 31, got {alarm}"
        );
        // RCT cutoff is 41 at the default α = 2⁻⁴⁰; a constant bit trips
        // within ~2 cutoffs of onset (the pre-onset run can only help).
        assert!(
            run.latency_words.unwrap() <= 96,
            "latency {:?} words",
            run.latency_words
        );
        assert!(run.contained, "structural bound must hold pre-detection");
    }

    #[test]
    fn biased_and_correlated_faults_are_detected() {
        for fault in [
            FaultKind::Biased { extra_256: 64 },
            FaultKind::Correlated {
                lag: 1,
                rho_256: 128,
            },
        ] {
            let run = inject_fault(fault, &CC, 160, 0xBEEF).unwrap();
            assert!(run.detected, "{} must trip the monitor", fault.label());
            // Windowed tests close at most two windows after onset.
            assert!(
                run.latency_words.unwrap() <= 2 * 1024 + 64,
                "{}: latency {:?} words",
                fault.label(),
                run.latency_words
            );
            assert!(run.contained);
        }
    }

    #[test]
    fn campaign_row_aggregates_detections() {
        let fault = FaultKind::StuckAt {
            bit: 31,
            value: true,
        };
        let row = campaign_row(fault, &CC, 3, 7).unwrap();
        assert_eq!(row.trials, 3);
        assert_eq!(row.detected, 3);
        assert!(row.mean_latency_words.unwrap() <= 96.0);
        assert!(row.max_latency_words.unwrap() >= 1);
        assert!(row.max_latency_cycles.is_some());
        assert!(row.contained);
    }

    #[test]
    fn healthy_taus88_raises_no_alarms_over_two_million_words() {
        // The binary runs the full ≥10⁷-word acceptance check; this keeps
        // the debug-profile suite fast while still far above the expected
        // chance-alarm count (≈6·10⁻⁵ over 2·10⁶ words at α = 2⁻⁴⁰).
        let alarms = healthy_alarm_count(2_000_000, HealthConfig::default(), 0x5EED);
        assert_eq!(alarms, 0);
    }

    #[test]
    fn pre_detection_loss_reports_contained_exposure() {
        let fault = FaultKind::Biased { extra_256: 64 };
        let report = pre_detection_loss(fault, &CC, 2, 0xABCD).unwrap();
        assert!(report.contained, "outputs must stay inside the window");
        assert!(report.samples_lo > 0 && report.samples_hi > 0);
        // The certified healthy bound exists and is finite at this
        // operating point; the empirical common-support loss is a finite
        // number whenever the histograms overlap.
        assert!(report.certified_loss.is_some());
        if let Some(l) = report.empirical_loss {
            assert!(l.is_finite() && l >= 0.0);
        }
    }

    #[test]
    fn default_suite_covers_all_three_fault_families() {
        let suite = default_fault_suite();
        assert!(suite.iter().any(|f| matches!(f, FaultKind::StuckAt { .. })));
        assert!(suite.iter().any(|f| matches!(f, FaultKind::Biased { .. })));
        assert!(suite
            .iter()
            .any(|f| matches!(f, FaultKind::Correlated { .. })));
    }
}
