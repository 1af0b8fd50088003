//! Evaluation harness for the DP-Box reproduction: everything needed to
//! regenerate the paper's tables and figures.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Tables II–V (query MAE per dataset × mechanism) | [`utility_table`] |
//! | Fig. 4 / Fig. 12 (output histograms, distinguishability) | [`Histogram`], [`distinguishing_bins`] |
//! | Fig. 11 (noising latency per dataset) | [`latency_row`], [`latency_table`] |
//! | Fig. 13 (averaging adversary vs budget control) | [`averaging_attack`], [`adversary_curves`] |
//! | Fig. 14 (randomized-response accuracy vs n) | [`rr_curve`] |
//! | Fig. 15 (MAE vs dataset size and RNG resolution) | [`scaling_curve`] |
//! | Table VI (privacy-preserving SVM) | [`svm_accuracy`], [`svm_grid`] |
//! | URNG fault-injection campaign (robustness extension) | [`inject_fault`], [`pre_detection_loss`], [`healthy_alarm_count`] |
//!
//! The shared experiment plumbing lives in [`ExperimentSetup`] (one dataset
//! plus privacy level, giving the ADC mapping, noise configuration, and all
//! four mechanisms) and [`Adc`] (physical values to sensor codes).
//! [`TextTable`] renders the regeneration binaries' output.
//!
//! Every sweep fans its independent cells out over [`ulp_par`]; each cell
//! seeds its own RNG stream from the cell coordinates alone, so results are
//! byte-identical at any thread count (including `ULP_PAR_THREADS=1`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adc;
mod adversary;
mod fault_campaign;
mod frequency;
mod histogram;
mod latency;
mod report;
mod rr_eval;
mod scaling;
mod setup;
mod svm;
mod utility;

pub use adc::Adc;
pub use adversary::{adversary_curves, averaging_attack, AdversaryPoint};
pub use fault_campaign::{
    campaign_row, default_fault_suite, healthy_alarm_count, inject_fault, pre_detection_loss,
    CampaignConfig, CampaignRow, FaultInjection, FaultKind, PreDetectionLoss,
};
pub use frequency::{total_variation, FrequencyOracle};
pub use histogram::{
    certified_distinguishing_outputs, distinguishing_bins, sample_histogram, Histogram,
};
pub use latency::{latency_row, latency_table, tail_mass_outside, LatencyRow, BASE_CYCLES};
pub use report::{fmt_mae, fmt_pct, TextTable};
pub use rr_eval::{rr_curve, RrPoint};
pub use scaling::{scaling_curve, ScalingPoint};
pub use setup::{ExperimentSetup, GroundTruth, MechKind};
pub use svm::{halfspace_dataset, svm_accuracy, svm_grid, LinearSvm, Sample, SvmPrivacy};
pub use utility::{utility_row, utility_table, UtilityCell, UtilityRow};
