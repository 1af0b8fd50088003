//! Local differential privacy for fixed-point ultra-low-power hardware.
//!
//! This crate implements the primary contribution of the ISCA'18 paper
//! "Guaranteeing Local Differential Privacy on Ultra-low-power Systems"
//! (Choi et al.): local DP mechanisms that remain *provably* private when the
//! Laplace noise comes from a low-resolution fixed-point RNG.
//!
//! # The problem
//!
//! A fixed-point Laplace RNG has bounded support and zero-probability gaps
//! in its tail (see [`ulp_rng::FxpNoisePmf`]). Noising a sensor value with it
//! therefore produces outputs that are possible under one input and
//! impossible under another — **infinite privacy loss** ([`PrivacyLoss`]),
//! i.e. no differential privacy at all, even though the utility looks
//! indistinguishable from ideal. This crate's [`loss`] module proves this
//! per-configuration from exact integer outcome counts.
//!
//! # The fix
//!
//! Limit the noised-output window to `[m − n_th, M + n_th]` with one of two
//! mechanisms — [`ResamplingMechanism`] (redraw out-of-window noise) or
//! [`ThresholdingMechanism`] (clamp to the window edge) — with `n_th` chosen
//! by the solvers in [`threshold`] so the worst-case loss is bounded by a
//! target `n·ε`. The output-adaptive [`BudgetController`] (Algorithm 1)
//! then meters the loss across repeated queries, replaying a cached output
//! once the budget is spent. [`RandomizedResponse`] covers categorical data
//! as the zero-threshold special case.
//!
//! # Quickstart
//!
//! ```
//! use ldp_core::{
//!     exact_threshold, LimitMode, Mechanism, QuantizedRange, ThresholdingMechanism,
//! };
//! use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};
//!
//! // Sensor: range [0, 10], privacy ε = 0.5 → λ = d/ε = 20.
//! let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
//! let range = QuantizedRange::new(0, 32, cfg.delta())?;
//! let pmf = FxpNoisePmf::closed_form(cfg);
//!
//! // Pick the largest threshold with worst-case loss ≤ 2ε = 1.0.
//! let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding)?;
//! let mech = ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)?;
//!
//! let mut rng = Taus88::from_seed(2018);
//! let report = mech.privatize(7.3, &mut rng)?;
//! assert!(report.value >= -spec.n_th_k as f64 * cfg.delta());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cache;
mod central;
mod composition;
mod discrete_mech;
mod error;
pub mod float_vuln;
mod kary;
mod ledger;
pub mod loss;
mod mechanism;
mod multi;
mod range;
mod rr;
pub mod theory;
pub mod threshold;
mod timing;

pub use budget::{BudgetController, SegmentTable};
pub use cache::{exact_threshold_cached, segment_table_cached};
pub use central::CentralLaplaceMean;
pub use composition::CompositionLedger;
pub use discrete_mech::DiscreteLaplaceMechanism;
pub use error::LdpError;
pub use kary::KaryRandomizedResponse;
pub use ledger::{
    audit_series, AuditMismatch, BudgetLedger, DoubleSpend, LedgerEntry, LedgerSummary,
};
pub use loss::{
    conditional, loss_profile, worst_case_loss, ConditionalDist, LimitMode, PrivacyLoss,
};
pub use mechanism::{
    FxpBaseline, Guarantee, IdealLaplaceMechanism, Mechanism, NoisedOutput, ResamplingMechanism,
    SamplerPath, ThresholdingMechanism,
};
pub use multi::{MultiSensorBudget, SensorId};
pub use range::QuantizedRange;
pub use rr::RandomizedResponse;
pub use threshold::{
    closed_form_threshold, exact_threshold, exact_threshold_for_bound, refine_threshold,
    resampling_threshold, thresholding_threshold, RefinedThreshold, ThresholdSpec,
};
pub use timing::ConstantTimeResampling;
