//! # ulp-ldp — Local Differential Privacy on Ultra-Low-Power Systems
//!
//! A full reproduction of the ISCA 2018 paper *"Guaranteeing Local
//! Differential Privacy on Ultra-low-power Systems"* (Choi, Tomei, Sanchez
//! Vicarte, Hanumolu, Kumar): fixed-point Laplace noising is **not**
//! differentially private (bounded support + probability gaps ⇒ infinite
//! privacy loss), and the paper's fixes — resampling, thresholding, and
//! output-adaptive budget control, packaged in the DP-Box hardware module —
//! restore a provable ε-LDP guarantee at 2-cycle latency.
//!
//! This crate is an umbrella re-exporting the workspace:
//!
//! * [`fixed`] ([`ulp_fixed`]) — runtime Q-format fixed-point arithmetic;
//! * [`rng`] ([`ulp_rng`]) — Tausworthe URNG, CORDIC log, fixed-point
//!   Laplace samplers, and their **exact** output PMFs;
//! * [`ldp`] ([`ldp_core`]) — mechanisms, exact privacy-loss analysis,
//!   threshold solvers, budget control, randomized response;
//! * [`dpbox`] ([`dp_box`]) — the cycle-level DP-Box device model and its
//!   energy model;
//! * [`datasets`] ([`ldp_datasets`]) — the seven Table-I benchmarks
//!   (synthetic regenerations) and the evaluation queries;
//! * [`eval`] ([`ldp_eval`]) — the harness that regenerates every table and
//!   figure;
//! * [`fleet`] ([`ulp_fleet`]) — the population-scale aggregation pipeline:
//!   report wire protocol, sharded collector, debiased estimators, and the
//!   simulated-fleet driver;
//! * [`par`] ([`ulp_par`]) — the vendored scoped thread pool the evaluation
//!   sweeps fan out on (`ULP_PAR_THREADS` overrides the width; results are
//!   byte-identical at any thread count).
//!
//! # Quickstart
//!
//! ```
//! use ulp_ldp::ldp::{
//!     exact_threshold, LimitMode, Mechanism, QuantizedRange, ThresholdingMechanism,
//!     worst_case_loss, PrivacyLoss,
//! };
//! use ulp_ldp::rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};
//!
//! // A sensor with range [0, 10], ε = 0.5 (noise scale λ = 20), on the
//! // paper's 17-bit URNG / Δ = 10/32 grid.
//! let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
//! let range = QuantizedRange::new(0, 32, cfg.delta())?;
//! let pmf = FxpNoisePmf::closed_form(cfg);
//!
//! // Naive fixed-point noising is NOT private:
//! assert_eq!(
//!     worst_case_loss(&pmf, range, LimitMode::Thresholding, None),
//!     PrivacyLoss::Infinite,
//! );
//!
//! // Thresholding at an exactly-solved window bound fixes it:
//! let spec = exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding)?;
//! let mech = ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)?;
//! let mut rng = Taus88::from_seed(2018);
//! let report = mech.privatize(7.3, &mut rng)?;
//! assert!(report.value.is_finite());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the per-table/per-figure regeneration binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dp_box as dpbox;
pub use ldp_core as ldp;
pub use ldp_datasets as datasets;
pub use ldp_eval as eval;
pub use ulp_attack as attack;
pub use ulp_fixed as fixed;
pub use ulp_fleet as fleet;
pub use ulp_par as par;
pub use ulp_rng as rng;
