//! Hardware random-number substrate for the DP-Box reproduction.
//!
//! This crate models the noise-generation datapath of an ultra-low-power
//! local-differential-privacy unit (ISCA'18 "Guaranteeing Local Differential
//! Privacy on Ultra-low-power Systems"), layer by layer:
//!
//! * [`RandomBits`] — raw uniform bit sources: the [`Taus88`] combined
//!   Tausworthe generator the paper uses (and [`Taus88Lanes`], several of
//!   them stepped together), an [`Xorshift64Star`] alternative,
//!   [`SplitMix64`] for seeding, and [`ScriptedBits`] for forcing samplers
//!   down specific paths in tests.
//! * [`CordicLn`] — the fixed-point hyperbolic-CORDIC natural logarithm that
//!   evaluates the Laplace inverse CDF in hardware.
//! * [`IdealLaplace`] — the continuous double-precision inversion sampler
//!   (the mathematical reference the paper compares against).
//! * [`FxpLaplace`] — the fixed-point Laplace RNG of Fig. 3: `Bu`-bit
//!   uniform → ICDF → round to `kΔ` on a `By`-bit word → random sign. Its
//!   support is **bounded** and its tail has **zero-probability gaps**; these
//!   are the nonidealities that break naive local DP.
//! * [`FxpNoisePmf`] — the *exact* output distribution (paper Eq. 11) as
//!   integer outcome counts over `2^(Bu+1)`, enabling machine-checked
//!   privacy-loss analysis with no floating-point smoothing.
//! * [`DiscreteLaplace`] — a two-sided-geometric baseline (the OpenDP-style
//!   discrete mechanism) used by the ablation experiments.
//! * [`AliasTable`] — Walker/Vose alias tables built from the exact PMF (or
//!   any conditional window of it) for O(1) table-driven draws that match
//!   the source distribution bit-for-bit — the simulation fast path.
//!
//! # Quickstart
//!
//! ```
//! use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};
//!
//! // The paper's Fig. 4 configuration: Bu=17, By=12, Δ=10/2^5, Lap(20).
//! let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
//! let sampler = FxpLaplace::analytic(cfg);
//! let mut urng = Taus88::from_seed(2018);
//!
//! let noise = sampler.sample(&mut urng);
//! assert!(noise.abs() <= cfg.max_magnitude()); // bounded support!
//!
//! // The exact PMF exposes the tail gaps that ruin the DP guarantee.
//! let pmf = FxpNoisePmf::closed_form(cfg);
//! assert!(pmf.interior_gap_count() > 0);
//! # Ok::<(), ulp_rng::RngError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod cache;
mod columns;
mod cordic;
mod discrete;
mod eq17;
mod error;
mod fault;
mod fxp;
mod gaussian;
mod health;
mod laplace;
mod pmf;
mod source;
mod staircase;
mod tausworthe;
mod xorshift;

pub use alias::AliasTable;
pub use cache::{cached_alias_full, cached_alias_laplace_grid, cached_alias_window, cached_pmf};
pub use columns::UrngColumns;
pub use cordic::CordicLn;
pub use discrete::DiscreteLaplace;
pub use eq17::Eq17Laplace;
pub use error::RngError;
pub use fault::{BiasedBits, CorrelatedBits, OnsetBits, StuckAtBits};
pub use fxp::{FxpLaplace, FxpLaplaceConfig};
pub use gaussian::{FxpGaussian, FxpGaussianConfig};
pub use health::{HealthAlarm, HealthConfig, HealthTest, UrngHealth};
pub use laplace::IdealLaplace;
pub use pmf::FxpNoisePmf;
pub use source::{stream_seed, RandomBits, ScriptedBits, SplitMix64};
pub use staircase::{FxpStaircase, FxpStaircaseConfig, IdealStaircase};
pub use tausworthe::{Taus88, Taus88Lanes};
pub use xorshift::Xorshift64Star;
