//! DP-Box: a cycle-level simulator of the ISCA'18 hardware module for local
//! differential privacy on ultra-low-power systems.
//!
//! The DP-Box sits between a sensor and untrusted software, releasing only
//! noised readings. This crate models it at the port level:
//!
//! * [`Command`] — the 3-bit command port (Section IV-A), with
//!   initialization-phase overloads for budget and replenishment period;
//! * [`DpBox`] — the device FSM (initialization → waiting → noising,
//!   Section IV-C) with the real noise datapath: Tausworthe URNG →
//!   single-cycle CORDIC logarithm → shift-based `ε = 2^-n_m` scaling
//!   (Eq. 16–19), resampling/thresholding window enforcement, embedded
//!   budget control with output caching and timed replenishment;
//! * [`DeviceArray`] — N devices advanced in lockstep, bit-identical to N
//!   [`DpBox`]es booted by [`DpBox::boot`], on the same [`NoisingCtx`];
//! * [`EnergyModel`] — the latency/energy cost model of Sections III-D
//!   and V, reproducing the paper's 894×/318× energy benefits over
//!   software noising.
//!
//! # Quickstart
//!
//! ```
//! use dp_box::{Command, DpBox, DpBoxConfig};
//!
//! let mut dev = DpBox::new(DpBoxConfig::default())?;
//! dev.issue(Command::StartNoising, 0)?;          // leave initialization
//! dev.issue(Command::SetEpsilon, 1)?;            // ε = 2^-1
//! dev.issue(Command::SetSensorRangeLower, 0)?;
//! dev.issue(Command::SetSensorRangeUpper, 320)?; // [0, 10.0] at Δ = 1/32
//! dev.issue(Command::SetThreshold, 0)?;          // toggle to thresholding
//!
//! let (noised, cycles) = dev.noise_value(160)?;
//! assert_eq!(cycles, 2); // load + noise, as synthesized
//! # let _ = noised;
//! # Ok::<(), dp_box::DpBoxError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
mod command;
mod datapath;
mod device;
mod energy;
mod error;
mod trace;
mod vcd;

pub use array::{DeviceArray, DeviceArrayConfig, LaneOutcome};
pub use command::{Command, DecodeCommandError};
pub use datapath::NoisingCtx;
pub use device::{DpBox, DpBoxConfig, DpBoxStats, Phase};
pub use energy::{EnergyModel, Implementation};
pub use error::DpBoxError;
pub use trace::{Trace, TraceEvent};
pub use vcd::trace_to_vcd;
// Health-monitoring vocabulary, re-exported so device users can configure
// the monitor and inspect alarms without depending on `ulp-rng` directly,
// and the datapath format a `NoisingCtx` is built for.
pub use ulp_fixed::QFormat;
pub use ulp_rng::{HealthAlarm, HealthConfig, HealthTest, UrngHealth};
