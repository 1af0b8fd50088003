//! Runtime Q-format signed fixed-point arithmetic for modelling
//! ultra-low-power (ULP) hardware datapaths.
//!
//! Ultra-low-power processors and sensor controllers use fixed-point
//! arithmetic — not floating point — for cost, area, energy, and latency
//! reasons. This crate is the numeric substrate of the DP-Box reproduction:
//! every value that flows through the simulated hardware (uniform random
//! words, CORDIC logarithms, Laplace noise samples, sensor readings) is an
//! [`Fx`] carrying its [`QFormat`] at runtime, so experiments can sweep word
//! widths the way the paper sweeps `Bu` and `By`.
//!
//! # Quickstart
//!
//! ```
//! use ulp_fixed::{Fx, QFormat, Rounding};
//!
//! // The paper's DP-Box uses a 20-bit fixed-point datapath.
//! let fmt = QFormat::new(20, 10)?;
//! let reading = Fx::from_raw(134_656, fmt)?; // 131.5
//! let noise = Fx::from_raw(-12_544, fmt)?; // -12.25
//! let noised = Fx::from_raw(reading.raw() + noise.raw(), fmt)?;
//! assert_eq!(noised.to_f64(), 119.25);
//! // Narrowing to whole units rounds, as a wire adapter does.
//! let whole = noised.resize(QFormat::new(20, 0)?, Rounding::NearestTiesAway)?;
//! assert_eq!(whole.raw(), 119);
//! # Ok::<(), ulp_fixed::FixedError>(())
//! ```
//!
//! # Design notes
//!
//! * Formats are runtime data ([`QFormat`]), not type parameters: the
//!   simulators sweep widths as experiment parameters.
//! * The datapaths add, multiply and shift raw `i64`/`i128` words, as
//!   hardware does; an [`Fx`] is checked against its format where it is
//!   built, and [`Fx::resize`] is the one explicit wire-width adapter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fmt_impls;
mod format;
mod round;
mod value;

pub use error::FixedError;
pub use format::QFormat;
pub use round::Rounding;
pub use value::Fx;
