//! Synthetic sensor/IoT benchmark datasets and the statistical queries used
//! to evaluate LDP utility.
//!
//! The paper (Table I) evaluates on seven UCI Machine Learning Repository
//! datasets. This crate re-specifies each benchmark — entry count, sensor
//! range, moments, and distribution shape — and regenerates it
//! deterministically ([`generate`]), since LDP utility depends on the range
//! `d` and the in-range distribution rather than the literal samples. The
//! substitution is documented in the workspace DESIGN.md.
//!
//! Also provided: the four aggregate queries of Tables II–V ([`Query`]) and
//! the mean-absolute-error harness ([`evaluate_query`]) that scores a
//! privatization function against ground truth.
//!
//! # Quickstart
//!
//! ```
//! use ldp_datasets::{evaluate_query, generate, statlog_heart, Query};
//!
//! let spec = statlog_heart();
//! let data = generate(&spec, 2018);
//!
//! // "Privatize" with a toy ±1 mmHg dither and measure the mean query MAE.
//! let mut sign = 1.0;
//! let result = evaluate_query(
//!     &data,
//!     move |x| {
//!         sign = -sign;
//!         x + sign
//!     },
//!     Query::Mean,
//!     20,
//!     spec.range_length(),
//! );
//! assert!(result.mae < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mae;
mod query;
mod spec;
mod synth;
mod uci;

pub use mae::{evaluate_query, evaluate_query_batched, MaeResult};
pub use query::Query;
pub use spec::{DatasetSpec, Shape};
pub use synth::{generate, summarize, Summary};
pub use uci::{all_benchmarks, robot_sensors, statlog_heart, ujiindoorloc};
