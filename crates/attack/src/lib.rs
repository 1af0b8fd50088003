//! Precision-attack red team for the DP-Box reproduction.
//!
//! The paper's central negative result (Section III-A) is that finite
//! precision silently voids LDP guarantees: bounded noise support and
//! zero-probability gaps let some outputs identify their input exactly.
//! This crate operationalizes that result as an *attacker*, and turns the
//! exact-PMF machinery in [`ldp_core::loss`] against every sampler path the
//! workspace ships:
//!
//! * [`distinguisher`] — the support-gap distinguisher: given the exact
//!   conditional output distributions under two extreme inputs, plan the
//!   optimal support-gap test, compute its exact distinguishing advantage,
//!   and measure the empirical advantage of seeded sampling campaigns
//!   against a 3σ null threshold;
//! * [`float`] — the Mironov-style attack on the ideal `f64` Laplace path,
//!   enumerating the reachable double bit-patterns of
//!   [`ldp_core::float_vuln`];
//! * [`support`] — realized-support extraction and audits: the law an
//!   alias table *actually* samples (from its integer outcome weights),
//!   checked against the exact conditional distribution the loss analysis
//!   certifies;
//! * [`campaign`] — seeded campaign plumbing shared by the
//!   `attack_campaign` binary: the strict `ULP_ATTACK_SEED` contract and
//!   per-cell verdicts comparing the realized worst-case loss, over every
//!   output and every input pair, against claimed ε.
//!
//! The defense the attacks motivate lives in `ldp-core`:
//! [`ldp_core::SamplerPath::Secure`] machine-checks claimed bounds before
//! sampling, and [`ldp_core::refine_threshold`] replaces unsound
//! closed-form windows (the Eq. 15 overshoot) with the exact Eq. 4 solve,
//! recording how far the closed form was off.

pub mod campaign;
pub mod distinguisher;
pub mod float;
pub mod support;

pub use campaign::{attack_seed_from_env, CellVerdict};
pub use distinguisher::{AttackOutcome, SupportGapAttack};
pub use float::FloatSupportAttack;
pub use support::{pmf_support, table_dist, table_matches_dist, table_support};
