//! Shared configuration for the table/figure regeneration binaries and the
//! Criterion benches.
//!
//! Every binary regenerates one artifact of the paper's evaluation section
//! (`fig04` … `fig15`, `table01` … `table06`, `table_hw`); run them with
//! `cargo run --release --bin <name>`. The constants here pin the operating
//! point the paper uses so all artifacts agree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod env;
pub mod fleet;
pub mod json;
mod render;

pub use env::{
    read_input, reject, require_env, require_flag, require_writable, unknown_flag, write_report,
    FleetEnv,
};
pub use render::{
    render_adversary, render_counting_table, render_fault_campaign, render_latency, render_rr,
    render_scaling, render_svm, render_utility_table, Artifact,
};

/// The privacy parameter used by the utility tables (Section VI-B:
/// "All of the utility results are for the privacy setting ε = 0.5").
pub const EPS_UTILITY: f64 = 0.5;

/// Loss-bound multiple (`n` in `n·ε`) used when building the
/// resampling/thresholding mechanisms.
pub const LOSS_MULTIPLE: f64 = 2.0;

/// The budget-segment multiples of Fig. 8.
pub const SEGMENT_MULTIPLES: [f64; 4] = [1.5, 2.0, 2.5, 3.0];

/// Trials per utility cell (the paper presents each entry 500 times; the
/// binaries default lower for responsiveness and note it in their output).
pub const TRIALS: usize = 100;

/// Master seed for reproducible regeneration.
pub const SEED: u64 = 2018;

/// Formats a bool as the tables' "LDP?" cell.
pub fn ldp_flag(ldp: bool) -> String {
    if ldp {
        "Y".into()
    } else {
        "N".into()
    }
}

/// Runs and prints one utility table (the shared engine behind the
/// `table02`–`table05` binaries).
///
/// # Panics
///
/// Panics if the evaluation fails — regeneration binaries surface errors by
/// aborting with the message.
pub fn run_utility_table(title: &str, query: ldp_datasets::Query) {
    print!("{}", render_utility_table(title, query, TRIALS).text);
}

/// Runs and prints Table V: the counting query with a per-dataset threshold
/// at the range midpoint.
///
/// # Panics
///
/// Panics if the evaluation fails.
pub fn run_counting_table() {
    print!("{}", render_counting_table(TRIALS).text);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_render() {
        assert_eq!(ldp_flag(true), "Y");
        assert_eq!(ldp_flag(false), "N");
    }
}
