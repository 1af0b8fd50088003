//! The power-on self-test kernel's counter contract:
//! `UrngColumns::boot` moves `rng.taus88.words_drawn`,
//! `rng.health.verdicts_ok` and `rng.health.alarms` by exactly what scalar
//! `startup` moves them by over the same lanes: clean lanes, lanes that
//! trip the repetition count, and a lane that trips at window close.
//!
//! The counters are process-global, so this binary holds a single test.

use ulp_obs::{set_level, snapshot, MetricsLevel};
use ulp_rng::{HealthConfig, HealthTest, Taus88, UrngColumns, UrngHealth};

const COUNTERS: [&str; 3] = [
    "rng.taus88.words_drawn",
    "rng.health.verdicts_ok",
    "rng.health.alarms",
];

/// A counter's value, read from the snapshot's JSON rendering (the
/// `--metrics` text): 0 until the counter first records.
fn counter(name: &str) -> u64 {
    let json = snapshot().to_json();
    json.split_once(&format!("\"{name}\":"))
        .map_or(0, |(_, rest)| {
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..digits].parse().expect("a counter renders as a u64")
        })
}

fn counters() -> [u64; 3] {
    COUNTERS.map(counter)
}

#[test]
fn boot_moves_the_counters_as_scalar_startup_does() {
    set_level(MetricsLevel::Full);
    // At α = 2^-12 about a third of healthy 64-word windows trip the
    // repetition count; seed 28816 passes it and trips at window close.
    let cfg = HealthConfig::new(12, 64, 4).unwrap();
    let seeds: Vec<u64> = (28_700..28_900).collect();

    let before = counters();
    let scalar: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            UrngHealth::new(cfg)
                .startup(&mut Taus88::from_seed(seed))
                .err()
        })
        .collect();
    let mid = counters();
    let columns = UrngColumns::boot(cfg, &seeds);
    let after = counters();
    let kernel: Vec<_> = (0..seeds.len()).map(|pos| columns.alarm(pos)).collect();
    assert_eq!(kernel, scalar);

    let clean = kernel.iter().filter(|a| a.is_none()).count();
    let rct_trips = kernel
        .iter()
        .flatten()
        .filter(|a| matches!(a.test, HealthTest::RepetitionCount { .. }))
        .count();
    let window_trips = kernel.len() - clean - rct_trips;
    assert!(clean > 50, "only {clean} clean lanes");
    assert!(rct_trips > 20, "only {rct_trips} repetition-count trips");
    assert!(window_trips >= 1, "no window-close trip in the batch");

    for (i, name) in COUNTERS.iter().enumerate() {
        let (scalar_delta, kernel_delta) = (mid[i] - before[i], after[i] - mid[i]);
        assert!(scalar_delta > 0, "{name} did not move");
        assert_eq!(kernel_delta, scalar_delta, "{name}");
    }
    // The alarm counter moves once per tripped lane.
    assert_eq!(after[2] - mid[2], (rct_trips + window_trips) as u64);
}
