//! The batch engine's counter contract: booting and stepping a
//! `DeviceArray` moves `rng.taus88.words_drawn`, `rng.health.verdicts_ok`
//! and `rng.health.alarms` by exactly what the scalar `DpBox` devices it
//! models move them by, over the same seeds and epochs — self-test
//! exclusions and lanes whose monitor trips mid-stream included.
//!
//! The counters are process-global, so this binary holds a single test.

use dp_box::{DeviceArray, DeviceArrayConfig, DpBox, HealthConfig, LaneOutcome};
use ulp_obs::{set_level, snapshot, MetricsLevel};
use ulp_rng::Taus88;

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
fn array_steps_move_the_counters_as_scalar_devices_do() {
    set_level(MetricsLevel::Full);
    // At α = 2^-14 a healthy lane trips the repetition count about once
    // per thousand words: a few lanes fail the self-test and a few trip
    // while restaging, over 64 epochs of two words. A 3-nat budget runs
    // out mid-run, so cached serves restage too.
    let cfg = DeviceArrayConfig {
        word_bits: 20,
        frac_bits: 0,
        bu: 17,
        cordic_iterations: 24,
        segment_multiples: vec![1.5, 2.0, 2.5, 3.0],
        health: HealthConfig::new(14, 64, 4).unwrap(),
        budget_raw: 3,
        eps_shift: 1,
        range_lower: 0,
        range_upper: 256,
    };
    let epochs = 64;
    let xs: Vec<i64> = (0..100).map(|i| i * 5 % 257).collect();
    // The first block of seeds that boots (no lane trips while staging
    // its first sample, which fails the whole boot).
    let seeds: Vec<u64> = (0..)
        .map(|base: u64| (100 * base..100 * base + 100).collect::<Vec<u64>>())
        .find(|seeds| DeviceArray::new(&cfg, seeds).is_ok())
        .unwrap();

    let before = counters();
    let mut array = DeviceArray::new(&cfg, &seeds).unwrap();
    let mut out = Vec::new();
    let mut cached = 0;
    for _ in 0..epochs {
        array.step(&xs, &mut out);
        cached += out
            .iter()
            .filter(|o| matches!(o, LaneOutcome::Cached { .. }))
            .count();
    }
    let mid = counters();
    for (lane, &seed) in seeds.iter().enumerate() {
        let Some(mut dev) = DpBox::boot(&cfg, Taus88::from_seed(seed)).unwrap() else {
            continue;
        };
        for _ in 0..epochs {
            if dev.noise_value(xs[lane]).is_err() {
                break;
            }
        }
    }
    let after = counters();

    let excluded = (0..seeds.len()).filter(|&l| array.is_excluded(l)).count();
    let tripped = (0..seeds.len())
        .filter(|&l| array.health_alarm(l).is_some())
        .count();
    assert!(excluded > 0, "no self-test exclusion in the block");
    assert!(tripped > 0, "no lane tripped mid-stream");
    assert!(cached > 0, "no cached serve");
    for (i, name) in COUNTERS.iter().enumerate() {
        let (array_delta, scalar_delta) = (mid[i] - before[i], after[i] - mid[i]);
        assert!(scalar_delta > 0, "{name} did not move");
        assert_eq!(array_delta, scalar_delta, "{name}");
    }
    assert_eq!(mid[2] - before[2], (excluded + tripped) as u64);
}
