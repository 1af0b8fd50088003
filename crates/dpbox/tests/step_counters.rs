//! The batch engine's counter contract: booting and stepping a
//! `DeviceArray` moves `rng.taus88.words_drawn`, `rng.health.verdicts_ok`
//! and `rng.health.alarms` by exactly what the scalar `DpBox` devices it
//! models move them by, over the same seeds and epochs — self-test
//! exclusions and lanes whose monitor trips mid-stream included.
//!
//! The counters are process-global, so this binary holds a single test.

use dp_box::{
    Command, DeviceArray, DeviceArrayConfig, DpBox, DpBoxConfig, DpBoxError, HealthConfig,
    LaneOutcome, Phase,
};
use ulp_obs::{set_level, snapshot, MetricsLevel};
use ulp_rng::Taus88;

const COUNTERS: [&str; 3] = [
    "rng.taus88.words_drawn",
    "rng.health.verdicts_ok",
    "rng.health.alarms",
];

fn counters() -> [u64; 3] {
    let report = snapshot();
    COUNTERS.map(|name| {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    })
}

/// The fleet boot sequence the array models, on one scalar device; `None`
/// when the power-on self-test excludes it.
fn scalar_device(cfg: &DeviceArrayConfig, seed: u64) -> Result<Option<DpBox>, DpBoxError> {
    let mut dev = DpBox::with_urng(
        DpBoxConfig {
            word_bits: cfg.word_bits,
            frac_bits: cfg.frac_bits,
            bu: cfg.bu,
            cordic_iterations: cfg.cordic_iterations,
            segment_multiples: cfg.segment_multiples.clone(),
            seed: 0,
        },
        Taus88::from_seed(seed),
    )?;
    dev.set_health_config(cfg.health);
    dev.issue(Command::ResetHealth, 0)?;
    if dev.phase() == Phase::HealthFault {
        return Ok(None);
    }
    dev.issue(Command::SetEpsilon, cfg.budget_raw)?;
    dev.issue(Command::StartNoising, 0)?;
    dev.issue(Command::SetEpsilon, i64::from(cfg.eps_shift))?;
    dev.issue(Command::SetSensorRangeLower, cfg.range_lower)?;
    dev.issue(Command::SetSensorRangeUpper, cfg.range_upper)?;
    dev.issue(Command::SetThreshold, 0)?;
    Ok(Some(dev))
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
        let Some(mut dev) = scalar_device(&cfg, seed).unwrap() else {
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
