//! Batch-engine equivalence properties: a [`DeviceArray`] lane pinned to a
//! fresh scalar [`DpBox`] stepped in lockstep must be bit-identical —
//! outputs, per-epoch budget state, health-fault latching, and budget
//! exhaustion — across randomized configurations, seeds, and sensor
//! schedules. This is the property backing the fleet driver's batch
//! engine (`DeviceEngine::Batch`): the column loops are a
//! reorganization of the scalar FSM, not an approximation of it.

use proptest::prelude::*;
use ulp_ldp::dpbox::{
    DeviceArray, DeviceArrayConfig, DpBox, HealthAlarm, HealthConfig, HealthTest, LaneOutcome,
};
use ulp_ldp::rng::Taus88;

/// Randomized array configurations around the fleet operating point:
/// small budgets so exhaustion lands mid-run, and health monitors from
/// paper-realistic (`alpha_exp` 40) down to hair-trigger (`alpha_exp` 4,
/// which trips monitors both at power-on and mid-batch). Windows of 64
/// words close on a magnitude word, windows of 65 between a sample's
/// sign and magnitude words; lags run from none to the most monitored;
/// `Bu` 34 draws its magnitude as two words (three per sample).
fn arb_config() -> impl Strategy<Value = DeviceArrayConfig> {
    (
        prop_oneof![4u8..=8, 9u8..=40],
        1i64..=3,
        0u8..=2,
        prop_oneof![16u8..=18, Just(34u8)],
        prop_oneof![Just(64u32), Just(65)],
        prop_oneof![Just(0u8), Just(4), Just(8)],
    )
        .prop_map(
            |(alpha, budget_raw, eps_shift, bu, window, max_lag)| DeviceArrayConfig {
                word_bits: 20,
                frac_bits: 0,
                bu,
                cordic_iterations: 24,
                segment_multiples: vec![1.5, 2.0, 2.5, 3.0],
                health: HealthConfig::new(alpha, window, max_lag).unwrap(),
                budget_raw,
                eps_shift,
                range_lower: 0,
                range_upper: 256,
            },
        )
}

/// Seed counts up to two full 64-lane blocks of the power-on self-test
/// kernel and one lane of a third, so arrays cross kernel blocks.
const MAX_LANES: usize = 2 * 64 + 1;

/// Steps one array in lockstep with one scalar device per lane over
/// `schedule` (each epoch's sensor codes, cycled over the lanes) and
/// asserts, every lane and every epoch, that the array's outcome equals
/// the scalar device's, the remaining budget is bit-identical, exclusion
/// matches the scalar self-test's (`DpBox::boot` returns `None`), and once
/// either side stops reporting the other has stopped too. A boot failure
/// must be the scalar boot's failure at the first failing lane. Returns
/// each lane's latched alarm, scalar and array alike (`None` for an
/// excluded lane, which never reported).
fn check_lockstep(
    cfg: &DeviceArrayConfig,
    seeds: &[u64],
    schedule: &[Vec<i64>],
) -> Result<Vec<Option<HealthAlarm>>, TestCaseError> {
    let mut array = match DeviceArray::new(cfg, seeds) {
        Ok(a) => a,
        Err(e) => {
            // A lane's monitor tripped while staging its first sample: the
            // scalar boot sequence must fail the same way on the first
            // such seed (lanes boot in index order).
            let scalar_err = seeds
                .iter()
                .find_map(|&s| DpBox::boot(cfg, Taus88::from_seed(s)).err());
            prop_assert_eq!(
                format!("{e}"),
                format!("{}", scalar_err.expect("a scalar boot fails too"))
            );
            return Ok(Vec::new());
        }
    };

    let mut devices = Vec::with_capacity(seeds.len());
    for (lane, &seed) in seeds.iter().enumerate() {
        let dev = DpBox::boot(cfg, Taus88::from_seed(seed)).unwrap();
        prop_assert_eq!(
            dev.is_none(),
            array.is_excluded(lane),
            "lane {} exclusion parity",
            lane
        );
        devices.push(dev);
    }
    let mut out = Vec::new();
    for (epoch, epoch_codes) in schedule.iter().enumerate() {
        let xs: Vec<i64> = (0..seeds.len())
            .map(|l| epoch_codes[l % epoch_codes.len()])
            .collect();
        array.step(&xs, &mut out);
        for (lane, dev) in devices.iter_mut().enumerate() {
            if array.is_excluded(lane) {
                prop_assert_eq!(out[lane], LaneOutcome::Dropped, "excluded lane {}", lane);
                continue;
            }
            let dev = dev.as_mut().expect("exclusion parity holds at boot");
            match dev.noise_value(xs[lane]) {
                Ok((y, _)) => {
                    let ok = matches!(
                        out[lane],
                        LaneOutcome::Fresh { y: ay, .. } | LaneOutcome::Cached { y: ay }
                            if ay == y
                    );
                    prop_assert!(
                        ok,
                        "lane {} epoch {}: scalar {}, array {:?}",
                        lane,
                        epoch,
                        y,
                        out[lane]
                    );
                }
                // Health-fault latch or budget exhaustion with no cached
                // output: the lane must be compacted away.
                Err(_) => prop_assert_eq!(
                    out[lane],
                    LaneOutcome::Dropped,
                    "lane {} epoch {}: scalar stopped, array did not",
                    lane,
                    epoch
                ),
            }
            prop_assert_eq!(
                dev.remaining_budget().to_bits(),
                array.remaining_budget(lane).to_bits(),
                "lane {} epoch {} remaining budget",
                lane,
                epoch
            );
            if !array.is_excluded(lane) {
                prop_assert_eq!(
                    dev.health_alarm(),
                    array.health_alarm(lane),
                    "lane {} epoch {} alarm",
                    lane,
                    epoch
                );
            }
        }
    }
    Ok(devices
        .iter()
        .map(|dev| dev.as_ref().and_then(DpBox::health_alarm))
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every lane, every epoch, across random configs, seeds, and
    /// per-epoch sensor codes over up to 48 epochs (past the first window
    /// close after boot): see [`check_lockstep`]. One array steps in
    /// lockstep with one scalar device per lane.
    #[test]
    fn array_lanes_are_bit_identical_to_scalar_devices(
        cfg in arb_config(),
        seeds in proptest::collection::vec(any::<u64>(), 1..MAX_LANES + 1),
        schedule in proptest::collection::vec(
            proptest::collection::vec(0i64..=256, 1..6), 1..49),
    ) {
        check_lockstep(&cfg, &seeds, &schedule)?;
    }
}

/// Windowed alarms after boot are designed-rare on a healthy Taus88
/// (`p ≈ 2^-alpha_exp` per window), so these seed blocks are pinned by
/// offline search at `alpha_exp` 12: each boots cleanly, and the lane
/// named trips the named windowed test at the first or second window
/// close after boot. Each entry is `(window, max_lag, Bu, first seed of
/// eight, lane, expected alarm word)`.
const RUNTIME_WINDOW_TRIPS: [(u32, u8, u8, u64, usize, u64); 3] = [
    // The close falls on a magnitude word; a lag-4 alarm.
    (64, 8, 17, 17_888, 1, 127),
    // The close falls between a sample's sign and magnitude words; an
    // APT alarm with the lag test off.
    (65, 0, 17, 204_864, 5, 129),
    // Three words per sample; a lag-4 alarm at the second close.
    (64, 4, 34, 4_576, 4, 191),
];

#[test]
fn runtime_window_trips_stay_in_lockstep() {
    for (window, max_lag, bu, first, lane, word) in RUNTIME_WINDOW_TRIPS {
        let cfg = DeviceArrayConfig {
            word_bits: 20,
            frac_bits: 0,
            bu,
            cordic_iterations: 24,
            segment_multiples: vec![1.5, 2.0, 2.5, 3.0],
            health: HealthConfig::new(12, window, max_lag).unwrap(),
            budget_raw: 3,
            eps_shift: 1,
            range_lower: 0,
            range_upper: 256,
        };
        let seeds: Vec<u64> = (first..first + 8).collect();
        let schedule: Vec<Vec<i64>> = (0..48).map(|e| vec![e * 5, 256 - e]).collect();
        let alarms = check_lockstep(&cfg, &seeds, &schedule).unwrap();
        let alarm = alarms[lane].expect("the pinned lane trips");
        assert!(
            !matches!(alarm.test, HealthTest::RepetitionCount { .. }),
            "window {window}: {alarm} is not a windowed alarm"
        );
        assert_eq!(alarm.word_index, word, "window {window}: {alarm}");
    }
}
