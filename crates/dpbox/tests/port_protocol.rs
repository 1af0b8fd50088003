//! Port-protocol conformance tests: the DP-Box must behave like the
//! hardware interface of Section IV-A under adversarial/hostile command
//! sequences, because on microcontrollers without process isolation *no*
//! software is trusted.

use dp_box::{Command, DpBox, DpBoxConfig, DpBoxError, Phase, TraceEvent};
use ulp_rng::{StuckAtBits, Taus88};

fn fresh() -> DpBox {
    let cfg = DpBoxConfig {
        seed: 0xBEEF,
        ..DpBoxConfig::default()
    };
    DpBox::new(cfg).expect("valid default configuration")
}

/// A device on a URNG whose bit 13 sticks at 1 after `onset_words` words,
/// configured for thresholding over [0, 320] and traced.
fn faulting(onset_words: u64) -> DpBox<ulp_rng::OnsetBits<Taus88, StuckAtBits<Taus88>>> {
    let urng = ulp_rng::OnsetBits::new(
        Taus88::from_seed(0xBEEF),
        StuckAtBits::new(Taus88::from_seed(0xF00D), 13, true),
        onset_words,
        None,
    );
    let mut dev =
        DpBox::with_urng(DpBoxConfig::default(), urng).expect("valid default configuration");
    dev.enable_trace(4096);
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("thresholding");
    dev
}

/// Drives `dev` until the health monitor trips, returning served outputs.
fn drive_until_fault(dev: &mut DpBox<ulp_rng::OnsetBits<Taus88, StuckAtBits<Taus88>>>) -> Vec<i64> {
    let mut served = Vec::new();
    for _ in 0..10_000 {
        match dev.noise_value(160) {
            Ok((y, _)) => served.push(y),
            Err(DpBoxError::UrngHealthFault(_)) => return served,
            Err(e) => panic!("unexpected error before fault: {e}"),
        }
        if dev.phase() == Phase::HealthFault {
            return served;
        }
    }
    panic!("stuck-at fault must trip the monitor");
}

/// Health alarms latched so far (trips plus failed retests), as traced.
fn health_alarms<R: ulp_rng::RandomBits>(dev: &DpBox<R>) -> usize {
    let trace = dev.trace().expect("tracing enabled");
    trace
        .events()
        .filter(|e| matches!(e, TraceEvent::HealthAlarm { .. }))
        .count()
}

#[test]
fn budget_cannot_be_changed_after_initialization() {
    let mut dev = fresh();
    dev.issue(Command::SetEpsilon, 64).expect("budget in init");
    dev.issue(Command::StartNoising, 0).expect("leave init");
    assert_eq!(dev.phase(), Phase::Waiting);
    // SetEpsilon now means "privacy level", not "budget": malicious
    // software cannot replenish or enlarge the budget.
    dev.issue(Command::SetEpsilon, 0).expect("ε = 1 in waiting");
    assert!(
        (dev.remaining_budget() - 2.0).abs() < 1e-9,
        "budget untouched"
    );
    // And there is no command path back to the initialization phase.
    for cmd in [
        Command::StartNoising,
        Command::SetEpsilon,
        Command::SetThreshold,
        Command::DoNothing,
    ] {
        let _ = dev.issue(cmd, 1);
        assert_ne!(dev.phase(), Phase::Initialization);
    }
}

#[test]
fn replenishment_period_is_frozen_after_init() {
    let mut dev = fresh();
    dev.issue(Command::SetEpsilon, 32).expect("budget");
    dev.issue(Command::SetSensorRangeUpper, 500)
        .expect("period");
    dev.issue(Command::StartNoising, 0).expect("leave init");
    // In waiting, SetSensorRangeUpper is the sensor range again.
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320)
        .expect("upper = range");
    dev.issue(Command::SetThreshold, 0).expect("thresholding");
    // Exhaust and verify the 500-cycle period still replenishes.
    while dev.remaining_budget() > 0.0 {
        dev.noise_value(160).expect("served");
    }
    for _ in 0..500 {
        dev.tick();
    }
    assert!(dev.remaining_budget() > 0.0, "original period must apply");
}

#[test]
fn undecodable_command_bits_are_rejected_at_the_decoder() {
    // All 3-bit encodings are now assigned (0b111 = ResetHealth); anything
    // wider than the physical 3-bit port must still be rejected.
    assert_eq!(Command::try_from(0b111), Ok(Command::ResetHealth));
    assert!(Command::try_from(0b1000).is_err());
    assert!(Command::try_from(0xFF).is_err());
}

#[test]
fn health_trip_enters_alarm_phase_and_stops_fresh_output() {
    let mut dev = faulting(64);
    let served = drive_until_fault(&mut dev);
    assert!(!served.is_empty(), "healthy prefix must serve outputs");
    assert_eq!(dev.phase(), Phase::HealthFault);
    assert!(dev.health_alarm().is_some());
    assert!(health_alarms(&dev) >= 1);
    // Every parameter-setting command is refused with the health fault.
    for cmd in [
        Command::SetEpsilon,
        Command::SetSensorValue,
        Command::SetSensorRangeUpper,
        Command::SetSensorRangeLower,
        Command::SetThreshold,
    ] {
        assert!(
            matches!(dev.issue(cmd, 1), Err(DpBoxError::UrngHealthFault(_))),
            "{cmd:?} must be refused while faulted"
        );
    }
    // The alarm is visible in the trace stream…
    let trace = dev.trace().expect("tracing enabled");
    assert!(
        trace
            .events()
            .any(|e| matches!(e, TraceEvent::HealthAlarm { .. })),
        "HealthAlarm event must be traced"
    );
    assert!(
        trace.events().any(|e| matches!(
            e,
            TraceEvent::PhaseChange {
                to: Phase::HealthFault,
                ..
            }
        )),
        "PhaseChange into HealthFault must be traced"
    );
    // …and in the VCD waveform.
    let vcd = dev.export_vcd().expect("tracing enabled");
    assert!(vcd.contains("health_alarm"), "health wire declared");
    assert!(vcd.contains("1h"), "health alarm level asserted");
    assert!(vcd.contains("b11 p"), "phase wire shows the fault code");
}

#[test]
fn faulted_device_serves_only_cached_outputs() {
    let mut dev = faulting(64);
    let served = drive_until_fault(&mut dev);
    let last_released = *served.last().expect("at least one healthy output");
    assert_eq!(dev.phase(), Phase::HealthFault);
    // StartNoising is served combinationally from the cache — the same
    // already-released value, never fresh noise.
    let noisings_before = dev.stats().noisings;
    for _ in 0..5 {
        dev.issue(Command::StartNoising, 0).expect("cache service");
        assert!(dev.ready());
        assert_eq!(dev.output(), Some(last_released));
    }
    assert_eq!(dev.stats().noisings, noisings_before, "no fresh noisings");
    assert_eq!(dev.stats().cached, 5);
    assert_eq!(
        dev.phase(),
        Phase::HealthFault,
        "cache service clears nothing"
    );
}

#[test]
fn do_nothing_does_not_clear_a_health_alarm() {
    let mut dev = faulting(64);
    drive_until_fault(&mut dev);
    assert_eq!(dev.phase(), Phase::HealthFault);
    for _ in 0..100 {
        dev.issue(Command::DoNothing, 0).expect("idle accepted");
        dev.tick();
    }
    assert_eq!(dev.phase(), Phase::HealthFault, "idling must not recover");
    assert!(dev.health_alarm().is_some());
}

#[test]
fn explicit_reset_clears_the_alarm_after_a_passing_retest() {
    // The fault recovers before the retest (a transient glitch), so the
    // reset-and-retest passes and fresh noising resumes.
    let urng = ulp_rng::OnsetBits::new(
        Taus88::from_seed(0xBEEF),
        StuckAtBits::new(Taus88::from_seed(0xF00D), 13, true),
        64,
        Some(256),
    );
    let mut dev =
        DpBox::with_urng(DpBoxConfig::default(), urng).expect("valid default configuration");
    dev.enable_trace(4096);
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("thresholding");
    loop {
        match dev.noise_value(160) {
            Ok(_) if dev.phase() == Phase::HealthFault => break,
            Ok(_) => continue,
            Err(DpBoxError::UrngHealthFault(_)) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(dev.phase(), Phase::HealthFault);
    // Each retest draws fresh words; the first attempts may still overlap
    // the fault window and must stay latched, but once the source has
    // recovered a retest passes and re-arms the device.
    let mut recovered = false;
    for _ in 0..10 {
        dev.issue(Command::ResetHealth, 0).expect("reset accepted");
        if dev.phase() == Phase::Waiting {
            recovered = true;
            break;
        }
        assert_eq!(
            dev.phase(),
            Phase::HealthFault,
            "failed retest stays latched"
        );
    }
    assert!(recovered, "retest must pass after the source recovers");
    assert!(dev.health_alarm().is_none());
    let (y, cycles) = dev.noise_value(160).expect("fresh noising resumed");
    assert_eq!(cycles, 2);
    let n_th = dev.threshold_k().expect("threshold built");
    assert!(y >= -n_th && y <= 320 + n_th);
    // The recovery is visible in the trace and clears the VCD alarm level.
    let trace = dev.trace().expect("tracing enabled");
    assert!(trace
        .events()
        .any(|e| matches!(e, TraceEvent::HealthReset { passed: true, .. })));
    let vcd = dev.export_vcd().expect("tracing enabled");
    assert!(vcd.contains("0h"), "alarm level cleared after passed reset");
}

#[test]
fn reset_on_a_still_faulty_urng_stays_latched() {
    let mut dev = faulting(64); // fault persists forever
    drive_until_fault(&mut dev);
    let alarms_before = health_alarms(&dev);
    dev.issue(Command::ResetHealth, 0).expect("reset accepted");
    assert_eq!(
        dev.phase(),
        Phase::HealthFault,
        "failed retest must re-latch the fault"
    );
    assert!(dev.health_alarm().is_some());
    assert!(health_alarms(&dev) > alarms_before);
    assert!(matches!(
        dev.issue(Command::SetSensorValue, 160),
        Err(DpBoxError::UrngHealthFault(_))
    ));
    let trace = dev.trace().expect("tracing enabled");
    assert!(trace
        .events()
        .any(|e| matches!(e, TraceEvent::HealthReset { passed: false, .. })));
}

#[test]
fn out_of_range_operands_do_not_corrupt_state() {
    let mut dev = fresh();
    dev.issue(Command::StartNoising, 0).expect("leave init");
    let too_big = 1i64 << 40;
    assert!(matches!(
        dev.issue(Command::SetSensorValue, too_big),
        Err(DpBoxError::ValueOutOfRange { .. })
    ));
    // The device still works normally afterwards.
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("mode");
    dev.noise_value(100).expect("noising still works");
}

#[test]
fn ready_flag_contract() {
    let mut dev = fresh();
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("mode");
    dev.issue(Command::SetSensorValue, 160).expect("x");
    assert!(!dev.ready(), "no output before noising");
    dev.issue(Command::StartNoising, 0).expect("start");
    assert!(!dev.ready(), "not ready at start");
    dev.tick(); // load
    assert!(!dev.ready(), "not ready after load cycle");
    dev.tick(); // noise
    assert!(dev.ready(), "ready after the noise cycle");
    assert!(dev.output().is_some());
    // Output holds (DoNothing keeps the device idle).
    let y = dev.output();
    dev.issue(Command::DoNothing, 0).expect("idle");
    dev.tick();
    assert_eq!(dev.output(), y);
}

#[test]
fn repeated_noising_without_reconfiguration() {
    // "the sensor value, the sensor range, and the privacy level do not
    // have to change between noising" — StartNoising may be re-issued
    // directly.
    let mut dev = fresh();
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("mode");
    dev.issue(Command::SetSensorValue, 160).expect("x");
    let mut outputs = Vec::new();
    for _ in 0..50 {
        dev.issue(Command::StartNoising, 0).expect("restart");
        while !dev.ready() {
            dev.tick();
        }
        outputs.push(dev.output().expect("noised"));
    }
    // Fresh noise each time: outputs are not all identical.
    assert!(outputs.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn per_reading_epsilon_changes_take_effect() {
    // ε can change per reading (Set Epsilon before each Start Noising).
    let spread = |n_m: i64, dev: &mut DpBox| -> f64 {
        dev.issue(Command::SetEpsilon, n_m).expect("ε");
        let xs: Vec<f64> = (0..400)
            .map(|_| (dev.noise_value(160).expect("served").0 - 160) as f64)
            .collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
    };
    let mut dev = fresh();
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("mode");
    let tight = spread(0, &mut dev); // ε = 1
    let loose = spread(2, &mut dev); // ε = 0.25
    assert!(loose > tight, "ε=0.25 σ={loose} must exceed ε=1 σ={tight}");
}
