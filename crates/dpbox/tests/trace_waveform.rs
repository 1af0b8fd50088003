//! Waveform-style assertions on the DP-Box event trace: the observable
//! event sequence must match the FSM contract.

use dp_box::{Command, DpBox, DpBoxConfig, Phase, TraceEvent};

fn traced_device() -> DpBox {
    let cfg = DpBoxConfig {
        seed: 0xCAFE,
        ..DpBoxConfig::default()
    };
    let mut dev = DpBox::new(cfg).expect("valid config");
    dev.enable_trace(4096);
    dev
}

#[test]
fn one_noising_produces_the_canonical_sequence() {
    let mut dev = traced_device();
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("thresholding");
    dev.noise_value(160).expect("noised");

    let trace = dev.trace().expect("enabled");
    // Commands recorded in order.
    let cmds: Vec<Command> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::Command { cmd, .. } => Some(*cmd),
            _ => None,
        })
        .collect();
    assert_eq!(
        cmds,
        vec![
            Command::StartNoising,
            Command::SetEpsilon,
            Command::SetSensorRangeLower,
            Command::SetSensorRangeUpper,
            Command::SetThreshold,
            Command::SetSensorValue,
            Command::StartNoising,
        ]
    );
    // Phase walk: Init → Waiting, Waiting → Noising, Noising → Waiting.
    let phases: Vec<(Phase, Phase)> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::PhaseChange { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert_eq!(
        phases,
        vec![
            (Phase::Initialization, Phase::Waiting),
            (Phase::Waiting, Phase::Noising),
            (Phase::Noising, Phase::Waiting),
        ]
    );
    // Exactly one output, not from cache, with a budget charge just before.
    let outputs: Vec<bool> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::Output { from_cache, .. } => Some(*from_cache),
            _ => None,
        })
        .collect();
    assert_eq!(outputs, vec![false]);
    assert_eq!(
        trace
            .events()
            .filter(|e| matches!(e, TraceEvent::BudgetCharge { .. }))
            .count(),
        1
    );
}

#[test]
fn resample_events_match_the_extra_cycles() {
    let mut dev = traced_device();
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    // Default resampling mode: each resample costs one cycle past the two
    // a noising takes.
    let mut extra = 0;
    for _ in 0..500 {
        let (_, cycles) = dev.noise_value(0).expect("noised");
        extra += cycles - 2;
    }
    let traced = dev
        .trace()
        .expect("enabled")
        .events()
        .filter(|e| matches!(e, TraceEvent::Resample { .. }))
        .count() as u64;
    assert!(extra > 0, "resampling mode must resample at this range");
    assert_eq!(traced, extra);
}

#[test]
fn cache_replays_are_flagged() {
    let cfg = DpBoxConfig {
        seed: 0xCAFE,
        ..DpBoxConfig::default()
    };
    let mut dev = DpBox::new(cfg).expect("valid config");
    dev.enable_trace(1 << 14);
    dev.issue(Command::SetEpsilon, 48).expect("budget 1.5 nats");
    dev.issue(Command::StartNoising, 0).expect("leave init");
    dev.issue(Command::SetEpsilon, 1).expect("ε");
    dev.issue(Command::SetSensorRangeLower, 0).expect("lower");
    dev.issue(Command::SetSensorRangeUpper, 320).expect("upper");
    dev.issue(Command::SetThreshold, 0).expect("thresholding");
    for _ in 0..20 {
        dev.noise_value(160).expect("served");
    }
    let flags: Vec<bool> = dev
        .trace()
        .expect("enabled")
        .events()
        .filter_map(|e| match e {
            TraceEvent::Output { from_cache, .. } => Some(*from_cache),
            _ => None,
        })
        .collect();
    // Fresh first, cached after exhaustion — monotone flag sequence.
    let first_cached = flags.iter().position(|&c| c).expect("exhaustion expected");
    assert!(flags[first_cached..].iter().all(|&c| c));
    assert!(flags[..first_cached].iter().all(|&c| !c));
    // Cached outputs carry no budget charge.
    let charges = dev
        .trace()
        .expect("enabled")
        .events()
        .filter(|e| matches!(e, TraceEvent::BudgetCharge { .. }))
        .count();
    assert_eq!(charges, first_cached);
}

#[test]
fn replenish_event_is_stamped() {
    let cfg = DpBoxConfig {
        seed: 1,
        ..DpBoxConfig::default()
    };
    let mut dev = DpBox::new(cfg).expect("valid config");
    dev.enable_trace(64);
    dev.issue(Command::SetEpsilon, 32).expect("budget");
    dev.issue(Command::SetSensorRangeUpper, 100)
        .expect("period");
    dev.issue(Command::StartNoising, 0).expect("leave init");
    for _ in 0..250 {
        dev.tick();
    }
    let replenishes: Vec<u64> = dev
        .trace()
        .expect("enabled")
        .events()
        .filter_map(|e| match e {
            TraceEvent::Replenish { cycle } => Some(*cycle),
            _ => None,
        })
        .collect();
    assert_eq!(replenishes, vec![100, 200]);
}

#[test]
fn disabled_trace_costs_nothing_and_returns_none() {
    let mut dev = DpBox::new(DpBoxConfig::default()).expect("valid config");
    assert!(dev.trace().is_none());
    dev.issue(Command::StartNoising, 0).expect("leave init");
    assert!(dev.trace().is_none());
}
