//! The lane transport against the scalar one it replaced: `DeviceChaos`
//! steps a device's six Gilbert–Elliott chains as lanes, and must make
//! every attempt exactly as six separate chains stepped one by one would
//! — the same fault, bytes, delay, displacement and ack — and draw exactly
//! as many Taus88 words (`rng.taus88.words_drawn`).
//!
//! The counters are process-global, so this binary holds a single test.

use ulp_fleet::{
    ChaosConfig, DeviceChaos, FaultClass, FaultKind, Payload, Report, FRAME_LEN, MAX_DELAY_ROUNDS,
};
use ulp_obs::{set_level, snapshot, MetricsLevel};
use ulp_rng::{stream_seed, RandomBits, Taus88};

/// A two-state Gilbert–Elliott burst chain with its own generator: the
/// scalar form of one lane.
struct GilbertElliott {
    bad: bool,
    enter: u32,
    leave: u32,
    rng: Taus88,
}

fn prob_to_threshold(p: f64) -> u32 {
    let scaled = (p * 4_294_967_296.0).round();
    if scaled >= 4_294_967_295.0 {
        u32::MAX
    } else {
        scaled as u32
    }
}

impl GilbertElliott {
    fn new(class: FaultClass, seed: u64) -> GilbertElliott {
        let leave = 1.0 / class.burst;
        let enter = if class.rate == 0.0 {
            0.0
        } else {
            class.rate / (class.burst * (1.0 - class.rate))
        };
        let mut rng = Taus88::from_seed(seed);
        let bad = class.rate > 0.0
            && u64::from(rng.next_u32()) < u64::from(prob_to_threshold(class.rate));
        GilbertElliott {
            bad,
            enter: prob_to_threshold(enter),
            leave: prob_to_threshold(leave),
            rng,
        }
    }

    fn step(&mut self) -> bool {
        let draw = self.rng.next_u32();
        let threshold = if self.bad { self.leave } else { self.enter };
        if u64::from(draw) < u64::from(threshold) {
            self.bad = !self.bad;
        }
        self.bad
    }
}

/// The transport as first written: six chains seeded by class index
/// (drop 0, duplicate 1, reorder 2, corrupt 3, truncate 4, delay 5) and a
/// detail stream (7), stepped one by one per attempt.
struct ScalarChaos {
    drop: GilbertElliott,
    corrupt: GilbertElliott,
    truncate: GilbertElliott,
    delay: GilbertElliott,
    ack_loss: GilbertElliott,
    reorder: GilbertElliott,
    detail: Taus88,
}

/// One attempt as the collector and the sender see it.
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    fault: Option<FaultKind>,
    bytes: Option<Vec<u8>>,
    delay_rounds: u32,
    displaced: bool,
    acked: bool,
}

impl ScalarChaos {
    fn new(cfg: &ChaosConfig, device: u32) -> ScalarChaos {
        let chain = |class, idx| {
            GilbertElliott::new(class, stream_seed(cfg.seed, &[u64::from(device), idx]))
        };
        ScalarChaos {
            drop: chain(cfg.drop, 0),
            corrupt: chain(cfg.corrupt, 3),
            truncate: chain(cfg.truncate, 4),
            delay: chain(cfg.delay, 5),
            ack_loss: chain(cfg.duplicate, 1),
            reorder: chain(cfg.reorder, 2),
            detail: Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(device), 7])),
        }
    }

    fn attempt(&mut self, frame: &[u8; FRAME_LEN]) -> Seen {
        let drop = self.drop.step();
        let corrupt = self.corrupt.step();
        let truncate = self.truncate.step();
        let delay = self.delay.step();
        let ack_loss = self.ack_loss.step();
        let reorder = self.reorder.step();
        let delivered = |fault, bytes: Vec<u8>, delay_rounds, acked| Seen {
            fault: Some(fault),
            bytes: Some(bytes),
            delay_rounds,
            displaced: false,
            acked,
        };
        if drop {
            return Seen {
                fault: Some(FaultKind::Drop),
                bytes: None,
                delay_rounds: 0,
                displaced: false,
                acked: false,
            };
        }
        if corrupt {
            let mut bytes = *frame;
            let flips = 1 + (self.detail.next_u32() % 3) as usize;
            for _ in 0..flips {
                let at = (self.detail.next_u32() as usize) % FRAME_LEN;
                let bit = self.detail.next_u32() % 8;
                bytes[at] ^= 1 << bit;
            }
            return delivered(FaultKind::Corrupt, bytes.to_vec(), 0, false);
        }
        if truncate {
            let keep = 1 + (self.detail.next_u32() as usize) % (FRAME_LEN - 1);
            return delivered(FaultKind::Truncate, frame[..keep].to_vec(), 0, false);
        }
        if delay {
            let rounds = 1 + self.detail.next_u32() % MAX_DELAY_ROUNDS;
            return delivered(FaultKind::Delay, frame.to_vec(), rounds, false);
        }
        if ack_loss {
            return delivered(FaultKind::AckLoss, frame.to_vec(), 0, false);
        }
        if reorder {
            return Seen {
                displaced: true,
                ..delivered(FaultKind::Reorder, frame.to_vec(), 0, true)
            };
        }
        Seen {
            fault: None,
            bytes: Some(frame.to_vec()),
            delay_rounds: 0,
            displaced: false,
            acked: true,
        }
    }
}

fn lane_attempt(chaos: &mut DeviceChaos, frame: &[u8; FRAME_LEN]) -> Seen {
    let a = chaos.attempt(frame);
    Seen {
        fault: a.fault,
        bytes: a.delivery.as_ref().map(|d| d.bytes.to_vec()),
        delay_rounds: a.delivery.as_ref().map_or(0, |d| d.delay_rounds),
        displaced: a.delivery.as_ref().is_some_and(|d| d.displaced),
        acked: a.acked,
    }
}

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

fn words_drawn() -> u64 {
    counter("rng.taus88.words_drawn")
}

const DEVICES: u32 = 64;
const ATTEMPTS: usize = 500;

/// Every device's attempts, and the words they drew.
fn run<T>(
    mut boot: impl FnMut(u32) -> T,
    mut attempt: impl FnMut(&mut T, &[u8; FRAME_LEN]) -> Seen,
) -> (Vec<Seen>, u64) {
    let before = words_drawn();
    let mut seen = Vec::new();
    for device in 0..DEVICES {
        let mut chaos = boot(device);
        for epoch in 0..ATTEMPTS as u32 {
            let frame = Report::new(device, 0, epoch, Payload::Value(epoch as i32 - 250)).encode();
            seen.push(attempt(&mut chaos, &frame));
        }
    }
    (seen, words_drawn() - before)
}

#[test]
fn lane_transport_equals_six_scalar_chains_attempt_for_attempt() {
    set_level(MetricsLevel::Counters);
    let chaos_25k = ChaosConfig {
        drop: FaultClass::bursty(0.08, 4.0),
        duplicate: FaultClass::flat(0.05),
        reorder: FaultClass::flat(0.05),
        corrupt: FaultClass::flat(0.02),
        truncate: FaultClass::flat(0.01),
        delay: FaultClass::bursty(0.05, 2.0),
        ..ChaosConfig::quiet(2018)
    };
    // Every class at its own rate, so lanes that trade places disagree.
    let flat = ChaosConfig {
        drop: FaultClass::flat(0.11),
        duplicate: FaultClass::flat(0.5),
        reorder: FaultClass::flat(0.37),
        corrupt: FaultClass::flat(0.23),
        truncate: FaultClass::flat(0.17),
        delay: FaultClass::flat(0.29),
        ..ChaosConfig::quiet(7)
    };
    let bursty = ChaosConfig {
        drop: FaultClass::bursty(0.5, 6.0),
        duplicate: FaultClass::bursty(0.2, 2.5),
        reorder: FaultClass::bursty(0.45, 9.0),
        corrupt: FaultClass::bursty(0.3, 3.0),
        truncate: FaultClass::bursty(0.25, 1.5),
        delay: FaultClass::bursty(0.4, 4.0),
        ..ChaosConfig::quiet(0xC0FFEE)
    };
    // Classes off and on side by side: an off class draws no start state.
    let mixed = ChaosConfig {
        corrupt: FaultClass::bursty(0.5, 2.0),
        delay: FaultClass::flat(0.3),
        ..ChaosConfig::quiet(99)
    };
    for (name, cfg) in [
        ("chaos_25k", chaos_25k),
        ("quiet", ChaosConfig::quiet(5)),
        ("flat", flat),
        ("bursty", bursty),
        ("mixed", mixed),
    ] {
        let (lanes, lane_words) = run(|d| DeviceChaos::new(&cfg, d), lane_attempt);
        let (scalar, scalar_words) = run(|d| ScalarChaos::new(&cfg, d), ScalarChaos::attempt);
        for (i, (l, s)) in lanes.iter().zip(&scalar).enumerate() {
            assert_eq!(
                l,
                s,
                "{name}: device {} attempt {}",
                i / ATTEMPTS,
                i % ATTEMPTS
            );
        }
        assert_eq!(lanes.len(), scalar.len());
        assert_eq!(lane_words, scalar_words, "{name}: words drawn");
        // Each attempt steps all six chains; faults add detail draws.
        assert!(
            lane_words >= 6 * u64::from(DEVICES) * ATTEMPTS as u64,
            "{name}"
        );
        if name != "quiet" {
            assert!(
                lanes.iter().any(|a| a.fault.is_some()),
                "{name}: no fault fired"
            );
        }
    }
}
