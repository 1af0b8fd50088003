//! Seeded, deterministic lossy-transport fault injection.
//!
//! The chaos transport sits between a reporting device and the collector
//! and misbehaves on purpose: it drops, duplicates (by eating acks),
//! reorders, bit-flips, truncates, and delays frames, each fault class at
//! its own configured rate and in **correlated bursts** — real radio links
//! fail in fades, not as i.i.d. coin flips.
//!
//! # Fault model
//!
//! Each `(device, class)` pair owns an independent two-state
//! Gilbert–Elliott chain: in the *good* state faults are off; in the *bad*
//! state the class fires. Transition probabilities are chosen so the
//! stationary bad-state probability equals the configured `rate` and the
//! mean bad-burst length equals `burst`. One transmission attempt steps
//! every chain once; the first firing class in the fixed priority order
//! `drop > corrupt > truncate > delay > ack-loss > reorder` decides the
//! attempt's fate. A device's six chains are held as [`Taus88Lanes`] in
//! that priority order, and step together:
//!
//! | class    | delivered?                  | acked? |
//! |----------|-----------------------------|--------|
//! | drop     | no                          | no     |
//! | corrupt  | yes, with bit flips         | no     |
//! | truncate | yes, first `L` bytes only   | no     |
//! | delay    | yes, `1..=3` rounds late    | no¹    |
//! | ack-loss | yes, intact                 | no     |
//! | reorder  | yes, displaced in its round | yes    |
//! | none     | yes, intact                 | yes    |
//!
//! ¹ the sender's retry timer expires before the late ack arrives, so a
//! delayed delivery behaves like an ack loss on the sending side — the
//! retransmission then lands *next to* the delayed original, which is
//! exactly the duplicated-and-reordered input the collector's dedup window
//! must fold away.
//!
//! # Determinism
//!
//! Every chain is seeded by [`ulp_rng::stream_seed`] from
//! `(chaos seed, device id, class index)`, and fault details (flip masks,
//! truncation lengths, delays) come from a per-device detail stream that
//! advances only on that device's own faults. The fault pattern is
//! therefore a pure function of `(chaos seed, device id, attempt index)` —
//! independent of thread count, chunk partition, and every other device —
//! which is what lets a chaos campaign assert byte-identical outcomes
//! across schedules.

use ulp_obs::Counter;
use ulp_rng::{stream_seed, RandomBits, Taus88, Taus88Lanes};

use crate::wire::FRAME_LEN;

/// Frames eaten whole by the transport.
static DROPPED: Counter = Counter::new("fleet.chaos.dropped");
/// Frames delivered with injected bit flips.
static CORRUPTED: Counter = Counter::new("fleet.chaos.corrupted");
/// Frames delivered with their tail cut off.
static TRUNCATED: Counter = Counter::new("fleet.chaos.truncated");
/// Frames delivered one or more rounds late.
static DELAYED: Counter = Counter::new("fleet.chaos.delayed");
/// Intact deliveries whose ack was eaten (forcing a retransmission).
static ACK_LOST: Counter = Counter::new("fleet.chaos.ack_lost");
/// Frames displaced within their delivery round.
static REORDERED: Counter = Counter::new("fleet.chaos.reordered");

/// The longest delivery delay the transport injects, in rounds.
pub const MAX_DELAY_ROUNDS: u32 = 3;

/// One fault class's behavior: stationary fault probability and mean
/// burst length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultClass {
    /// Stationary probability that an attempt hits this fault, in
    /// `[0, 0.5]`.
    pub rate: f64,
    /// Mean length of a fault burst, in attempts (`>= 1`; `1` ≈ i.i.d.).
    pub burst: f64,
}

impl FaultClass {
    /// A disabled class.
    const OFF: FaultClass = FaultClass {
        rate: 0.0,
        burst: 1.0,
    };

    /// An uncorrelated (burst length 1) class at `rate`.
    pub fn flat(rate: f64) -> FaultClass {
        FaultClass { rate, burst: 1.0 }
    }

    /// A bursty class: faults arrive in runs averaging `burst` attempts.
    pub fn bursty(rate: f64, burst: f64) -> FaultClass {
        FaultClass { rate, burst }
    }

    fn validate(&self, name: &'static str) -> Result<(), ChaosConfigError> {
        if !(self.rate.is_finite() && (0.0..=0.5).contains(&self.rate)) {
            return Err(ChaosConfigError {
                class: name,
                field: "rate",
                expected: "a finite value in [0, 0.5]",
            });
        }
        if !(self.burst.is_finite() && self.burst >= 1.0) {
            return Err(ChaosConfigError {
                class: name,
                field: "burst",
                expected: "a finite value >= 1",
            });
        }
        Ok(())
    }
}

/// A rejected [`ChaosConfig`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfigError {
    /// The fault class at fault.
    pub class: &'static str,
    /// The offending field.
    pub field: &'static str,
    /// What would have been accepted.
    pub expected: &'static str,
}

impl core::fmt::Display for ChaosConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "chaos config: {}.{} must be {}",
            self.class, self.field, self.expected
        )
    }
}

impl std::error::Error for ChaosConfigError {}

/// The transport's full fault profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed every per-device chain and detail stream derives from.
    pub seed: u64,
    /// Frame loss.
    pub drop: FaultClass,
    /// Ack loss (intact delivery, sender retries anyway).
    pub duplicate: FaultClass,
    /// In-round displacement.
    pub reorder: FaultClass,
    /// In-flight bit flips.
    pub corrupt: FaultClass,
    /// In-flight tail truncation.
    pub truncate: FaultClass,
    /// Late delivery (`1..=`[`MAX_DELAY_ROUNDS`] rounds).
    pub delay: FaultClass,
}

impl ChaosConfig {
    /// A transport that never misbehaves (every class off).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop: FaultClass::OFF,
            duplicate: FaultClass::OFF,
            reorder: FaultClass::OFF,
            corrupt: FaultClass::OFF,
            truncate: FaultClass::OFF,
            delay: FaultClass::OFF,
        }
    }

    /// Validates every class.
    ///
    /// # Errors
    ///
    /// [`ChaosConfigError`] naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), ChaosConfigError> {
        self.drop.validate("drop")?;
        self.duplicate.validate("duplicate")?;
        self.reorder.validate("reorder")?;
        self.corrupt.validate("corrupt")?;
        self.truncate.validate("truncate")?;
        self.delay.validate("delay")?;
        Ok(())
    }
}

/// Which fault decided an attempt's fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Frame eaten whole.
    Drop,
    /// Bit flips injected in flight.
    Corrupt,
    /// Tail cut off in flight.
    Truncate,
    /// Delivered late.
    Delay,
    /// Delivered intact, ack eaten.
    AckLoss,
    /// Delivered intact, displaced within its round.
    Reorder,
}

/// One frame's bytes held inline: up to [`FRAME_LEN`] bytes and their
/// length (a truncated delivery is shorter), read as a byte slice — no
/// heap allocation per delivered attempt.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InlineFrame {
    bytes: [u8; FRAME_LEN],
    len: u8,
}

impl From<[u8; FRAME_LEN]> for InlineFrame {
    fn from(bytes: [u8; FRAME_LEN]) -> InlineFrame {
        InlineFrame {
            bytes,
            len: FRAME_LEN as u8,
        }
    }
}

impl core::ops::Deref for InlineFrame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl core::fmt::Debug for InlineFrame {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        (**self).fmt(f)
    }
}

/// What the collector receives from one attempt, if anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The bytes that arrive (possibly corrupted or shorter than
    /// [`FRAME_LEN`]).
    pub bytes: InlineFrame,
    /// Rounds after the send round the bytes arrive (0 = same round).
    pub delay_rounds: u32,
    /// Whether the frame lands displaced within its arrival round.
    pub displaced: bool,
}

/// Outcome of one transmission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// What arrives at the collector (`None` for a dropped frame).
    pub delivery: Option<Delivery>,
    /// Whether the sender sees an ack in time (no ⇒ it will retry).
    pub acked: bool,
    /// The fault that fired, if any.
    pub fault: Option<FaultKind>,
}

fn prob_to_threshold(p: f64) -> u32 {
    // Round-to-nearest keeps tiny rates representable; 2^32 saturates.
    let scaled = (p * 4_294_967_296.0).round();
    if scaled >= 4_294_967_295.0 {
        u32::MAX
    } else {
        scaled as u32
    }
}

/// A Gilbert–Elliott chain's `(p(good→bad), p(bad→good))` as `u32`
/// thresholds (a step fires if its draw is below the one of its state),
/// fixed so the stationary bad probability is `rate` and the mean bad-run
/// length is `burst`.
fn thresholds(class: FaultClass) -> (u32, u32) {
    // Stationary P(bad) = enter / (enter + leave) = rate with
    // leave = 1/burst and enter = rate / (burst · (1 − rate)).
    // rate ≤ 0.5 and burst ≥ 1 keep enter ≤ 1.
    let leave = 1.0 / class.burst;
    let enter = if class.rate == 0.0 {
        0.0
    } else {
        class.rate / (class.burst * (1.0 - class.rate))
    };
    (prob_to_threshold(enter), prob_to_threshold(leave))
}

/// A chain's seeded generator and starting state: drawn from the
/// stationary distribution, so early attempts see the configured rate,
/// not a warm-up transient. Only a class that can fire spends a draw on
/// it.
fn start_chain(class: FaultClass, seed: u64) -> (Taus88, bool) {
    let mut rng = Taus88::from_seed(seed);
    let bad =
        class.rate > 0.0 && u64::from(rng.next_u32()) < u64::from(prob_to_threshold(class.rate));
    (rng, bad)
}

// Class indices for stream seeding (7 = the detail stream).
const CLASS_DROP: u64 = 0;
const CLASS_DUPLICATE: u64 = 1;
const CLASS_REORDER: u64 = 2;
const CLASS_CORRUPT: u64 = 3;
const CLASS_TRUNCATE: u64 = 4;
const CLASS_DELAY: u64 = 5;
const CLASS_DETAIL: u64 = 7;

/// Burst chains per device, one per fault class.
const CHAINS: usize = 6;

/// The chains' lanes in fault priority order: the lowest lane whose chain
/// is bad decides an attempt.
const LANE_DROP: u32 = 0;
const LANE_CORRUPT: u32 = 1;
const LANE_TRUNCATE: u32 = 2;
const LANE_DELAY: u32 = 3;
const LANE_ACK_LOSS: u32 = 4;

/// One attempt's fate, as the lane kernel draws it: which fault fired,
/// how many bytes arrive and how late, and the bit flips to apply to them.
/// The bytes themselves are written by the caller, once, where they land.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fate {
    fault: Option<FaultKind>,
    /// Bytes that arrive: [`FRAME_LEN`], fewer when truncated.
    len: u8,
    /// Rounds after the send round the bytes arrive.
    delay_rounds: u8,
    /// `(byte, mask)` flips, applied in order; the first `flip_count`.
    flips: [(u8, u8); 3],
    flip_count: u8,
}

impl Fate {
    /// An attempt no fault touched.
    const CLEAN: Fate = Fate {
        fault: None,
        len: FRAME_LEN as u8,
        delay_rounds: 0,
        flips: [(0, 0); 3],
        flip_count: 0,
    };

    fn faulted(fault: FaultKind) -> Fate {
        Fate {
            fault: Some(fault),
            ..Fate::CLEAN
        }
    }

    /// Whether anything arrives (every fault but a drop delivers).
    #[inline]
    pub(crate) fn delivered(&self) -> bool {
        self.fault != Some(FaultKind::Drop)
    }

    /// Whether the sender sees an ack in time.
    #[inline]
    pub(crate) fn acked(&self) -> bool {
        matches!(self.fault, None | Some(FaultKind::Reorder))
    }

    /// Whether the frame lands displaced within its arrival round.
    #[inline]
    pub(crate) fn displaced(&self) -> bool {
        self.fault == Some(FaultKind::Reorder)
    }

    /// Rounds after the send round the bytes arrive (0 = same round).
    #[inline]
    pub(crate) fn delay_rounds(&self) -> usize {
        usize::from(self.delay_rounds)
    }

    /// The prefix of a frame that arrives.
    #[inline]
    pub(crate) fn arriving<'a>(&self, frame: &'a [u8; FRAME_LEN]) -> &'a [u8] {
        &frame[..usize::from(self.len)]
    }

    /// Applies the attempt's bit flips, in place, to the bytes that
    /// arrived.
    #[inline]
    pub(crate) fn corrupt(&self, bytes: &mut [u8]) {
        for &(at, mask) in &self.flips[..usize::from(self.flip_count)] {
            bytes[usize::from(at)] ^= mask;
        }
    }
}

/// The chaos transport as seen by one device: its six burst chains, held
/// as lanes that step together, plus the detail stream that draws flip
/// masks, cut lengths, and delays. 156 B.
#[derive(Debug, Clone)]
pub struct DeviceChaos {
    /// The chains' generators, one lane per chain, lanes in fault
    /// priority order.
    chains: Taus88Lanes<CHAINS>,
    /// Each lane's state as a mask: all ones while its chain is bad.
    bad: [u32; CHAINS],
    /// Each lane's `p(good→bad)` threshold.
    enter: [u32; CHAINS],
    /// Each lane's `p(bad→good)` threshold.
    leave: [u32; CHAINS],
    detail: Taus88,
}

impl DeviceChaos {
    /// Builds the transport state for `device` under `cfg`. The result is
    /// a pure function of `(cfg.seed, device)`.
    pub fn new(cfg: &ChaosConfig, device: u32) -> DeviceChaos {
        let classes = [
            (cfg.drop, CLASS_DROP),
            (cfg.corrupt, CLASS_CORRUPT),
            (cfg.truncate, CLASS_TRUNCATE),
            (cfg.delay, CLASS_DELAY),
            (cfg.duplicate, CLASS_DUPLICATE),
            (cfg.reorder, CLASS_REORDER),
        ];
        let mut bad = [0; CHAINS];
        let chains = Taus88Lanes::new(std::array::from_fn(|lane| {
            let (class, idx) = classes[lane];
            let (rng, starts_bad) =
                start_chain(class, stream_seed(cfg.seed, &[u64::from(device), idx]));
            bad[lane] = if starts_bad { u32::MAX } else { 0 };
            rng
        }));
        let limits = classes.map(|(class, _)| thresholds(class));
        DeviceChaos {
            chains,
            bad,
            enter: limits.map(|(enter, _)| enter),
            leave: limits.map(|(_, leave)| leave),
            detail: Taus88::from_seed(stream_seed(cfg.seed, &[u64::from(device), CLASS_DETAIL])),
        }
    }

    /// Steps every chain once, all lanes together — fault priority must
    /// not distort the other classes' burst processes — and returns the
    /// lanes now bad, one bit per lane.
    #[inline(always)]
    fn step_chains(&mut self) -> u32 {
        let draws = self.chains.next_words();
        let mut fired = 0;
        for (lane, draw) in draws.into_iter().enumerate() {
            // The threshold of the lane's current state: `leave` while
            // bad, `enter` while good. A draw below it flips the state.
            let threshold =
                self.enter[lane] ^ ((self.enter[lane] ^ self.leave[lane]) & self.bad[lane]);
            self.bad[lane] ^= 0u32.wrapping_sub(u32::from(draw < threshold));
            fired |= (self.bad[lane] >> 31) << lane;
        }
        fired
    }

    /// Draws one attempt's fate: every chain steps once, and the first
    /// firing class in priority order decides (the lane kernel).
    #[inline]
    pub(crate) fn fate(&mut self) -> Fate {
        match self.step_chains() {
            0 => Fate::CLEAN,
            fired => self.fault(fired.trailing_zeros()),
        }
    }

    /// The fate decided by the fault on `lane`, with its details drawn
    /// from the detail stream.
    fn fault(&mut self, lane: u32) -> Fate {
        match lane {
            LANE_DROP => {
                DROPPED.inc();
                Fate::faulted(FaultKind::Drop)
            }
            LANE_CORRUPT => {
                CORRUPTED.inc();
                // 1–3 bit flips at detail-drawn positions.
                let mut fate = Fate::faulted(FaultKind::Corrupt);
                fate.flip_count = 1 + (self.detail.next_u32() % 3) as u8;
                for flip in &mut fate.flips[..usize::from(fate.flip_count)] {
                    let at = (self.detail.next_u32() as usize) % FRAME_LEN;
                    let bit = self.detail.next_u32() % 8;
                    *flip = (at as u8, 1 << bit);
                }
                fate
            }
            LANE_TRUNCATE => {
                TRUNCATED.inc();
                let keep = 1 + (self.detail.next_u32() as usize) % (FRAME_LEN - 1);
                Fate {
                    len: keep as u8,
                    ..Fate::faulted(FaultKind::Truncate)
                }
            }
            LANE_DELAY => {
                DELAYED.inc();
                let rounds = 1 + self.detail.next_u32() % MAX_DELAY_ROUNDS;
                Fate {
                    delay_rounds: rounds as u8,
                    ..Fate::faulted(FaultKind::Delay)
                }
            }
            LANE_ACK_LOSS => {
                ACK_LOST.inc();
                Fate::faulted(FaultKind::AckLoss)
            }
            _ => {
                REORDERED.inc();
                Fate::faulted(FaultKind::Reorder)
            }
        }
    }

    /// Passes one frame through the transport, advancing every chain by
    /// one attempt.
    #[inline]
    pub fn attempt(&mut self, frame: &[u8; FRAME_LEN]) -> Attempt {
        let fate = self.fate();
        let delivery = fate.delivered().then(|| {
            let mut bytes = InlineFrame {
                bytes: *frame,
                len: fate.len,
            };
            fate.corrupt(&mut bytes.bytes);
            Delivery {
                bytes,
                delay_rounds: u32::from(fate.delay_rounds),
                displaced: fate.displaced(),
            }
        });
        Attempt {
            delivery,
            acked: fate.acked(),
            fault: fate.fault,
        }
    }
}

/// Environment variable overriding a chaos campaign's master seed.
pub(crate) const CHAOS_SEED_ENV: &str = "ULP_CHAOS_SEED";

/// Reads `ULP_CHAOS_SEED`: `Ok(None)` if unset, the parsed seed if a
/// valid `u64`, and a typed error otherwise — a misspelled seed must never
/// silently fall back to a default campaign.
///
/// # Errors
///
/// [`ulp_obs::EnvError`] for a set-but-malformed value.
pub fn chaos_seed_from_env() -> Result<Option<u64>, ulp_obs::EnvError> {
    ulp_obs::parse_env(CHAOS_SEED_ENV, "an unsigned 64-bit integer", |s| {
        s.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Payload, Report};

    fn frame() -> [u8; FRAME_LEN] {
        Report {
            device: 1,
            query: 0,
            epoch: 0,
            payload: Payload::Value(42),
        }
        .encode()
    }

    #[test]
    fn lane_state_is_no_larger_than_six_separate_chains() {
        // Six 24-byte chains and a 12-byte detail stream.
        assert_eq!(std::mem::size_of::<DeviceChaos>(), 6 * 24 + 12);
    }

    #[test]
    fn quiet_transport_is_a_perfect_wire() {
        let cfg = ChaosConfig::quiet(9);
        let mut chaos = DeviceChaos::new(&cfg, 3);
        for _ in 0..100 {
            let a = chaos.attempt(&frame());
            assert!(a.acked && a.fault.is_none());
            assert_eq!(*a.delivery.unwrap().bytes, frame());
        }
    }

    #[test]
    fn fault_pattern_is_a_pure_function_of_seed_and_device() {
        let cfg = ChaosConfig {
            drop: FaultClass::bursty(0.1, 4.0),
            corrupt: FaultClass::flat(0.05),
            duplicate: FaultClass::bursty(0.1, 2.0),
            delay: FaultClass::flat(0.05),
            ..ChaosConfig::quiet(1234)
        };
        let run = || -> Vec<Attempt> {
            let mut chaos = DeviceChaos::new(&cfg, 77);
            (0..500).map(|_| chaos.attempt(&frame())).collect()
        };
        assert_eq!(run(), run());
        // A different device sees an *independent* pattern.
        let mut other = DeviceChaos::new(&cfg, 78);
        let other_run: Vec<Attempt> = (0..500).map(|_| other.attempt(&frame())).collect();
        assert_ne!(run(), other_run);
    }

    #[test]
    fn stationary_rate_is_respected_per_class() {
        // Aggregate over many devices so chain independence averages out.
        let cfg = ChaosConfig {
            drop: FaultClass::bursty(0.2, 4.0),
            ..ChaosConfig::quiet(5)
        };
        let mut dropped = 0u64;
        let mut total = 0u64;
        for device in 0..200u32 {
            let mut chaos = DeviceChaos::new(&cfg, device);
            for _ in 0..200 {
                total += 1;
                if chaos.attempt(&frame()).fault == Some(FaultKind::Drop) {
                    dropped += 1;
                }
            }
        }
        let observed = dropped as f64 / total as f64;
        assert!(
            (observed - 0.2).abs() < 0.02,
            "drop rate {observed:.3} too far from configured 0.2"
        );
    }

    #[test]
    fn bursts_have_the_configured_mean_length() {
        let cfg = ChaosConfig {
            drop: FaultClass::bursty(0.2, 5.0),
            ..ChaosConfig::quiet(11)
        };
        let mut runs = Vec::new();
        for device in 0..100u32 {
            let mut chaos = DeviceChaos::new(&cfg, device);
            let mut current = 0u64;
            for _ in 0..500 {
                if chaos.attempt(&frame()).fault == Some(FaultKind::Drop) {
                    current += 1;
                } else if current > 0 {
                    runs.push(current);
                    current = 0;
                }
            }
        }
        let mean = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
        assert!(
            (mean - 5.0).abs() < 1.0,
            "mean burst {mean:.2} too far from configured 5"
        );
    }

    #[test]
    fn corrupted_deliveries_differ_and_truncated_ones_are_short() {
        let cfg = ChaosConfig {
            corrupt: FaultClass::flat(0.5),
            truncate: FaultClass::flat(0.5),
            ..ChaosConfig::quiet(21)
        };
        let mut chaos = DeviceChaos::new(&cfg, 1);
        let (mut corrupted, mut truncated) = (0, 0);
        for _ in 0..400 {
            let a = chaos.attempt(&frame());
            match a.fault {
                Some(FaultKind::Corrupt) => {
                    corrupted += 1;
                    let d = a.delivery.unwrap();
                    assert_eq!(d.bytes.len(), FRAME_LEN);
                    assert_ne!(*d.bytes, frame());
                }
                Some(FaultKind::Truncate) => {
                    truncated += 1;
                    let d = a.delivery.unwrap();
                    assert!((1..FRAME_LEN).contains(&d.bytes.len()));
                }
                _ => {}
            }
        }
        assert!(corrupted > 50 && truncated > 20);
    }

    #[test]
    fn delays_are_bounded_and_unacked() {
        let cfg = ChaosConfig {
            delay: FaultClass::flat(0.5),
            ..ChaosConfig::quiet(31)
        };
        let mut chaos = DeviceChaos::new(&cfg, 1);
        let mut seen = 0;
        for _ in 0..200 {
            let a = chaos.attempt(&frame());
            if a.fault == Some(FaultKind::Delay) {
                seen += 1;
                assert!(!a.acked);
                let d = a.delivery.unwrap();
                assert!((1..=MAX_DELAY_ROUNDS).contains(&d.delay_rounds));
                assert_eq!(*d.bytes, frame());
            }
        }
        assert!(seen > 50);
    }

    #[test]
    fn config_validation_rejects_out_of_range_classes() {
        let mut cfg = ChaosConfig::quiet(1);
        cfg.corrupt = FaultClass::flat(0.75);
        let err = cfg.validate().unwrap_err();
        assert_eq!((err.class, err.field), ("corrupt", "rate"));
        cfg.corrupt = FaultClass::OFF;
        cfg.delay = FaultClass::bursty(0.1, 0.5);
        let err = cfg.validate().unwrap_err();
        assert_eq!((err.class, err.field), ("delay", "burst"));
        cfg.delay = FaultClass::OFF;
        cfg.validate().unwrap();
    }

    #[test]
    fn chaos_seed_env_parses_strictly() {
        assert_eq!(super::CHAOS_SEED_ENV, "ULP_CHAOS_SEED");
        // Parsing logic is exercised via the inner match on strings.
        for (raw, ok) in [("42", true), (" 7 ", true), ("-1", false), ("abc", false)] {
            assert_eq!(raw.trim().parse::<u64>().is_ok(), ok, "{raw:?}");
        }
    }
}
