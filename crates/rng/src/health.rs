//! Continuous health tests for URNG bit streams (NIST SP 800-90B style).
//!
//! The DP-Box's distributional ε bound requires the Tausworthe URNG to
//! actually be uniform, and hardware RNGs fail in the field — stuck-at
//! bits, bias, correlated stages. This module provides the online monitor
//! a fail-safe privacy pipeline gates its guarantee on:
//!
//! * a per-bit-position **Repetition Count Test** (RCT) that trips when any
//!   of the 32 bit lanes repeats the same value too many words in a row
//!   (catches stuck-at and near-stuck faults within ~`alpha_exp` words);
//! * a windowed **Adaptive Proportion Test** (APT) over the total
//!   ones-count of each window (catches broad bias);
//! * a windowed **lag-correlation test** comparing each word against the
//!   words `1..=max_lag` draws earlier (catches correlated stages that are
//!   marginally uniform and therefore invisible to RCT/APT).
//!
//! Cutoffs are derived from a configured per-decision false-positive target
//! `α = 2^-alpha_exp`: the RCT cutoff is the NIST `1 + ⌈−log₂ α⌉` (at one
//! bit of entropy per bit), and the windowed tests use the Hoeffding bound
//! `P(|ones − n/2| ≥ t) ≤ 2·exp(−2t²/n)`, solved for `t` at `α`. At the
//! defaults (`α = 2^-40`, 1024-word windows) a healthy source produces an
//! expected ≈1e-4 false alarms per 10⁷ words — effectively none — while a
//! stuck bit is caught in ~41 words and gross bias or correlation within
//! one window.
//!
//! # Many lanes at once
//!
//! The repetition count keeps one run counter per bit lane, bit-sliced:
//! six planes of 32 bits, so a word's update is a few bitwise operations
//! on the planes, the same arithmetic for one monitor or a block of them.
//! [`UrngColumns`](crate::UrngColumns) runs many monitors at once as
//! columns, bit-identical to calling [`UrngHealth::observe`] word by word
//! (counters included): its boot runs every lane's power-on self-test in
//! one kernel, and each draw screens one word column. A lane either
//! kernel flags goes through the scalar monitor, so every [`HealthAlarm`]
//! is built by `observe` alone, and [`UrngHealth::startup`] stays the
//! reference for both.
//!
//! # Examples
//!
//! ```
//! use ulp_rng::{RandomBits, StuckAtBits, Taus88, UrngHealth};
//!
//! let mut health = UrngHealth::default();
//! let mut faulty = StuckAtBits::new(Taus88::from_seed(7), 13, true);
//! let mut tripped = None;
//! for _ in 0..100 {
//!     if let Err(alarm) = health.observe(faulty.next_u32()) {
//!         tripped = Some(alarm);
//!         break;
//!     }
//! }
//! let alarm = tripped.expect("stuck bit must trip the RCT quickly");
//! assert!(alarm.word_index < 64);
//! ```

use core::ops::{BitAnd, BitOr, BitXor, Not};

use ulp_obs::Counter;

use crate::error::RngError;
use crate::source::RandomBits;

/// Words that passed every online health test.
pub(crate) static VERDICTS_OK: Counter = Counter::new("rng.health.verdicts_ok");
/// Newly latched health alarms — recorded at every metrics level, because a
/// tripped URNG is exactly the event operators must never miss.
static ALARMS: Counter = Counter::new("rng.health.alarms");

/// Configuration for [`UrngHealth`]: false-positive target and window sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    alpha_exp: u8,
    apt_window: u32,
    max_lag: u8,
}

impl HealthConfig {
    /// Creates a configuration.
    ///
    /// * `alpha_exp` — per-decision false-positive target `α = 2^-alpha_exp`
    ///   (must be in `4..=60`).
    /// * `apt_window` — words per adaptive-proportion / lag-correlation
    ///   window (must be in `64..=1_048_576`).
    /// * `max_lag` — correlation lags `1..=max_lag` to monitor (at most 8;
    ///   0 disables the lag test).
    pub fn new(alpha_exp: u8, apt_window: u32, max_lag: u8) -> Result<Self, RngError> {
        if !(4..=60).contains(&alpha_exp) {
            return Err(RngError::InvalidConfig("alpha_exp must be in 4..=60"));
        }
        if !(64..=1_048_576).contains(&apt_window) {
            return Err(RngError::InvalidConfig(
                "apt_window must be in 64..=1048576 words",
            ));
        }
        if max_lag > 8 {
            return Err(RngError::InvalidConfig("max_lag must be at most 8"));
        }
        Ok(HealthConfig {
            alpha_exp,
            apt_window,
            max_lag,
        })
    }

    /// False-positive exponent: each test decision trips a healthy source
    /// with probability at most `2^-alpha_exp`.
    pub fn alpha_exp(&self) -> u8 {
        self.alpha_exp
    }

    /// Words per APT / lag-correlation window.
    pub fn apt_window(&self) -> u32 {
        self.apt_window
    }

    /// Highest correlation lag monitored (0 = lag test disabled).
    pub fn max_lag(&self) -> u8 {
        self.max_lag
    }

    /// Repetition-count cutoff: a run of this many identical values in one
    /// bit lane trips the alarm (NIST SP 800-90B `C = 1 + ⌈−log₂ α / H⌉`
    /// at `H = 1` bit per bit).
    pub fn rct_cutoff(&self) -> u32 {
        1 + u32::from(self.alpha_exp)
    }

    /// Deviation cutoff for a balance test over `n_bits` fair bits: trips
    /// when `|ones − n/2| ≥ t` with `t = ⌈√(n·(alpha_exp+1)·ln2 / 2)⌉`
    /// (Hoeffding bound solved at `α = 2^-alpha_exp`).
    pub(crate) fn balance_cutoff(&self, n_bits: u64) -> u64 {
        let t = (n_bits as f64 * (f64::from(self.alpha_exp) + 1.0) * core::f64::consts::LN_2 / 2.0)
            .sqrt();
        t.ceil() as u64
    }

    /// Words a startup / reset-and-retest pass must draw before the source
    /// is declared healthy: one full window (which also covers many RCT
    /// cutoffs' worth of words).
    pub fn startup_words(&self) -> u32 {
        self.apt_window
    }
}

impl Default for HealthConfig {
    /// `α = 2^-40`, 1024-word windows, lags 1..=4.
    fn default() -> Self {
        HealthConfig {
            alpha_exp: 40,
            apt_window: 1024,
            max_lag: 4,
        }
    }
}

/// Which continuous test tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTest {
    /// One bit lane repeated the same value `run` words in a row.
    RepetitionCount {
        /// Bit position (0 = LSB, 31 = MSB) of the offending lane.
        bit: u8,
        /// Length of the repeated run when the cutoff was reached.
        run: u32,
    },
    /// The window's total ones-count strayed too far from `n/2`.
    AdaptiveProportion {
        /// Ones observed in the window.
        ones: u64,
        /// Total bits in the window.
        window_bits: u64,
    },
    /// Bits agreed with the word `lag` draws earlier too often (or too
    /// rarely) over the window.
    LagCorrelation {
        /// The offending lag, in words.
        lag: u8,
        /// Bitwise agreements observed at this lag in the window.
        agreements: u64,
        /// Bit pairs compared at this lag in the window.
        window_bits: u64,
    },
}

impl core::fmt::Display for HealthTest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HealthTest::RepetitionCount { bit, run } => {
                write!(f, "repetition count: bit {bit} repeated {run} words")
            }
            HealthTest::AdaptiveProportion { ones, window_bits } => {
                write!(f, "adaptive proportion: {ones} ones in {window_bits} bits")
            }
            HealthTest::LagCorrelation {
                lag,
                agreements,
                window_bits,
            } => write!(
                f,
                "lag-{lag} correlation: {agreements} agreements in {window_bits} bit pairs"
            ),
        }
    }
}

/// An alarm raised by [`UrngHealth`]: which test tripped, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthAlarm {
    /// The test that tripped.
    pub test: HealthTest,
    /// Zero-based index of the word whose observation raised the alarm
    /// (i.e. `word_index + 1` words had been consumed).
    pub word_index: u64,
}

impl core::fmt::Display for HealthAlarm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "URNG health alarm at word {}: {}",
            self.word_index, self.test
        )
    }
}

/// Online health monitor over a stream of 32-bit URNG words.
///
/// Feed every word the consumer draws through [`observe`](Self::observe);
/// once a test trips, the monitor latches the alarm and refuses further
/// words until [`reset`](Self::reset) — recovery must be deliberate, not
/// automatic.
#[derive(Debug, Clone)]
pub struct UrngHealth {
    pub(crate) cfg: HealthConfig,
    rct_cutoff: u32,
    pub(crate) apt_cutoff: u64,
    /// Current run length of identical values, per bit lane, bit-sliced:
    /// bit `b` of plane `j` is bit `j` of lane `b`'s run. A run never
    /// passes the cutoff (≤ `1 + 60` < 2^[`RUN_PLANES`]), so the whole
    /// repetition-count update is a few lane-parallel bitwise operations
    /// ([`step_runs`]) instead of a 32-iteration loop — this is the hot
    /// path of every monitored URNG draw.
    pub(crate) runs: Runs,
    /// The cutoff's planes, complemented ([`cutoff_planes`]).
    pub(crate) cut: Runs,
    pub(crate) last: u32,
    /// The previous `max_lag` words as a shift register: `prev[l]` is the
    /// word drawn `l + 1` observations ago.
    pub(crate) prev: [u32; 8],
    /// Words into the current APT/lag window.
    pub(crate) window_pos: u32,
    /// Ones in the current window.
    pub(crate) ones: u64,
    /// Bitwise agreements per lag (index `lag - 1`) in the current window.
    pub(crate) agreements: [u64; 8],
    /// Lag-test cutoffs for the first window since construction or reset
    /// (index `lag - 1`), which compares `32 · (apt_window − lag)` bit
    /// pairs at each lag. Every later window compares `32 · apt_window`
    /// pairs, as many as the APT counts bits, so it uses `apt_cutoff`.
    pub(crate) first_lag_cutoffs: [u64; 8],
    /// Total words observed since construction or the last reset.
    pub(crate) words: u64,
    pub(crate) alarm: Option<HealthAlarm>,
}

/// Planes of a bit-sliced run counter: runs stay at or below the cutoff,
/// `1 + alpha_exp ≤ 61 < 2^6`.
pub(crate) const RUN_PLANES: usize = 6;

/// 32 bit lanes' run counters, bit-sliced into [`RUN_PLANES`] planes.
type Runs = [u32; RUN_PLANES];

/// Every lane's run counter at one: the state after a stream's first word.
pub(crate) const RUNS_ONE: Runs = [!0, 0, 0, 0, 0, 0];

/// The planes of a run cutoff `c`, complemented: plane `j` is all ones
/// where bit `j` of `c` is clear, so a run that has not passed `c` equals
/// it exactly where each of its planes ORed with this one is set.
fn cutoff_planes(c: u32) -> Runs {
    core::array::from_fn(|j| if (c >> j) & 1 == 1 { 0 } else { !0 })
}

/// A word of bit lanes: one `u32`, or several side by side that the
/// repetition count steps at once ([`UrngColumns`](crate::UrngColumns)).
pub(crate) trait Bits:
    Copy + BitAnd<Output = Self> + BitOr<Output = Self> + BitXor<Output = Self> + Not<Output = Self>
{
    /// Every bit set.
    const ONES: Self;
}

impl Bits for u32 {
    const ONES: u32 = !0;
}

/// Adds one to the bit-sliced runs in the bit lanes of `mask`.
#[inline(always)]
pub(crate) fn add_where<W: Bits>(mut runs: [W; RUN_PLANES], mask: W) -> [W; RUN_PLANES] {
    let mut carry = mask;
    for plane in &mut runs {
        let sum = *plane ^ carry;
        carry = carry & *plane;
        *plane = sum;
    }
    runs
}

/// One repetition-count step: each bit lane's run survives and gains one
/// where `same` has the lane set, and restarts at one elsewhere. Returns
/// the new runs and the lanes whose run reached the cutoff planes `cut`
/// ([`cutoff_planes`]), exact while no run has passed the cutoff.
#[inline(always)]
pub(crate) fn step_runs<W: Bits>(
    mut runs: [W; RUN_PLANES],
    same: W,
    cut: &[W; RUN_PLANES],
) -> ([W; RUN_PLANES], W) {
    for plane in &mut runs {
        *plane = *plane & same;
    }
    let next = add_where(runs, W::ONES);
    let mut hit = W::ONES;
    for (&plane, &cut) in next.iter().zip(cut) {
        hit = hit & (plane | cut);
    }
    (next, hit)
}

impl UrngHealth {
    /// Creates a monitor with the given configuration.
    pub fn new(cfg: HealthConfig) -> Self {
        let window = u64::from(cfg.apt_window);
        let mut first_lag_cutoffs = [0; 8];
        for (slot, cutoff) in first_lag_cutoffs
            .iter_mut()
            .enumerate()
            .take(usize::from(cfg.max_lag))
        {
            *cutoff = cfg.balance_cutoff((window - 1 - slot as u64) * 32);
        }
        UrngHealth {
            cfg,
            rct_cutoff: cfg.rct_cutoff(),
            apt_cutoff: cfg.balance_cutoff(window * 32),
            runs: [0; RUN_PLANES],
            cut: cutoff_planes(cfg.rct_cutoff()),
            last: 0,
            prev: [0; 8],
            window_pos: 0,
            ones: 0,
            agreements: [0; 8],
            first_lag_cutoffs,
            words: 0,
            alarm: None,
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Words observed since construction or the last [`reset`](Self::reset).
    pub fn words(&self) -> u64 {
        self.words
    }

    /// The latched alarm, if any test has tripped.
    pub fn alarm(&self) -> Option<&HealthAlarm> {
        self.alarm.as_ref()
    }

    /// Whether an alarm is latched.
    pub fn is_alarmed(&self) -> bool {
        self.alarm.is_some()
    }

    /// Clears all test state and the latched alarm. The next window starts
    /// fresh; callers should follow with [`startup`](Self::startup) to
    /// retest before trusting the source again.
    pub fn reset(&mut self) {
        let cfg = self.cfg;
        *self = UrngHealth::new(cfg);
    }

    /// Feeds one word. Returns the (newly or previously latched) alarm if
    /// the stream is considered unhealthy; the offending word is counted.
    pub fn observe(&mut self, word: u32) -> Result<(), HealthAlarm> {
        if let Some(alarm) = self.alarm {
            return Err(alarm);
        }
        let index = self.words;

        // Repetition count, per bit lane, lane-parallel: where the bit
        // repeated the run survives and gains one, elsewhere it restarts at
        // one. The first lane whose new run reaches the cutoff (lowest bit
        // position, as in the per-bit formulation) names the alarm. On the
        // first word every lane starts a run of one.
        if index == 0 {
            self.runs = RUNS_ONE;
        } else {
            let (runs, hit) = step_runs(self.runs, !(word ^ self.last), &self.cut);
            self.runs = runs;
            if hit != 0 {
                // A run below the cutoff gains at most one per word, so the
                // tripping run is exactly the cutoff.
                let alarm = HealthAlarm {
                    test: HealthTest::RepetitionCount {
                        bit: hit.trailing_zeros() as u8,
                        run: self.rct_cutoff,
                    },
                    word_index: index,
                };
                self.words += 1;
                self.alarm = Some(alarm);
                ALARMS.record_always(1);
                return Err(alarm);
            }
        }
        self.last = word;

        // Window accumulators: ones count and lagged agreements against the
        // shift register of the last `max_lag` words.
        self.ones += u64::from(word.count_ones());
        let max_lag = usize::from(self.cfg.max_lag);
        let lags = max_lag.min(usize::try_from(index).unwrap_or(max_lag));
        for (slot, &prev) in self.prev.iter().enumerate().take(lags) {
            self.agreements[slot] += u64::from((!(word ^ prev)).count_ones());
        }
        if max_lag > 0 {
            for l in (1..max_lag).rev() {
                self.prev[l] = self.prev[l - 1];
            }
            self.prev[0] = word;
        }
        self.words += 1;
        self.window_pos += 1;

        if self.window_pos == self.cfg.apt_window {
            if let Err(alarm) = self.close_window(index) {
                self.alarm = Some(alarm);
                ALARMS.record_always(1);
                return Err(alarm);
            }
        }
        VERDICTS_OK.inc();
        Ok(())
    }

    /// Draws and observes one startup pass ([`HealthConfig::startup_words`]
    /// words) from `src`, as the reset-and-retest command path requires.
    pub fn startup<R: RandomBits + ?Sized>(&mut self, src: &mut R) -> Result<(), HealthAlarm> {
        for _ in 0..self.cfg.startup_words() {
            self.observe(src.next_u32())?;
        }
        Ok(())
    }

    /// Evaluates the windowed tests and resets the window accumulators.
    fn close_window(&mut self, index: u64) -> Result<(), HealthAlarm> {
        let window = u64::from(self.cfg.apt_window);
        let window_bits = window * 32;
        let deviation = self.ones.abs_diff(window_bits / 2);
        if deviation >= self.apt_cutoff {
            return Err(HealthAlarm {
                test: HealthTest::AdaptiveProportion {
                    ones: self.ones,
                    window_bits,
                },
                word_index: index,
            });
        }
        // The first window compares a word with the one `lag` draws earlier
        // only from word `lag` on, so it compares fewer pairs than later
        // windows, against its own cutoffs.
        let first = self.words == window;
        for lag in 1..=usize::from(self.cfg.max_lag) {
            let (pairs, cutoff) = if first {
                ((window - lag as u64) * 32, self.first_lag_cutoffs[lag - 1])
            } else {
                (window_bits, self.apt_cutoff)
            };
            let agreements = self.agreements[lag - 1];
            if agreements.abs_diff(pairs / 2) >= cutoff {
                return Err(HealthAlarm {
                    test: HealthTest::LagCorrelation {
                        lag: lag as u8,
                        agreements,
                        window_bits: pairs,
                    },
                    word_index: index,
                });
            }
        }
        self.ones = 0;
        self.agreements = [0; 8];
        self.window_pos = 0;
        Ok(())
    }
}

impl Default for UrngHealth {
    fn default() -> Self {
        UrngHealth::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BiasedBits, CorrelatedBits, StuckAtBits};
    use crate::tausworthe::Taus88;

    fn feed_until_alarm<R: RandomBits>(
        health: &mut UrngHealth,
        src: &mut R,
        max_words: u64,
    ) -> Option<HealthAlarm> {
        for _ in 0..max_words {
            if let Err(alarm) = health.observe(src.next_u32()) {
                return Some(alarm);
            }
        }
        None
    }

    #[test]
    fn default_cutoffs_match_the_nist_formulas() {
        let cfg = HealthConfig::default();
        assert_eq!(cfg.rct_cutoff(), 41);
        // t = ceil(sqrt(32768 * 41 * ln2 / 2)) = ceil(sqrt(465 k)) = 683.
        assert_eq!(cfg.balance_cutoff(32 * 1024), 683);
    }

    #[test]
    fn cutoffs_grow_with_stricter_alpha() {
        let loose = HealthConfig::new(10, 1024, 4).unwrap();
        let strict = HealthConfig::new(50, 1024, 4).unwrap();
        assert!(strict.rct_cutoff() > loose.rct_cutoff());
        assert!(strict.balance_cutoff(32_768) > loose.balance_cutoff(32_768));
    }

    #[test]
    fn config_rejects_out_of_range_parameters() {
        assert!(HealthConfig::new(3, 1024, 4).is_err());
        assert!(HealthConfig::new(61, 1024, 4).is_err());
        assert!(HealthConfig::new(40, 32, 4).is_err());
        assert!(HealthConfig::new(40, 1024, 9).is_err());
        assert!(HealthConfig::new(40, 1024, 0).is_ok());
    }

    #[test]
    fn healthy_taus88_raises_no_alarm_over_a_million_words() {
        let mut health = UrngHealth::default();
        let mut rng = Taus88::from_seed(2018);
        assert_eq!(feed_until_alarm(&mut health, &mut rng, 1_000_000), None);
        assert_eq!(health.words(), 1_000_000);
        assert!(!health.is_alarmed());
    }

    #[test]
    fn stuck_bit_trips_repetition_count_fast() {
        let mut health = UrngHealth::default();
        let mut src = StuckAtBits::new(Taus88::from_seed(5), 17, true);
        let alarm = feed_until_alarm(&mut health, &mut src, 10_000).expect("must trip");
        match alarm.test {
            HealthTest::RepetitionCount { bit, run } => {
                assert_eq!(bit, 17);
                assert_eq!(run, HealthConfig::default().rct_cutoff());
            }
            other => panic!("expected RCT trip, got {other:?}"),
        }
        // Cutoff is 41; the run can only start at word 0.
        assert!(
            alarm.word_index < 64,
            "latency {} too high",
            alarm.word_index
        );
    }

    #[test]
    fn broad_bias_trips_adaptive_proportion_within_one_window() {
        let mut health = UrngHealth::default();
        let mut src = BiasedBits::new(Taus88::from_seed(6), 64);
        let alarm = feed_until_alarm(&mut health, &mut src, 100_000).expect("must trip");
        // Strong bias also produces long same-value runs, so either windowed
        // APT or per-lane RCT may fire first; both are correct detections.
        assert!(
            alarm.word_index < 2 * u64::from(HealthConfig::default().apt_window()),
            "latency {} too high",
            alarm.word_index
        );
    }

    #[test]
    fn mild_bias_trips_apt_not_rct() {
        let mut health = UrngHealth::default();
        let mut src = BiasedBits::new(Taus88::from_seed(7), 16);
        let alarm = feed_until_alarm(&mut health, &mut src, 100_000).expect("must trip");
        assert!(
            matches!(alarm.test, HealthTest::AdaptiveProportion { .. }),
            "expected APT trip, got {:?}",
            alarm.test
        );
    }

    #[test]
    fn lag_correlated_source_trips_the_lag_test() {
        // Marginally uniform, so RCT and APT stay quiet — only the lag test
        // can see this fault.
        let mut health = UrngHealth::default();
        let mut src = CorrelatedBits::new(Taus88::from_seed(8), 2, 128);
        let alarm = feed_until_alarm(&mut health, &mut src, 100_000).expect("must trip");
        match alarm.test {
            HealthTest::LagCorrelation { lag, .. } => assert_eq!(lag, 2),
            other => panic!("expected lag trip, got {other:?}"),
        }
    }

    #[test]
    fn alarm_latches_until_reset() {
        let mut health = UrngHealth::default();
        let mut src = StuckAtBits::new(Taus88::from_seed(9), 0, false);
        let alarm = feed_until_alarm(&mut health, &mut src, 10_000).expect("must trip");
        // Further observations are refused with the same alarm, even for
        // perfectly healthy words.
        let err = health.observe(0x5555_AAAA).unwrap_err();
        assert_eq!(err, alarm);
        assert!(health.is_alarmed());

        health.reset();
        assert!(!health.is_alarmed());
        assert_eq!(health.words(), 0);
        let mut good = Taus88::from_seed(10);
        assert!(health.startup(&mut good).is_ok());
        assert_eq!(
            health.words(),
            u64::from(HealthConfig::default().startup_words())
        );
    }

    #[test]
    fn startup_on_a_faulty_source_fails() {
        let mut health = UrngHealth::default();
        let mut src = StuckAtBits::new(Taus88::from_seed(11), 4, true);
        assert!(health.startup(&mut src).is_err());
        assert!(health.is_alarmed());
    }

    #[test]
    fn alternating_words_do_not_trip_rct() {
        // Each lane flips every word: runs never exceed one, and ones stay
        // perfectly balanced. (The lag-2 test would catch this periodicity;
        // with lags enabled it trips as LagCorrelation, which is correct —
        // here we isolate the RCT by disabling lags.)
        let cfg = HealthConfig::new(40, 1024, 0).unwrap();
        let mut health = UrngHealth::new(cfg);
        for i in 0..10_000u32 {
            let word = if i % 2 == 0 { 0xAAAA_AAAA } else { 0x5555_5555 };
            assert!(health.observe(word).is_ok());
        }
    }

    #[test]
    fn constant_word_trips_every_lane_candidate() {
        let mut health = UrngHealth::default();
        let mut alarm = None;
        for _ in 0..100 {
            if let Err(a) = health.observe(0xDEAD_BEEF) {
                alarm = Some(a);
                break;
            }
        }
        let alarm = alarm.expect("constant stream must trip");
        assert!(matches!(alarm.test, HealthTest::RepetitionCount { .. }));
        assert_eq!(
            alarm.word_index,
            u64::from(HealthConfig::default().rct_cutoff()) - 1
        );
    }

    /// Per-bit scalar formulation of the monitor, kept verbatim as the
    /// reference the lane-parallel implementation must match word-for-word.
    struct ScalarHealth {
        cfg: HealthConfig,
        rct_cutoff: u32,
        apt_cutoff: u64,
        runs: [u32; 32],
        last: u32,
        history: [u32; 8],
        window_pos: u32,
        ones: u64,
        agreements: [u64; 8],
        lag_pairs: [u64; 8],
        words: u64,
        alarm: Option<HealthAlarm>,
    }

    impl ScalarHealth {
        fn new(cfg: HealthConfig) -> Self {
            ScalarHealth {
                cfg,
                rct_cutoff: cfg.rct_cutoff(),
                apt_cutoff: cfg.balance_cutoff(u64::from(cfg.apt_window) * 32),
                runs: [0; 32],
                last: 0,
                history: [0; 8],
                window_pos: 0,
                ones: 0,
                agreements: [0; 8],
                lag_pairs: [0; 8],
                words: 0,
                alarm: None,
            }
        }

        fn observe(&mut self, word: u32) -> Result<(), HealthAlarm> {
            if let Some(alarm) = self.alarm {
                return Err(alarm);
            }
            let index = self.words;
            if index == 0 {
                self.runs = [1; 32];
            } else {
                let same = !(word ^ self.last);
                for (bit, run) in self.runs.iter_mut().enumerate() {
                    if (same >> bit) & 1 == 1 {
                        *run += 1;
                        if *run >= self.rct_cutoff {
                            let alarm = HealthAlarm {
                                test: HealthTest::RepetitionCount {
                                    bit: bit as u8,
                                    run: *run,
                                },
                                word_index: index,
                            };
                            self.words += 1;
                            self.alarm = Some(alarm);
                            return Err(alarm);
                        }
                    } else {
                        *run = 1;
                    }
                }
            }
            self.last = word;
            self.ones += u64::from(word.count_ones());
            let max_lag = u64::from(self.cfg.max_lag);
            for lag in 1..=max_lag {
                if index >= lag {
                    let prev = self.history[((index - lag) % max_lag) as usize];
                    let slot = (lag - 1) as usize;
                    self.agreements[slot] += u64::from((!(word ^ prev)).count_ones());
                    self.lag_pairs[slot] += 32;
                }
            }
            if max_lag > 0 {
                self.history[(index % max_lag) as usize] = word;
            }
            self.words += 1;
            self.window_pos += 1;
            if self.window_pos == self.cfg.apt_window {
                if let Err(alarm) = self.close_window(index) {
                    self.alarm = Some(alarm);
                    return Err(alarm);
                }
            }
            Ok(())
        }

        fn close_window(&mut self, index: u64) -> Result<(), HealthAlarm> {
            let window_bits = u64::from(self.cfg.apt_window) * 32;
            let deviation = self.ones.abs_diff(window_bits / 2);
            if deviation >= self.apt_cutoff {
                return Err(HealthAlarm {
                    test: HealthTest::AdaptiveProportion {
                        ones: self.ones,
                        window_bits,
                    },
                    word_index: index,
                });
            }
            for lag in 1..=usize::from(self.cfg.max_lag) {
                let pairs = self.lag_pairs[lag - 1];
                if pairs == 0 {
                    continue;
                }
                let agreements = self.agreements[lag - 1];
                if agreements.abs_diff(pairs / 2) >= self.cfg.balance_cutoff(pairs) {
                    return Err(HealthAlarm {
                        test: HealthTest::LagCorrelation {
                            lag: lag as u8,
                            agreements,
                            window_bits: pairs,
                        },
                        word_index: index,
                    });
                }
            }
            self.ones = 0;
            self.agreements = [0; 8];
            self.lag_pairs = [0; 8];
            self.window_pos = 0;
            Ok(())
        }
    }

    #[test]
    fn lane_parallel_observe_matches_the_scalar_reference() {
        let configs = [
            HealthConfig::new(40, 64, 4).unwrap(),
            HealthConfig::new(4, 64, 8).unwrap(),
            HealthConfig::new(60, 128, 1).unwrap(),
            HealthConfig::new(20, 64, 0).unwrap(),
        ];
        // Streams covering the healthy path, every RCT trip shape, lag
        // correlation, broad bias, and pathological periodic words.
        let streams: Vec<Vec<u32>> = vec![
            Vec::new(),
            (0..4096).map(|_| 0xDEAD_BEEF).collect(),
            {
                let mut rng = Taus88::from_seed(11);
                (0..4096).map(|_| rng.next_u32()).collect()
            },
            {
                let mut src = StuckAtBits::new(Taus88::from_seed(13), 31, false);
                (0..4096).map(|_| src.next_u32()).collect()
            },
            {
                let mut src = StuckAtBits::new(Taus88::from_seed(17), 0, true);
                (0..4096).map(|_| src.next_u32()).collect()
            },
            {
                let mut src = CorrelatedBits::new(Taus88::from_seed(19), 2, 128);
                (0..4096).map(|_| src.next_u32()).collect()
            },
            {
                let mut src = BiasedBits::new(Taus88::from_seed(23), 48);
                (0..4096).map(|_| src.next_u32()).collect()
            },
            (0..4096u32)
                .map(|i| if i % 2 == 0 { 0xAAAA_AAAA } else { 0x5555_5555 })
                .collect(),
        ];
        for cfg in configs {
            for stream in &streams {
                let mut fast = UrngHealth::new(cfg);
                let mut scalar = ScalarHealth::new(cfg);
                for (i, &word) in stream.iter().enumerate() {
                    assert_eq!(
                        fast.observe(word),
                        scalar.observe(word),
                        "divergence at word {i} (cfg alpha_exp {})",
                        cfg.alpha_exp
                    );
                }
                assert_eq!(fast.words(), scalar.words);
                assert_eq!(fast.alarm().copied(), scalar.alarm);
            }
        }
    }
}
