//! Struct-of-arrays batch engine: N DP-Box devices advanced in lockstep.
//!
//! [`DeviceArray`] holds the registers of many devices as parallel columns
//! (staged noise, remaining budget, cached output) next to every lane's
//! URNG and health monitor as [`UrngColumns`], and advances every lane one
//! reporting epoch per [`DeviceArray::step`] in tight per-column loops.
//! Lanes that diverge from the common path — power-on self-test failure,
//! runtime health trip, budget halt — are moved past the active positions
//! so the hot loops stay dense.
//!
//! # One epoch
//!
//! 1. Lanes whose last restage tripped their monitor drop.
//! 2. **Release.** Each active lane noises its sensor value with its
//!    staged noise index through the shared context's release, the one
//!    the scalar device runs too: the saturating add, the word and window
//!    clamps, the overshoot past the range and its segment's charge are
//!    plain min/max and comparison arithmetic, with no data-dependent
//!    branch (the noise — Laplace of scale `d · 2^n_m` over a `d`-code
//!    range — lands on either side of each of those comparisons, so a
//!    branch on them is unpredictable).
//! 3. **Restage.** Every lane still active draws its next sample as word
//!    columns: one sign word, then one magnitude word (two when
//!    `Bu − 1 > 32`). [`UrngColumns::draw`] screens each column
//!    lane-parallel and replays only the lanes of a block in which one
//!    alarms through the scalar monitor, so every alarm is still built by
//!    [`UrngHealth::observe`](ulp_rng::UrngHealth::observe).
//!
//! Every lane shares one [`NoisingCtx`], built by the constructor the
//! scalar device builds its own with, after the checks
//! [`DpBox::boot`](crate::DpBox::boot) runs, in its command order. The
//! noise index of a magnitude word `m` is a pure function of `m` and that
//! context: for `Bu − 1 ≤ 16` it is read from one memoized table `k[m]` per
//! `(Bu − 1, CORDIC iterations, d_raw, n_m, word max)`, built once per
//! process; wider magnitudes evaluate it per draw. Both go through the one
//! noise function the scalar device evaluates per draw.
//!
//! # Bit-exactness contract
//!
//! The batch engine is **not** an approximation of
//! [`DpBox`](crate::DpBox): every lane reproduces, bit-for-bit, the trace a
//! scalar `DpBox` produces when booted through the fleet command sequence
//! ([`DpBox::boot`](crate::DpBox::boot)) on the lane's seed and then issued
//! one `noise_value(x)` per epoch. Equivalence holds because every URNG
//! word is drawn in the same order through the same continuous health
//! tests (the power-on self-test runs through [`UrngColumns::boot`]'s
//! self-test kernel, which writes each passing lane's monitor straight
//! into the columns and runs the scalar
//! [`UrngHealth::startup`](ulp_rng::UrngHealth::startup) only for a lane
//! it flags; later words go through [`UrngColumns::draw`]), the noise
//! index is the scalar device's own arithmetic (memoized or not), and the
//! per-epoch dataflow mirrors `DpBox::tick`'s cycle-2 branch structure:
//! budget check before staged-sample consumption, cached serves restage,
//! health trips void the staged sample and surface as a drop at the *next*
//! epoch. The array has no reset command, so a lane without an alarm
//! always holds a staged sample and has drawn as many words as every other
//! such lane.
//!
//! Only [`LimitMode::Thresholding`] is modelled — the fleet operating
//! point. Resampling-mode devices loop a data-dependent number of cycles
//! per output, which breaks lockstep; they stay on the scalar
//! [`DpBox`](crate::DpBox).

use std::sync::Arc;

use ldp_core::LimitMode;
use ulp_obs::{full_enabled, Counter, Histogram};
use ulp_rng::{CordicLn, HealthAlarm, HealthConfig, UrngColumns};

use crate::datapath::{
    budget_operand, cordic_neg_ln, eps_shift_operand, synthesize, word_operand, NoisingCtx,
};
use crate::error::DpBoxError;

/// Batch epochs advanced across all `DeviceArray`s, process-wide
/// (full metrics level only).
static BATCH_STEPS: Counter = Counter::new("dpbox.batch.steps");
/// Lanes compacted out of the active set (fault latch or budget halt),
/// process-wide (full metrics level only).
static LANE_DIVERGENCES: Counter = Counter::new("dpbox.batch.lane_divergences");
/// Active-lane count observed at each step (full metrics level only).
static ACTIVE_LANES: Histogram = Histogram::new("dpbox.batch.active_lanes", "lanes");

/// Magnitude widths up to this get a memoized noise-index table
/// (2^16 entries · 8 bytes = 512 KiB at the cap), built from the CORDIC's
/// ln grid in about 3 ms at the cap; wider magnitudes evaluate the CORDIC
/// per draw.
const MAX_MEMO_MAG_BITS: u8 = 16;

/// Static configuration of a [`DeviceArray`] — the union of the DP-Box
/// synthesis parameters and the boot-sequence operands every lane is
/// configured with (see [`DpBox::boot`](crate::DpBox::boot) for the exact
/// command sequence).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceArrayConfig {
    /// Datapath word width in bits.
    pub word_bits: u8,
    /// Fraction bits of the datapath grid (`Δ = 2^-frac_bits`).
    pub frac_bits: u8,
    /// URNG output width `Bu` (1 sign bit + `Bu−1` magnitude bits).
    pub bu: u8,
    /// CORDIC iterations of the logarithm array.
    pub cordic_iterations: u8,
    /// Loss multiples defining the budget segments.
    pub segment_multiples: Vec<f64>,
    /// Continuous health-test configuration (power-on self-test included).
    pub health: HealthConfig,
    /// Per-device privacy budget in raw grid units of nats
    /// (the initialization-phase `SetEpsilon` overload operand).
    pub budget_raw: i64,
    /// Privacy shift `n_m` (per-report ε = 2^−n_m).
    pub eps_shift: u8,
    /// Sensor range lower bound, raw grid units.
    pub range_lower: i64,
    /// Sensor range upper bound, raw grid units.
    pub range_upper: i64,
}

/// What one lane produced for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneOutcome {
    /// A fresh noised output: the budget was charged `charge` nats.
    Fresh {
        /// The released raw output word.
        y: i64,
        /// The ε charge recorded against the lane's budget.
        charge: f64,
    },
    /// The budget is exhausted: the cached output was replayed for free.
    Cached {
        /// The replayed raw output word.
        y: i64,
    },
    /// The lane stopped reporting: a latched health alarm or a budget halt
    /// with nothing cached — `DpBox::noise_value`'s two error paths.
    Dropped,
}

/// N DP-Box devices in thresholding mode, advanced one epoch at a time.
///
/// Construction boots every lane (power-on self-test + command sequence);
/// lanes whose self-test trips are excluded up front and never drawn from
/// again, exactly like a scalar device abandoned in [`crate::Phase::HealthFault`].
#[derive(Debug, Clone)]
pub struct DeviceArray {
    /// The noising context every lane shares.
    ctx: NoisingCtx,
    mag_bits: u8,
    /// The memoized noise-index table, for `mag_bits ≤ 16`.
    noise: Option<Arc<[i64]>>,
    cordic: CordicLn,
    /// Every lane's URNG and health monitor; positions
    /// `0..urng.active()` are on the common path.
    urng: UrngColumns,
    // Per-position register columns, in `urng`'s position order.
    lane_of: Vec<u32>,
    /// Staged signed noise index.
    staged_k: Vec<i64>,
    remaining: Vec<f64>,
    cache: Vec<i64>,
    cache_valid: Vec<bool>,
    /// Word columns reused by every restage.
    words: [Vec<u32>; 2],
    // Per-lane state.
    pos_of: Vec<u32>,
    excluded: Vec<bool>,
    /// Lanes whose last restage tripped their monitor: they drop at the
    /// next step, as a scalar device's next request is rejected.
    tripped: Vec<u32>,
}

impl DeviceArray {
    /// Boots `seeds.len()` lanes: per lane, a Tausworthe URNG from the
    /// seed, the power-on self-test, and the fleet boot sequence. Lanes
    /// failing the self-test are [excluded](DeviceArray::is_excluded).
    ///
    /// # Errors
    ///
    /// Configuration errors are the first one a scalar device returns from
    /// [`crate::DpBox::boot`] or its first request: the same checks, in the
    /// same order. [`DpBoxError::UrngHealthFault`] if a lane's monitor trips while
    /// staging its first sample — the scalar boot sequence fails on its
    /// next command there, so the array reports it as a boot failure too,
    /// with the alarm of the lowest such lane.
    pub fn new(cfg: &DeviceArrayConfig, seeds: &[u64]) -> Result<Self, DpBoxError> {
        // `DpBox::boot`'s checks, in command order: synthesis, then each
        // boot operand, then the noising context of the first request.
        let fmt = synthesize(
            cfg.word_bits,
            cfg.frac_bits,
            cfg.bu,
            cfg.cordic_iterations,
            &cfg.segment_multiples,
        )?;
        let budget = budget_operand(fmt, cfg.budget_raw)?;
        let eps_shift = eps_shift_operand(fmt, i64::from(cfg.eps_shift))?;
        word_operand(fmt, cfg.range_lower)?;
        word_operand(fmt, cfg.range_upper)?;
        let ctx = NoisingCtx::new(
            fmt,
            cfg.bu,
            &cfg.segment_multiples,
            eps_shift,
            cfg.range_lower,
            cfg.range_upper,
            LimitMode::Thresholding,
        )?;
        let mag_bits = cfg.bu - 1;
        let noise =
            (mag_bits <= MAX_MEMO_MAG_BITS).then(|| ctx.magnitude_table(cfg.cordic_iterations));

        // Power-on self-test of every lane in one lane-parallel pass.
        let lanes = seeds.len();
        let positions = u32::try_from(lanes)
            .map_err(|_| DpBoxError::InvalidConfig("at most 2^32 lanes per array"))?;
        let mut arr = DeviceArray {
            ctx,
            mag_bits,
            noise,
            cordic: CordicLn::new(cfg.cordic_iterations),
            urng: UrngColumns::boot(cfg.health, seeds),
            lane_of: (0..positions).collect(),
            staged_k: vec![0; lanes],
            remaining: vec![budget; lanes],
            cache: vec![0; lanes],
            cache_valid: vec![false; lanes],
            words: [Vec::with_capacity(lanes), Vec::with_capacity(lanes)],
            pos_of: (0..positions).collect(),
            excluded: vec![false; lanes],
            tripped: Vec::new(),
        };
        // A power-on self-test trip: the scalar driver abandons the device
        // before any further draw.
        for pos in (0..lanes).rev() {
            if arr.urng.alarm(pos).is_some() {
                arr.excluded[arr.lane_of[pos] as usize] = true;
                arr.retire(pos);
            }
        }
        // `StartNoising` (init): freeze the budget, stage a sample. A trip
        // fails the scalar boot's next command with the alarm — at the
        // lowest tripping lane, as the scalar engine boots in lane order.
        arr.restage();
        if let Some(&lane) = arr.tripped.iter().min() {
            let alarm = arr.health_alarm(lane as usize);
            let alarm = alarm.expect("a tripped lane holds its alarm");
            return Err(DpBoxError::UrngHealthFault(alarm));
        }
        Ok(arr)
    }

    /// Number of lanes (booted devices), including excluded ones.
    fn lanes(&self) -> usize {
        self.lane_of.len()
    }

    /// Lanes still on the common path.
    pub fn active_lanes(&self) -> usize {
        self.urng.active()
    }

    /// Whether the lane's power-on self-test tripped (it never reported).
    pub fn is_excluded(&self, lane: usize) -> bool {
        self.excluded[lane]
    }

    /// The lane's latched health alarm, if any; `None` for an
    /// [excluded](Self::is_excluded) lane, which never reported.
    pub fn health_alarm(&self, lane: usize) -> Option<HealthAlarm> {
        if self.excluded[lane] {
            return None;
        }
        self.urng.alarm(self.pos_of[lane] as usize)
    }

    /// Remaining privacy budget of the lane, nats.
    pub fn remaining_budget(&self, lane: usize) -> f64 {
        self.remaining[self.pos_of[lane] as usize]
    }

    /// Moves the lane at active position `pos` off the common path,
    /// mirroring [`UrngColumns::retire`]'s swap in every position column.
    fn retire(&mut self, pos: usize) {
        let last = self.urng.retire(pos);
        self.lane_of.swap(pos, last);
        self.staged_k.swap(pos, last);
        self.remaining.swap(pos, last);
        self.cache.swap(pos, last);
        self.cache_valid.swap(pos, last);
        for p in [pos, last] {
            self.pos_of[self.lane_of[p] as usize] = p as u32;
        }
    }

    /// Draws and stages every active lane's next sample —
    /// `DpBox::stage_sample`, with the noise index taken at once (it is a
    /// pure function of the staged words, so the timing is invisible). A
    /// lane whose monitor trips latches its alarm and voids the sample;
    /// its words are still drawn.
    fn restage(&mut self) {
        let n = self.urng.active();
        let [words, low] = &mut self.words;
        words.resize(n, 0);
        let mut tripped = self.urng.draw(words);
        // Stage the sign (1 = negative) until the magnitude arrives.
        for (k, &w) in self.staged_k.iter_mut().zip(words.iter()) {
            *k = i64::from(w >> 31);
        }
        tripped |= self.urng.draw(words);
        let mag_bits = u32::from(self.mag_bits);
        if mag_bits > 32 {
            // Two magnitude words, high bits first.
            low.resize(n, 0);
            tripped |= self.urng.draw(low);
        }
        let staged = self.staged_k[..n].iter_mut().zip(words.iter());
        match &self.noise {
            Some(table) => {
                for (k, &w) in staged {
                    let mag = table[(w >> (32 - mag_bits)) as usize];
                    *k = if *k == 1 { -mag } else { mag };
                }
            }
            None => {
                for (i, (k, &w)) in staged.enumerate() {
                    let m = if mag_bits <= 32 {
                        u64::from(w) >> (32 - mag_bits)
                    } else {
                        ((u64::from(w) << 32) | u64::from(low[i])) >> (64 - mag_bits)
                    } + 1;
                    let neg_ln = cordic_neg_ln(&self.cordic, self.mag_bits, m);
                    *k = self.ctx.noise_k(*k == 1, neg_ln);
                }
            }
        }
        if tripped {
            // Lanes alarmed earlier left the active positions at their
            // next step, so every alarm among them is new.
            let alarmed = (0..n).filter(|&pos| self.urng.alarm(pos).is_some());
            self.tripped.extend(alarmed.map(|pos| self.lane_of[pos]));
        }
    }

    /// Advances every active lane one reporting epoch: the equivalent of
    /// issuing `noise_value(xs[lane])` on a scalar device per lane.
    ///
    /// `out` is resized to one entry per lane and every entry
    /// overwritten: active lanes get their epoch outcome; excluded and
    /// previously-diverged lanes read [`LaneOutcome::Dropped`] (a scalar
    /// device in those states rejects the request). Lanes that return
    /// `Dropped` are compacted out of the active set.
    pub fn step(&mut self, xs: &[i64], out: &mut Vec<LaneOutcome>) {
        assert_eq!(xs.len(), self.lanes(), "one sensor value per lane");
        if full_enabled() {
            BATCH_STEPS.inc();
            ACTIVE_LANES.record(self.active_lanes() as u64);
        }
        out.clear();
        out.resize(self.lanes(), LaneOutcome::Dropped);
        // `SetSensorValue` in the fault phase is rejected: the drop from a
        // restage trip surfaces at the next epoch — here.
        let mut divergences = self.tripped.len();
        while let Some(lane) = self.tripped.pop() {
            self.retire(self.pos_of[lane as usize] as usize);
        }
        // `tick` cycle 2: budget gate before sample consumption.
        let mut halted = false;
        let n = self.urng.active();
        let release = self.ctx.release();
        for pos in 0..n {
            let lane = self.lane_of[pos] as usize;
            let y = release.output(xs[lane], self.staged_k[pos]);
            let charge = release.charge(y);
            if self.remaining[pos] > 0.0 {
                self.remaining[pos] -= charge;
                self.cache[pos] = y;
                self.cache_valid[pos] = true;
                out[lane] = LaneOutcome::Fresh { y, charge };
            } else if self.cache_valid[pos] {
                // `finish(cached, true)`: a free replay, then a restage.
                out[lane] = LaneOutcome::Cached { y: self.cache[pos] };
            } else {
                // Halt with nothing cached: `BudgetExhausted`.
                halted = true;
            }
        }
        if halted {
            for pos in (0..n).rev() {
                if self.remaining[pos] <= 0.0 && !self.cache_valid[pos] {
                    self.retire(pos);
                    divergences += 1;
                }
            }
        }
        // `finish`: every lane that reported restages on re-entering
        // waiting.
        self.restage();
        if divergences > 0 && full_enabled() {
            LANE_DIVERGENCES.add(divergences as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpBox, DpBoxError};
    use ulp_fixed::QFormat;
    use ulp_rng::Taus88;

    fn fleet_array_config() -> DeviceArrayConfig {
        DeviceArrayConfig {
            word_bits: 20,
            frac_bits: 0,
            bu: 17,
            cordic_iterations: 24,
            segment_multiples: vec![1.5, 2.0, 2.5, 3.0],
            health: HealthConfig::new(40, 64, 4).unwrap(),
            budget_raw: 2,
            eps_shift: 1,
            range_lower: 0,
            range_upper: 256,
        }
    }

    #[test]
    fn lanes_match_scalar_devices_through_budget_exhaustion() {
        let cfg = fleet_array_config();
        let seeds: Vec<u64> = (0..16).map(|i| 0x5EED + i * 7919).collect();
        let mut array = DeviceArray::new(&cfg, &seeds).unwrap();
        let xs: Vec<i64> = (0..16).map(|i| (i * 16) as i64).collect();
        let mut out = Vec::new();
        // budget_raw = 2 nats at ~0.5 nats/report: a handful of fresh
        // epochs, then cached serves — both paths exercised.
        for _epoch in 0..12 {
            array.step(&xs, &mut out);
        }
        for (lane, &seed) in seeds.iter().enumerate() {
            let dev = DpBox::boot(&cfg, Taus88::from_seed(seed)).unwrap();
            assert_eq!(
                dev.is_none(),
                array.is_excluded(lane),
                "lane {lane} exclusion"
            );
            let Some(mut dev) = dev else {
                continue;
            };
            let mut array_clone = DeviceArray::new(&cfg, &seeds).unwrap();
            for epoch in 0..12 {
                array_clone.step(&xs, &mut out);
                match dev.noise_value(xs[lane]) {
                    Ok((y, _)) => {
                        let matches = matches!(
                            out[lane],
                            LaneOutcome::Fresh { y: ay, .. } | LaneOutcome::Cached { y: ay }
                                if ay == y
                        );
                        assert!(
                            matches,
                            "lane {lane} epoch {epoch}: scalar {y}, array {:?}",
                            out[lane]
                        );
                    }
                    Err(_) => {
                        assert_eq!(out[lane], LaneOutcome::Dropped, "lane {lane} epoch {epoch}");
                        break;
                    }
                }
                assert_eq!(
                    dev.remaining_budget().to_bits(),
                    array_clone.remaining_budget(lane).to_bits(),
                    "lane {lane} epoch {epoch} budget"
                );
            }
        }
    }

    #[test]
    fn fresh_then_cached_charges_once() {
        let cfg = DeviceArrayConfig {
            budget_raw: 1,
            ..fleet_array_config()
        };
        let mut array = DeviceArray::new(&cfg, &[42]).unwrap();
        assert!(!array.is_excluded(0));
        let mut out = Vec::new();
        array.step(&[100], &mut out);
        let LaneOutcome::Fresh { y: y0, charge } = out[0] else {
            panic!("first epoch must be fresh, got {:?}", out[0]);
        };
        assert!(charge > 0.0);
        // ~0.5 nats/report against a 1-nat budget: fresh until the budget
        // crosses zero, cached (same y, no charge) from then on.
        let mut last_fresh_y = Some(y0);
        for _ in 0..8 {
            array.step(&[100], &mut out);
            match out[0] {
                LaneOutcome::Fresh { y, .. } => {
                    last_fresh_y = Some(y);
                    assert!(array.remaining_budget(0) < 1.0);
                }
                LaneOutcome::Cached { y } => {
                    assert!(
                        array.remaining_budget(0) <= 0.0,
                        "cached only after spend-down"
                    );
                    assert_eq!(Some(y), last_fresh_y, "cache replays the last fresh output");
                }
                LaneOutcome::Dropped => panic!("healthy lane must not drop"),
            }
        }
        assert!(array.remaining_budget(0) <= 0.0, "budget spent by epoch 9");
        array.step(&[100], &mut out);
        assert!(matches!(out[0], LaneOutcome::Cached { .. }));
        assert_eq!(array.active_lanes(), 1, "cached lanes stay active");
    }

    #[test]
    fn aggressive_health_config_excludes_and_diverges_lanes() {
        // α = 4: trips are common on a healthy Tausworthe, so both the
        // startup-exclusion and the mid-stream divergence paths fire
        // across a modest seed sweep — and each must match the scalar FSM.
        let cfg = DeviceArrayConfig {
            health: HealthConfig::new(4, 64, 4).unwrap(),
            budget_raw: 1 << 18,
            ..fleet_array_config()
        };
        let seeds: Vec<u64> = (0..64).collect();
        let array = match DeviceArray::new(&cfg, &seeds) {
            Ok(a) => a,
            Err(DpBoxError::UrngHealthFault(_)) => {
                // A lane tripped while staging its boot sample; the scalar
                // boot fails there too. Covered by the proptest suite.
                return;
            }
            Err(e) => panic!("unexpected boot error: {e}"),
        };
        let mut excluded = 0;
        for (lane, &seed) in seeds.iter().enumerate() {
            let dev = DpBox::boot(&cfg, Taus88::from_seed(seed)).unwrap();
            assert_eq!(dev.is_none(), array.is_excluded(lane));
            excluded += usize::from(array.is_excluded(lane));
        }
        assert!(excluded > 0, "α = 3 must exclude some lanes at startup");
    }

    #[test]
    fn config_validation_mirrors_the_scalar_device() {
        // The first error a scalar device on the same configuration
        // returns: from `DpBox::boot`, or from its first request, where the
        // noising context is built (a range-order error and an oversized
        // noise support surface only there).
        let scalar_error = |cfg: &DeviceArrayConfig| match DpBox::boot(cfg, Taus88::from_seed(1)) {
            Err(e) => Some(e),
            Ok(dev) => dev
                .expect("seed 1 passes the self-test")
                .noise_value(100)
                .err(),
        };
        let good = fleet_array_config();
        assert!(DeviceArray::new(&good, &[1]).is_ok());
        assert_eq!(scalar_error(&good), None);
        type Mutation = fn(&mut DeviceArrayConfig);
        let mutations: [(&str, Mutation); 12] = [
            ("Bu", |c| c.bu = 2),
            ("budget", |c| c.budget_raw = 0),
            ("multiples", |c| c.segment_multiples = vec![]),
            ("NaN multiple", |c| {
                c.segment_multiples = vec![f64::NAN, 2.0]
            }),
            ("0 CORDIC iterations", |c| c.cordic_iterations = 0),
            ("41 CORDIC iterations", |c| c.cordic_iterations = 41),
            ("shift", |c| c.eps_shift = 21),
            ("range", |c| (c.range_lower, c.range_upper) = (10, 10)),
            ("budget word", |c| c.budget_raw = 1 << 30),
            ("range word", |c| c.range_upper = 1 << 19),
            ("shift past a narrower word", |c| {
                (c.word_bits, c.eps_shift) = (12, 13)
            }),
            ("noise support", |c| {
                (c.word_bits, c.eps_shift, c.range_upper) = (40, 40, 1 << 38);
            }),
        ];
        for (what, mutate) in mutations {
            let mut cfg = fleet_array_config();
            mutate(&mut cfg);
            let err = DeviceArray::new(&cfg, &[1]).err();
            assert!(err.is_some(), "bad {what} must be rejected");
            assert_eq!(err, scalar_error(&cfg), "bad {what}: the engines disagree");
        }
    }

    #[test]
    fn an_oversized_noise_support_is_refused_before_allocating() {
        // λ = 2^38 · 2^40 over a 40-bit word: a noise support of 2^39
        // magnitudes, whose PMF would take terabytes. Both engines refuse
        // the configuration from its width alone.
        let cfg = DeviceArrayConfig {
            word_bits: 40,
            eps_shift: 40,
            range_upper: 1 << 38,
            ..fleet_array_config()
        };
        let refused = |e| matches!(e, DpBoxError::Rng(ulp_rng::RngError::InvalidConfig(_)));
        assert!(DeviceArray::new(&cfg, &[1]).is_err_and(refused));
        let mut dev = DpBox::boot(&cfg, Taus88::from_seed(1)).unwrap().unwrap();
        assert!(dev.noise_value(100).is_err_and(refused));
    }

    #[test]
    fn branch_free_release_matches_the_segment_table() {
        let fmt = QFormat::new(20, 0).unwrap();
        let configs = [(1, vec![1.5, 2.0, 2.5, 3.0]), (0, vec![1.1, 4.0])];
        for mode in [LimitMode::Thresholding, LimitMode::Resampling] {
            for (eps_shift, multiples) in &configs {
                let ctx = NoisingCtx::new(fmt, 17, multiples, *eps_shift, 0, 256, mode).unwrap();
                let (release, table) = (ctx.release(), ctx.table());
                let n_th = table.outermost().0;
                let (lo, hi) = (-n_th, 256 + n_th);
                // Every output class, both window edges, and past them.
                for y in lo - 3..=hi + 3 {
                    let overshoot = if y < 0 {
                        -y
                    } else if y > 256 {
                        y - 256
                    } else {
                        0
                    };
                    assert_eq!(
                        release.charge(y).to_bits(),
                        table.charge_for_overshoot(overshoot).to_bits(),
                        "{mode:?}, y = {y}"
                    );
                }
                // The window clamp, saturation at the word and of the add,
                // and the resampling acceptance test.
                for (x, k) in [
                    (100, 5),
                    (0, -n_th - 9),
                    (256, n_th + 9),
                    (0, -n_th),
                    (256, n_th),
                    (0, i64::MIN),
                    (i64::MAX, 7),
                ] {
                    let tmp = x.saturating_add(k).clamp(fmt.min_raw(), fmt.max_raw());
                    let in_window = (lo..=hi).contains(&tmp);
                    let y = if in_window { tmp } else { tmp.clamp(lo, hi) };
                    assert_eq!(release.output(x, k), y, "{mode:?}, x = {x}, k = {k}");
                    assert_eq!(
                        release.in_window(x, k),
                        in_window,
                        "{mode:?}, x = {x}, k = {k}"
                    );
                }
            }
        }
    }

    /// A GF(2) system over the 88 significant state bits of one Taus88
    /// generator (`s1` bits 1–31, `s2` bits 3–31, `s3` bits 4–31; the rest
    /// never reach an output), grown one equation at a time.
    struct Gf2 {
        /// `rows[b]`: the row whose lowest variable is `b`, as (variables,
        /// right-hand side); its other variables are all above `b`.
        rows: [Option<(u128, bool)>; 88],
        rank: usize,
    }

    impl Gf2 {
        fn new() -> Gf2 {
            Gf2 {
                rows: [None; 88],
                rank: 0,
            }
        }

        /// Adds `vars · state = rhs`; false if it contradicts the rows.
        fn add(&mut self, mut vars: u128, mut rhs: bool) -> bool {
            while vars != 0 {
                let b = vars.trailing_zeros() as usize;
                match self.rows[b] {
                    Some((row, r)) => {
                        vars ^= row;
                        rhs ^= r;
                    }
                    None => {
                        self.rows[b] = Some((vars, rhs));
                        self.rank += 1;
                        return true;
                    }
                }
            }
            !rhs
        }

        /// The state bits, once all 88 are pinned.
        fn solve(&self) -> u128 {
            assert_eq!(self.rank, 88);
            let mut state = 0u128;
            for b in (0..88).rev() {
                let (row, rhs) = self.rows[b].unwrap();
                let rest = (row & !(1 << b) & state).count_ones() & 1 == 1;
                state |= u128::from(rhs ^ rest) << b;
            }
            state
        }
    }

    /// A 32-bit word whose bit `i` is the XOR of the state bits in `w[i]`.
    type Word = [u128; 32];

    fn shl(w: &Word, n: usize) -> Word {
        std::array::from_fn(|i| if i >= n { w[i - n] } else { 0 })
    }

    fn shr(w: &Word, n: usize) -> Word {
        std::array::from_fn(|i| if i + n < 32 { w[i + n] } else { 0 })
    }

    fn xor(a: &Word, b: &Word) -> Word {
        std::array::from_fn(|i| a[i] ^ b[i])
    }

    fn and(w: &Word, mask: u32) -> Word {
        std::array::from_fn(|i| if mask >> i & 1 == 1 { w[i] } else { 0 })
    }

    /// Taus88 over symbolic words: L'Ecuyer's step, as `next_state`.
    struct SymbolicTaus88([Word; 3]);

    impl SymbolicTaus88 {
        /// The unknown state: one variable per significant bit.
        fn unknown() -> SymbolicTaus88 {
            let mut next = 0;
            let mut component = |low: usize| -> Word {
                std::array::from_fn(|i| {
                    if i < low {
                        return 0;
                    }
                    next += 1;
                    1u128 << (next - 1)
                })
            };
            SymbolicTaus88([component(1), component(3), component(4)])
        }

        fn next_word(&mut self) -> Word {
            let [s1, s2, s3] = &self.0;
            let b1 = shr(&xor(&shl(s1, 13), s1), 19);
            let b2 = shr(&xor(&shl(s2, 2), s2), 25);
            let b3 = shr(&xor(&shl(s3, 3), s3), 11);
            self.0 = [
                xor(&shl(&and(s1, 0xFFFF_FFFE), 12), &b1),
                xor(&shl(&and(s2, 0xFFFF_FFF8), 4), &b2),
                xor(&shl(&and(s3, 0xFFFF_FFF0), 17), &b3),
            ];
            let [s1, s2, s3] = &self.0;
            xor(&xor(s1, s2), s3)
        }
    }

    /// What the collector knows of a device: the public configuration,
    /// the k[m] table and the window, never the URNG stream.
    struct Collector {
        /// Per noise magnitude, the indices `m` with `k[m]` equal to it:
        /// an interval, the table being monotone.
        magnitudes: std::collections::HashMap<i64, (u32, u32)>,
        window: (i64, i64),
    }

    impl Collector {
        fn of(array: &DeviceArray) -> Collector {
            let table = array.noise.as_ref().expect("Bu 17 memoizes its table");
            let mut magnitudes = std::collections::HashMap::new();
            for (m, &k) in (0u32..).zip(table.iter()) {
                let (_, hi) = magnitudes.entry(k).or_insert((m, m));
                // The table is monotone: equal entries are adjacent.
                assert!(*hi == m || *hi + 1 == m, "k[m] is monotone");
                *hi = m;
            }
            Collector {
                magnitudes,
                window: array.ctx.window(),
            }
        }

        /// Adds what output `y` of input `x` says about the epoch's two
        /// words: the sign is the top bit of the first, and `m`, the top 16
        /// bits of the second, shares the high bits of its interval. False
        /// if the system becomes inconsistent; a clamped `y` says nothing.
        fn observe(&self, gf2: &mut Gf2, [sign, index]: &[Word; 2], x: i64, y: i64) -> bool {
            if y <= self.window.0 || y >= self.window.1 {
                return true;
            }
            let k = y - x;
            let Some(&(lo, hi)) = self.magnitudes.get(&k.abs()) else {
                return false;
            };
            let mut consistent = k == 0 || gf2.add(sign[31], k < 0);
            let common = (lo ^ hi).leading_zeros().saturating_sub(16);
            for j in (16 - common..16).map(|j| j as usize) {
                consistent &= gf2.add(index[16 + j], lo >> j & 1 == 1);
            }
            consistent
        }
    }

    /// Each lane's released outputs over `epochs` epochs of inputs `xs`.
    fn released(
        array: &mut DeviceArray,
        epochs: usize,
        xs: impl Fn(usize, usize) -> i64,
    ) -> Vec<Vec<i64>> {
        let lanes = array.lanes();
        let mut ys = vec![Vec::new(); lanes];
        let mut out = Vec::new();
        for e in 0..epochs {
            let inputs: Vec<i64> = (0..lanes).map(|lane| xs(lane, e)).collect();
            array.step(&inputs, &mut out);
            for (lane, o) in out.iter().enumerate() {
                match *o {
                    LaneOutcome::Fresh { y, .. } => ys[lane].push(y),
                    _ if array.is_excluded(lane) => {}
                    other => panic!("lane {lane} epoch {e}: {other:?}: the budget never binds"),
                }
            }
        }
        ys
    }

    /// The symbolic words of `epochs` epochs, two per epoch, from the state
    /// after the power-on self-test.
    fn epoch_words(epochs: usize) -> Vec<[Word; 2]> {
        let mut taus = SymbolicTaus88::unknown();
        (0..epochs)
            .map(|_| [taus.next_word(), taus.next_word()])
            .collect()
    }

    fn value(word: &Word, state: u128) -> u32 {
        (0..32).fold(0, |v, i| v | ((word[i] & state).count_ones() & 1) << i)
    }

    /// The collector alone recovers a device's Taus88 state from its
    /// released outputs, then reads its later inputs exactly. This pins an
    /// open defect: Taus88 is linear over GF(2), so the 88 state bits the
    /// device's noise depends on are a linear system the releases fill in.
    /// When the generator is replaced by a nonlinear one, recovery must
    /// fail and these assertions flip.
    #[test]
    fn the_collector_recovers_the_urng_state_from_released_outputs() {
        let cfg = DeviceArrayConfig {
            budget_raw: (1 << 19) - 1,
            ..fleet_array_config()
        };
        let seeds: Vec<u64> = (0..256).map(|i| 0xA77AC4 + i).collect();
        let withheld = 200;

        // Known inputs: each epoch's x is known to the attacker.
        let known = |lane: usize, e: usize| ((lane * 7919 + e * 104_729) % 257) as i64;
        let mut array = DeviceArray::new(&cfg, &seeds).unwrap();
        let collector = Collector::of(&array);
        let epochs = 32 + withheld;
        let ys = released(&mut array, epochs, known);
        let words = epoch_words(epochs);
        let (mut pinned_at, mut read) = (Vec::new(), 0);
        for (lane, ys) in ys.iter().enumerate().filter(|(_, ys)| !ys.is_empty()) {
            let mut gf2 = Gf2::new();
            let mut e = 0;
            while gf2.rank < 88 {
                assert!(collector.observe(&mut gf2, &words[e], known(lane, e), ys[e]));
                e += 1;
            }
            pinned_at.push(e);
            // The next inputs, withheld from the solver, read from y.
            let state = gf2.solve();
            for later in e..e + withheld {
                let y = ys[later];
                if y <= collector.window.0 || y >= collector.window.1 {
                    continue;
                }
                let [sign, index] = &words[later];
                let table = array.noise.as_ref().unwrap();
                let magnitude = table[(value(index, state) >> 16) as usize];
                let k = if value(sign, state) >> 31 == 1 {
                    -magnitude
                } else {
                    magnitude
                };
                assert_eq!(y - k, known(lane, later), "lane {lane} epoch {later}");
                read += 1;
            }
        }
        assert!(pinned_at.len() > 250, "{} lanes booted", pinned_at.len());
        let (first, last) = (pinned_at.iter().min(), pinned_at.iter().max());
        assert_eq!(
            (first, last),
            (Some(&9), Some(&14)),
            "epochs to pin the state"
        );
        // 50,715 of them here: every unclamped output of 200 epochs.
        assert!(read > 50_000, "{read} later inputs read");

        // Constant inputs, as the fleet's `codes_k[id]`: of the 257
        // candidate x, only the true one leaves the system consistent.
        let constant = |lane: usize, _: usize| ((lane * 97) % 257) as i64;
        let epochs = 24;
        let mut array = DeviceArray::new(&cfg, &seeds).unwrap();
        let ys = released(&mut array, epochs, constant);
        let words = epoch_words(epochs);
        let mut decided_at = Vec::new();
        for (lane, ys) in ys.iter().enumerate().filter(|(_, ys)| !ys.is_empty()) {
            let mut last_refuted = 0;
            for x in 0..=256 {
                let mut gf2 = Gf2::new();
                let refuted =
                    (0..epochs).find(|&e| !collector.observe(&mut gf2, &words[e], x, ys[e]));
                if x == constant(lane, 0) {
                    assert_eq!(refuted, None, "lane {lane}: the true x is consistent");
                } else {
                    let e = refuted.unwrap_or_else(|| panic!("lane {lane}: x = {x} survives"));
                    last_refuted = last_refuted.max(e + 1);
                }
            }
            decided_at.push(last_refuted);
        }
        let (first, last) = (decided_at.iter().min(), decided_at.iter().max());
        assert_eq!(
            (first, last),
            (Some(&11), Some(&16)),
            "epochs to single out x"
        );
    }
}
