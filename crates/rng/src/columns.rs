//! Many monitored Tausworthe URNGs advanced in lockstep, as columns
//! ([`UrngColumns`]).

use core::ops::{BitAnd, BitOr, BitXor, Not};

use crate::health::VERDICTS_OK;
use crate::health::{step_runs, Bits, HealthAlarm, HealthConfig, UrngHealth, RUN_PLANES};
use crate::tausworthe::{next_state, Taus88};

/// Lanes per block: a block's columns are `[u32; LANES]` arrays, which the
/// compiler keeps in vector registers.
const LANES: usize = 8;

/// Ring capacity: the newest word plus up to 8 earlier ones for the lags.
const RING: usize = 9;

/// Lanes booted per [`UrngHealth::startup_lanes`] call.
const BOOT_BATCH: usize = 256;

/// One 32-bit word per lane of a block, with lane-wise bitwise operators,
/// so [`step_runs`] runs on a block exactly as on one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Lanes([u32; LANES]);

impl Lanes {
    #[inline(always)]
    fn map(mut self, f: impl Fn(u32) -> u32) -> Lanes {
        for a in &mut self.0 {
            *a = f(*a);
        }
        self
    }

    #[inline(always)]
    fn zip(mut self, other: Lanes, f: impl Fn(u32, u32) -> u32) -> Lanes {
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a = f(*a, b);
        }
        self
    }
}

impl BitAnd for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn bitand(self, rhs: Lanes) -> Lanes {
        self.zip(rhs, |a, b| a & b)
    }
}

impl BitOr for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn bitor(self, rhs: Lanes) -> Lanes {
        self.zip(rhs, |a, b| a | b)
    }
}

impl BitXor for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn bitxor(self, rhs: Lanes) -> Lanes {
        self.zip(rhs, |a, b| a ^ b)
    }
}

impl Not for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn not(self) -> Lanes {
        self.map(|a| !a)
    }
}

impl Bits for Lanes {
    const ONES: Lanes = Lanes([!0; LANES]);
}

/// The columns of [`LANES`] lanes.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Taus88 component states.
    s: [Lanes; 3],
    /// Bit-sliced run counters ([`UrngHealth`]'s `runs`).
    runs: [Lanes; RUN_PLANES],
    /// The newest words: slot [`UrngColumns::head`] holds the last word
    /// observed, the slots before it (cyclically) the earlier ones.
    ring: [Lanes; RING],
    /// Ones in the current window.
    ones: Lanes,
    /// Agreements per lag in the current window.
    agreements: [Lanes; 8],
    /// All ones for a lane whose words are observed: active, no alarm.
    live: Lanes,
}

impl Block {
    /// Every column of the block.
    fn columns(&mut self) -> impl Iterator<Item = &mut Lanes> {
        let Block {
            s,
            runs,
            ring,
            ones,
            agreements,
            live,
        } = self;
        s.iter_mut()
            .chain(runs)
            .chain(ring)
            .chain([ones])
            .chain(agreements)
            .chain([live])
    }
}

/// Every lane's [`Taus88`] generator and [`UrngHealth`] monitor as
/// structure-of-arrays columns, in blocks of eight lanes, drawing one word
/// per active lane per [`draw`](Self::draw).
///
/// Each word column is screened lane-parallel, exactly as
/// [`UrngHealth::observe`] would judge each word:
///
/// * the repetition count runs on bit-sliced run counters, the arithmetic
///   the scalar monitor uses, applied to a whole block of lanes at once;
/// * the window's ones and lag agreements are per-lane sums;
/// * every live lane has observed the same number of words, so a window
///   closes for the whole column at once.
///
/// A block that screens clean commits its new state. A block in which a
/// live lane alarms keeps its old state, and each of its live lanes
/// replays the word through the scalar `observe`, on a monitor
/// materialized from its columns: every [`HealthAlarm`] is built by that
/// one code path, and the replayed state goes back into the columns.
///
/// Verdicts, alarms, generator streams and the `rng.taus88.words_drawn`,
/// `rng.health.verdicts_ok` and `rng.health.alarms` counter deltas are
/// bit-identical to drawing each lane's words one at a time through its
/// own generator and monitor, observing each word until the lane's first
/// alarm.
///
/// Lanes sit at positions; the first [`active`](Self::active) positions
/// draw. [`retire`](Self::retire) moves a lane past them for good, so the
/// draw loops stay dense.
#[derive(Debug, Clone)]
pub struct UrngColumns {
    cfg: HealthConfig,
    /// [`UrngHealth`]'s cutoff planes, one copy per lane of a block.
    cut: [Lanes; RUN_PLANES],
    /// Balance cutoff of a full window (APT and every lag).
    window_cutoff: u32,
    /// `32 · apt_window / 2`: the balanced count of a full window.
    half: u32,
    /// Lags monitored.
    lags: usize,
    /// Ring slots in use: the lags' words plus the newest.
    ring_len: usize,
    /// Ring slot of the last word observed.
    head: usize,
    blocks: Vec<Block>,
    active: usize,
    /// Words every live lane has observed.
    words: u64,
    /// Words into the current window, for every live lane.
    window_pos: u32,
    /// Each position's latched alarm.
    alarms: Vec<Option<HealthAlarm>>,
    /// Active positions with a latched alarm.
    latched: usize,
    /// Blocks of the current draw that screened an alarm, reused by every
    /// draw.
    flagged: Vec<usize>,
}

impl UrngColumns {
    /// Boots one lane per seed: a [`Taus88::from_seed`] generator and a
    /// fresh monitor of `cfg`, through the power-on self-test
    /// ([`UrngHealth::startup`]) run by the lane-parallel
    /// [`UrngHealth::startup_lanes`] kernel, which hands each end state to
    /// the columns. Every lane is active; a lane whose self-test tripped
    /// holds its [`alarm`](Self::alarm) and draws unobserved.
    pub fn boot(cfg: HealthConfig, seeds: &[u64]) -> Self {
        let window = cfg.apt_window();
        let lags = usize::from(cfg.max_lag());
        let fresh = UrngHealth::new(cfg);
        let mut columns = UrngColumns {
            cfg,
            cut: fresh.cut.map(|plane| Lanes([plane; LANES])),
            window_cutoff: u32::try_from(fresh.apt_cutoff).expect("cutoff below the window's bits"),
            half: 16 * window,
            lags,
            ring_len: lags.max(1) + 1,
            head: 0,
            blocks: vec![Block::default(); seeds.len().div_ceil(LANES)],
            active: seeds.len(),
            words: u64::from(cfg.startup_words()),
            window_pos: 0,
            alarms: vec![None; seeds.len()],
            latched: 0,
            flagged: Vec::new(),
        };
        let (mut rngs, mut monitors) = (Vec::new(), Vec::new());
        for (batch, seeds) in seeds.chunks(BOOT_BATCH).enumerate() {
            rngs.clear();
            rngs.extend(seeds.iter().map(|&seed| Taus88::from_seed(seed)));
            monitors.clear();
            monitors.resize(seeds.len(), fresh.clone());
            UrngHealth::startup_lanes(&mut rngs, &mut monitors);
            for (i, (rng, monitor)) in rngs.iter().zip(&monitors).enumerate() {
                columns.install(batch * BOOT_BATCH + i, rng, monitor);
            }
        }
        columns
    }

    /// Puts a booted lane at `pos`: its generator, and its monitor just
    /// after the power-on self-test's window close (whose sums are zero).
    fn install(&mut self, pos: usize, rng: &Taus88, h: &UrngHealth) {
        self.alarms[pos] = h.alarm;
        self.latched += usize::from(h.alarm.is_some());
        let (head, ring_len, k) = (self.head, self.ring_len, pos % LANES);
        let block = &mut self.blocks[pos / LANES];
        for (column, s) in block.s.iter_mut().zip(rng.state()) {
            column.0[k] = s;
        }
        if h.alarm.is_some() {
            return;
        }
        debug_assert!(h.words == self.words && h.window_pos == 0 && h.ones == 0);
        block.live.0[k] = !0;
        for (plane, &run) in block.runs.iter_mut().zip(&h.runs) {
            plane.0[k] = run;
        }
        block.ring[head].0[k] = h.last;
        for (age, &word) in h.prev.iter().enumerate().take(self.lags) {
            block.ring[(head + ring_len - age) % ring_len].0[k] = word;
        }
    }

    /// Positions `0..active()` draw.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The alarm latched at `pos`, if any.
    pub fn alarm(&self, pos: usize) -> Option<HealthAlarm> {
        self.alarms[pos]
    }

    /// Moves the lane at active position `pos` past the active ones for
    /// good, swapping it with the last active lane. Returns that lane's
    /// old position, which is where the retired lane now sits; callers
    /// that keep their own per-position columns mirror the swap.
    ///
    /// # Panics
    ///
    /// If `pos` is not active.
    pub fn retire(&mut self, pos: usize) -> usize {
        assert!(pos < self.active, "retire an active position");
        let last = self.active - 1;
        if self.alarms[pos].is_some() {
            self.latched -= 1;
        }
        self.swap(pos, last);
        self.blocks[last / LANES].live.0[last % LANES] = 0;
        self.active = last;
        last
    }

    /// Exchanges the lanes at positions `a` and `b`.
    fn swap(&mut self, a: usize, b: usize) {
        let ((x, ka), (y, kb)) = ((a / LANES, a % LANES), (b / LANES, b % LANES));
        if x == y {
            for column in self.blocks[x].columns() {
                column.0.swap(ka, kb);
            }
        } else {
            let (low, high) = self.blocks.split_at_mut(x.max(y));
            let (bx, by) = if x < y {
                (&mut low[x], &mut high[0])
            } else {
                (&mut high[0], &mut low[y])
            };
            for (cx, cy) in bx.columns().zip(by.columns()) {
                core::mem::swap(&mut cx.0[ka], &mut cy.0[kb]);
            }
        }
        self.alarms.swap(a, b);
    }

    /// Draws one word per active position into `out` (`out[p]` from the
    /// lane at position `p`), each from the lane's generator and, while
    /// the lane has no alarm, through its monitor. Returns whether some
    /// lane latched an alarm.
    ///
    /// # Panics
    ///
    /// If `out` does not hold one word per active position.
    pub fn draw(&mut self, out: &mut [u32]) -> bool {
        assert_eq!(out.len(), self.active, "one word per active position");
        let next = (self.head + 1) % self.ring_len;
        let mut lag_slots = [0; 8];
        for (age, slot) in lag_slots.iter_mut().enumerate().take(self.lags) {
            *slot = self.slot(age);
        }
        let screen = Screen {
            head: self.head,
            next,
            lag_slots: &lag_slots[..self.lags],
            cut: &self.cut,
            window_cutoff: self.window_cutoff,
            half: self.half,
        };
        let closing = self.window_pos + 1 == self.cfg.apt_window();
        self.flagged.clear();
        if closing {
            screen.draw::<true>(&mut self.blocks, out, &mut self.flagged);
        } else {
            screen.draw::<false>(&mut self.blocks, out, &mut self.flagged);
        }

        // Replay each flagged block's live lanes through the scalar
        // monitor, from their uncommitted columns.
        let observed = (self.active - self.latched) as u64;
        let (mut replayed, mut tripped) = (0, false);
        for i in 0..self.flagged.len() {
            let b = self.flagged[i];
            for k in 0..LANES {
                if self.blocks[b].live.0[k] == 0 {
                    continue;
                }
                let pos = b * LANES + k;
                let mut monitor = self.monitor(pos);
                replayed += 1;
                match monitor.observe(out[pos]) {
                    Ok(()) => self.put_counts(pos, &monitor),
                    Err(alarm) => {
                        self.alarms[pos] = Some(alarm);
                        self.blocks[b].live.0[k] = 0;
                        self.latched += 1;
                        tripped = true;
                    }
                }
            }
        }

        self.head = next;
        self.words += 1;
        self.window_pos = if closing { 0 } else { self.window_pos + 1 };
        Taus88::note_words_drawn(self.active as u64);
        if observed > replayed {
            VERDICTS_OK.add(observed - replayed);
        }
        tripped
    }

    /// The ring slot of the word observed `age` words before the last.
    fn slot(&self, age: usize) -> usize {
        (self.head + self.ring_len - age) % self.ring_len
    }

    /// The monitor of the live lane at `pos`, as its columns hold it.
    fn monitor(&self, pos: usize) -> UrngHealth {
        let (block, k) = (&self.blocks[pos / LANES], pos % LANES);
        let mut h = UrngHealth::new(self.cfg);
        h.runs = block.runs.map(|plane| plane.0[k]);
        h.last = block.ring[self.head].0[k];
        for (age, (prev, agreements)) in h
            .prev
            .iter_mut()
            .zip(&mut h.agreements)
            .enumerate()
            .take(self.lags)
        {
            *prev = block.ring[self.slot(age)].0[k];
            *agreements = u64::from(block.agreements[age].0[k]);
        }
        h.ones = u64::from(block.ones.0[k]);
        h.window_pos = self.window_pos;
        h.words = self.words;
        h
    }

    /// Writes a replayed monitor's counts back to `pos`; its words are in
    /// the ring already.
    fn put_counts(&mut self, pos: usize, h: &UrngHealth) {
        let (block, k) = (&mut self.blocks[pos / LANES], pos % LANES);
        for (plane, &run) in block.runs.iter_mut().zip(&h.runs) {
            plane.0[k] = run;
        }
        block.ones.0[k] = h.ones as u32;
        for (sums, &agreements) in block.agreements.iter_mut().zip(&h.agreements) {
            sums.0[k] = agreements as u32;
        }
    }
}

/// The per-draw constants of the block kernel.
struct Screen<'a> {
    /// Ring slot of the last word observed.
    head: usize,
    /// Ring slot the new word goes to.
    next: usize,
    /// Ring slot of the word each lag compares against.
    lag_slots: &'a [usize],
    cut: &'a [Lanes; RUN_PLANES],
    window_cutoff: u32,
    half: u32,
}

impl Screen<'_> {
    /// Draws one word per lane of the blocks covering `out` into `out`,
    /// observing it in every block that screens clean, and lists the
    /// other blocks in `flagged`. `CLOSE`: the word closes the window.
    fn draw<const CLOSE: bool>(
        &self,
        blocks: &mut [Block],
        out: &mut [u32],
        flagged: &mut Vec<usize>,
    ) {
        let full = out.len() / LANES;
        let mut outs = out.chunks_exact_mut(LANES);
        for (b, (block, out)) in blocks.iter_mut().zip(&mut outs).enumerate() {
            let word = self.block::<CLOSE>(block, b, flagged);
            out.copy_from_slice(&word.0);
        }
        let rest = outs.into_remainder();
        if !rest.is_empty() {
            let word = self.block::<CLOSE>(&mut blocks[full], full, flagged);
            rest.copy_from_slice(&word.0[..rest.len()]);
        }
    }

    /// Steps block `b`'s generators once and observes the words; returns
    /// them.
    #[inline(always)]
    fn block<const CLOSE: bool>(
        &self,
        block: &mut Block,
        b: usize,
        flagged: &mut Vec<usize>,
    ) -> Lanes {
        let mut word = Lanes::default();
        let [s1, s2, s3] = &mut block.s;
        for k in 0..LANES {
            let s = next_state([s1.0[k], s2.0[k], s3.0[k]]);
            [s1.0[k], s2.0[k], s3.0[k]] = s;
            word.0[k] = s[0] ^ s[1] ^ s[2];
        }
        if !self.observe::<CLOSE>(block, word) {
            flagged.push(b);
        }
        block.ring[self.next] = word;
        word
    }

    /// Observes one word per lane of `block` (with the window close when
    /// `CLOSE`). Commits the block's new monitor state and returns `true`
    /// if no live lane alarms; otherwise leaves the state untouched and
    /// returns `false`.
    #[inline(always)]
    fn observe<const CLOSE: bool>(&self, block: &mut Block, word: Lanes) -> bool {
        let same = !(word ^ block.ring[self.head]);
        let (runs, mut alarm) = step_runs(block.runs, same, self.cut);
        let ones = block
            .ones
            .zip(word, |sum, w| sum.wrapping_add(w.count_ones()));
        let mut agreements = [Lanes::default(); 8];
        for ((sums, old), &slot) in agreements
            .iter_mut()
            .zip(&block.agreements)
            .zip(self.lag_slots)
        {
            let agree = !(word ^ block.ring[slot]);
            *sums = old.zip(agree, |sum, a| sum.wrapping_add(a.count_ones()));
        }
        let lags = self.lag_slots.len();
        if CLOSE {
            // Every later window compares as many bit pairs per lag as
            // the APT counts bits, against the same cutoff.
            let (half, cutoff) = (self.half, self.window_cutoff);
            let unbalanced = |sums: Lanes| {
                sums.map(|x| 0u32.wrapping_sub(u32::from(x.abs_diff(half) >= cutoff)))
            };
            alarm = alarm | unbalanced(ones);
            for &sums in &agreements[..lags] {
                alarm = alarm | unbalanced(sums);
            }
        }
        let live = alarm & block.live;
        if live.0.iter().fold(0, |any, &a| any | a) != 0 {
            return false;
        }
        block.runs = runs;
        if CLOSE {
            block.ones = Lanes::default();
            block.agreements[..lags].fill(Lanes::default());
        } else {
            block.ones = ones;
            block.agreements[..lags].copy_from_slice(&agreements[..lags]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::RandomBits;

    /// One lane as scalar reference: its generator, its monitor, and the
    /// verdict of its self-test.
    struct Reference {
        rng: Taus88,
        monitor: UrngHealth,
    }

    fn reference(cfg: HealthConfig, seed: u64) -> Reference {
        let mut rng = Taus88::from_seed(seed);
        let mut monitor = UrngHealth::new(cfg);
        let _ = monitor.startup(&mut rng);
        Reference { rng, monitor }
    }

    /// Draws `draws` columns from lanes booted on `seeds`, retiring the
    /// active lane `retire(d)` picks after draw `d`, and checks every word,
    /// verdict and live monitor against a scalar lane. Every third booted
    /// lane gets a skewed window count planted on both sides (its ones, or
    /// one lag's agreements), so windows close into APT and lag alarms.
    /// Returns the alarms.
    fn check_against_scalar(
        cfg: HealthConfig,
        seeds: &[u64],
        draws: usize,
        retire: impl Fn(usize, usize) -> Option<usize>,
    ) -> Vec<HealthAlarm> {
        let mut columns = UrngColumns::boot(cfg, seeds);
        let mut lanes: Vec<Reference> = seeds.iter().map(|&s| reference(cfg, s)).collect();
        let skew = 2 * columns.window_cutoff;
        for (pos, r) in lanes.iter_mut().enumerate().skip(1).step_by(3) {
            if r.monitor.is_alarmed() {
                continue;
            }
            let (block, k) = (&mut columns.blocks[pos / LANES], pos % LANES);
            let lag = pos % (columns.lags + 1);
            if lag == 0 {
                block.ones.0[k] += skew;
                r.monitor.ones += u64::from(skew);
            } else {
                block.agreements[lag - 1].0[k] += skew;
                r.monitor.agreements[lag - 1] += u64::from(skew);
            }
        }
        let mut lane_at: Vec<usize> = (0..seeds.len()).collect();
        let mut out = Vec::new();
        for d in 0..draws {
            out.resize(columns.active(), 0);
            columns.draw(&mut out);
            for (pos, &lane) in lane_at.iter().enumerate().take(columns.active()) {
                let r = &mut lanes[lane];
                let word = r.rng.next_u32();
                assert_eq!(out[pos], word, "draw {d} lane {lane}: word");
                if !r.monitor.is_alarmed() {
                    let _ = r.monitor.observe(word);
                }
                assert_eq!(
                    columns.alarm(pos).as_ref(),
                    r.monitor.alarm(),
                    "draw {d} lane {lane}: alarm"
                );
                if columns.alarm(pos).is_none() {
                    assert_eq!(
                        format!("{:?}", columns.monitor(pos)),
                        format!("{:?}", r.monitor),
                        "draw {d} lane {lane}: monitor"
                    );
                }
            }
            if let Some(pos) = retire(d, columns.active()) {
                let moved = columns.retire(pos);
                lane_at.swap(pos, moved);
            }
        }
        lanes
            .iter()
            .filter_map(|r| r.monitor.alarm().copied())
            .collect()
    }

    #[test]
    fn columns_match_scalar_lanes() {
        // Low alpha_exp trips the repetition count of healthy Taus88
        // streams at boot and mid-stream, planted counts trip the windowed
        // tests, and 29 lanes end in a partial block.
        let mut kinds = [0usize; 3];
        for (alpha, window, lags) in [(4, 64, 4), (5, 64, 8), (6, 65, 0), (8, 64, 1), (40, 64, 4)] {
            let cfg = HealthConfig::new(alpha, window, lags).unwrap();
            let seeds: Vec<u64> = (0..29).map(|i| 1000 * u64::from(alpha) + i).collect();
            let alarms = check_against_scalar(cfg, &seeds, 3 * window as usize, |d, active| {
                (d % 40 == 39 && active > 0).then_some(d % active)
            });
            for alarm in alarms {
                kinds[match alarm.test {
                    crate::HealthTest::RepetitionCount { .. } => 0,
                    crate::HealthTest::AdaptiveProportion { .. } => 1,
                    crate::HealthTest::LagCorrelation { .. } => 2,
                }] += 1;
            }
        }
        assert!(kinds.iter().all(|&n| n > 0), "alarm kinds {kinds:?}");
    }

    #[test]
    fn empty_and_fully_retired_columns_draw_nothing() {
        let cfg = HealthConfig::default();
        let mut columns = UrngColumns::boot(cfg, &[]);
        assert!(!columns.draw(&mut []));
        let mut columns = UrngColumns::boot(cfg, &[1, 2, 3]);
        while columns.active() > 0 {
            columns.retire(0);
        }
        assert!(!columns.draw(&mut []));
        assert!((0..3).all(|pos| columns.alarm(pos).is_none()));
    }
}
