//! Many monitored Tausworthe URNGs advanced in lockstep, as columns
//! ([`UrngColumns`]).
//!
//! Two kernels work on the columns, in blocks of eight lanes, and each is
//! bit-identical to running every lane's own [`Taus88`] through its own
//! [`UrngHealth`], counters included:
//!
//! * **The power-on self-test** ([`UrngColumns::boot`]) boots each block in
//!   place. It steps the block's seeded generators as state columns
//!   through the `W` startup words into one buffer, counts every window
//!   sum (the ones, and each lag's disagreements) with a carry-save tree,
//!   screens the repetition count exactly where a prefilter cannot rule a
//!   trip out, and writes each lane's runs, last word and lag register
//!   straight into the block. A lane that passes never builds an
//!   [`UrngHealth`]; a lane the kernel flags runs the scalar
//!   [`UrngHealth::startup`] from its seed, which latches its alarm.
//! * **The draw** ([`UrngColumns::draw`]) steps every lane once and screens
//!   the word column. A block in which a live lane alarms replays its live
//!   lanes' words through [`UrngHealth::observe`].
//!
//! Either way every [`HealthAlarm`] is built by the scalar monitor.
//!
//! # The self-test kernel
//!
//! A block's `W` words sit in one buffer, row `i` holding every lane's
//! word `i`. The kernel flags a lane whose window close alarms or whose
//! words trip the repetition count; every other lane passes.
//!
//! * **Window sums.** The first window compares word `t` with word
//!   `t − lag` only from word `lag` on, so lag `lag` counts the
//!   disagreements of `W − lag` row pairs; with `d` of them,
//!   `|agreements − pairs/2| = |d − pairs/2|`, so the kernel tests `d`
//!   against the monitor's own first-window cutoff. Each sum runs the rows
//!   through a Harley–Seal carry-save tree in groups of sixteen, which
//!   leaves one word of sixteens per group; that word is popcounted per
//!   byte into a byte accumulator, which is summed into the lanes' totals
//!   every [`BYTE_GROUPS`] groups, before any byte can overflow.
//! * **Repetition count.** A lane trips iff some `m = rct_cutoff − 1`
//!   consecutive transitions (transition `t` takes word `t` to word
//!   `t + 1`) keep one of its bits constant. When `2m ≥ W`, every such
//!   run covers the core transitions `[W − 1 − m, m − 1]`, so a block in
//!   which no lane holds a bit across the whole core cannot trip. Any
//!   other block ANDs its transitions' same-bit masks over every window
//!   of `m` transitions, which flags exactly the tripping lanes.
//! * **Runs.** A lane that does not trip ends with runs of one plus, per
//!   bit, the trailing run of transitions that keep that bit.

use core::array::from_fn;
use core::ops::{Add, BitAnd, BitOr, BitXor, Not};

use crate::health::VERDICTS_OK;
use crate::health::{
    add_where, step_runs, Bits, HealthAlarm, HealthConfig, UrngHealth, RUNS_ONE, RUN_PLANES,
};
use crate::source::RandomBits;
use crate::tausworthe::{next_state, Taus88};

/// Lanes per block: a block's columns are `[u32; LANES]` arrays, which the
/// compiler keeps in vector registers.
const LANES: usize = 8;

/// Ring capacity: the newest word plus up to 8 earlier ones for the lags.
const RING: usize = 9;

/// Groups of sixteen rows whose sixteens one byte accumulator takes: each
/// group adds at most 8 to a byte, and `31 · 8 = 248 < 2^8`.
const BYTE_GROUPS: usize = 31;

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

    /// All ones in the lanes where `f` holds, zero elsewhere.
    #[inline(always)]
    fn mask(self, f: impl Fn(u32) -> bool) -> Lanes {
        self.map(|a| 0u32.wrapping_sub(u32::from(f(a))))
    }

    /// Whether some lane is nonzero.
    #[inline(always)]
    fn any(self) -> bool {
        self.0.iter().fold(0, |any, &a| any | a) != 0
    }
}

impl Add for Lanes {
    type Output = Lanes;
    #[inline(always)]
    fn add(self, rhs: Lanes) -> Lanes {
        self.zip(rhs, |a, b| a + b)
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

/// The lanes whose `sums` stray `cutoff` or more from the balanced count
/// `half`: the window-close test of [`UrngHealth`].
#[inline(always)]
fn unbalanced(sums: Lanes, (half, cutoff): (u32, u32)) -> Lanes {
    sums.mask(|x| x.abs_diff(half) >= cutoff)
}

/// Steps a block's generators, held as `s1`/`s2`/`s3` state columns, once
/// and returns their words.
#[inline(always)]
fn step(s: &mut [Lanes; 3]) -> Lanes {
    let mut word = Lanes::default();
    let [s1, s2, s3] = s;
    for k in 0..LANES {
        let next = next_state([s1.0[k], s2.0[k], s3.0[k]]);
        [s1.0[k], s2.0[k], s3.0[k]] = next;
        word.0[k] = next[0] ^ next[1] ^ next[2];
    }
    word
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

    /// Puts lane `k`'s generator at component states `state`.
    fn set_state(&mut self, k: usize, state: [u32; 3]) {
        for (column, s) in self.s.iter_mut().zip(state) {
            column.0[k] = s;
        }
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
    /// ([`UrngHealth::startup`]), run by the self-test kernel (see the
    /// module docs). Every lane is active; a lane whose self-test tripped
    /// holds its [`alarm`](Self::alarm) and draws unobserved.
    pub fn boot(cfg: HealthConfig, seeds: &[u64]) -> Self {
        let fresh = UrngHealth::new(cfg);
        let mut columns = UrngColumns::unbooted(&fresh, seeds.len());
        let test = SelfTest::new(&columns, &fresh);
        // One buffer for every block's words.
        let mut words = Vec::with_capacity(test.w);
        let mut passed = 0;
        for (b, seeds) in seeds.chunks(LANES).enumerate() {
            let block = &mut columns.blocks[b];
            let mut s = [Lanes::default(); 3];
            for (k, &seed) in seeds.iter().enumerate() {
                for (column, state) in s.iter_mut().zip(Taus88::from_seed(seed).state()) {
                    column.0[k] = state;
                }
            }
            words.clear();
            words.extend((0..test.w).map(|_| step(&mut s)));
            block.s = s;
            let flagged = test.run(&mut words, seeds.len(), block);
            passed += seeds.len();
            for (k, &seed) in seeds.iter().enumerate() {
                if flagged.0[k] != 0 {
                    let mut rng = Taus88::from_seed(seed);
                    columns.latch(b * LANES + k, &mut rng);
                    columns.blocks[b].set_state(k, rng.state());
                    passed -= 1;
                }
            }
        }
        let drawn = passed as u64 * u64::from(cfg.startup_words());
        if drawn > 0 {
            Taus88::note_words_drawn(drawn);
            VERDICTS_OK.add(drawn);
        }
        columns
    }

    /// Columns for `lanes` lanes of `fresh`'s configuration that have
    /// observed one startup pass, with every column zero: the self-test
    /// kernel fills them in.
    fn unbooted(fresh: &UrngHealth, lanes: usize) -> Self {
        let cfg = fresh.cfg;
        let lags = usize::from(cfg.max_lag());
        UrngColumns {
            cfg,
            cut: fresh.cut.map(|plane| Lanes([plane; LANES])),
            window_cutoff: u32::try_from(fresh.apt_cutoff).expect("cutoff below the window's bits"),
            half: 16 * cfg.apt_window(),
            lags,
            ring_len: lags.max(1) + 1,
            head: 0,
            blocks: vec![Block::default(); lanes.div_ceil(LANES)],
            active: lanes,
            words: u64::from(cfg.startup_words()),
            window_pos: 0,
            alarms: vec![None; lanes],
            latched: 0,
            flagged: Vec::new(),
        }
    }

    /// Runs the scalar self-test of the lane at `pos`, which the kernel
    /// flagged, on `src`, and latches its alarm.
    fn latch(&mut self, pos: usize, src: &mut impl RandomBits) {
        let alarm = UrngHealth::new(self.cfg)
            .startup(src)
            .expect_err("the self-test kernel flags exactly the lanes that trip");
        self.alarms[pos] = Some(alarm);
        self.latched += 1;
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
        let word = step(&mut block.s);
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
            let balance = (self.half, self.window_cutoff);
            alarm = alarm | unbalanced(ones, balance);
            for &sums in &agreements[..lags] {
                alarm = alarm | unbalanced(sums, balance);
            }
        }
        if (alarm & block.live).any() {
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

/// The constants of the power-on self-test kernel (see the module docs)
/// for one configuration.
struct SelfTest {
    /// Words per startup pass, `W`: exactly one window.
    w: usize,
    lags: usize,
    ring_len: usize,
    /// Transitions a bit must hold for to trip the repetition count:
    /// `m = rct_cutoff − 1`.
    m: usize,
    /// Balanced count and cutoff of the window's ones (index 0) and of
    /// each lag's disagreements (index `lag`) over the first window.
    balance: [(u32, u32); 9],
    /// The core transitions `(first, last)`, when `2m ≥ W`.
    core: Option<(usize, usize)>,
}

impl SelfTest {
    fn new(columns: &UrngColumns, fresh: &UrngHealth) -> Self {
        let cfg = columns.cfg;
        let w = cfg.startup_words() as usize;
        let m = cfg.rct_cutoff() as usize - 1;
        let mut balance = [(columns.half, columns.window_cutoff); 9];
        for (lag, slot) in balance
            .iter_mut()
            .enumerate()
            .take(columns.lags + 1)
            .skip(1)
        {
            let cutoff = fresh.first_lag_cutoffs[lag - 1];
            let cutoff = u32::try_from(cutoff).expect("cutoff below the window's bits");
            *slot = (16 * (w - lag) as u32, cutoff);
        }
        SelfTest {
            w,
            lags: columns.lags,
            ring_len: columns.ring_len,
            m,
            balance,
            // `m < W`: the configuration bounds `m` by 60 and `W` from 64.
            core: (2 * m >= w).then(|| (w - 1 - m, m - 1)),
        }
    }

    /// Tests the first `lanes` lanes of `block` on `words`, their `W`
    /// startup words, and writes every lane that passes into the block:
    /// runs, last word, lag register and liveness, with zero window sums
    /// (the window has just closed). Returns all ones in the lanes it
    /// flags, those whose self-test trips; their monitor columns are not
    /// live. Leaves `words` overwritten.
    fn run(&self, words: &mut [Lanes], lanes: usize, block: &mut Block) -> Lanes {
        let w = self.w;
        assert_eq!(words.len(), w, "one startup pass");
        let present = Lanes(from_fn(|k| 0u32.wrapping_sub(u32::from(k < lanes))));
        let mut flagged = unbalanced(window_sum::<false>(words, words), self.balance[0]);
        for lag in 1..=self.lags {
            let sums = window_sum::<true>(&words[lag..], &words[..w - lag]);
            flagged = flagged | unbalanced(sums, self.balance[lag]);
        }
        // Runs of a lane that trips the repetition count are never read.
        block.runs = trailing_runs(words, present & !flagged);
        for age in 0..self.lags.max(1) {
            block.ring[(self.ring_len - age) % self.ring_len] = words[w - 1 - age];
        }
        if self.screens(words, present) {
            flagged = flagged | repetition_trips(words, self.m).mask(|x| x != 0);
        }
        let flagged = flagged & present;
        block.live = present & !flagged;
        flagged
    }

    /// The prefilter: whether one of the `present` lanes may trip the
    /// repetition count on `words`, because it holds a bit across every
    /// core transition (or the configuration has no core).
    fn screens(&self, words: &[Lanes], present: Lanes) -> bool {
        self.core
            .is_none_or(|(first, last)| (constant_bits(&words[first..=last + 1]) & present).any())
    }
}

/// The bits each lane holds across every transition of `words`: set in
/// every word or clear in every word.
fn constant_bits(words: &[Lanes]) -> Lanes {
    let (mut all, mut any) = (Lanes::ONES, Lanes::default());
    for &word in words {
        all = all & word;
        any = any | word;
    }
    all | !any
}

/// Each lane's bits that some `m` consecutive transitions of `words`
/// hold (`m < words.len()`): a lane trips the repetition count iff it has
/// such a bit. Turns `words` into its transitions' same-bit masks, then
/// ANDs each over windows that double in length (AND is idempotent, so
/// the two windows that cover the last length may overlap).
fn repetition_trips(words: &mut [Lanes], m: usize) -> Lanes {
    let mut len = words.len() - 1;
    for t in 0..len {
        words[t] = !(words[t + 1] ^ words[t]);
    }
    let mut span = 1;
    while 2 * span <= m {
        for t in 0..len - span {
            words[t] = words[t] & words[t + span];
        }
        len -= span;
        span *= 2;
    }
    let rest = m - span;
    (0..len - rest).fold(Lanes::default(), |trips, t| {
        trips | (words[t] & words[t + rest])
    })
}

/// The runs after `words` of the lanes in `lanes`, none of which trips:
/// one plus, per bit, the trailing run of transitions that keep it.
fn trailing_runs(words: &[Lanes], lanes: Lanes) -> [Lanes; RUN_PLANES] {
    let mut runs = RUNS_ONE.map(|plane| Lanes([plane; LANES]));
    let (&last, earlier) = words.split_last().expect("a startup pass");
    // A bit is held back to a word while it equals the last word's bit.
    let flipped = !last;
    let mut held = lanes;
    for &word in earlier.iter().rev() {
        held = held & (word ^ flipped);
        if !held.any() {
            break;
        }
        runs = add_where(runs, held);
    }
    runs
}

/// Carry-save adder: the bitwise carry and sum of `a + b + c`.
#[inline(always)]
fn csa(a: Lanes, b: Lanes, c: Lanes) -> (Lanes, Lanes) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// The state of a Harley–Seal carry-save tree: each lane's bits of
/// weight one, two, four and eight that have not yet carried into a
/// sixteen.
#[derive(Default)]
struct CarrySave {
    ones: Lanes,
    twos: Lanes,
    fours: Lanes,
    eights: Lanes,
}

impl CarrySave {
    /// Adds sixteen rows, `x(0)` to `x(15)`, and returns the sixteens
    /// they carry out.
    #[inline(always)]
    fn add(&mut self, x: impl Fn(usize) -> Lanes) -> Lanes {
        let (twos_a, ones) = csa(self.ones, x(0), x(1));
        let (twos_b, ones) = csa(ones, x(2), x(3));
        let (fours_a, twos) = csa(self.twos, twos_a, twos_b);
        let (twos_a, ones) = csa(ones, x(4), x(5));
        let (twos_b, ones) = csa(ones, x(6), x(7));
        let (fours_b, twos) = csa(twos, twos_a, twos_b);
        let (eights_a, fours) = csa(self.fours, fours_a, fours_b);
        let (twos_a, ones) = csa(ones, x(8), x(9));
        let (twos_b, ones) = csa(ones, x(10), x(11));
        let (fours_a, twos) = csa(twos, twos_a, twos_b);
        let (twos_a, ones) = csa(ones, x(12), x(13));
        let (twos_b, ones) = csa(ones, x(14), x(15));
        let (fours_b, twos) = csa(twos, twos_a, twos_b);
        let (eights_b, fours) = csa(fours, fours_a, fours_b);
        let (sixteens, eights) = csa(self.eights, eights_a, eights_b);
        (self.ones, self.twos, self.fours, self.eights) = (ones, twos, fours, eights);
        sixteens
    }
}

/// Each byte's popcount, in that byte.
#[inline(always)]
fn byte_counts(x: Lanes) -> Lanes {
    x.map(|x| {
        let x = x - ((x >> 1) & 0x5555_5555);
        let x = (x & 0x3333_3333) + ((x >> 2) & 0x3333_3333);
        (x + (x >> 4)) & 0x0F0F_0F0F
    })
}

/// The sum of each lane's four bytes.
#[inline(always)]
fn byte_sums(x: Lanes) -> Lanes {
    x.map(|x| {
        let x = (x & 0x00FF_00FF) + ((x >> 8) & 0x00FF_00FF);
        (x & 0xFFFF) + (x >> 16)
    })
}

/// Each lane's ones over `rows`, each row XORed with the same row of
/// `prev` when `XOR` (`prev` is as long as `rows`). The rows go through a
/// carry-save tree in groups of sixteen, the last padded with zero rows.
fn window_sum<const XOR: bool>(rows: &[Lanes], prev: &[Lanes]) -> Lanes {
    let row = |r: Lanes, p: Lanes| if XOR { r ^ p } else { r };
    let (groups, rest) = rows.as_chunks::<16>();
    let (prev_groups, prev_rest) = prev.as_chunks::<16>();
    let mut tree = CarrySave::default();
    let mut sixteens = Lanes::default();
    for (run, prev_run) in groups
        .chunks(BYTE_GROUPS)
        .zip(prev_groups.chunks(BYTE_GROUPS))
    {
        let mut bytes = Lanes::default();
        for (g, p) in run.iter().zip(prev_run) {
            bytes = bytes + byte_counts(tree.add(|i| row(g[i], p[i])));
        }
        sixteens = sixteens + byte_sums(bytes);
    }
    let tail = if rest.is_empty() {
        Lanes::default()
    } else {
        tree.add(|i| match (rest.get(i), prev_rest.get(i)) {
            (Some(&r), Some(&p)) => row(r, p),
            _ => Lanes::default(),
        })
    };
    // The tail's sixteens and the bits still in the tree, weighted per
    // byte: at most (16 + 8 + 4 + 2 + 1) · 8 = 248.
    let weighted = [tail, tree.eights, tree.fours, tree.twos, tree.ones]
        .into_iter()
        .zip([4, 3, 2, 1, 0])
        .fold(Lanes::default(), |sum, (x, shift)| {
            sum + byte_counts(x).map(|b| b << shift)
        });
    sixteens.map(|x| x << 4) + byte_sums(weighted)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::fault::CorrelatedBits;
    use crate::health::HealthTest;
    use crate::source::{stream_seed, ScriptedBits};

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

    /// Asserts that the columns hold `monitor`'s state at `pos`.
    fn assert_same_monitor(columns: &UrngColumns, pos: usize, monitor: &UrngHealth, what: &str) {
        assert_eq!(
            format!("{:?}", columns.monitor(pos)),
            format!("{monitor:?}"),
            "{what}: monitor"
        );
    }

    /// Checks booted `columns` lane by lane against `lanes`, each a scalar
    /// generator and the monitor its self-test left: the verdict and
    /// alarm, every monitor column of a lane that passed, then two windows
    /// of draws (each word and verdict) and the monitors they leave.
    fn check_boot(mut columns: UrngColumns, lanes: &mut [Reference], what: &str) {
        assert_eq!(columns.active(), lanes.len(), "{what}: lanes");
        for (pos, r) in lanes.iter().enumerate() {
            let what = format!("{what} lane {pos}");
            assert_eq!(
                columns.alarm(pos).as_ref(),
                r.monitor.alarm(),
                "{what}: self-test"
            );
            if !r.monitor.is_alarmed() {
                assert_same_monitor(&columns, pos, &r.monitor, &what);
            }
        }
        let mut out = vec![0; lanes.len()];
        for d in 0..2 * columns.cfg.apt_window() {
            columns.draw(&mut out);
            for (pos, r) in lanes.iter_mut().enumerate() {
                let word = r.rng.next_u32();
                assert_eq!(out[pos], word, "{what} draw {d} lane {pos}: word");
                if !r.monitor.is_alarmed() {
                    let _ = r.monitor.observe(word);
                }
                assert_eq!(
                    columns.alarm(pos).as_ref(),
                    r.monitor.alarm(),
                    "{what} draw {d} lane {pos}: alarm"
                );
            }
        }
        for (pos, r) in lanes.iter().enumerate() {
            if !r.monitor.is_alarmed() {
                let what = format!("{what} lane {pos} after two windows");
                assert_same_monitor(&columns, pos, &r.monitor, &what);
            }
        }
    }

    /// Boots one lane per seed and checks it against scalar `startup`;
    /// returns each lane's self-test alarm.
    fn check_seeds(cfg: HealthConfig, seeds: &[u64]) -> Vec<Option<HealthAlarm>> {
        let columns = UrngColumns::boot(cfg, seeds);
        let alarms = (0..seeds.len()).map(|pos| columns.alarm(pos)).collect();
        let mut lanes: Vec<Reference> = seeds.iter().map(|&s| reference(cfg, s)).collect();
        let what = format!("alpha {} W {}", cfg.alpha_exp(), cfg.apt_window());
        check_boot(columns, &mut lanes, &what);
        alarms
    }

    #[test]
    fn boot_matches_the_scalar_startup() {
        // Low alpha_exp makes healthy Taus88 windows trip the repetition
        // count often; alpha 40 is the always-clean fleet operating point.
        // 200 lanes end in a partial block.
        let configs = [
            HealthConfig::new(4, 64, 4).unwrap(),
            HealthConfig::new(6, 64, 8).unwrap(),
            HealthConfig::new(8, 128, 2).unwrap(),
            HealthConfig::new(12, 64, 0).unwrap(),
            HealthConfig::new(40, 64, 4).unwrap(),
            HealthConfig::new(60, 64, 1).unwrap(),
            HealthConfig::new(40, 1024, 4).unwrap(),
        ];
        let (mut rct_trips, mut clean) = (0u32, 0u32);
        for cfg in configs {
            let seeds: Vec<u64> = (0..200).collect();
            for alarm in check_seeds(cfg, &seeds) {
                match alarm.map(|a| a.test) {
                    None => clean += 1,
                    Some(HealthTest::RepetitionCount { .. }) => rct_trips += 1,
                    Some(_) => {}
                }
            }
        }
        assert!(rct_trips > 50, "sweep exercised only {rct_trips} RCT trips");
        assert!(clean > 50, "sweep exercised only {clean} clean startups");
        assert!(check_seeds(HealthConfig::default(), &[]).is_empty());
    }

    #[test]
    fn boot_window_trip_matches_the_scalar_startup() {
        // A window-close trip on a *healthy* Taus88 is a designed-rare
        // false positive (p ≈ 2^-alpha_exp per window), so the seed is
        // pinned by offline search: at alpha_exp 12 this window survives
        // every repetition-count check and then trips at window close. Its
        // neighbours in the block pass or trip the repetition count.
        let cfg = HealthConfig::new(12, 64, 4).unwrap();
        let seeds: Vec<u64> = (WINDOW_TRIP_SEED - 3..WINDOW_TRIP_SEED + 4).collect();
        let alarm = check_seeds(cfg, &seeds)[3].expect("pinned seed must trip at window close");
        assert!(
            !matches!(alarm.test, HealthTest::RepetitionCount { .. }),
            "pinned seed tripped RCT ({alarm}), not a windowed test"
        );
    }

    /// Found by scanning seeds for a windowed (APT / lag-correlation) trip
    /// at `HealthConfig::new(12, 64, 4)`; see the test above.
    const WINDOW_TRIP_SEED: u64 = 28816;

    #[test]
    fn boot_matches_the_scalar_startup_at_fleet_scale() {
        // The fleet's device configuration on 2^16 of its lane seeds.
        let cfg = HealthConfig::new(40, 64, 4).unwrap();
        let seeds: Vec<u64> = (0..1 << 16).map(|id| stream_seed(2018, &[id, 0])).collect();
        // About one lane in 4,000 holds a bit across the whole core, the
        // transitions 23..=39 that every tripping run of 40 covers, so its
        // block runs the exact screen. Counted here from scalar words.
        let screened = seeds
            .iter()
            .filter(|&&seed| {
                let mut rng = Taus88::from_seed(seed);
                let words: Vec<u32> = (0..64).map(|_| rng.next_u32()).collect();
                (23..=39).fold(!0u32, |held, t| held & !(words[t + 1] ^ words[t])) != 0
            })
            .count();
        assert!(screened > 0, "no lane reaches the exact screen");
        let alarms = check_seeds(cfg, &seeds);
        assert!(alarms.iter().all(Option::is_none), "a fleet lane tripped");
    }

    /// Boots one lane per stream through the self-test kernel: the kernel
    /// runs on the streams' words, a lane it flags latches the scalar
    /// self-test of its stream, and every lane then draws from the probe
    /// generator [`probe`]. Returns the columns and each lane's flag.
    fn boot_streams(cfg: HealthConfig, streams: &[Vec<u32>]) -> (UrngColumns, Vec<bool>) {
        let fresh = UrngHealth::new(cfg);
        let mut columns = UrngColumns::unbooted(&fresh, streams.len());
        let test = SelfTest::new(&columns, &fresh);
        let mut flags = Vec::new();
        for (b, block) in streams.chunks(LANES).enumerate() {
            let mut words = block_words(block);
            let flagged = test.run(&mut words, block.len(), &mut columns.blocks[b]);
            for (k, stream) in block.iter().enumerate() {
                let pos = b * LANES + k;
                flags.push(flagged.0[k] != 0);
                if flagged.0[k] != 0 {
                    columns.latch(pos, &mut ScriptedBits::new(stream.clone()));
                }
                columns.blocks[b].set_state(k, probe(pos).state());
            }
        }
        (columns, flags)
    }

    /// The generator lane `pos` of [`boot_streams`] draws from.
    fn probe(pos: usize) -> Taus88 {
        Taus88::from_seed(0x9E37_79B9 + pos as u64)
    }

    /// Up to eight lanes' streams as a block's rows, row `i` holding each
    /// lane's word `i` (zero past the lanes).
    fn block_words(lanes: &[Vec<u32>]) -> Vec<Lanes> {
        let w = lanes.first().map_or(0, Vec::len);
        (0..w)
            .map(|i| Lanes(from_fn(|k| lanes.get(k).map_or(0, |s| s[i]))))
            .collect()
    }

    /// Planted `W`-word streams for `cfg`, each named by the verdict it is
    /// built to draw from a scalar `observe` loop.
    fn planted_streams(cfg: HealthConfig, seed: u64) -> Vec<(String, Vec<u32>)> {
        let w = cfg.startup_words() as usize;
        let m = cfg.rct_cutoff() as usize - 1;
        let mut rng = Taus88::from_seed(seed);
        let mut random = || -> Vec<u32> { (0..w).map(|_| rng.next_u32()).collect() };
        // Holds bit `bit` at one value over words `first..=last` and at the
        // other value just outside them: a run of exactly that length.
        let run = |mut s: Vec<u32>, bit: u32, first: usize, last: usize| {
            let mask = 1 << bit;
            for (i, x) in s.iter_mut().enumerate() {
                if (first..=last).contains(&i) {
                    *x |= mask;
                } else if i + 1 == first || i == last + 1 {
                    *x &= !mask;
                }
            }
            s
        };
        let mut planted = vec![
            ("clean".to_string(), random()),
            ("rct first words".to_string(), run(random(), 3, 0, m)),
            (
                "rct middle words".to_string(),
                run(random(), 17, (w - m) / 2, (w + m) / 2),
            ),
            (
                "rct last words".to_string(),
                run(random(), 31, w - 1 - m, w - 1),
            ),
        ];
        if 2 * m >= w {
            // The bit stays put across exactly the core's transitions:
            // the core is nonzero, but the run is far short of `m`.
            planted.push(("core".to_string(), run(random(), 9, w - 1 - m, m)));
        }
        // Each bit is one with probability 5/8.
        let (a, b, c) = (random(), random(), random());
        let biased = (0..w).map(|i| a[i] | (b[i] & c[i])).collect();
        planted.push(("apt".to_string(), biased));
        for lag in 1..=cfg.max_lag().max(1) {
            // Bits copy the word `lag` draws earlier with probability 3/8.
            let mut src = CorrelatedBits::new(Taus88::from_seed(seed), lag, 96);
            let s = (0..w).map(|_| src.next_u32()).collect();
            planted.push((format!("lag {lag}"), s));
        }
        planted
    }

    /// Boots one lane per named planted stream and checks each against a
    /// scalar `observe` loop over its stream: exactly the lanes whose loop
    /// alarms are flagged, and every lane's verdict, monitor and next two
    /// windows of draws match ([`check_boot`]). Records each planted
    /// (non-clean) stream's scalar verdict as `"name: verdict"` in `kinds`.
    fn check_planted(
        cfg: HealthConfig,
        lanes: &[(String, Vec<u32>)],
        kinds: &mut BTreeSet<String>,
    ) {
        let streams: Vec<Vec<u32>> = lanes.iter().map(|(_, s)| s.clone()).collect();
        let (columns, flags) = boot_streams(cfg, &streams);
        let what = format!("alpha {} W {}", cfg.alpha_exp(), cfg.apt_window());
        let mut references = Vec::new();
        for (pos, ((name, stream), flagged)) in lanes.iter().zip(flags).enumerate() {
            let mut monitor = UrngHealth::new(cfg);
            let verdict = stream.iter().try_for_each(|&x| monitor.observe(x));
            let kind = match verdict {
                Ok(()) => "pass".to_string(),
                Err(a) => match a.test {
                    HealthTest::RepetitionCount { .. } => format!("rct at {}", a.word_index),
                    HealthTest::AdaptiveProportion { .. } => "apt".to_string(),
                    HealthTest::LagCorrelation { lag, .. } => format!("lag {lag}"),
                },
            };
            assert_eq!(
                flagged,
                verdict.is_err(),
                "{what} {name}: {kind}, flagged {flagged}"
            );
            if !name.starts_with("clean") {
                kinds.insert(format!("{name}: {kind}"));
            }
            references.push(Reference {
                rng: probe(pos),
                monitor,
            });
        }
        check_boot(columns, &mut references, &what);
    }

    #[test]
    fn boot_matches_scalar_observe_on_planted_streams() {
        let configs = [
            // 2m ≥ W: the core prefilter decides whether a block screens.
            HealthConfig::new(40, 64, 4).unwrap(),
            HealthConfig::new(36, 64, 8).unwrap(),
            HealthConfig::new(60, 120, 0).unwrap(),
            // 2m < W: every block screens.
            HealthConfig::new(20, 64, 0).unwrap(),
            HealthConfig::new(40, 128, 8).unwrap(),
            HealthConfig::new(24, 100, 3).unwrap(),
            // 31 groups of eight rows and more: the byte sums carry over.
            HealthConfig::new(40, 1024, 4).unwrap(),
        ];
        for cfg in configs {
            // Two full blocks and a partial third.
            let mut lanes = Vec::new();
            for seed in 0.. {
                lanes.extend(planted_streams(cfg, seed));
                if lanes.len() > 2 * LANES {
                    break;
                }
            }
            lanes.truncate(2 * LANES + 3);
            let mut kinds = BTreeSet::new();
            // Each stream alone, so no other lane's core can make its
            // block screen, then the streams packed into blocks.
            for lane in lanes.chunks(1) {
                check_planted(cfg, lane, &mut kinds);
            }
            check_planted(cfg, &lanes, &mut kinds);
            // Every planted stream drew the verdict it was built for.
            let (w, m) = (cfg.apt_window() as usize, cfg.rct_cutoff() as usize - 1);
            let mut want = vec![
                format!("rct first words: rct at {m}"),
                format!("rct middle words: rct at {}", (w + m) / 2),
                format!("rct last words: rct at {}", w - 1),
                "apt: apt".to_string(),
            ];
            if 2 * m >= w {
                want.push("core: pass".to_string());
            }
            for lag in 1..=cfg.max_lag() {
                want.push(format!("lag {lag}: lag {lag}"));
            }
            for kind in want {
                assert!(
                    kinds.contains(&kind),
                    "alpha {} W {w}: no `{kind}` in {kinds:?}",
                    cfg.alpha_exp()
                );
            }
        }
    }

    #[test]
    fn core_prefilter_sees_every_tripping_run_and_nothing_shorter() {
        let cfg = HealthConfig::new(40, 64, 4).unwrap();
        let (w, m) = (64, 40);
        // Every run of `m` transitions covers transitions 23..=39.
        let (lo, hi) = (w - 1 - m, m - 1);
        let fresh = UrngHealth::new(cfg);
        let test = SelfTest::new(&UrngColumns::unbooted(&fresh, 0), &fresh);
        let prefilter = |block: &[Vec<u32>]| {
            let present = Lanes(from_fn(|k| 0u32.wrapping_sub(u32::from(k < block.len()))));
            test.screens(&block_words(block), present)
        };
        let mut rng = Taus88::from_seed(77);
        let mut random = || -> Vec<u32> { (0..w).map(|_| rng.next_u32()).collect() };
        // Holds bit 5 constant across exactly transitions `first..=last`.
        let hold = |mut s: Vec<u32>, first: usize, last: usize| {
            for x in &mut s[first..=last + 1] {
                *x |= 1 << 5;
            }
            for edge in [first.wrapping_sub(1), last + 2] {
                if let Some(x) = s.get_mut(edge) {
                    *x &= !(1 << 5);
                }
            }
            s
        };
        let clean: Vec<Vec<u32>> = (0..7).map(|_| random()).collect();
        assert!(!prefilter(&clean));
        let with = |lane: Vec<u32>| {
            let mut block = clean.clone();
            block[4] = lane;
            block
        };
        // A tripping run anywhere, even at either end of the window, shows
        // in the core; so does a run of exactly the core.
        for (first, last) in [(0, m - 1), (11, m + 10), (w - 1 - m, w - 2), (lo, hi)] {
            assert!(
                prefilter(&with(hold(random(), first, last))),
                "run {first}..={last}"
            );
        }
        // One transition short of the core at either end: the core is zero,
        // so the block skips the screen.
        for (first, last) in [(lo + 1, hi), (lo, hi - 1)] {
            assert!(
                !prefilter(&with(hold(random(), first, last))),
                "run {first}..={last}"
            );
        }
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
