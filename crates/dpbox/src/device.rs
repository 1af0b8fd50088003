//! The DP-Box device model: a cycle-level simulation of the hardware module
//! of Section IV.
//!
//! The device exposes the paper's port-level interface — a 3-bit command
//! port, a signed input port, a signed output port, and a ready bit — and
//! reproduces its timing contract (Section V): noised output in 2 cycles
//! (one to load registers, one to noise), thresholding free, +1 cycle per
//! resample. Internally the noise pipeline is the real datapath: Tausworthe
//! URNG → CORDIC logarithm → shift-and-multiply scaling (`ε = 2^-n_m`, so
//! scaling by `1/ε` is a left shift, Eq. 19).
//!
//! One noise sample is precomputed while the device waits (Section IV-C2),
//! which is what makes 2-cycle noising possible once a request arrives.
//!
//! The FSM sequences the datapath the [`DeviceArray`](crate::DeviceArray)
//! shares: `StartNoising` builds the [`NoisingCtx`], each command checks
//! its operand as the array does, and the context's release clamps and
//! charges in both limiting modes. [`DpBox::boot`] is the fleet boot.
//!
//! # Modelling notes (deviations documented in DESIGN.md)
//!
//! * The paper's Eq. 17 extracts sign and magnitude from a single uniform
//!   (`u < 0.5` vs `u ≥ 0.5`); we implement the equivalent sign-bit +
//!   `(Bu−1)`-bit magnitude split so the output distribution is *exactly*
//!   the [`ulp_rng::FxpNoisePmf`] model with `Bu_eff = Bu − 1`.
//! * The window thresholds and budget segments are solved at configuration
//!   time by the exact solver in [`ldp_core::threshold`]; in silicon these
//!   would be ROM constants synthesized for the supported (ε, range)
//!   combinations.

use ldp_core::{AuditMismatch, BudgetLedger, CompositionLedger, LimitMode};
use ulp_fixed::QFormat;
use ulp_obs::{Counter, Histogram};
use ulp_rng::{
    CordicLn, FxpLaplaceConfig, HealthAlarm, HealthConfig, RandomBits, Taus88, UrngHealth,
};

use crate::array::DeviceArrayConfig;
use crate::command::Command;
use crate::datapath::{
    budget_operand, cordic_neg_ln, eps_shift_operand, synthesize, word_operand, NoisingCtx,
};
use crate::error::DpBoxError;
use crate::trace::{Trace, TraceEvent};

/// Commands accepted across all DP-Box instances in this process.
static COMMANDS: Counter = Counter::new("dpbox.commands.accepted");
/// Commands rejected (wrong phase, bad operand, health fault, busy).
static COMMANDS_REJECTED: Counter = Counter::new("dpbox.commands.rejected");
/// Health-fault phase entries — recorded even at metrics level `off`:
/// a voided ε certification must never be invisible.
static FAULT_TRANSITIONS: Counter = Counter::new("dpbox.phase.health_faults");
/// Requests served from the cache after exhaustion or during a fault.
static CACHE_SERVES: Counter = Counter::new("dpbox.outputs.cached");
/// Cycles from `StartNoising` to a fresh output (2 + resamples).
static NOISING_CYCLES: Histogram = Histogram::new("dpbox.noising.cycles", "cycles");

/// Static (synthesis-time) configuration of a DP-Box instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DpBoxConfig {
    /// Datapath word width in bits (the paper synthesizes 20).
    pub word_bits: u8,
    /// Fraction bits of the datapath grid (`Δ = 2^-frac_bits`).
    pub frac_bits: u8,
    /// URNG output width `Bu` (1 sign bit + `Bu−1` magnitude bits).
    pub bu: u8,
    /// CORDIC iterations of the single-cycle logarithm array.
    pub cordic_iterations: u8,
    /// Loss multiples defining the budget segments (Fig. 8).
    pub segment_multiples: Vec<f64>,
    /// URNG seed (a hardware TRNG would provide this at power-up).
    pub seed: u64,
}

impl Default for DpBoxConfig {
    /// The synthesized configuration from Section V: 20-bit datapath,
    /// 17-bit URNG, Fig. 8-style segments.
    fn default() -> Self {
        DpBoxConfig {
            word_bits: 20,
            frac_bits: 5,
            bu: 17,
            cordic_iterations: 24,
            segment_multiples: vec![1.5, 2.0, 2.5, 3.0],
            seed: 0x15CA_2018,
        }
    }
}

/// Operating phase of the DP-Box FSM (Section IV-C, extended with the
/// fail-safe health-fault state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Boot-time configuration: budget and replenishment period settable.
    Initialization,
    /// Waiting for a noise request; a fresh Laplace sample is staged.
    Waiting,
    /// Actively noising a sensor value.
    Noising,
    /// The URNG health monitor tripped: the distributional ε guarantee is
    /// void, so the device serves only cached outputs until an explicit
    /// [`Command::ResetHealth`] retest passes.
    HealthFault,
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DpBoxStats {
    /// Fresh noised outputs produced.
    pub noisings: u64,
    /// Requests served from the cache after budget exhaustion.
    pub cached: u64,
}

/// A staged noise sample: sign and the CORDIC `-ln u` magnitude.
#[derive(Debug, Clone, Copy)]
struct StagedSample {
    negative: bool,
    /// `-ln(u)` as a fixed-point word (see [`cordic_neg_ln`]).
    neg_ln_raw: i64,
}

/// The DP-Box hardware module.
///
/// Generic over the URNG bit source `R` (defaulting to the paper's
/// [`Taus88`]) so fault-injection campaigns can substitute degraded
/// sources via [`DpBox::with_urng`]. Every word the noise pipeline draws
/// is fed through the continuous health tests ([`UrngHealth`]); a trip
/// moves the FSM to [`Phase::HealthFault`], from which only cached outputs
/// are served until an explicit [`Command::ResetHealth`] retest passes.
///
/// # Examples
///
/// Drive the port-level interface directly:
///
/// ```
/// use dp_box::{Command, DpBox, DpBoxConfig};
///
/// let mut dev = DpBox::new(DpBoxConfig::default())?;
/// // Leave initialization (no budget → unlimited).
/// dev.issue(Command::StartNoising, 0)?;
///
/// // ε = 2^-1, sensor range [0, 320] grid units (= [0, 10.0] at Δ = 1/32).
/// dev.issue(Command::SetEpsilon, 1)?;
/// dev.issue(Command::SetSensorRangeLower, 0)?;
/// dev.issue(Command::SetSensorRangeUpper, 320)?;
/// dev.issue(Command::SetSensorValue, 160)?;
/// dev.issue(Command::StartNoising, 0)?;
/// while !dev.ready() {
///     dev.tick();
/// }
/// let noised = dev.output().expect("noised output");
/// # let _ = noised;
/// # Ok::<(), dp_box::DpBoxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DpBox<R = Taus88> {
    cfg: DpBoxConfig,
    fmt: QFormat,
    phase: Phase,
    urng: R,
    health: Option<UrngHealth>,
    cordic: CordicLn,
    // Configuration registers (initialization phase).
    budget: Option<f64>,
    replenish_period: u64,
    // Operating registers.
    eps_shift: Option<u8>,
    x_raw: Option<i64>,
    r_u: Option<i64>,
    r_l: Option<i64>,
    mode: LimitMode,
    // Derived noising context, rebuilt when parameters change.
    ctx: Option<NoisingCtx>,
    dirty: bool,
    // Runtime state.
    staged: Option<StagedSample>,
    remaining: f64,
    cache: Option<i64>,
    cycles: u64,
    since_replenish: u64,
    noising_subcycle: u8,
    output: Option<i64>,
    ready: bool,
    fault: Option<HealthAlarm>,
    stats: DpBoxStats,
    trace: Option<Trace>,
    // Auditable privacy accounting: every fresh-output charge is appended
    // to both records, so `audit()` can cross-check them at any time.
    ledger: BudgetLedger,
    accountant: CompositionLedger,
}

impl DpBox {
    /// Creates a DP-Box in the initialization phase, with the paper's
    /// Tausworthe URNG seeded from the configuration.
    ///
    /// # Errors
    ///
    /// [`DpBoxError::InvalidConfig`] for invalid word widths or segment
    /// multiples.
    pub fn new(cfg: DpBoxConfig) -> Result<Self, DpBoxError> {
        let urng = Taus88::from_seed(cfg.seed);
        DpBox::with_urng(cfg, urng)
    }
}

impl<R: RandomBits> DpBox<R> {
    /// Creates a DP-Box in the initialization phase running on a caller
    /// supplied URNG — the hook fault-injection campaigns use to substitute
    /// degraded bit sources (the configuration's `seed` is ignored).
    ///
    /// # Errors
    ///
    /// [`DpBoxError::InvalidConfig`] for invalid word widths or segment
    /// multiples.
    pub fn with_urng(cfg: DpBoxConfig, urng: R) -> Result<Self, DpBoxError> {
        let fmt = synthesize(
            cfg.word_bits,
            cfg.frac_bits,
            cfg.bu,
            cfg.cordic_iterations,
            &cfg.segment_multiples,
        )?;
        let cordic = CordicLn::new(cfg.cordic_iterations);
        Ok(DpBox {
            fmt,
            phase: Phase::Initialization,
            urng,
            health: Some(UrngHealth::default()),
            cordic,
            budget: None,
            replenish_period: 0,
            eps_shift: None,
            x_raw: None,
            r_u: None,
            r_l: None,
            mode: LimitMode::Resampling,
            ctx: None,
            dirty: true,
            staged: None,
            remaining: f64::INFINITY,
            cache: None,
            cycles: 0,
            since_replenish: 0,
            noising_subcycle: 0,
            output: None,
            ready: false,
            fault: None,
            stats: DpBoxStats::default(),
            trace: None,
            ledger: BudgetLedger::new(),
            accountant: CompositionLedger::new(),
            cfg,
        })
    }

    /// Boots a device on `urng` through the fleet command sequence, the
    /// one every [`DeviceArray`](crate::DeviceArray) lane reproduces:
    ///
    /// ```text
    /// set_health_config(health)
    /// ResetHealth                      // power-on self-test (startup words)
    /// SetEpsilon(budget_raw)           // initialization overload: budget
    /// StartNoising                     // freeze budget, stage first sample
    /// SetEpsilon(eps_shift)            // per-report ε = 2^-n_m
    /// SetSensorRangeLower(range_lower)
    /// SetSensorRangeUpper(range_upper)
    /// SetThreshold                     // resampling → thresholding
    /// ```
    ///
    /// Returns `None` when the power-on self-test excludes the device. The
    /// noising context is built at the first request, so a range-order or
    /// noise-support error surfaces from the first [`DpBox::noise_value`].
    ///
    /// # Errors
    ///
    /// The first command's error, [`DpBoxError::UrngHealthFault`] included
    /// when the monitor trips while staging the first sample.
    pub fn boot(cfg: &DeviceArrayConfig, urng: R) -> Result<Option<Self>, DpBoxError> {
        let mut dev = DpBox::with_urng(
            DpBoxConfig {
                word_bits: cfg.word_bits,
                frac_bits: cfg.frac_bits,
                bu: cfg.bu,
                cordic_iterations: cfg.cordic_iterations,
                segment_multiples: cfg.segment_multiples.clone(),
                seed: 0, // ignored: the URNG is caller-supplied
            },
            urng,
        )?;
        dev.set_health_config(cfg.health);
        dev.issue(Command::ResetHealth, 0)?;
        if dev.phase == Phase::HealthFault {
            return Ok(None);
        }
        for (cmd, input) in [
            (Command::SetEpsilon, cfg.budget_raw),
            (Command::StartNoising, 0),
            (Command::SetEpsilon, i64::from(cfg.eps_shift)),
            (Command::SetSensorRangeLower, cfg.range_lower),
            (Command::SetSensorRangeUpper, cfg.range_upper),
            (Command::SetThreshold, 0),
        ] {
            dev.issue(cmd, input)?;
        }
        Ok(Some(dev))
    }

    /// The current FSM phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Total elapsed clock cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether a noised output is available on the output port.
    pub fn ready(&self) -> bool {
        self.ready
    }

    /// The output port: the latest noised value (raw datapath word).
    pub fn output(&self) -> Option<i64> {
        if self.ready {
            self.output
        } else {
            None
        }
    }

    /// Remaining privacy budget (infinite if never configured).
    pub fn remaining_budget(&self) -> f64 {
        self.remaining
    }

    /// Activity counters.
    pub fn stats(&self) -> DpBoxStats {
        self.stats
    }

    /// The append-only record of every ε charge this device has made
    /// (cached replays and replenishments never touch it).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Cross-checks the ledger against the composition accountant (see
    /// [`BudgetLedger::audit`]): per-query charges and totals must match
    /// bitwise.
    ///
    /// # Errors
    ///
    /// The first [`AuditMismatch`] found.
    pub fn audit(&self) -> Result<(), AuditMismatch> {
        self.ledger.audit(&self.accountant)
    }

    /// The URNG health monitor, if enabled.
    pub fn health(&self) -> Option<&UrngHealth> {
        self.health.as_ref()
    }

    /// The latched health alarm, if a continuous test has tripped.
    pub fn health_alarm(&self) -> Option<HealthAlarm> {
        self.fault
    }

    /// Replaces the health monitor with a fresh one built from `cfg`.
    ///
    /// Takes effect immediately but does *not* clear a latched
    /// [`Phase::HealthFault`] — recovery always goes through
    /// [`Command::ResetHealth`].
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        self.health = Some(UrngHealth::new(cfg));
    }

    /// Disables URNG health monitoring entirely.
    ///
    /// Intended for structural-bound experiments only: without the monitor
    /// the device keeps noising on arbitrarily degraded URNGs and the
    /// distributional ε guarantee is uncertified.
    pub fn disable_health(&mut self) {
        self.health = None;
    }

    /// Enables the cycle-stamped event trace (the simulator's waveform
    /// dump), keeping at most `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::bounded(capacity));
    }

    /// The event trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Renders the captured trace as a VCD waveform document (see
    /// [`crate::trace_to_vcd`]); `None` if tracing is disabled.
    pub fn export_vcd(&self) -> Option<String> {
        self.trace
            .as_ref()
            .map(|t| crate::vcd::trace_to_vcd(t, "dp_box"))
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(event);
        }
    }

    fn record_phase(&mut self, from: Phase, to: Phase) {
        let cycle = self.cycles;
        self.record(TraceEvent::PhaseChange { cycle, from, to });
    }

    /// The window threshold (grid units) of the current configuration, if
    /// parameters have been loaded.
    pub fn threshold_k(&self) -> Option<i64> {
        self.ctx.as_ref().map(NoisingCtx::n_th_k)
    }

    /// The fixed-point Laplace RNG configuration the current parameters
    /// induce (for external privacy analysis of this device instance).
    pub fn laplace_config(&self) -> Option<FxpLaplaceConfig> {
        self.ctx.as_ref().map(NoisingCtx::laplace_config)
    }

    /// Sends one command with its input-port operand.
    ///
    /// # Errors
    ///
    /// [`DpBoxError::Busy`] while noising; [`DpBoxError::ValueOutOfRange`]
    /// if the operand does not fit the datapath word;
    /// [`DpBoxError::MissingParameters`] when `StartNoising` arrives before
    /// ε, range, and sensor value are all loaded; solver errors propagate as
    /// [`DpBoxError::Privacy`]; [`DpBoxError::UrngHealthFault`] for any
    /// command other than `DoNothing`/`ResetHealth` (or a cache-serving
    /// `StartNoising`) while a health alarm is latched.
    pub fn issue(&mut self, cmd: Command, input: i64) -> Result<(), DpBoxError> {
        if self.phase == Phase::Noising && cmd != Command::DoNothing {
            return Err(DpBoxError::Busy);
        }
        let before = self.phase;
        let result = match self.phase {
            Phase::Initialization => self.issue_init(cmd, input),
            Phase::Waiting => self.issue_waiting(cmd, input),
            Phase::Noising => Ok(()), // DoNothing only, already filtered
            Phase::HealthFault => self.issue_faulted(cmd),
        };
        if result.is_ok() {
            COMMANDS.inc();
            let cycle = self.cycles;
            self.record(TraceEvent::Command { cycle, cmd, input });
            if self.phase != before {
                self.record_phase(before, self.phase);
            }
        } else {
            COMMANDS_REJECTED.inc();
        }
        result
    }

    fn issue_init(&mut self, cmd: Command, input: i64) -> Result<(), DpBoxError> {
        match cmd {
            Command::SetEpsilon => {
                // Initialization overload: budget, in grid units of nats.
                self.budget = Some(budget_operand(self.fmt, input)?);
                Ok(())
            }
            Command::SetSensorRangeUpper => {
                // Initialization overload: replenishment period in cycles.
                if input < 0 {
                    return Err(DpBoxError::InvalidConfig(
                        "replenishment period must be non-negative",
                    ));
                }
                self.replenish_period = input as u64;
                Ok(())
            }
            Command::StartNoising => {
                // Budget and period are now frozen until power cycle.
                self.remaining = self.budget.unwrap_or(f64::INFINITY);
                self.phase = Phase::Waiting;
                self.stage_sample();
                Ok(())
            }
            Command::SetThreshold => {
                self.toggle_mode();
                Ok(())
            }
            Command::DoNothing => Ok(()),
            Command::ResetHealth => {
                self.reset_health();
                Ok(())
            }
            Command::SetSensorValue | Command::SetSensorRangeLower => Err(DpBoxError::WrongPhase(
                "sensor parameters are loaded after initialization",
            )),
        }
    }

    fn issue_waiting(&mut self, cmd: Command, input: i64) -> Result<(), DpBoxError> {
        match cmd {
            Command::SetEpsilon => {
                self.eps_shift = Some(eps_shift_operand(self.fmt, input)?);
                self.dirty = true;
                Ok(())
            }
            Command::SetSensorValue => {
                self.x_raw = Some(word_operand(self.fmt, input)?);
                Ok(())
            }
            Command::SetSensorRangeUpper => {
                self.r_u = Some(word_operand(self.fmt, input)?);
                self.dirty = true;
                Ok(())
            }
            Command::SetSensorRangeLower => {
                self.r_l = Some(word_operand(self.fmt, input)?);
                self.dirty = true;
                Ok(())
            }
            Command::SetThreshold => {
                self.toggle_mode();
                Ok(())
            }
            Command::StartNoising => {
                self.rebuild_ctx_if_needed()?;
                if self.x_raw.is_none() {
                    return Err(DpBoxError::MissingParameters("sensor value"));
                }
                self.phase = Phase::Noising;
                self.noising_subcycle = 0;
                self.ready = false;
                Ok(())
            }
            Command::DoNothing => Ok(()),
            Command::ResetHealth => {
                self.reset_health();
                Ok(())
            }
        }
    }

    /// Command handling while a health alarm is latched: the fail-safe
    /// contract is "no fresh noised output until an explicit reset".
    fn issue_faulted(&mut self, cmd: Command) -> Result<(), DpBoxError> {
        let alarm = self
            .fault
            .expect("HealthFault phase implies a latched alarm");
        match cmd {
            // Holding the device idle must NOT clear the alarm.
            Command::DoNothing => Ok(()),
            Command::ResetHealth => {
                self.reset_health();
                Ok(())
            }
            // A noise request is served from the cache if one exists —
            // replaying an already-released output leaks nothing new —
            // and refused otherwise.
            Command::StartNoising => {
                if let Some(cached) = self.cache {
                    self.output = Some(cached);
                    self.ready = true;
                    self.stats.cached += 1;
                    CACHE_SERVES.inc();
                    let cycle = self.cycles;
                    self.record(TraceEvent::Output {
                        cycle,
                        value: cached,
                        from_cache: true,
                    });
                    Ok(())
                } else {
                    Err(DpBoxError::UrngHealthFault(alarm))
                }
            }
            _ => Err(DpBoxError::UrngHealthFault(alarm)),
        }
    }

    /// The `ResetHealth` command path: clear the monitor, rerun the startup
    /// test on fresh URNG words, and only then re-arm fresh noising.
    fn reset_health(&mut self) {
        let cycle = self.cycles;
        let passed = match self.health.as_mut() {
            Some(h) => {
                h.reset();
                h.startup(&mut self.urng).is_ok()
            }
            None => true,
        };
        self.record(TraceEvent::HealthReset { cycle, passed });
        if passed {
            self.fault = None;
            if self.phase == Phase::HealthFault {
                self.record_phase(Phase::HealthFault, Phase::Waiting);
                self.phase = Phase::Waiting;
                self.ready = false;
                self.output = None;
                // Re-stage the sample the waiting phase keeps ready (this
                // can itself trip and re-enter the fault phase).
                self.stage_sample();
            }
        } else {
            let alarm = self
                .health
                .as_ref()
                .and_then(|h| h.alarm().copied())
                .expect("failed retest latches an alarm");
            self.trip(alarm);
        }
    }

    fn toggle_mode(&mut self) {
        self.mode = match self.mode {
            LimitMode::Resampling => LimitMode::Thresholding,
            LimitMode::Thresholding => LimitMode::Resampling,
        };
        let cycle = self.cycles;
        let mode = self.mode;
        self.record(TraceEvent::ModeToggled { cycle, mode });
        self.dirty = true;
    }

    fn rebuild_ctx_if_needed(&mut self) -> Result<(), DpBoxError> {
        if !self.dirty && self.ctx.is_some() {
            return Ok(());
        }
        let eps_shift = self
            .eps_shift
            .ok_or(DpBoxError::MissingParameters("epsilon"))?;
        let r_u = self
            .r_u
            .ok_or(DpBoxError::MissingParameters("range upper"))?;
        let r_l = self
            .r_l
            .ok_or(DpBoxError::MissingParameters("range lower"))?;
        // The segment table is memoized, so repeated device construction —
        // e.g. one DP-Box per fault-campaign trial — solves it once.
        self.ctx = Some(NoisingCtx::new(
            self.fmt,
            self.cfg.bu,
            &self.cfg.segment_multiples,
            eps_shift,
            r_l,
            r_u,
            self.mode,
        )?);
        self.dirty = false;
        Ok(())
    }

    /// Latches a health alarm: record it, stamp the FSM into the fail-safe
    /// phase, and void any staged (now uncertified) sample. The last
    /// *released* output is deliberately left intact — it becomes the cache
    /// the fault phase serves.
    fn trip(&mut self, alarm: HealthAlarm) {
        self.fault = Some(alarm);
        FAULT_TRANSITIONS.record_always(1);
        let cycle = self.cycles;
        self.record(TraceEvent::HealthAlarm { cycle, alarm });
        if self.phase != Phase::HealthFault {
            self.record_phase(self.phase, Phase::HealthFault);
            self.phase = Phase::HealthFault;
        }
        self.staged = None;
    }

    /// Draws one URNG word through the continuous health tests. A trip
    /// latches the fault phase; the word is still returned (the hardware
    /// pipeline has already consumed it) but its consumer's result is
    /// discarded by the early-outs on [`Phase::HealthFault`].
    fn draw_word(&mut self) -> u32 {
        let w = self.urng.next_u32();
        if let Some(h) = self.health.as_mut() {
            if !h.is_alarmed() {
                if let Err(alarm) = h.observe(w) {
                    self.trip(alarm);
                }
            }
        }
        w
    }

    /// Draws and stages one Laplace sample (sign + CORDIC `-ln u`), the
    /// work the waiting phase does ahead of time.
    ///
    /// The word-consumption pattern matches the pre-health pipeline
    /// bit-for-bit: one word for the sign (MSB), then one or two words for
    /// the `Bu−1` magnitude bits (high bits first), so seeded streams
    /// reproduce historical outputs exactly.
    fn stage_sample(&mut self) {
        let negative = self.draw_word() >> 31 == 1;
        let mag_bits = self.cfg.bu - 1;
        let m = if mag_bits <= 32 {
            u64::from(self.draw_word()) >> (32 - u32::from(mag_bits))
        } else {
            let hi = u64::from(self.draw_word());
            let lo = u64::from(self.draw_word());
            ((hi << 32) | lo) >> (64 - u32::from(mag_bits))
        } + 1;
        if self.phase == Phase::HealthFault {
            // The draw tripped the monitor: the sample is uncertified.
            return;
        }
        self.staged = Some(StagedSample {
            negative,
            neg_ln_raw: cordic_neg_ln(&self.cordic, mag_bits, m),
        });
    }

    /// Advances the clock by one cycle.
    pub fn tick(&mut self) {
        self.cycles += 1;
        // Budget replenishment timer runs in every phase after init.
        if self.phase != Phase::Initialization && self.replenish_period > 0 {
            self.since_replenish += 1;
            if self.since_replenish >= self.replenish_period {
                self.since_replenish = 0;
                if let Some(b) = self.budget {
                    self.remaining = b;
                    let cycle = self.cycles;
                    self.record(TraceEvent::Replenish { cycle });
                }
            }
        }
        if self.phase != Phase::Noising {
            return;
        }
        self.noising_subcycle = self.noising_subcycle.saturating_add(1);
        if self.noising_subcycle == 1 {
            // Cycle 1: operand registers load.
            return;
        }
        // Cycle 2 onward: noising / resampling.
        if self.remaining <= 0.0 {
            if let Some(cached) = self.cache {
                self.finish(cached, true);
            } else {
                // "Halt": no output, return to waiting.
                self.record_phase(Phase::Noising, Phase::Waiting);
                self.phase = Phase::Waiting;
                self.ready = false;
                self.output = None;
            }
            return;
        }
        let staged = match self.staged.take() {
            Some(s) => s,
            None => {
                self.stage_sample();
                match self.staged.take() {
                    Some(s) => s,
                    // The health monitor tripped mid-draw: the FSM is in
                    // HealthFault and this request is abandoned unserved.
                    None => return,
                }
            }
        };
        let x = self.x_raw.expect("validated at StartNoising");
        let ctx = self.ctx.as_ref().expect("ctx built at StartNoising");
        let k = ctx.noise_k(staged.negative, staged.neg_ln_raw);
        let release = ctx.release();
        // Resampling redraws until the noised value lands in the window;
        // thresholding clamps it there.
        let released =
            (self.mode == LimitMode::Thresholding || release.in_window(x, k)).then(|| {
                let y = release.output(x, k);
                (y, release.charge(y))
            });
        match released {
            None => {
                // Stage a new sample; next tick retries (+1 cycle each).
                let cycle = self.cycles;
                self.record(TraceEvent::Resample { cycle });
                self.stage_sample();
            }
            Some((y, charge)) => {
                self.remaining -= charge;
                self.ledger.record(charge);
                self.accountant.record(charge);
                let cycle = self.cycles;
                let remaining = self.remaining;
                self.record(TraceEvent::BudgetCharge {
                    cycle,
                    charge,
                    remaining,
                });
                self.finish(y, false);
            }
        }
    }

    fn finish(&mut self, y: i64, from_cache: bool) {
        self.output = Some(y);
        self.ready = true;
        self.cache = Some(y);
        let cycle = self.cycles;
        self.record(TraceEvent::Output {
            cycle,
            value: y,
            from_cache,
        });
        self.record_phase(self.phase, Phase::Waiting);
        self.phase = Phase::Waiting;
        if from_cache {
            self.stats.cached += 1;
            CACHE_SERVES.inc();
        } else {
            self.stats.noisings += 1;
            NOISING_CYCLES.record(u64::from(self.noising_subcycle));
        }
        // Stage the next sample immediately on re-entering waiting.
        self.stage_sample();
    }

    /// Convenience driver: loads a sensor value, starts noising, and ticks
    /// until the output is ready. Returns `(noised_raw, cycles_taken)`.
    ///
    /// # Errors
    ///
    /// Propagates [`DpBox::issue`] errors; returns
    /// [`DpBoxError::BudgetExhausted`] when the device halts with no cached
    /// output, and [`DpBoxError::UrngHealthFault`] when the health monitor
    /// trips before this request could be served.
    pub fn noise_value(&mut self, x_raw: i64) -> Result<(i64, u64), DpBoxError> {
        self.issue(Command::SetSensorValue, x_raw)?;
        let start = self.cycles;
        self.issue(Command::StartNoising, 0)?;
        while self.phase == Phase::Noising {
            self.tick();
        }
        let taken = self.cycles - start;
        match self.output() {
            Some(y) => Ok((y, taken)),
            None => match self.fault {
                Some(alarm) => Err(DpBoxError::UrngHealthFault(alarm)),
                None => Err(DpBoxError::BudgetExhausted),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured_box(mode_toggles: u8) -> DpBox {
        let mut dev = DpBox::new(DpBoxConfig::default()).unwrap();
        dev.issue(Command::StartNoising, 0).unwrap(); // leave init
        dev.issue(Command::SetEpsilon, 1).unwrap(); // ε = 0.5
        dev.issue(Command::SetSensorRangeLower, 0).unwrap();
        dev.issue(Command::SetSensorRangeUpper, 320).unwrap(); // d = 10.0
        for _ in 0..mode_toggles {
            dev.issue(Command::SetThreshold, 0).unwrap();
        }
        dev
    }

    #[test]
    fn boots_in_initialization_phase() {
        let dev = DpBox::new(DpBoxConfig::default()).unwrap();
        assert_eq!(dev.phase(), Phase::Initialization);
        assert!(!dev.ready());
        assert_eq!(dev.output(), None);
    }

    #[test]
    fn config_validation() {
        let cfg = DpBoxConfig {
            segment_multiples: vec![],
            ..DpBoxConfig::default()
        };
        assert!(DpBox::new(cfg).is_err());
        let cfg = DpBoxConfig {
            segment_multiples: vec![2.0, 1.5],
            ..DpBoxConfig::default()
        };
        assert!(DpBox::new(cfg).is_err());
        let cfg = DpBoxConfig {
            bu: 2,
            ..DpBoxConfig::default()
        };
        assert!(DpBox::new(cfg).is_err());
        let cfg = DpBoxConfig {
            frac_bits: 25,
            ..DpBoxConfig::default()
        };
        assert!(DpBox::new(cfg).is_err());
    }

    #[test]
    fn init_phase_rejects_sensor_parameters() {
        let mut dev = DpBox::new(DpBoxConfig::default()).unwrap();
        assert!(matches!(
            dev.issue(Command::SetSensorValue, 5),
            Err(DpBoxError::WrongPhase(_))
        ));
    }

    #[test]
    fn two_cycle_noising_with_thresholding() {
        let mut dev = configured_box(1); // toggled once → thresholding
        assert_eq!(dev.mode, LimitMode::Thresholding);
        for _ in 0..20 {
            let (_, cycles) = dev.noise_value(160).unwrap();
            assert_eq!(cycles, 2, "thresholding must take exactly 2 cycles");
        }
    }

    #[test]
    fn resampling_adds_cycles_only_when_out_of_window() {
        let mut dev = configured_box(0); // default resampling
        assert_eq!(dev.mode, LimitMode::Resampling);
        let mut total_extra = 0u64;
        let n = 500;
        for _ in 0..n {
            let (_, cycles) = dev.noise_value(160).unwrap();
            assert!(cycles >= 2);
            total_extra += cycles - 2;
        }
        // Paper Fig. 11: resampling adds well under one cycle on average.
        assert!(
            (total_extra as f64 / n as f64) < 1.0,
            "average extra cycles {}",
            total_extra as f64 / n as f64
        );
    }

    #[test]
    fn output_stays_in_window() {
        let mut dev = configured_box(1);
        let n_th = dev.threshold_k();
        // Threshold is built lazily at first StartNoising.
        let (_, _) = dev.noise_value(0).unwrap();
        let n_th = n_th.or(dev.threshold_k()).unwrap();
        for _ in 0..2_000 {
            let (y, _) = dev.noise_value(0).unwrap();
            assert!(y >= -n_th && y <= 320 + n_th, "y = {y} outside window");
        }
    }

    #[test]
    fn busy_device_rejects_commands() {
        let mut dev = configured_box(1);
        dev.issue(Command::SetSensorValue, 100).unwrap();
        dev.issue(Command::StartNoising, 0).unwrap();
        assert_eq!(dev.phase(), Phase::Noising);
        assert!(matches!(
            dev.issue(Command::SetEpsilon, 2),
            Err(DpBoxError::Busy)
        ));
        // DoNothing is always accepted.
        dev.issue(Command::DoNothing, 0).unwrap();
    }

    #[test]
    fn missing_parameters_are_reported() {
        let mut dev = DpBox::new(DpBoxConfig::default()).unwrap();
        dev.issue(Command::StartNoising, 0).unwrap();
        dev.issue(Command::SetSensorValue, 10).unwrap(); // x alone is fine
        let err = dev.issue(Command::StartNoising, 0).unwrap_err();
        assert!(matches!(err, DpBoxError::MissingParameters(_)));
    }

    #[test]
    fn budget_exhaustion_serves_cache() {
        let cfg = DpBoxConfig {
            seed: 7,
            ..DpBoxConfig::default()
        };
        let mut dev = DpBox::new(cfg).unwrap();
        // Budget: 3.0 nats = 96 grid units at Δ = 1/32.
        dev.issue(Command::SetEpsilon, 96).unwrap();
        dev.issue(Command::StartNoising, 0).unwrap();
        dev.issue(Command::SetEpsilon, 1).unwrap();
        dev.issue(Command::SetSensorRangeLower, 0).unwrap();
        dev.issue(Command::SetSensorRangeUpper, 320).unwrap();
        dev.issue(Command::SetThreshold, 0).unwrap(); // thresholding
        let mut outputs = Vec::new();
        for _ in 0..40 {
            outputs.push(dev.noise_value(160).unwrap().0);
        }
        let stats = dev.stats();
        assert!(stats.cached > 0, "budget should run out within 40 requests");
        assert!(stats.noisings > 0);
        // All cached replies equal the last fresh output.
        let last_fresh: Vec<i64> = outputs[..stats.noisings as usize].to_vec();
        for &y in &outputs[stats.noisings as usize..] {
            assert_eq!(y, *last_fresh.last().unwrap());
        }
    }

    #[test]
    fn replenishment_restores_budget() {
        let cfg = DpBoxConfig {
            seed: 9,
            ..DpBoxConfig::default()
        };
        let mut dev = DpBox::new(cfg).unwrap();
        dev.issue(Command::SetEpsilon, 64).unwrap(); // budget 2.0 nats
        dev.issue(Command::SetSensorRangeUpper, 1_000).unwrap(); // period
        dev.issue(Command::StartNoising, 0).unwrap();
        dev.issue(Command::SetEpsilon, 1).unwrap();
        dev.issue(Command::SetSensorRangeLower, 0).unwrap();
        dev.issue(Command::SetSensorRangeUpper, 320).unwrap();
        dev.issue(Command::SetThreshold, 0).unwrap();
        // Exhaust the budget.
        while dev.remaining_budget() > 0.0 {
            dev.noise_value(160).unwrap();
        }
        let cached_before = dev.stats().cached;
        dev.noise_value(160).unwrap();
        assert_eq!(dev.stats().cached, cached_before + 1);
        // Idle for a full replenishment period.
        for _ in 0..1_000 {
            dev.tick();
        }
        assert!(dev.remaining_budget() > 0.0, "budget must replenish");
        dev.noise_value(160).unwrap();
        assert_eq!(dev.stats().cached, cached_before + 1, "fresh noise again");
    }

    #[test]
    fn epsilon_shift_scales_noise() {
        // Larger n_m → smaller ε → more noise.
        let spread = |n_m: i64, seed: u64| -> f64 {
            let cfg = DpBoxConfig {
                seed,
                ..DpBoxConfig::default()
            };
            let mut dev = DpBox::new(cfg).unwrap();
            dev.issue(Command::StartNoising, 0).unwrap();
            dev.issue(Command::SetEpsilon, n_m).unwrap();
            dev.issue(Command::SetSensorRangeLower, 0).unwrap();
            dev.issue(Command::SetSensorRangeUpper, 320).unwrap();
            dev.issue(Command::SetThreshold, 0).unwrap();
            let n = 800;
            let xs: Vec<f64> = (0..n)
                .map(|_| dev.noise_value(160).unwrap().0 as f64 - 160.0)
                .collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64).sqrt()
        };
        let tight = spread(0, 11); // ε = 1
        let loose = spread(2, 12); // ε = 0.25
        assert!(
            loose > 1.5 * tight,
            "ε=0.25 spread {loose} vs ε=1 spread {tight}"
        );
    }

    #[test]
    fn ledger_audits_against_accountant() {
        let cfg = DpBoxConfig {
            seed: 7,
            ..DpBoxConfig::default()
        };
        let mut dev = DpBox::new(cfg).unwrap();
        dev.issue(Command::SetEpsilon, 96).unwrap(); // budget 3.0 nats
        dev.issue(Command::StartNoising, 0).unwrap();
        dev.issue(Command::SetEpsilon, 1).unwrap();
        dev.issue(Command::SetSensorRangeLower, 0).unwrap();
        dev.issue(Command::SetSensorRangeUpper, 320).unwrap();
        dev.issue(Command::SetThreshold, 0).unwrap();
        for _ in 0..40 {
            dev.noise_value(160).unwrap();
        }
        let stats = dev.stats();
        assert!(stats.cached > 0, "budget should exhaust within 40 requests");
        // Only fresh outputs are charged; cached replays are free.
        assert_eq!(dev.ledger().len() as u64, stats.noisings);
        dev.audit().expect("ledger matches accountant");
        assert_eq!(
            dev.ledger().total().to_bits(),
            dev.accountant.losses().iter().sum::<f64>().to_bits()
        );
        assert!(dev.ledger().total() > 0.0, "charges were made");
    }

    #[test]
    fn noise_distribution_matches_fxp_model() {
        // The hardware pipeline (CORDIC + shift scaling) must land within a
        // step of the analytic FxP model almost always: compare standard
        // deviations against the ideal Laplace.
        let mut dev = configured_box(1);
        let n = 4_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| (dev.noise_value(160).unwrap().0 - 160) as f64 / 32.0)
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let sd = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64).sqrt();
        // Thresholded Lap(20) loses some tail mass, so σ < √2·λ = 28.3 but
        // must stay in its vicinity.
        assert!(sd > 15.0 && sd < 30.0, "σ = {sd}");
    }
}
