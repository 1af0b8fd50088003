//! Cycle-stamped event tracing — the simulator's waveform dump.
//!
//! Hardware teams debug privacy logic with waveforms; the software model
//! offers the equivalent: an optional bounded trace of command, phase,
//! datapath, and budget events, each stamped with the cycle it occurred in.

use std::collections::VecDeque;

use ldp_core::LimitMode;
use ulp_rng::HealthAlarm as UrngHealthAlarm;

use crate::command::Command;
use crate::device::Phase;

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A command was accepted on the command port.
    Command {
        /// Cycle stamp.
        cycle: u64,
        /// The command.
        cmd: Command,
        /// The input-port operand.
        input: i64,
    },
    /// The FSM changed phase.
    PhaseChange {
        /// Cycle stamp.
        cycle: u64,
        /// Previous phase.
        from: Phase,
        /// New phase.
        to: Phase,
    },
    /// The limiting mode was toggled.
    ModeToggled {
        /// Cycle stamp.
        cycle: u64,
        /// Mode now active.
        mode: LimitMode,
    },
    /// A staged noise draw was rejected and redrawn (resampling).
    Resample {
        /// Cycle stamp.
        cycle: u64,
    },
    /// A noised output was released.
    Output {
        /// Cycle stamp.
        cycle: u64,
        /// The released raw value.
        value: i64,
        /// Whether it came from the cache (budget exhausted).
        from_cache: bool,
    },
    /// The budget was charged.
    BudgetCharge {
        /// Cycle stamp.
        cycle: u64,
        /// Loss charged, in nats.
        charge: f64,
        /// Remaining budget after the charge.
        remaining: f64,
    },
    /// The replenishment timer fired.
    Replenish {
        /// Cycle stamp.
        cycle: u64,
    },
    /// The URNG health monitor tripped; the device enters `HealthFault`.
    HealthAlarm {
        /// Cycle stamp.
        cycle: u64,
        /// The continuous-test alarm that latched.
        alarm: UrngHealthAlarm,
    },
    /// An explicit reset-and-retest (`ResetHealth`) was performed.
    HealthReset {
        /// Cycle stamp.
        cycle: u64,
        /// Whether the startup retest passed (`false` latches a new alarm).
        passed: bool,
    },
}

impl TraceEvent {
    /// The cycle this event was stamped with.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::Command { cycle, .. }
            | TraceEvent::PhaseChange { cycle, .. }
            | TraceEvent::ModeToggled { cycle, .. }
            | TraceEvent::Resample { cycle }
            | TraceEvent::Output { cycle, .. }
            | TraceEvent::BudgetCharge { cycle, .. }
            | TraceEvent::Replenish { cycle }
            | TraceEvent::HealthAlarm { cycle, .. }
            | TraceEvent::HealthReset { cycle, .. } => *cycle,
        }
    }
}

/// A bounded event trace (oldest events are dropped at capacity).
///
/// # Examples
///
/// ```
/// use dp_box::{Trace, TraceEvent};
///
/// let mut trace = Trace::bounded(2);
/// trace.push(TraceEvent::Resample { cycle: 1 });
/// trace.push(TraceEvent::Resample { cycle: 2 });
/// trace.push(TraceEvent::Resample { cycle: 3 });
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.events().next().unwrap().cycle(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
}

impl Trace {
    /// Creates a trace holding at most `capacity` events.
    pub fn bounded(capacity: usize) -> Self {
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Appends an event, evicting the oldest beyond capacity.
    pub fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_eviction_keeps_newest() {
        let mut t = Trace::bounded(3);
        for c in 0..10 {
            t.push(TraceEvent::Resample { cycle: c });
        }
        let cycles: Vec<u64> = t.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_discards_everything() {
        let mut t = Trace::bounded(0);
        t.push(TraceEvent::Resample { cycle: 1 });
        assert!(t.is_empty());
    }

    #[test]
    fn at_cycle_filters() {
        let mut t = Trace::bounded(10);
        t.push(TraceEvent::Resample { cycle: 5 });
        t.push(TraceEvent::Replenish { cycle: 5 });
        t.push(TraceEvent::Resample { cycle: 6 });
        let at_cycle = |cycle| t.events().filter(|e| e.cycle() == cycle).count();
        assert_eq!(at_cycle(5), 2);
        assert_eq!(at_cycle(6), 1);
        assert_eq!(at_cycle(7), 0);
    }
}
