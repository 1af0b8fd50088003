//! Shared pieces of the fleet benchmark: the three workloads, the
//! per-repetition correctness checks, and the process/host probes that
//! let a slow repetition be blamed on the host or on the program.
//!
//! This library talks to the program only through the fleet driver API
//! (`FleetConfig`, `FleetDriver`, `ServiceConfig`, `ServiceOutcome`), so a
//! change to any layer's signature can break the layer replay in
//! `perfbench/trace` but never the end-to-end numbers.

use std::hint::black_box;
use std::time::Instant;

use ulp_fleet::{
    ChaosConfig, Estimate, FaultClass, FleetConfig, SealStatus, ServiceConfig, ServiceOutcome,
    MAX_DELAY_ROUNDS,
};

/// Workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["batch_1m", "stream_25k", "chaos_25k"];

/// Planted malformed senders on the chaos workload.
pub const MALFORMED_SENDERS: usize = 3;
/// Per-lane queue capacity no clean round can fill: `Busy` never fires.
pub const ROOMY_QUEUE_FRAMES: usize = 1 << 18;
/// Per-lane queue capacity below one chunk's round of frames (2,048), so
/// `Busy` fires on the chaos workload until window seals start draining.
pub const CHAOS_QUEUE_FRAMES: usize = 1024;
/// Devices in the set-up run that fills every process-wide lazy cache.
pub const SETUP_DEVICES: usize = 1024;
/// Probability that a correct run fails any estimate gate of a run.
pub const GATE_FAMILY_ALPHA: f64 = 1e-3;
/// Fewest reports behind a gated estimate. The gate treats the error as
/// normal in standard errors; on a handful of reports it follows a
/// heavy-tailed t law instead (the last windows under chaos hold only
/// late stragglers: 4 values at seed 5102 missed by 6.25 SE).
pub const MIN_GATED_REPORTS: u64 = 1000;

/// One benchmark workload: the generated fleet and service configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// Fleet configuration handed to `FleetDriver::new`.
    pub fleet: FleetConfig,
    /// Service configuration handed to `run_service`.
    pub service: ServiceConfig,
}

/// The chaos transport of `chaos_25k`: bursty loss and delay plus
/// duplicate, reorder, corrupt and truncate faults.
pub fn chaos_transport(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop: FaultClass::bursty(0.08, 4.0),
        duplicate: FaultClass::flat(0.05),
        reorder: FaultClass::flat(0.05),
        corrupt: FaultClass::flat(0.02),
        truncate: FaultClass::flat(0.01),
        delay: FaultClass::bursty(0.05, 2.0),
    }
}

impl Workload {
    /// Builds workload `name` from `seed`; `smoke` shrinks the population
    /// and epochs so a self-test run takes seconds. `None` for an unknown
    /// name.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let (name, devices, epochs) = match (name, smoke) {
            ("batch_1m", false) => ("batch_1m", 1_000_000, 1),
            ("batch_1m", true) => ("batch_1m", 20_000, 1),
            ("stream_25k", false) => ("stream_25k", 25_000, 64),
            ("stream_25k", true) => ("stream_25k", 2_000, 8),
            ("chaos_25k", false) => ("chaos_25k", 25_000, 64),
            ("chaos_25k", true) => ("chaos_25k", 2_000, 8),
            _ => return None,
        };
        let mut fleet = FleetConfig::paper_default(devices, epochs, seed);
        let service = if name == "chaos_25k" {
            fleet.chaos = Some(chaos_transport(seed));
            fleet.malformed_senders = MALFORMED_SENDERS;
            // The full retry-plus-delay slack: every delayed frame lands
            // inside its window, so nothing is `late`.
            let slack = (1u32 << fleet.retry_budget) - 1 + MAX_DELAY_ROUNDS;
            ServiceConfig::new(1, CHAOS_QUEUE_FRAMES).with_watermark_lag(slack)
        } else {
            ServiceConfig::new(1, ROOMY_QUEUE_FRAMES)
        };
        Some(Workload {
            name,
            fleet,
            service,
        })
    }

    /// Whether traffic crosses the chaos transport.
    pub fn is_chaotic(&self) -> bool {
        self.fleet.chaos.is_some()
    }

    /// The set-up run: the same fleet and service shape at
    /// [`SETUP_DEVICES`] devices and one epoch.
    pub fn setup_variant(&self) -> Workload {
        Workload {
            name: self.name,
            fleet: FleetConfig {
                devices: SETUP_DEVICES,
                epochs: 1,
                ..self.fleet.clone()
            },
            service: self.service.clone(),
        }
    }

    /// Windows a run must seal.
    pub fn expected_windows(&self) -> usize {
        self.fleet.epochs.div_ceil(self.service.window_epochs) as usize
    }

    /// Ids of the planted malformed senders, ascending.
    pub fn planted_senders(&self) -> Vec<u32> {
        (0..self.fleet.malformed_senders)
            .map(|m| (self.fleet.devices + m) as u32)
            .collect()
    }
}

/// One estimate checked against the included population's ground truth.
#[derive(Debug, Clone)]
pub struct Gate {
    /// `window[i].mean`, `rollup.frequency`, ….
    pub label: String,
    /// The served estimate.
    pub estimate: Estimate,
    /// The ground truth it estimates.
    pub truth: f64,
}

impl Gate {
    /// Error beyond the bias envelope, in standard errors.
    pub fn excess_se(&self) -> f64 {
        let e = &self.estimate;
        ((e.value - self.truth).abs() - e.bias_bound) / e.stderr
    }

    /// Whether `|estimate − truth| ≤ z·SE + bias_bound`.
    pub fn passes(&self, z: f64) -> bool {
        let e = &self.estimate;
        (e.value - self.truth).abs() <= z * e.stderr + e.bias_bound
    }
}

/// Every mean and RR-frequency estimate a run serves from at least
/// [`MIN_GATED_REPORTS`] reports: one pair per sealed window, plus the
/// rollup's pair.
pub fn estimate_gates(o: &ServiceOutcome) -> Vec<Gate> {
    let mut gates = Vec::new();
    let mut push = |label: String, estimate: Option<Estimate>, truth: f64| {
        if let Some(estimate) = estimate.filter(|e| e.n >= MIN_GATED_REPORTS) {
            gates.push(Gate {
                label,
                estimate,
                truth,
            });
        }
    };
    for w in &o.snapshot.windows {
        push(format!("window[{}].mean", w.index), w.mean, o.truth_mean);
        push(
            format!("window[{}].frequency", w.index),
            w.rr_frequency,
            o.truth_fraction,
        );
    }
    push("rollup.mean".into(), o.rollup_mean, o.truth_mean);
    push(
        "rollup.frequency".into(),
        o.rollup_rr_frequency,
        o.truth_fraction,
    );
    gates
}

/// Complementary error function (Numerical Recipes `erfcc`, fractional
/// error below 1.2e-7 everywhere).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// The gate width, in standard errors, that keeps the chance of a correct
/// run failing *any* of its `gates` two-sided gates at or below
/// [`GATE_FAMILY_ALPHA`] (Bonferroni: each gate gets `α / gates`).
pub fn gate_z(gates: usize) -> f64 {
    let tail = GATE_FAMILY_ALPHA / gates.max(1) as f64;
    // P(|Z| > z) = erfc(z / √2) is decreasing in z: bisect.
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if erfc(mid / std::f64::consts::SQRT_2) > tail {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Every correctness check on one `run_service` outcome. Returns the
/// failed checks; an empty list means the repetition is correct. No
/// digest is pinned: each expectation is recomputed from the workload.
pub fn check_outcome(w: &Workload, o: &ServiceOutcome) -> Vec<String> {
    let mut fails = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            fails.push(what);
        }
    };
    check(o.audit_ok, "window or rollup ledger audit failed".into());
    check(
        o.double_spends == 0,
        format!("{} double-spends recorded", o.double_spends),
    );
    let windows = w.expected_windows();
    check(
        o.windows_sealed == windows
            && o.window_digests.len() == windows
            && o.snapshot.windows_sealed == windows,
        format!("{} of {windows} windows sealed", o.windows_sealed),
    );
    check(o.stats.late == 0, format!("{} late reports", o.stats.late));
    check(
        o.devices_simulated == w.fleet.devices && o.devices_dropped == 0,
        format!(
            "{} devices simulated, {} dropped mid-stream",
            o.devices_simulated, o.devices_dropped
        ),
    );

    // Coverage, recounted from the workload rather than trusted from the seal.
    let included = (w.fleet.devices - o.devices_excluded.min(w.fleet.devices)) as u64;
    let epochs = u64::from(w.fleet.epochs);
    let expected = 2 * epochs * included;
    check(
        o.rollup_seal.expected == expected,
        format!(
            "rollup seal expects {} reports, recount gives {expected}",
            o.rollup_seal.expected
        ),
    );
    check(
        o.rollup_seal.accepted == o.stats.accepted,
        format!(
            "rollup seal counts {} accepted, service counts {}",
            o.rollup_seal.accepted, o.stats.accepted
        ),
    );
    check(
        o.rollup_ledger_entries as u64 == epochs * included,
        format!(
            "rollup ledger holds {} entries, expected one per device-epoch ({})",
            o.rollup_ledger_entries,
            epochs * included
        ),
    );
    if !w.is_chaotic() {
        check(
            o.stats.accepted == expected,
            format!(
                "clean wire accepted {} of {expected} reports",
                o.stats.accepted
            ),
        );
        check(
            o.stats.rejected == 0 && o.stats.duplicates == 0,
            format!(
                "clean wire rejected {} and deduplicated {} frames",
                o.stats.rejected, o.stats.duplicates
            ),
        );
        check(
            o.window_seals
                .iter()
                .all(|s| matches!(s.status, SealStatus::Full)),
            "a clean-wire window sealed degraded".into(),
        );
    }
    check(
        o.quarantined == w.planted_senders(),
        format!(
            "quarantined {:?}, planted {:?}",
            o.quarantined,
            w.planted_senders()
        ),
    );

    check(
        o.rollup_mean.is_some() && o.rollup_rr_frequency.is_some(),
        "run served no rollup estimates".into(),
    );
    let gates = estimate_gates(o);
    let z = gate_z(gates.len());
    for g in &gates {
        check(
            g.passes(z),
            format!(
                "{} = {:.4} vs truth {:.4}: {:.2} SE beyond bias, gate {z:.2} SE",
                g.label,
                g.estimate.value,
                g.truth,
                g.excess_se()
            ),
        );
    }
    fails
}

/// The checks every repetition in one process passes: [`check_outcome`],
/// plus an outcome digest equal to the process's first repetition's.
#[derive(Debug, Default)]
pub struct RepetitionChecks {
    first_digest: Option<u64>,
}

impl RepetitionChecks {
    /// Checks one repetition's outcome; returns the failed checks.
    pub fn check(&mut self, w: &Workload, o: &ServiceOutcome) -> Vec<String> {
        let mut fails = check_outcome(w, o);
        let digest = o.digest();
        let first = *self.first_digest.get_or_insert(digest);
        if digest != first {
            fails.push(format!(
                "outcome digest {digest:016x} differs from the first repetition's {first:016x}"
            ));
        }
        fails
    }
}

/// `items` as a JSON array of strings.
pub fn json_list(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// Process and host counters sampled around one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of this process.
    pub cpu_s: f64,
    /// Minor page faults of this process.
    pub minflt: u64,
    /// Involuntary context switches of this process.
    pub nivcsw: u64,
    /// Host-wide steal ticks (`/proc/stat`, all CPUs).
    pub steal_ticks: u64,
}

/// `/proc` clock ticks per second (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Samples [`ProcSample`]; fields that cannot be read stay 0.
pub fn proc_sample() -> ProcSample {
    let mut s = ProcSample::default();
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name, starting at `state`.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            s.minflt = num(7);
            s.cpu_s = (num(11) + num(12)) as f64 / USER_HZ;
        }
    }
    s.nivcsw = status_field("nonvoluntary_ctxt_switches").unwrap_or(0);
    if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
        if let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) {
            s.steal_ticks = cpu
                .split_whitespace()
                .nth(8)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
    }
    s
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `VmRSS` in KiB, …).
pub fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.split(':').next() == Some(name))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Seconds for a fixed dependent integer-multiply chain: host CPU speed.
pub fn alu_probe() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..8_000_000u64 {
        x = x.rotate_left(13).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ i;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Seconds for a fixed chain of dependent loads over 64 MiB, beyond the
/// last-level cache: host memory latency under contention. The buffer is
/// freed before returning.
pub fn mem_probe() -> f64 {
    const BITS: u32 = 23; // 2^23 words = 64 MiB
    let buf: Vec<u64> = (0..1u64 << BITS)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let t = Instant::now();
    let mut idx = 0usize;
    for step in 0..100_000u64 {
        // Mixing in the step keeps the walk off short cycles that would
        // settle into cache; the next address still waits on this load.
        let h = (buf[idx] ^ step).wrapping_mul(0x2545_F491_4F6C_DD1D);
        idx = (h >> (64 - BITS)) as usize;
    }
    black_box(idx);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_width_grows_with_the_number_of_gates() {
        // One gate at α = 0.001 is the familiar two-sided 3.29 SE.
        assert!((gate_z(1) - 3.2905).abs() < 1e-3, "{}", gate_z(1));
        // 130 gates (64 one-epoch windows × 2 + rollup) need ≈ 4.47 SE.
        assert!((gate_z(130) - 4.47).abs() < 0.01, "{}", gate_z(130));
        assert!(gate_z(2) < gate_z(10));
    }

    #[test]
    fn workloads_parse_and_unknown_names_do_not() {
        for name in WORKLOADS {
            let w = Workload::new(name, 7, false).unwrap();
            assert_eq!(w.name, name);
            assert_eq!(w.fleet.seed, 7);
        }
        let chaos = Workload::new("chaos_25k", 7, false).unwrap();
        assert_eq!(chaos.fleet.chaos.unwrap().seed, 7);
        assert_eq!(chaos.service.watermark_lag, 6);
        assert_eq!(chaos.planted_senders(), vec![25_000, 25_001, 25_002]);
        assert!(Workload::new("stream_100k", 7, false).is_none());
    }

    fn smoke(name: &str, seed: u64) -> (Workload, ServiceOutcome) {
        let w = Workload::new(name, seed, true).unwrap();
        let driver = ulp_fleet::FleetDriver::new(w.fleet.clone()).unwrap();
        let o = driver.run_service(&w.service).unwrap();
        (w, o)
    }

    /// Plants a fault into a copy of a correct outcome and asserts that a
    /// check whose message contains `expect` fails.
    fn trips(
        w: &Workload,
        o: &ServiceOutcome,
        expect: &str,
        plant: impl FnOnce(&mut ServiceOutcome),
    ) {
        let mut bad = o.clone();
        plant(&mut bad);
        let fails = check_outcome(w, &bad);
        assert!(
            fails.iter().any(|f| f.contains(expect)),
            "planting `{expect}` gave {fails:?}"
        );
    }

    #[test]
    fn correct_runs_pass_every_check_at_a_fresh_seed() {
        for name in WORKLOADS {
            let (w, o) = smoke(name, 31_337);
            assert_eq!(check_outcome(&w, &o), Vec::<String>::new(), "{name}");
        }
    }

    #[test]
    fn every_check_trips_on_a_planted_fault() {
        let (w, o) = smoke("stream_25k", 11);
        assert!(check_outcome(&w, &o).is_empty());
        trips(&w, &o, "ledger audit failed", |o| o.audit_ok = false);
        trips(&w, &o, "double-spends", |o| o.double_spends = 1);
        trips(&w, &o, "windows sealed", |o| {
            o.windows_sealed -= 1;
            o.window_digests.pop();
        });
        trips(&w, &o, "late reports", |o| o.stats.late = 1);
        trips(&w, &o, "dropped mid-stream", |o| o.devices_dropped = 1);
        trips(&w, &o, "rollup seal expects", |o| {
            o.rollup_seal.expected += 1
        });
        trips(&w, &o, "clean wire accepted", |o| {
            o.stats.accepted -= 1;
            o.rollup_seal.accepted -= 1;
        });
        trips(&w, &o, "rollup seal counts", |o| {
            o.rollup_seal.accepted -= 1
        });
        trips(&w, &o, "rollup ledger holds", |o| {
            o.rollup_ledger_entries -= 1
        });
        trips(&w, &o, "clean wire rejected", |o| o.stats.duplicates = 1);
        trips(&w, &o, "sealed degraded", |o| {
            o.window_seals[0].status = SealStatus::Degraded { coverage: 0.5 }
        });
        trips(&w, &o, "quarantined", |o| o.quarantined.push(3));
        trips(&w, &o, "SE beyond bias", |o| {
            let m = o.rollup_mean.as_mut().unwrap();
            m.value += 10.0 * m.stderr + m.bias_bound;
        });
        trips(&w, &o, "no rollup estimates", |o| {
            o.rollup_mean = None;
            o.rollup_rr_frequency = None;
            o.snapshot.windows.clear();
        });

        let (w, o) = smoke("chaos_25k", 11);
        assert!(check_outcome(&w, &o).is_empty());
        trips(&w, &o, "quarantined", |o| {
            o.quarantined.pop();
        });
    }

    #[test]
    fn estimates_from_few_reports_are_not_gated() {
        let (w, o) = smoke("stream_25k", 11);
        let mut shifted = o.clone();
        let m = shifted.snapshot.windows[0].mean.as_mut().unwrap();
        m.value += 10.0 * m.stderr + m.bias_bound;
        assert!(!check_outcome(&w, &shifted).is_empty());
        shifted.snapshot.windows[0].mean.as_mut().unwrap().n = MIN_GATED_REPORTS - 1;
        assert_eq!(check_outcome(&w, &shifted), Vec::<String>::new());
    }

    #[test]
    fn a_changed_outcome_trips_the_digest_check() {
        let (w, o) = smoke("batch_1m", 11);
        let mut checks = RepetitionChecks::default();
        assert!(checks.check(&w, &o).is_empty());
        assert!(checks.check(&w, &o).is_empty());
        let mut changed = o.clone();
        changed.retry_attempts += 1;
        let fails = checks.check(&w, &changed);
        assert!(fails.iter().any(|f| f.contains("digest")), "{fails:?}");
    }
}
