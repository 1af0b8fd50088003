//! Ledger/accountant audit invariants: the append-only privacy-budget
//! ledger must stay bitwise-consistent with the sequential-composition
//! accountant through every path — single responses, runs of requests,
//! exhaustion mid-run, and replenishment cycles — its keyed spend index must
//! answer exactly as a hash-map reference model does, in any key order,
//! and the streaming audit must find what the materialized audit finds.

use std::collections::HashMap;

use ldp_core::{
    audit_series, AuditMismatch, BudgetController, BudgetLedger, CompositionLedger, LedgerEntry,
    LimitMode, QuantizedRange, SegmentTable,
};
use proptest::prelude::*;
use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};

fn small_setup() -> (FxpLaplaceConfig, QuantizedRange, SegmentTable) {
    let cfg = FxpLaplaceConfig::new(12, 14, 1.0, 32.0).expect("valid config");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let range = QuantizedRange::new(0, 16, 1.0).expect("valid range");
    let table = SegmentTable::build(cfg, &pmf, range, &[1.5, 2.0, 3.0], LimitMode::Thresholding)
        .expect("buildable");
    (cfg, range, table)
}

fn controller(budget: f64) -> (BudgetController, FxpLaplace) {
    let (cfg, range, table) = small_setup();
    let ctrl = BudgetController::new(table, range, budget).expect("valid budget");
    (ctrl, FxpLaplace::analytic(cfg))
}

/// One keyed charge: `(device, query, charge)`.
type Spend = (u64, u64, f64);

/// Devices and queries are drawn from `0..KEY_SPAN`, so generated
/// sequences repeat keys often and every key can be probed afterwards.
const KEY_SPAN: u64 = 6;

/// A raw keyed charge: small key components and one of four charges
/// (`0`, `¼`, `½`, `¾`), so equal charges under different keys are common.
fn raw_spends() -> impl Strategy<Value = Vec<(u64, u64, u32)>> {
    collection::vec((0..KEY_SPAN, 0..KEY_SPAN, 0u32..4), 0..48)
}

fn to_spend((device, query, q): (u64, u64, u32)) -> Spend {
    (device, query, f64::from(q) / 4.0)
}

/// Orders `raw` one of four ways: ascending by key (the fleet's canonical
/// order), descending, as drawn (shuffled), or ascending with replays
/// planted — `(true, i)` repeats the key at `i` right behind itself,
/// `(false, i)` repeats it after every later key.
fn ordered(raw: &[(u64, u64, u32)], order: u8, replays: &[(bool, usize)]) -> Vec<Spend> {
    let mut spends: Vec<Spend> = raw.iter().copied().map(to_spend).collect();
    let by_key = |a: &Spend, b: &Spend| (a.0, a.1).cmp(&(b.0, b.1));
    match order {
        0 => spends.sort_by(by_key),
        1 => spends.sort_by(|a, b| by_key(b, a)),
        2 => {}
        _ => {
            spends.sort_by(by_key);
            for &(adjacent, i) in replays {
                if spends.is_empty() {
                    break;
                }
                let at = i % spends.len();
                let (device, query, charge) = spends[at];
                let replay = (device, query, charge + 1.0);
                if adjacent {
                    spends.insert(at + 1, replay);
                } else {
                    spends.push(replay);
                }
            }
        }
    }
    spends
}

/// What a `DoubleSpend` prints: `f64`'s `Display` round-trips, so equal
/// text is equal payloads.
fn double_spend(device: u64, query: u64, first: f64, second: f64) -> String {
    format!(
        "double spend: device {device} query {query} already charged ε = {first}, \
         rejected second charge ε = {second}"
    )
}

/// The reference model: the hash-map index the sorted index replaced.
#[derive(Default)]
struct Model {
    spends: HashMap<(u64, u64), f64>,
    entries: Vec<LedgerEntry>,
    total: f64,
}

impl Model {
    /// A refusal is the `DoubleSpend` payload as its `Display` prints it.
    fn record_spend(&mut self, device: u64, query: u64, charge: f64) -> Result<(), String> {
        if let Some(&first) = self.spends.get(&(device, query)) {
            return Err(double_spend(device, query, first, charge));
        }
        self.spends.insert((device, query), charge);
        self.total += charge;
        self.entries.push(LedgerEntry {
            query: self.entries.len() as u64,
            charge,
            total_after: self.total,
        });
        Ok(())
    }
}

/// The audit over two materialized series, as a merged ledger and an
/// accountant were compared before the streaming pass: counts, then the
/// first charge, then the normalized totals.
fn reference_audit(ledger: &[f64], accountant: &[f64]) -> Result<(), AuditMismatch> {
    if ledger.len() != accountant.len() {
        return Err(AuditMismatch::QueryCount {
            ledger: ledger.len() as u64,
            accountant: accountant.len() as u64,
        });
    }
    for (query, (&l, &a)) in ledger.iter().zip(accountant).enumerate() {
        if l.to_bits() != a.to_bits() {
            return Err(AuditMismatch::Charge {
                query: query as u64,
                ledger: l,
                accountant: a,
            });
        }
    }
    let ledger_total = ledger.iter().fold(0.0, |t, c| t + c);
    let accountant_total = accountant.iter().sum::<f64>() + 0.0;
    if (ledger_total + 0.0).to_bits() != accountant_total.to_bits() {
        return Err(AuditMismatch::Total {
            ledger: ledger_total,
            accountant: accountant_total,
        });
    }
    Ok(())
}

/// Plants one change of kind `kind` into `series` at positions `i` and
/// `j` (reduced modulo its length): none, one charge a bit off, an extra
/// charge, a lost charge, or two charges swapped.
fn plant(series: &mut Vec<f64>, kind: u8, i: usize, j: usize) {
    let n = series.len();
    match kind {
        1 if n > 0 => series[i % n] = f64::from_bits(series[i % n].to_bits() ^ 1),
        2 => series.insert(i % (n + 1), 0.5),
        3 if n > 0 => {
            series.remove(i % n);
        }
        4 if n > 0 => series.swap(i % n, j % n),
        _ => {}
    }
}

/// Serves `n` requests for `x` through the alias table, returning the
/// outputs and how many found budget left: Algorithm 1 serves exactly
/// those fresh.
fn respond_n(
    ctrl: &mut BudgetController,
    sampler: &FxpLaplace,
    rng: &mut Taus88,
    n: usize,
) -> (Vec<f64>, usize) {
    let mut fresh = 0;
    let out = (0..n)
        .map(|_| {
            fresh += usize::from(ctrl.remaining() > 0.0);
            ctrl.respond_alias(8.0, sampler, rng)
                .expect("served or replayed")
        })
        .collect();
    (out, fresh)
}

#[test]
fn mid_batch_exhaustion_replays_instead_of_overdrawing() {
    // A budget good for only a handful of fresh responses, hit with a run
    // of requests far longer: the tail must replay the cache, never draw
    // fresh noise.
    let (mut ctrl, sampler) = controller(2.0);
    let mut rng = Taus88::from_seed(41);
    let (out, fresh) = respond_n(&mut ctrl, &sampler, &mut rng, 64);
    assert!(fresh >= 1, "some requests served fresh");
    assert!(fresh < 64, "budget must exhaust mid-run");
    // Only fresh responses are charged, and they never overdraw by more
    // than one final charge (Algorithm 1 checks before serving).
    assert_eq!(ctrl.ledger().len(), fresh);
    assert!(ctrl.remaining() > -ctrl.ledger().entries().last().unwrap().charge - 1e-12);
    // Replays are verbatim copies of the last fresh output.
    let last_fresh = out[fresh - 1];
    for &y in &out[fresh..] {
        assert_eq!(y, last_fresh, "replays must echo the cached output");
    }
    ctrl.audit().expect("partial run stays audit-consistent");
}

#[test]
fn exhausted_batch_replays_for_free_and_audits_clean() {
    // A 1e-9-nat budget is overdrawn by the very first response, so every
    // later request finds it exhausted — with exactly one cached output.
    let (mut ctrl, sampler) = controller(1e-9);
    let mut rng = Taus88::from_seed(42);
    let first = ctrl.respond(8.0, &sampler, &mut rng).expect("first serve");
    assert!(first.is_finite());
    assert!(
        ctrl.remaining() <= 0.0,
        "the first charge spends the budget"
    );
    let (out, fresh) = respond_n(&mut ctrl, &sampler, &mut rng, 5);
    assert!(out.iter().all(|&y| y == first), "replays echo the cache");
    assert_eq!(fresh, 0, "every later request replays");
    assert_eq!(ctrl.ledger().len(), 1, "replays append nothing");
    ctrl.audit().expect("audit clean after replays");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ledger_total_always_equals_accountant_total(
        charges in proptest::collection::vec(0u32..5_000, 0..64)
    ) {
        // Any sequence of finite non-negative charges recorded in lockstep
        // keeps the two records bitwise-identical.
        let mut ledger = BudgetLedger::new();
        let mut acct = CompositionLedger::new();
        for q in &charges {
            let eps = f64::from(*q) / 1024.0;
            ledger.record(eps);
            acct.record(eps);
        }
        prop_assert_eq!(ledger.len(), acct.losses().len());
        ledger.audit(&acct).expect("lockstep records always audit clean");
    }

    #[test]
    fn controller_audit_survives_exhaustion_and_replenishment(
        budget_q in 10u32..100,
        rounds in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (mut ctrl, sampler) = controller(f64::from(budget_q) / 10.0);
        let mut rng = Taus88::from_seed(seed);
        let mut fresh = 0;
        for _ in 0..rounds {
            for _ in 0..50 {
                fresh += usize::from(ctrl.remaining() > 0.0);
                let _ = ctrl.respond(8.0, &sampler, &mut rng);
            }
            ctrl.audit().expect("audit clean at every boundary");
            ctrl.replenish();
        }
        // The ledger spans periods: total >= any single period's budget use.
        prop_assert_eq!(ctrl.ledger().len(), fresh);
        ctrl.audit().expect("final audit clean");
    }

    #[test]
    fn batch_partials_stay_consistent_for_any_split(
        n in 1usize..48,
        seed in any::<u64>(),
    ) {
        let (mut ctrl, sampler) = controller(1.5);
        let mut rng = Taus88::from_seed(seed);
        // The first request always serves under a 1.5-nat budget.
        let (_, fresh) = respond_n(&mut ctrl, &sampler, &mut rng, n);
        prop_assert!(fresh >= 1);
        prop_assert_eq!(ctrl.ledger().len(), fresh);
        ctrl.audit().expect("audit clean for any exhaustion point");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keyed_index_answers_like_a_hash_map(
        raw in raw_spends(),
        order in 0u8..4,
        replays in collection::vec((any::<bool>(), 0usize..64), 0..8),
    ) {
        let mut ledger = BudgetLedger::new();
        let mut model = Model::default();
        for (device, query, charge) in ordered(&raw, order, &replays) {
            // Every call, refusals included: the `DoubleSpend` payload
            // must name the first charge exactly as the model does.
            prop_assert_eq!(
                ledger.record_spend(device, query, charge).map_err(|e| e.to_string()),
                model.record_spend(device, query, charge)
            );
        }
        prop_assert_eq!(ledger.entries(), &model.entries[..]);
        prop_assert_eq!(ledger.total().to_bits(), model.total.to_bits());
        prop_assert_eq!(ledger.spend_keys(), model.spends.len());
        // Probe every key afterwards: the index holds exactly the model's
        // keys, each with the charge that was accepted for it.
        for device in 0..KEY_SPAN {
            for query in 0..KEY_SPAN {
                let expected = match model.spends.get(&(device, query)) {
                    Some(&first) => Err(double_spend(device, query, first, 2.0)),
                    None => Ok(()),
                };
                let got = ledger.clone().record_spend(device, query, 2.0);
                prop_assert_eq!(got.map_err(|e| e.to_string()), expected);
            }
        }
    }

    #[test]
    fn equal_keyed_spends_compare_equal_in_any_key_order(raw in raw_spends()) {
        // Distinct keys only, in draw order.
        let mut seen = HashMap::new();
        let first: Vec<Spend> = raw
            .iter()
            .copied()
            .map(to_spend)
            .filter(|&(d, q, c)| seen.insert((d, q), c).is_none())
            .collect();
        // Reverse the keys within each charge class: the same keyed spends
        // arrive in another key order, but the charge sequence is unchanged.
        let mut second = first.clone();
        for class in 0..4 {
            let charge = f64::from(class) / 4.0;
            let slots: Vec<usize> = (0..first.len()).filter(|&i| first[i].2 == charge).collect();
            for (&to, &from) in slots.iter().zip(slots.iter().rev()) {
                second[to] = first[from];
            }
        }
        let record = |spends: &[Spend]| {
            let mut ledger = BudgetLedger::new();
            for &(device, query, charge) in spends {
                ledger.record_spend(device, query, charge).expect("distinct keys");
            }
            ledger
        };
        prop_assert_eq!(record(&first), record(&second));
        // The comparison is not vacuous: one changed key breaks it.
        if let Some(&(device, query, charge)) = first.last() {
            let mut moved = first.clone();
            *moved.last_mut().unwrap() = (device + KEY_SPAN, query, charge);
            prop_assert_ne!(record(&first), record(&moved));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A series split into window ledgers, with one change planted on
    /// either side, audits through one streaming pass exactly as the
    /// windows' merged ledger audits against a `CompositionLedger`: the
    /// same verdict, the same first mismatch, the same length and total.
    #[test]
    fn streaming_audit_finds_what_the_merged_audit_finds(
        raw in collection::vec(0u32..5_000, 0..48),
        cuts in collection::vec(0usize..48, 0..4),
        kind in 0u8..5,
        (i, j) in (0usize..64, 0usize..64),
        on_ledger_side in any::<bool>(),
    ) {
        // Tenths of a nat round in every sum.
        let clean: Vec<f64> = raw.iter().map(|&q| f64::from(q) * 0.1).collect();
        let mut planted = clean.clone();
        plant(&mut planted, kind, i, j);
        let (ledger_side, accountant_side) = if on_ledger_side {
            (&planted, &clean)
        } else {
            (&clean, &planted)
        };
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(ledger_side.len())).collect();
        bounds.extend([0, ledger_side.len()]);
        bounds.sort_unstable();
        let windows: Vec<BudgetLedger> = bounds
            .windows(2)
            .map(|b| {
                let mut window = BudgetLedger::new();
                window.extend(ledger_side[b[0]..b[1]].iter().copied());
                window
            })
            .collect();
        let mut merged = BudgetLedger::new();
        windows.iter().for_each(|w| merged.extend(w.entries().iter().map(|e| e.charge)));
        let accountant: CompositionLedger = accountant_side.iter().copied().collect();

        let (summary, streamed) = audit_series(
            windows.iter().flat_map(|w| w.entries()).map(|e| e.charge),
            accountant_side.iter().copied(),
        );
        let expected = reference_audit(ledger_side, accountant_side);
        prop_assert_eq!(streamed, expected);
        prop_assert_eq!(merged.audit(&accountant), expected);
        prop_assert_eq!(summary.len(), merged.len());
        prop_assert_eq!(summary.total().to_bits(), merged.total().to_bits());
        // The audit fails exactly when the plant changed the series.
        let unchanged = planted.iter().map(|c| c.to_bits()).eq(clean.iter().map(|c| c.to_bits()));
        prop_assert_eq!(expected.is_ok(), unchanged);
    }
}
