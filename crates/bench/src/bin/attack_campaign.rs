//! attack_campaign — precision-attack red team across every sampler path.
//!
//! Runs the [`ulp_attack`] support-gap distinguishers against each sampler
//! path the workspace ships — the ideal `f64` Laplace (Mironov bit-pattern
//! attack), the rounded-Laplace alias grid behind the ideal fast path, the
//! naive FxP baseline on the reference and alias fast paths, and the
//! resampling/thresholding window mechanisms under closed-form, exact, and
//! interval-refined thresholds — and compares each cell's **exact realized
//! worst-case loss** (Eq. 4, from the integer-count PMF) against its
//! **claimed ε**. Each attackable cell also gets a seeded empirical
//! campaign whose distinguishing advantage is scored against a 3σ null.
//!
//! The campaign asserts its own gates before writing the report:
//!
//! * at least one infinite-loss cell's empirical advantage clears 3σ (the
//!   attack *works*, not just on paper);
//! * the paper's closed-form Eq. 15 thresholding cell is flagged
//!   **infinite** (the pinned reproduction finding);
//! * every `SamplerPath::Secure` cell machine-checks its realized loss ≤
//!   claimed ε — and the interval-refined thresholding window demonstrably
//!   *shrank* from the unsound Eq. 15 start;
//! * the secure path refuses the uncertifiable baseline with a typed
//!   error.
//!
//! Results land in a machine-readable JSON report (default
//! `BENCH_attack.json`) whose `digest` is computed over timing-free cell
//! renderings — byte-identical at any `ULP_PAR_THREADS` (per-cell RNG
//! streams derive from `stream_seed(seed, [cell, side])`, never from
//! thread scheduling).
//!
//! Flags: `--smoke` (4 000 trials/side, CI-friendly), `--trials <n>`
//! (default 200 000), `--out <path>`, `--seed <n>`. The seed env override
//! is `ULP_ATTACK_SEED` (strict-parsed: a malformed value exits 2 naming
//! the variable, never a silent default).

use std::num::NonZeroU64;
use std::time::Instant;

use ldp_bench::json::{Json, Obj};
use ldp_bench::{require_flag, unknown_flag};
use ldp_core::{
    conditional, exact_threshold, refine_threshold, resampling_threshold, thresholding_threshold,
    FxpBaseline, IdealLaplaceMechanism, LdpError, LimitMode, Mechanism, PrivacyLoss,
    QuantizedRange, ResamplingMechanism, SamplerPath, ThresholdingMechanism,
};
use ulp_attack::{
    attack_seed_from_env, table_dist, AttackOutcome, CellVerdict, FloatSupportAttack,
    SupportGapAttack,
};
use ulp_rng::{
    cached_alias_laplace_grid, stream_seed, FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, RandomBits,
    Taus88,
};

const BIN: &str = "attack_campaign";

/// The paper's Fig. 4 configuration: Bu = 17, λ = 20, Δ = 10/32, range
/// [0, 10] (ε = 0.5).
fn paper_cfg() -> (FxpLaplaceConfig, QuantizedRange, f64) {
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper config");
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("paper range");
    (cfg, range, 0.5)
}

/// A deliberately coarse URNG (Bu = 8) over a wide range: the naive
/// support gap carries percent-level mass, so the attack clears 3σ even at
/// smoke trial counts.
fn lowres_cfg() -> (FxpLaplaceConfig, QuantizedRange) {
    let cfg = FxpLaplaceConfig::new(8, 12, 0.5, 2.0).expect("lowres config");
    let range = QuantizedRange::new(0, 16, cfg.delta()).expect("lowres range");
    (cfg, range)
}

struct CellReport {
    name: &'static str,
    mechanism: &'static str,
    path: &'static str,
    claimed: Option<f64>,
    verdict: CellVerdict,
    refused: Option<String>,
    exact_advantage: f64,
    outcome: Option<AttackOutcome>,
    refine_start: Option<i64>,
    refine_steps: Option<i64>,
    n_th_k: Option<i64>,
    seconds: f64,
}

impl CellReport {
    fn verdict_tag(&self) -> &'static str {
        if self.refused.is_some() {
            "refused"
        } else {
            self.verdict.tag()
        }
    }

    /// The timing-free canonical rendering the campaign digest runs over.
    fn canonical(&self) -> String {
        let outcome = match &self.outcome {
            Some(o) => format!(
                "n={} h1={} h2={} adv={:.9} flagged={}",
                o.trials_per_side, o.hits_x1, o.hits_x2, o.advantage, o.flagged
            ),
            None => "none".to_string(),
        };
        format!(
            "{}|{}|{}|claimed={:?}|verdict={}|adv={:.12e}|{}|refine={:?}/{:?}|nth={:?}",
            self.name,
            self.mechanism,
            self.path,
            self.claimed,
            self.verdict_tag(),
            self.exact_advantage,
            outcome,
            self.refine_start,
            self.refine_steps,
            self.n_th_k,
        )
    }
}

/// Draws `trials` grid outputs for each extreme input through `fill`, on
/// independent per-(cell, side) RNG streams — thread-schedule-free.
fn draw_sides(
    range: QuantizedRange,
    trials: u64,
    seed: u64,
    cell: u64,
    mut fill: impl FnMut(i64, &mut dyn RandomBits, &mut [i64]),
) -> (Vec<i64>, Vec<i64>) {
    let mut side = |x_k: i64, stream: u64| {
        let mut rng = Taus88::from_seed(stream_seed(seed, &[cell, stream]));
        let mut out = vec![0i64; trials as usize];
        fill(x_k, &mut rng, &mut out);
        out
    };
    (side(range.min_k(), 1), side(range.max_k(), 2))
}

/// Fills a side through a mechanism's batched grid path, on whichever
/// sampler path the mechanism carries.
fn fill_via_batch(mech: &dyn Mechanism, x_k: i64, rng: &mut dyn RandomBits, out: &mut [i64]) {
    let xs_k = vec![x_k; out.len()];
    mech.privatize_index_batch(&xs_k, rng, out)
        .unwrap_or_else(|e| panic!("{}: {e}", mech.name()));
}

/// Plans and measures the support-gap attack for a window-limited (or
/// naive, `n_th_k = None`) grid cell, and classifies realized against
/// claimed loss from the exact PMF.
#[allow(clippy::too_many_arguments)]
fn grid_cell(
    name: &'static str,
    mechanism: &'static str,
    path: &'static str,
    cfg: FxpLaplaceConfig,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: Option<i64>,
    claimed: Option<f64>,
    trials: u64,
    seed: u64,
    cell: u64,
    fill: impl FnMut(i64, &mut dyn RandomBits, &mut [i64]),
) -> CellReport {
    let start = Instant::now();
    let pmf = FxpNoisePmf::closed_form(cfg);
    let p1 = conditional(&pmf, range, mode, n_th_k, range.min_k());
    let p2 = conditional(&pmf, range, mode, n_th_k, range.max_k());
    let attack = SupportGapAttack::from_dists(&p1, &p2);
    let (ys1, ys2) = draw_sides(range, trials, seed, cell, fill);
    let outcome = attack.measure_samples(&ys1, &ys2);
    CellReport {
        name,
        mechanism,
        path,
        claimed,
        verdict: CellVerdict::for_window(&pmf, range, mode, n_th_k, claimed),
        refused: None,
        exact_advantage: attack.exact_advantage(),
        outcome: Some(outcome),
        refine_start: None,
        refine_steps: None,
        n_th_k,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The Mironov bit-pattern attack against the naive `x + λ·(−ln u)` float
/// path: a nonempty bit-pattern gap is an infinite-loss output set.
fn float_cell(name: &'static str, bu: u8, trials: u64, seed: u64, cell: u64) -> CellReport {
    let start = Instant::now();
    let attack = FloatSupportAttack::plan(0.0, 1.0, 20.0, bu).expect("Bu within range");
    let mut rng1 = Taus88::from_seed(stream_seed(seed, &[cell, 1]));
    let mut rng2 = Taus88::from_seed(stream_seed(seed, &[cell, 2]));
    let outcome = attack
        .measure(trials, &mut rng1, &mut rng2)
        .expect("planned attack");
    let realized = if attack.exact_advantage() > 0.0 {
        PrivacyLoss::Infinite
    } else {
        PrivacyLoss::Finite(0.5)
    };
    CellReport {
        name,
        mechanism: "ideal-laplace",
        path: "float",
        claimed: Some(0.5),
        verdict: CellVerdict::classify(realized, Some(0.5)),
        refused: None,
        exact_advantage: attack.exact_advantage(),
        outcome: Some(outcome),
        refine_start: None,
        refine_steps: None,
        n_th_k: None,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The rounded-Laplace alias grid behind the ideal mechanism's index fast
/// path: the tabulated support is bounded, so extreme-input conditionals
/// have disjoint tails — infinite realized loss against the finite claim,
/// though at astronomically small (never empirically flaggable) mass.
fn ideal_grid_cell(trials: u64, seed: u64, cell: u64) -> CellReport {
    let start = Instant::now();
    let (_, range, eps) = paper_cfg();
    let lambda_k = (range.length() / eps) / range.delta();
    let table = cached_alias_laplace_grid(lambda_k).expect("tabulable scale");
    let p1 = table_dist(&table, range.min_k()).expect("nonempty table");
    let p2 = table_dist(&table, range.max_k()).expect("nonempty table");
    let attack = SupportGapAttack::from_dists(&p1, &p2);
    let realized = match (p1.worst_loss(&p2), p2.worst_loss(&p1)) {
        (PrivacyLoss::Finite(a), PrivacyLoss::Finite(b)) => PrivacyLoss::Finite(a.max(b)),
        _ => PrivacyLoss::Infinite,
    };
    let mech = IdealLaplaceMechanism::new(range, eps)
        .expect("valid eps")
        .with_sampler_path(SamplerPath::Fast);
    let (ys1, ys2) = draw_sides(range, trials, seed, cell, |x_k, rng, out| {
        fill_via_batch(&mech, x_k, rng, out)
    });
    let outcome = attack.measure_samples(&ys1, &ys2);
    CellReport {
        name: "ideal-grid-fast",
        mechanism: "ideal-laplace",
        path: "fast",
        claimed: Some(eps),
        verdict: CellVerdict::classify(realized, Some(eps)),
        refused: None,
        exact_advantage: attack.exact_advantage(),
        outcome: Some(outcome),
        refine_start: None,
        refine_steps: None,
        n_th_k: None,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// A `SamplerPath::Secure` cell: interval-refine the threshold, then draw
/// through the certify-then-sample secure batch path.
fn secure_cell(
    name: &'static str,
    mode: LimitMode,
    multiple: f64,
    trials: u64,
    seed: u64,
    cell: u64,
) -> CellReport {
    let (cfg, range, _) = paper_cfg();
    let pmf = FxpNoisePmf::closed_form(cfg);
    let refined =
        refine_threshold(cfg, &pmf, range, multiple, mode).expect("paper config is refinable");
    let spec = refined.spec;
    let (mech, mechanism): (Box<dyn Mechanism>, &'static str) = match mode {
        LimitMode::Resampling => (
            Box::new(
                ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
                    .expect("valid spec")
                    .with_sampler_path(SamplerPath::Secure),
            ),
            "resampling",
        ),
        LimitMode::Thresholding => (
            Box::new(
                ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
                    .expect("valid spec")
                    .with_sampler_path(SamplerPath::Secure),
            ),
            "thresholding",
        ),
    };
    let mut report = grid_cell(
        name,
        mechanism,
        "secure",
        cfg,
        range,
        mode,
        Some(spec.n_th_k),
        Some(spec.guaranteed_loss),
        trials,
        seed,
        cell,
        |x_k, rng, out| fill_via_batch(mech.as_ref(), x_k, rng, out),
    );
    report.refine_start = Some(refined.start_n_th_k);
    report.refine_steps = Some(refined.steps);
    report
}

/// The secure path must *refuse* the uncertifiable baseline with a typed
/// error — recorded as its own cell.
fn refusal_cell() -> CellReport {
    let start = Instant::now();
    let (cfg, range, _) = paper_cfg();
    let mech = FxpBaseline::new(FxpLaplace::analytic(cfg), range)
        .expect("valid baseline")
        .with_sampler_path(SamplerPath::Secure);
    let mut rng = Taus88::from_seed(0);
    let xs_k = vec![range.min_k(); 16];
    let mut out = vec![0i64; xs_k.len()];
    let err = mech
        .privatize_index_batch(&xs_k, &mut rng, &mut out)
        .expect_err("secure baseline must refuse");
    assert!(
        matches!(err, LdpError::Uncertifiable(_)),
        "expected a typed refusal, got {err:?}"
    );
    CellReport {
        name: "baseline-secure-refused",
        mechanism: "fxp-baseline",
        path: "secure",
        claimed: None,
        verdict: CellVerdict::Broken,
        refused: Some(err.to_string()),
        exact_advantage: 0.0,
        outcome: None,
        refine_start: None,
        refine_steps: None,
        n_th_k: None,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn run_cell(idx: u64, trials: u64, seed: u64) -> CellReport {
    let (cfg, range, _) = paper_cfg();
    match idx {
        0 => float_cell("float-naive-bu14", 14, trials, seed, idx),
        1 => float_cell("float-naive-bu10", 10, trials, seed, idx),
        2 => ideal_grid_cell(trials, seed, idx),
        3 => {
            // Reference path: cycle-faithful single draws, no claim —
            // the guarantee is Broken, and the exact check agrees.
            let mech = FxpBaseline::new(FxpLaplace::analytic(cfg), range).expect("valid baseline");
            grid_cell(
                "baseline-reference",
                "fxp-baseline",
                "reference",
                cfg,
                range,
                LimitMode::Thresholding,
                None,
                None,
                trials,
                seed,
                idx,
                |x_k, rng, out| fill_via_batch(&mech, x_k, rng, out),
            )
        }
        4 => {
            let mech = FxpBaseline::new(FxpLaplace::analytic(cfg), range)
                .expect("valid baseline")
                .with_sampler_path(SamplerPath::Fast);
            grid_cell(
                "baseline-fast",
                "fxp-baseline",
                "fast",
                cfg,
                range,
                LimitMode::Thresholding,
                None,
                None,
                trials,
                seed,
                idx,
                |x_k, rng, out| fill_via_batch(&mech, x_k, rng, out),
            )
        }
        5 => {
            // The empirically flaggable naive cell: Bu = 8 gap mass ≈ 9%.
            let (lcfg, lrange) = lowres_cfg();
            let mech = FxpBaseline::new(FxpLaplace::analytic(lcfg), lrange)
                .expect("valid baseline")
                .with_sampler_path(SamplerPath::Fast);
            grid_cell(
                "baseline-lowres-fast",
                "fxp-baseline",
                "fast",
                lcfg,
                lrange,
                LimitMode::Thresholding,
                None,
                None,
                trials,
                seed,
                idx,
                |x_k, rng, out| fill_via_batch(&mech, x_k, rng, out),
            )
        }
        6 => {
            let spec = resampling_threshold(cfg, range, 2.0).expect("Eq. 13 feasible");
            let mech = ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
                .expect("valid spec");
            grid_cell(
                "resampling-eq13-reference",
                "resampling",
                "reference",
                cfg,
                range,
                LimitMode::Resampling,
                Some(spec.n_th_k),
                Some(spec.guaranteed_loss),
                trials,
                seed,
                idx,
                |x_k, rng, out| fill_via_batch(&mech, x_k, rng, out),
            )
        }
        7 => {
            // The pinned reproduction finding: Eq. 15's closed form
            // overshoots into the RNG's gap region — claimed 1.5ε,
            // realized infinite.
            let spec = thresholding_threshold(cfg, range, 1.5).expect("Eq. 15 feasible");
            let mech = ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
                .expect("valid spec");
            grid_cell(
                "thresholding-eq15-reference",
                "thresholding",
                "reference",
                cfg,
                range,
                LimitMode::Thresholding,
                Some(spec.n_th_k),
                Some(spec.guaranteed_loss),
                trials,
                seed,
                idx,
                |x_k, rng, out| fill_via_batch(&mech, x_k, rng, out),
            )
        }
        8 => {
            let pmf = FxpNoisePmf::closed_form(cfg);
            let spec =
                exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Resampling).expect("solvable");
            let mech = ResamplingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
                .expect("valid spec")
                .with_sampler_path(SamplerPath::Fast);
            grid_cell(
                "resampling-exact-fast",
                "resampling",
                "fast",
                cfg,
                range,
                LimitMode::Resampling,
                Some(spec.n_th_k),
                Some(spec.guaranteed_loss),
                trials,
                seed,
                idx,
                |x_k, rng, out| fill_via_batch(&mech, x_k, rng, out),
            )
        }
        9 => {
            let pmf = FxpNoisePmf::closed_form(cfg);
            let spec =
                exact_threshold(cfg, &pmf, range, 1.5, LimitMode::Thresholding).expect("solvable");
            let mech = ThresholdingMechanism::new(FxpLaplace::analytic(cfg), range, spec)
                .expect("valid spec")
                .with_sampler_path(SamplerPath::Fast);
            grid_cell(
                "thresholding-exact-fast",
                "thresholding",
                "fast",
                cfg,
                range,
                LimitMode::Thresholding,
                Some(spec.n_th_k),
                Some(spec.guaranteed_loss),
                trials,
                seed,
                idx,
                |x_k, rng, out| fill_via_batch(&mech, x_k, rng, out),
            )
        }
        10 => secure_cell(
            "resampling-secure",
            LimitMode::Resampling,
            2.0,
            trials,
            seed,
            idx,
        ),
        11 => secure_cell(
            "thresholding-secure",
            LimitMode::Thresholding,
            1.5,
            trials,
            seed,
            idx,
        ),
        12 => refusal_cell(),
        _ => unreachable!("cell index out of range"),
    }
}

fn cell_json(c: &CellReport) -> Json {
    let realized = match c.verdict {
        CellVerdict::Certified { realized, .. } | CellVerdict::Violated { realized, .. } => {
            Json::Fixed(realized, 9)
        }
        CellVerdict::Broken => "infinite".into(),
    };
    let attack = c.outcome.map(|o| {
        Obj::new()
            .with("trials_per_side", o.trials_per_side)
            .with("hits_x1", o.hits_x1)
            .with("hits_x2", o.hits_x2)
            .with("advantage", Json::Fixed(o.advantage, 9))
            .with("sigma_null", Json::Fixed(o.sigma_null, 9))
            .with("flagged", o.flagged)
    });
    Obj::new()
        .with("name", c.name)
        .with("mechanism", c.mechanism)
        .with("path", c.path)
        .with("claimed_eps_nats", c.claimed.map(|v| Json::Fixed(v, 6)))
        .with("realized_loss_nats", realized)
        .with("verdict", c.verdict_tag())
        .with("exact_advantage", Json::Sci(c.exact_advantage, 6))
        .with("n_th_k", c.n_th_k)
        .with("refine_start", c.refine_start)
        .with("refine_steps", c.refine_steps)
        .with("attack", attack)
        .with("refused", c.refused.as_deref())
        .with("seconds", Json::Fixed(c.seconds, 3))
        .into()
}

fn render_json(
    threads: usize,
    smoke: bool,
    seed: u64,
    trials: u64,
    cells: &[CellReport],
) -> String {
    let total: f64 = cells.iter().map(|c| c.seconds).sum();
    let canonical: String = cells.iter().map(|c| c.canonical() + "\n").collect();
    let digest = ulp_obs::Fnv64::hash(canonical.as_bytes());
    let any_flagged = cells.iter().any(|c| c.outcome.is_some_and(|o| o.flagged));
    let secure_certified = cells
        .iter()
        .filter(|c| c.path == "secure" && c.refused.is_none())
        .all(|c| c.verdict.is_certified());
    Obj::new()
        .with("schema", "ulp-ldp/attack_campaign/v1")
        .with("threads", threads)
        .with("smoke", smoke)
        .with("seed", seed)
        .with("trials_per_side", trials)
        .with("total_seconds", Json::Fixed(total, 3))
        .with("digest", Json::hex(digest))
        .with("any_attack_flagged", any_flagged)
        .with("secure_cells_certified", secure_certified)
        .with("cells", Json::Rows(cells.iter().map(cell_json).collect()))
        .to_report()
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_attack.json");
    let mut trials: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = require_flag(BIN, "--out", args.next(), "a path"),
            "--trials" => {
                let n: NonZeroU64 =
                    require_flag(BIN, "--trials", args.next(), "a positive integer");
                trials = Some(n.get());
            }
            "--seed" => seed = Some(require_flag(BIN, "--seed", args.next(), "a u64")),
            other => unknown_flag(BIN, other, "--smoke --out --trials --seed"),
        }
    }

    // Strict env contract: malformed values exit 2 naming the variable.
    let attack_seed = ldp_bench::require_env(BIN, attack_seed_from_env());
    let threads = ldp_bench::require_env(BIN, ulp_par::try_threads());
    ldp_bench::require_env(BIN, SamplerPath::from_env());
    ldp_bench::require_writable(BIN, &out_path);

    let seed = attack_seed.or(seed).unwrap_or(ldp_bench::SEED);
    let trials = trials.unwrap_or(if smoke { 4_000 } else { 200_000 });
    eprintln!(
        "attack_campaign: {} mode, {trials} trials/side, seed {seed} \
         (ULP_ATTACK_SEED overrides), {threads} worker thread(s)",
        if smoke { "smoke" } else { "full" },
    );

    let idxs: Vec<u64> = (0..13).collect();
    let cells = ulp_par::par_map(&idxs, |&i| run_cell(i, trials, seed));
    for c in &cells {
        let flag = match &c.outcome {
            Some(o) if o.flagged => format!(
                "FLAGGED ({:.4} > 3σ = {:.4})",
                o.advantage,
                3.0 * o.sigma_null
            ),
            Some(o) => format!("below 3σ ({:.5})", o.advantage),
            None => "-".to_string(),
        };
        eprintln!(
            "  {:<26} {:<9} verdict {:<9} exact adv {:>10.3e}  {}",
            c.name,
            c.path,
            c.verdict_tag(),
            c.exact_advantage,
            flag,
        );
    }

    // Campaign gates (the CI job re-asserts these on the committed JSON).
    assert!(
        cells
            .iter()
            .any(|c| c.verdict_tag() == "infinite" && c.outcome.is_some_and(|o| o.flagged)),
        "no infinite-loss cell's empirical advantage cleared 3σ"
    );
    let eq15 = cells
        .iter()
        .find(|c| c.name == "thresholding-eq15-reference")
        .expect("eq15 cell present");
    assert_eq!(
        eq15.verdict_tag(),
        "infinite",
        "the Eq. 15 reproduction finding must reproduce"
    );
    for c in cells.iter().filter(|c| c.path == "secure") {
        if c.refused.is_none() {
            assert!(
                c.verdict.is_certified(),
                "{}: secure cell not certified",
                c.name
            );
        }
    }
    let refined = cells
        .iter()
        .find(|c| c.name == "thresholding-secure")
        .expect("refined cell present");
    assert!(
        refined.refine_steps.is_some_and(|s| s > 0),
        "interval refinement must shrink the unsound Eq. 15 start"
    );
    assert!(
        cells
            .iter()
            .any(|c| c.name == "baseline-secure-refused" && c.refused.is_some()),
        "secure path must refuse the uncertifiable baseline"
    );

    let json = render_json(threads, smoke, seed, trials, &cells);
    ldp_bench::write_report(BIN, &out_path, &json);
    eprintln!("wrote {out_path}");
}
