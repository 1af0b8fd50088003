//! Sampler-equivalence suite: the alias-method fast path must be the *same
//! distribution* as the exact fixed-point Laplace pipeline — not
//! approximately, but bit-for-bit in construction and draw-for-draw in the
//! word stream. Three layers of evidence:
//!
//! 1. **Construction bit-exactness** — alias buckets re-derive the source
//!    PMF weights exactly, for full tables and conditional windows;
//! 2. **Seeded chi-square** — empirical draw frequencies at small bit-widths
//!    match the exact probabilities;
//! 3. **Batch ≡ single** — `fill_batch` consumes the identical word stream
//!    as repeated `draw` calls (proptest over geometry, window, seed, len),
//!    and every mechanism's reference-path batch is one `privatize` per
//!    element.
//!
//! Plus a microbench smoke check: on whatever host runs this suite, a
//! mechanism's batch on the alias fast path must be strictly faster than the
//! same mechanism's reference batch — the entire point of the fast path.

use std::collections::HashMap;
use std::time::Instant;

use proptest::prelude::*;
use ulp_ldp::datasets::statlog_heart;
use ulp_ldp::eval::ExperimentSetup;
use ulp_ldp::ldp::{ConstantTimeResampling, DiscreteLaplaceMechanism, Mechanism, SamplerPath};
use ulp_ldp::rng::{
    cached_alias_full, cached_alias_window, AliasTable, FxpLaplaceConfig, FxpNoisePmf, RandomBits,
    Taus88,
};

fn paper_cfg() -> FxpLaplaceConfig {
    FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration")
}

fn sorted(outcomes: &[(i64, u128)]) -> Vec<(i64, u128)> {
    let mut v = outcomes.to_vec();
    v.sort_unstable();
    v
}

#[test]
fn full_table_construction_is_bit_exact() {
    for cfg in [
        paper_cfg(),
        FxpLaplaceConfig::new(12, 16, 1.0, 64.0).expect("valid config"),
        FxpLaplaceConfig::new(14, 14, 0.25, 8.0).expect("valid config"),
    ] {
        let pmf = FxpNoisePmf::closed_form(cfg);
        let table = AliasTable::from_pmf(&pmf).expect("constructible");
        assert!(
            table.verify_exact(),
            "Bu={}: bucket weights must re-derive the PMF exactly",
            cfg.bu()
        );
        let want: Vec<(i64, u128)> = pmf.iter().filter(|&(_, w)| w > 0).collect();
        assert_eq!(
            sorted(table.outcomes()),
            sorted(&want),
            "Bu={}: table outcomes differ from the PMF",
            cfg.bu()
        );
    }
}

#[test]
fn window_table_matches_the_conditional_pmf() {
    let cfg = paper_cfg();
    let pmf = FxpNoisePmf::closed_form(cfg);
    for (lo, hi) in [(-40i64, 25i64), (-754, 754), (0, 0), (-3, 120)] {
        let table = AliasTable::from_pmf_window(&pmf, lo, hi).expect("non-empty window");
        assert!(table.verify_exact(), "window [{lo}, {hi}] not exact");
        let want: Vec<(i64, u128)> = pmf
            .iter()
            .filter(|&(k, w)| k >= lo && k <= hi && w > 0)
            .collect();
        assert_eq!(
            sorted(table.outcomes()),
            sorted(&want),
            "window [{lo}, {hi}]: renormalized support differs"
        );
    }
}

#[test]
fn cached_tables_equal_fresh_construction() {
    let cfg = paper_cfg();
    let pmf = FxpNoisePmf::closed_form(cfg);
    let full = cached_alias_full(cfg).expect("analytic geometry");
    let fresh = AliasTable::from_pmf(&pmf).expect("constructible");
    assert_eq!(full.outcomes(), fresh.outcomes());
    assert_eq!(full.bucket_count(), fresh.bucket_count());
    let win = cached_alias_window(cfg, -5, 9).expect("non-empty window");
    let fresh_w = AliasTable::from_pmf_window(&pmf, -5, 9).expect("non-empty window");
    assert_eq!(win.outcomes(), fresh_w.outcomes());
}

/// Chi-square of `n` seeded draws against exact probabilities; cells with
/// expectation below 5 are skipped (standard validity rule).
fn chi_square(table: &AliasTable, n: usize, seed: u64) -> (f64, usize) {
    let mut rng = Taus88::from_seed(seed);
    let mut out = vec![0i64; n];
    table.fill_batch(&mut rng, &mut out);
    let mut counts: HashMap<i64, u64> = HashMap::new();
    for k in out {
        *counts.entry(k).or_insert(0) += 1;
    }
    let total: u128 = table.outcomes().iter().map(|&(_, w)| w).sum();
    let mut chi2 = 0.0;
    let mut df = 0usize;
    for &(k, w) in table.outcomes() {
        let e = n as f64 * w as f64 / total as f64;
        if e < 5.0 {
            continue;
        }
        let o = *counts.get(&k).unwrap_or(&0) as f64;
        chi2 += (o - e) * (o - e) / e;
        df += 1;
    }
    (chi2, df)
}

#[test]
fn seeded_chi_square_accepts_full_table_draws() {
    // Small Bu keeps the outcome count tractable for a per-cell test.
    let cfg = FxpLaplaceConfig::new(8, 10, 1.0, 4.0).expect("valid config");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let table = AliasTable::from_pmf(&pmf).expect("constructible");
    let (chi2, df) = chi_square(&table, 200_000, 0x5A5A);
    assert!(df > 10, "degenerate support: df = {df}");
    // χ²_df has mean df, variance 2df; a 6σ bound keeps the seeded test
    // deterministic-stable while still catching a mis-built table.
    let bound = df as f64 + 6.0 * (2.0 * df as f64).sqrt();
    assert!(chi2 < bound, "chi2 {chi2:.1} vs bound {bound:.1} (df {df})");
}

#[test]
fn seeded_chi_square_accepts_window_table_draws() {
    let cfg = FxpLaplaceConfig::new(9, 11, 1.0, 6.0).expect("valid config");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let table = AliasTable::from_pmf_window(&pmf, -8, 13).expect("non-empty window");
    let (chi2, df) = chi_square(&table, 200_000, 0xC41A);
    assert!(df > 5, "degenerate window: df = {df}");
    let bound = df as f64 + 6.0 * (2.0 * df as f64).sqrt();
    assert!(chi2 < bound, "chi2 {chi2:.1} vs bound {bound:.1} (df {df})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `fill_batch` must consume the identical word stream as repeated
    /// `draw` calls: same outputs AND the two sources remain in lock-step
    /// afterwards (checked by comparing their next word).
    #[test]
    fn fill_batch_equals_repeated_draws(
        bu in 6u8..=12,
        lambda in 2u8..=16,
        seed in any::<u64>(),
        len in 0usize..600,
        lo in -10i64..=0,
        hi in 0i64..=10,
        use_full in 0u8..=1,
    ) {
        let cfg = FxpLaplaceConfig::new(bu, 12, 1.0, f64::from(lambda)).expect("valid config");
        let pmf = FxpNoisePmf::closed_form(cfg);
        // Windows straddle 0, which always carries mass, so construction
        // cannot fail on an empty conditional support.
        let table = if use_full == 1 {
            AliasTable::from_pmf(&pmf)
        } else {
            AliasTable::from_pmf_window(&pmf, lo, hi)
        }
        .expect("constructible");
        let mut rng_batch = Taus88::from_seed(seed);
        let mut rng_single = Taus88::from_seed(seed);
        let mut batch = vec![0i64; len];
        table.fill_batch(&mut rng_batch, &mut batch);
        let singles: Vec<i64> = (0..len).map(|_| table.draw(&mut rng_single)).collect();
        prop_assert_eq!(batch, singles);
        prop_assert_eq!(rng_batch.next_u32(), rng_single.next_u32());
    }
}

#[test]
fn reference_batches_replay_single_draws() {
    // On the reference path a batch is one `privatize` per element, in
    // order: the same outputs as grid indices, the same resample total, and
    // the generator left where that loop leaves it — for the four
    // mechanisms an `ExperimentSetup` builds, the discrete mechanism and
    // the constant-time wrapper.
    let setup = ExperimentSetup::paper_default(&statlog_heart(), 0.5).expect("paper setup");
    let range = setup.range;
    assert_eq!(range.delta(), 1.0, "grid indices are ADC codes");
    let reference = SamplerPath::Reference;
    let resampling = setup
        .resampling(2.0)
        .expect("resampling")
        .with_sampler_path(reference);
    let mechs: Vec<Box<dyn Mechanism>> = vec![
        Box::new(setup.ideal().expect("ideal").with_sampler_path(reference)),
        Box::new(
            setup
                .baseline()
                .expect("baseline")
                .with_sampler_path(reference),
        ),
        Box::new(resampling.clone()),
        Box::new(
            setup
                .thresholding(2.0)
                .expect("thresholding")
                .with_sampler_path(reference),
        ),
        Box::new(DiscreteLaplaceMechanism::new(range, 0.5, 300).expect("discrete")),
        Box::new(ConstantTimeResampling::new(resampling, 4).expect("constant-time")),
    ];
    // Runs of equal inputs, at both range edges and inside the range.
    let xs_k: Vec<i64> = [0, 0, 0, 17, 17, 128, 255, 256, 256, 40]
        .into_iter()
        .cycle()
        .take(400)
        .collect();
    for (seed, mech) in (60..).zip(&mechs) {
        let mut a = Taus88::from_seed(seed);
        let mut b = a.clone();
        let mut batched = vec![0i64; xs_k.len()];
        let batch_resamples = mech
            .privatize_index_batch(&xs_k, &mut a, &mut batched)
            .expect("reference batch");
        let mut single_resamples = 0u64;
        let singles: Vec<i64> = xs_k
            .iter()
            .map(|&x_k| {
                let r = mech.privatize(x_k as f64, &mut b).expect("single draw");
                single_resamples += u64::from(r.resamples);
                r.value.round() as i64
            })
            .collect();
        let name = mech.name();
        assert_eq!(batched, singles, "{name}: outputs");
        assert_eq!(batch_resamples, single_resamples, "{name}: resamples");
        assert_eq!(a.next_u32(), b.next_u32(), "{name}: generator position");
        // Outputs leave the sensor range, so the comparison also pins that
        // nothing is clamped into it.
        assert!(
            batched
                .iter()
                .any(|&y| y < range.min_k() || y > range.max_k()),
            "{name}: no output left the range"
        );
    }
}

#[test]
fn fast_batches_are_strictly_faster_than_reference_batches_on_this_host() {
    // The fast path's reason to exist: one mechanism's batch on alias
    // tables against the same mechanism's cycle-faithful reference batch.
    // Best-of-3 per side keeps shared-CI scheduling noise from flipping
    // what is a many-fold gap.
    let setup = ExperimentSetup::paper_default(&statlog_heart(), 0.5).expect("paper setup");
    let fast = setup
        .thresholding(2.0)
        .expect("thresholding")
        .with_sampler_path(SamplerPath::Fast);
    let reference = fast.clone().with_sampler_path(SamplerPath::Reference);
    let xs_k: Vec<i64> = (0..200_000).map(|i| i % 257).collect();
    let mut rng = Taus88::from_seed(0xBE9C);
    let mut out = vec![0i64; xs_k.len()];
    let mut sink = 0i64;
    let mut best = |mech: &dyn Mechanism| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            mech.privatize_index_batch(&xs_k, &mut rng, &mut out)
                .expect("batch");
            best = best.min(t.elapsed().as_secs_f64());
            sink ^= out[out.len() - 1];
        }
        best
    };
    let fast_best = best(&fast);
    let reference_best = best(&reference);
    assert_ne!(sink, i64::MIN, "keep the draws observable");
    assert!(
        fast_best < reference_best,
        "fast batch ({fast_best:.4}s) must beat the reference batch ({reference_best:.4}s) \
         for {} draws",
        xs_k.len()
    );
}
