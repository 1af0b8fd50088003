//! Privacy-analysis kernels (Figs. 5 and 8): exact PMF construction,
//! worst-case loss evaluation, and threshold solving.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldp_core::{
    exact_threshold, loss_profile, worst_case_loss, LimitMode, QuantizedRange, SegmentTable,
};
use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};

fn paper() -> (FxpLaplaceConfig, FxpNoisePmf, QuantizedRange) {
    let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration");
    let pmf = FxpNoisePmf::closed_form(cfg);
    let range = QuantizedRange::new(0, 32, cfg.delta()).expect("valid range");
    (cfg, pmf, range)
}

fn bench_pmf(c: &mut Criterion) {
    let (cfg, _, _) = paper();
    c.bench_function("pmf_closed_form", |b| {
        b.iter(|| black_box(FxpNoisePmf::closed_form(black_box(cfg))))
    });
}

fn bench_loss(c: &mut Criterion) {
    let (_, pmf, range) = paper();
    let mut g = c.benchmark_group("worst_case_loss");
    g.bench_function("naive", |b| {
        b.iter(|| black_box(worst_case_loss(&pmf, range, LimitMode::Thresholding, None)))
    });
    g.bench_function("thresholding_300", |b| {
        b.iter(|| {
            black_box(worst_case_loss(
                &pmf,
                range,
                LimitMode::Thresholding,
                Some(300),
            ))
        })
    });
    g.finish();
    c.bench_function("loss_profile_fig8", |b| {
        b.iter(|| {
            black_box(loss_profile(
                &pmf,
                range,
                LimitMode::Thresholding,
                Some(300),
            ))
        })
    });
}

fn bench_solvers(c: &mut Criterion) {
    let (cfg, pmf, range) = paper();
    let mut g = c.benchmark_group("threshold_solver");
    g.sample_size(20);
    g.bench_function("exact_thresholding", |b| {
        b.iter(|| {
            black_box(
                exact_threshold(cfg, &pmf, range, 2.0, LimitMode::Thresholding).expect("solvable"),
            )
        })
    });
    g.bench_function("segment_table_fig8", |b| {
        b.iter(|| {
            black_box(
                SegmentTable::build(
                    cfg,
                    &pmf,
                    range,
                    &[1.5, 2.0, 2.5, 3.0],
                    LimitMode::Thresholding,
                )
                .expect("buildable"),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pmf, bench_loss, bench_solvers);
criterion_main!(benches);
