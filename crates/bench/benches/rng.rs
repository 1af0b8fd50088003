//! Noise-generation kernels (Fig. 4's machinery plus the discrete-Laplace
//! ablation): URNG throughput, the CORDIC logarithm, and the samplers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ulp_fixed::{Fx, QFormat};
use ulp_rng::{
    CordicLn, DiscreteLaplace, FxpLaplace, FxpLaplaceConfig, IdealLaplace, RandomBits, SplitMix64,
    Taus88,
};

fn paper_cfg() -> FxpLaplaceConfig {
    FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).expect("paper configuration")
}

fn bench_urngs(c: &mut Criterion) {
    let mut g = c.benchmark_group("urng");
    let mut taus = Taus88::from_seed(1);
    g.bench_function("taus88_u32", |b| b.iter(|| black_box(taus.next_u32())));
    let mut sm = SplitMix64::new(1);
    g.bench_function("splitmix64_u64", |b| b.iter(|| black_box(sm.next_u64())));
    g.finish();
}

fn bench_cordic(c: &mut Criterion) {
    let unit = CordicLn::new(24);
    // The fleet's 2^16 magnitude words (Bu = 17) into the DP-Box's log
    // word, visited in a scattered order, so the timing is that of varying
    // words and not of one input whose step directions the branch
    // predictor has learned.
    let in_fmt = QFormat::new(18, 16).expect("valid format");
    let out = QFormat::new(40, 24).expect("valid format");
    let mut m = 0;
    c.bench_function("cordic_ln_24iter", |b| {
        b.iter(|| {
            m = (m + 40_503) & 0xffff;
            let x = Fx::from_raw(m + 1, in_fmt).expect("fits");
            black_box(unit.ln(black_box(x), out).expect("positive input"))
        })
    });
    // The whole 16-bit grid the k[m] table is built from.
    let mut grid = vec![0; 1 << 16];
    c.bench_function("cordic_ln_grid_16bit", |b| {
        b.iter(|| {
            unit.ln_grid(16, out, &mut grid).expect("fits");
            black_box(grid[0])
        })
    });
}

fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("laplace_samplers");
    let cfg = paper_cfg();
    let mut rng = Taus88::from_seed(2);

    let ideal = IdealLaplace::new(20.0).expect("λ = 20");
    g.bench_function("ideal_f64", |b| {
        b.iter(|| black_box(ideal.sample(&mut rng)))
    });

    let analytic = FxpLaplace::analytic(cfg);
    g.bench_function("fxp_analytic", |b| {
        b.iter(|| black_box(analytic.sample_index(&mut rng)))
    });

    // Ablation: the OpenDP-style discrete mechanism at the same scale.
    let discrete = DiscreteLaplace::new(64.0, 2047).expect("valid scale");
    g.bench_function("discrete_laplace", |b| {
        b.iter(|| black_box(discrete.sample_index(&mut rng)))
    });
    g.finish();
}

criterion_group!(benches, bench_urngs, bench_cordic, bench_samplers);
criterion_main!(benches);
