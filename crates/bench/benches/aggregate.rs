//! Aggregation-side kernels (Figs. 13–14, Table VI): budget-controlled
//! responses, randomized response, queries, and SVM training.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ldp_core::{BudgetController, LimitMode, RandomizedResponse, SegmentTable};
use ldp_datasets::{generate, statlog_heart, Query};
use ldp_eval::{halfspace_dataset, ExperimentSetup, LinearSvm};
use ulp_rng::{FxpLaplace, Taus88};

fn bench_budget_responder(c: &mut Criterion) {
    let setup = ExperimentSetup::paper_default(&statlog_heart(), 0.5).expect("setup");
    let table = SegmentTable::build(
        setup.cfg,
        &setup.pmf,
        setup.range,
        &[1.5, 2.0, 2.5, 3.0],
        LimitMode::Thresholding,
    )
    .expect("segments");
    let mut ctrl = BudgetController::new(table, setup.range, 1e15).expect("controller");
    let sampler = FxpLaplace::analytic(setup.cfg);
    let mut rng = Taus88::from_seed(5);
    c.bench_function("budget_respond_fig13", |b| {
        b.iter(|| {
            black_box(
                ctrl.respond(black_box(89.0), &sampler, &mut rng)
                    .expect("served"),
            )
        })
    });
}

fn bench_rr(c: &mut Criterion) {
    let rr = RandomizedResponse::new(0.25).expect("valid p");
    let mut rng = Taus88::from_seed(6);
    c.bench_function("randomized_response_fig14", |b| {
        b.iter(|| black_box(rr.privatize(black_box(true), &mut rng)))
    });
}

fn bench_queries(c: &mut Criterion) {
    let data = generate(&statlog_heart(), 7);
    let mut g = c.benchmark_group("query_exec");
    for q in [
        Query::Mean,
        Query::Median,
        Query::Variance,
        Query::Count { threshold: 147.0 },
    ] {
        g.bench_function(&q.to_string(), |b| b.iter(|| black_box(q.exec(&data))));
    }
    g.finish();
}

fn bench_svm(c: &mut Criterion) {
    let train = halfspace_dataset(1_000, 2, 0.05, 8);
    let mut g = c.benchmark_group("svm_table6");
    g.sample_size(10);
    g.bench_function("pegasos_train_1k", |b| {
        b.iter(|| black_box(LinearSvm::train(&train, 0.05, 15, 9)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_budget_responder,
    bench_rr,
    bench_queries,
    bench_svm
);
criterion_main!(benches);
