//! The aggregator side, end to end: categorical collection (binary and
//! k-ary randomized response), numeric collection through the mechanisms,
//! and privacy accounting across a mixed workload.

use ulp_ldp::datasets::{generate, statlog_heart, Query};
use ulp_ldp::eval::ExperimentSetup;
use ulp_ldp::ldp::{CompositionLedger, KaryRandomizedResponse, Mechanism, RandomizedResponse};
use ulp_ldp::rng::Taus88;

#[test]
fn mixed_numeric_and_categorical_collection() {
    // A health study collects blood pressure (numeric, thresholded
    // mechanism) and smoking status (binary RR) from the same cohort, and
    // accounts for the combined loss per participant.
    let spec = statlog_heart();
    let setup = ExperimentSetup::paper_default(&spec, 0.5).expect("setup");
    let mech = setup.thresholding(2.0).expect("thresholding");
    let rr = RandomizedResponse::new(0.25).expect("valid p");
    let cohort = generate(&spec, 11);
    let mut rng = Taus88::from_seed(12);

    let mut released_bp = Vec::new();
    let mut smoker_reports = 0usize;
    let mut ledger = CompositionLedger::new();
    for (i, &bp) in cohort.iter().enumerate() {
        let code = setup.adc.encode(bp) as f64;
        released_bp.push(
            setup.adc.decode(
                mech.privatize(code, &mut rng)
                    .expect("mechanism")
                    .value
                    .round() as i64,
            ),
        );
        let smoker = i % 3 == 0; // ground truth: 1/3 of the cohort
        if rr.privatize(smoker, &mut rng) {
            smoker_reports += 1;
        }
        // Per-participant loss: numeric mechanism + RR, sequentially
        // composed.
        ledger.record(mech.guarantee().bound().expect("bounded"));
        ledger.record(rr.epsilon());
    }

    // Aggregates are useful…
    let true_mean = Query::Mean.exec(&cohort);
    let released_mean = Query::Mean.exec(&released_bp);
    assert!(
        (true_mean - released_mean).abs() < 0.25 * spec.range_length(),
        "mean {released_mean} vs truth {true_mean}"
    );
    let smoker_est = rr.estimate_proportion(smoker_reports as f64 / cohort.len() as f64);
    assert!(
        (smoker_est - 1.0 / 3.0).abs() < 0.2,
        "smoker estimate {smoker_est}"
    );

    // …and the ledger reflects per-participant loss (2 queries each).
    assert_eq!(ledger.losses().len(), 2 * cohort.len());
    let per_participant = mech.guarantee().bound().unwrap() + rr.epsilon();
    let total: f64 = ledger.losses().iter().sum();
    assert!((total - per_participant * cohort.len() as f64).abs() < 1e-9);
}

#[test]
fn kary_survey_recovers_category_shares() {
    // A RAPPOR-style survey: which of 5 appliance classes dominates a
    // household's consumption.
    let rr = KaryRandomizedResponse::with_epsilon(5, 1.5).expect("valid k-RR");
    let shares = [0.4f64, 0.25, 0.2, 0.1, 0.05];
    let n = 100_000usize;
    let mut rng = Taus88::from_seed(13);
    let mut counts = [0u64; 5];
    for i in 0..n {
        let f = i as f64 / n as f64;
        let mut acc = 0.0;
        let mut cat = 0;
        for (j, &s) in shares.iter().enumerate() {
            acc += s;
            if f < acc {
                cat = j;
                break;
            }
        }
        counts[rr.privatize(cat, &mut rng)] += 1;
    }
    let est = rr.estimate_frequencies(&counts);
    for (e, t) in est.iter().zip(&shares) {
        assert!((e - t).abs() < 0.02, "estimate {e} vs share {t}");
    }
    // The ranking survives privatization.
    let mut order: Vec<usize> = (0..5).collect();
    order.sort_by(|&a, &b| est[b].partial_cmp(&est[a]).expect("no NaN"));
    assert_eq!(order, vec![0, 1, 2, 3, 4]);
}
