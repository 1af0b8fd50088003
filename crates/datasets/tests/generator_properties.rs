//! Property-based tests for the dataset generators and queries.

use ldp_datasets::{evaluate_query, generate, DatasetSpec, Query, Shape};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = DatasetSpec> {
    (
        10usize..2_000,
        -100.0f64..100.0,
        1.0f64..200.0,
        0.05f64..0.45,
        0usize..4,
    )
        .prop_map(|(n, min, width, std_frac, shape_idx)| {
            let max = min + width;
            let mean = min + width / 2.0;
            let std = width * std_frac;
            let shape = match shape_idx {
                0 => Shape::TruncatedGaussian,
                1 => Shape::Uniform,
                2 => Shape::Bimodal {
                    low_frac: 0.25,
                    high_frac: 0.75,
                    low_weight: 0.5,
                },
                _ => Shape::SkewedTail,
            };
            DatasetSpec::new("prop", n, min, max, mean, std, shape)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_data_respects_the_spec(spec in arb_spec(), seed in any::<u64>()) {
        let data = generate(&spec, seed);
        prop_assert_eq!(data.len(), spec.entries);
        prop_assert!(data.iter().all(|x| *x >= spec.min && *x <= spec.max));
        prop_assert!(data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn generation_is_deterministic(spec in arb_spec(), seed in any::<u64>()) {
        prop_assert_eq!(generate(&spec, seed), generate(&spec, seed));
    }

    #[test]
    fn queries_are_within_range_bounds(spec in arb_spec(), seed in any::<u64>()) {
        let data = generate(&spec, seed);
        for q in [Query::Mean, Query::Median, Query::Quantile { q: 0.9 }] {
            let v = q.exec(&data);
            prop_assert!(v >= spec.min - 1e-9 && v <= spec.max + 1e-9, "{q} = {v}");
        }
        let var = Query::Variance.exec(&data);
        let d = spec.range_length();
        prop_assert!((0.0..=d * d / 4.0 + 1e-9).contains(&var));
        let count = Query::Count { threshold: spec.min }.exec(&data);
        prop_assert_eq!(count as usize, data.len());
    }

    #[test]
    fn quantiles_are_monotone(spec in arb_spec(), seed in any::<u64>()) {
        let data = generate(&spec, seed);
        let mut prev = f64::NEG_INFINITY;
        for i in 1..10 {
            let v = Query::Quantile { q: i as f64 / 10.0 }.exec(&data);
            prop_assert!(v >= prev, "quantile {i}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn mae_of_identity_is_zero(spec in arb_spec(), seed in any::<u64>()) {
        let data = generate(&spec, seed);
        let r = evaluate_query(&data, |x| x, Query::Mean, 3, spec.range_length());
        prop_assert_eq!(r.mae, 0.0);
    }
}
