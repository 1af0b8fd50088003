//! The seven sensor/IoT benchmarks of Table I, as synthetic specifications.
//!
//! The paper evaluates on UCI Machine Learning Repository datasets. We do
//! not redistribute the data; each benchmark is re-specified here with its
//! published entry count, value range, and moments (reconstructed from
//! Table I and the public dataset documentation) plus a qualitative shape,
//! and regenerated deterministically by [`crate::generate`]. Utility of an
//! LDP mechanism depends on the range `d` (which scales the noise) and the
//! distribution of values inside it, so matched statistics reproduce the
//! comparative results of Tables II–V.

use crate::spec::{DatasetSpec, Shape};

/// Auto MPG: fuel economy of 1970s–80s cars (miles per gallon).
fn auto_mpg() -> DatasetSpec {
    DatasetSpec::new(
        "auto-mpg",
        398,
        9.0,
        46.6,
        23.5,
        7.8,
        Shape::TruncatedGaussian,
    )
}

/// Wall-Following Robot Navigation: ultrasound range readings (scaled).
/// Sonar readings cluster at near-wall and max-range values — bimodal.
pub fn robot_sensors() -> DatasetSpec {
    DatasetSpec::new(
        "robot-sensors",
        5456,
        0.0,
        5.0,
        1.9,
        1.3,
        Shape::Bimodal {
            low_frac: 0.22,
            high_frac: 0.85,
            low_weight: 0.62,
        },
    )
}

/// Statlog (Heart): resting blood pressure in mmHg.
pub fn statlog_heart() -> DatasetSpec {
    DatasetSpec::new(
        "statlog-heart",
        270,
        94.0,
        200.0,
        131.3,
        17.8,
        Shape::TruncatedGaussian,
    )
}

/// Human Activity Recognition (smartphone accelerometer, body acceleration,
/// normalized to [-1, 1]).
fn human_activity() -> DatasetSpec {
    DatasetSpec::new(
        "human-activity",
        10_299,
        -1.0,
        1.0,
        -0.06,
        0.4,
        Shape::TruncatedGaussian,
    )
}

/// Localization Data for Person Activity: tag coordinates in metres.
fn person_localization() -> DatasetSpec {
    DatasetSpec::new(
        "person-localization",
        164_860,
        -2.5,
        6.3,
        1.9,
        1.7,
        Shape::Uniform,
    )
}

/// UJIIndoorLoc: WiFi-fingerprint longitude (metres, campus-local frame).
pub fn ujiindoorloc() -> DatasetSpec {
    DatasetSpec::new(
        "ujiindoorloc",
        19_937,
        -7691.0,
        -7300.0,
        -7464.0,
        123.0,
        Shape::TruncatedGaussian,
    )
}

/// Smartphone-Based Recognition of Human Activities and Postural
/// Transitions: body acceleration magnitudes.
fn postural_transitions() -> DatasetSpec {
    DatasetSpec::new(
        "postural-transitions",
        10_929,
        -1.0,
        1.0,
        0.15,
        0.32,
        Shape::SkewedTail,
    )
}

/// All seven benchmarks, in Table I order.
pub fn all_benchmarks() -> Vec<DatasetSpec> {
    vec![
        auto_mpg(),
        robot_sensors(),
        statlog_heart(),
        human_activity(),
        person_localization(),
        ujiindoorloc(),
        postural_transitions(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, summarize};

    #[test]
    fn seven_benchmarks_exist_with_unique_names() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 7);
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn generated_moments_are_close_to_spec() {
        for spec in all_benchmarks() {
            let data = generate(&spec, 2018);
            let sum = summarize(&data);
            let d = spec.range_length();
            assert_eq!(data.len(), spec.entries, "{}", spec.name);
            assert!(
                (sum.mean - spec.mean).abs() < 0.08 * d,
                "{}: mean {} vs spec {}",
                spec.name,
                sum.mean,
                spec.mean
            );
            assert!(
                (sum.std - spec.std).abs() < 0.15 * spec.std + 0.02 * d,
                "{}: std {} vs spec {}",
                spec.name,
                sum.std,
                spec.std
            );
            assert!(
                data.iter().all(|x| (spec.min..=spec.max).contains(x)),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn statlog_matches_paper_row() {
        // The row the paper's Fig. 12 uses: blood pressure 94–200, μ 131.3.
        let s = statlog_heart();
        assert_eq!(s.entries, 270);
        assert_eq!(s.range_length(), 106.0);
    }
}
