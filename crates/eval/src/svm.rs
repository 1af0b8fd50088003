//! Privacy-preserving SVM training (Table VI, Section VI-F).
//!
//! A synthetic binary-classification dataset separable by a halfspace is
//! generated; a linear SVM is trained with the Pegasos stochastic
//! subgradient solver on either clean features or features noised by the
//! thresholded DP-Box mechanism. Test accuracy (on clean data) is reported
//! as a function of training-set size and privacy parameter ε — smaller ε
//! needs more data for the same accuracy, which is the cost of privacy.

use ldp_core::{LdpError, Mechanism};
use ldp_datasets::{DatasetSpec, Shape};
use ulp_obs::{Counter, SpanTimer};
use ulp_rng::{stream_seed, RandomBits, Taus88};

use crate::setup::ExperimentSetup;

/// A labelled sample with features in `[-1, 1]^dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature vector.
    x: Vec<f64>,
    /// Label in `{-1, +1}`.
    y: f64,
}

/// Generates a halfspace-separable dataset: labels are the sign of `w*·x`
/// for a fixed hidden hyperplane through the origin, with a margin (points
/// too close to the plane are rejected) so that clean training approaches
/// 100% accuracy.
///
/// The hyperplane passes through the origin so the classes are balanced;
/// training on feature-noised data then has to recover only the *direction*
/// of `w*`, which transfers to the clean test distribution. (With a biased
/// hyperplane, the intercept a classifier learns on the wide noised
/// distribution does not transfer to clean data — no linear method can
/// bridge that gap, so the paper's setup must be the balanced one.)
pub fn halfspace_dataset(n: usize, dim: usize, margin: f64, seed: u64) -> Vec<Sample> {
    assert!(dim >= 1, "need at least one feature");
    let mut rng = Taus88::from_seed(seed ^ 0x0005_FEA7);
    // Hidden hyperplane: fixed direction through the origin.
    let w_star: Vec<f64> = (0..dim)
        .map(|i| if i % 2 == 0 { 1.0 } else { -0.5 })
        .collect();
    let norm: f64 = w_star.iter().map(|w| w * w).sum::<f64>().sqrt();
    let b_star = 0.0;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let x: Vec<f64> = (0..dim)
            .map(|_| (rng.bits(32) as f64 / u32::MAX as f64) * 2.0 - 1.0)
            .collect();
        let score: f64 = (w_star.iter().zip(&x).map(|(w, xi)| w * xi).sum::<f64>() + b_star) / norm;
        if score.abs() < margin {
            continue;
        }
        out.push(Sample {
            x,
            y: score.signum(),
        });
    }
    out
}

/// A linear SVM `sign(w·x + b)` trained with Pegasos.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    /// Weight vector.
    w: Vec<f64>,
    /// Bias term.
    b: f64,
}

impl LinearSvm {
    /// Trains with the Pegasos stochastic subgradient method, returning the
    /// iterate average over the second half of training (averaged SGD is
    /// markedly more stable when the features carry heavy LDP noise).
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or `epochs` is zero.
    pub fn train(data: &[Sample], lambda: f64, epochs: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "empty training set");
        assert!(epochs > 0, "need at least one epoch");
        let dim = data[0].x.len();
        let mut w = vec![0.0f64; dim];
        let mut b = 0.0f64;
        let mut w_avg = vec![0.0f64; dim];
        let mut b_avg = 0.0f64;
        let mut avg_count = 0u64;
        let mut rng = Taus88::from_seed(seed ^ 0x0007_EAC4);
        let total = (epochs * data.len()) as u64;
        let mut t: u64 = 0;
        for _ in 0..epochs {
            for _ in 0..data.len() {
                t += 1;
                let i = (rng.bits(32) as usize) % data.len();
                let s = &data[i];
                let eta = 1.0 / (lambda * t as f64);
                let margin = s.y * (dot(&w, &s.x) + b);
                for wj in w.iter_mut() {
                    *wj *= 1.0 - eta * lambda;
                }
                if margin < 1.0 {
                    for (wj, xj) in w.iter_mut().zip(&s.x) {
                        *wj += eta * s.y * xj;
                    }
                    b += eta * s.y;
                }
                if t > total / 2 {
                    avg_count += 1;
                    for (aj, wj) in w_avg.iter_mut().zip(&w) {
                        *aj += wj;
                    }
                    b_avg += b;
                }
            }
        }
        if avg_count > 0 {
            for aj in w_avg.iter_mut() {
                *aj /= avg_count as f64;
            }
            b_avg /= avg_count as f64;
            LinearSvm { w: w_avg, b: b_avg }
        } else {
            LinearSvm { w, b }
        }
    }

    /// Predicts a label in `{-1, +1}`.
    fn predict(&self, x: &[f64]) -> f64 {
        if dot(&self.w, x) + self.b >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Fraction of correctly classified samples.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    fn accuracy(&self, data: &[Sample]) -> f64 {
        assert!(!data.is_empty(), "empty test set");
        let correct = data.iter().filter(|s| self.predict(&s.x) == s.y).count();
        correct as f64 / data.len() as f64
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Privacy level for Table VI columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SvmPrivacy {
    /// Features noised with the thresholded FxP mechanism at ε per feature.
    Eps(f64),
    /// Clean features ("No DP" row).
    NoDp,
}

/// One Table VI cell: accuracy for a training size and privacy level.
///
/// # Errors
///
/// Mechanism-construction errors propagate.
fn svm_accuracy(
    train_size: usize,
    privacy: SvmPrivacy,
    test: &[Sample],
    seed: u64,
) -> Result<f64, LdpError> {
    let dim = test.first().map_or(2, |s| s.x.len());
    let train = halfspace_dataset(train_size, dim, 0.05, seed);
    let noised = match privacy {
        SvmPrivacy::NoDp => train,
        SvmPrivacy::Eps(eps) => {
            // Features live in [-1, 1]; reuse the DP-Box pipeline per
            // feature (each record spends ε per feature dimension).
            let spec = DatasetSpec::new(
                "svm-feature",
                train_size.max(2),
                -1.0,
                1.0,
                0.0,
                0.5,
                Shape::Uniform,
            );
            let setup = ExperimentSetup::paper_default(&spec, eps)?;
            let mech = setup.thresholding(2.0)?;
            let adc = setup.adc;
            let mut rng = Taus88::from_seed(seed ^ 0xD9);
            train
                .into_iter()
                .map(|s| Sample {
                    x: s.x
                        .iter()
                        .map(|&xi| {
                            let code = adc.encode(xi) as f64;
                            // Thresholding has no redraw loop, so privatize
                            // cannot fail.
                            let out = mech.privatize(code, &mut rng).expect("thresholding");
                            adc.decode(out.value.round() as i64)
                        })
                        .collect(),
                    y: s.y,
                })
                .collect()
        }
    };
    // Average over a few training runs: a single Pegasos pass on heavily
    // noised features has high variance.
    let runs = 3;
    let mut acc_sum = 0.0;
    for r in 0..runs {
        let svm = LinearSvm::train(&noised, 0.05, 15, seed ^ (r as u64) << 8);
        acc_sum += svm.accuracy(test);
    }
    Ok(acc_sum / runs as f64)
}

/// The full Table VI grid: accuracy for every `(privacy, size)` cell,
/// averaged over `reps` independent data/noising seeds per cell.
///
/// Every cell is an independent unit of work whose seeds derive only from
/// `(seed, privacy index, size index, rep)` via [`stream_seed`], so the
/// cells fan out over [`ulp_par`] and the grid is byte-identical at any
/// thread count. Returns one row per entry of `privacies`, one column per
/// entry of `sizes`.
///
/// # Errors
///
/// Mechanism-construction errors propagate.
pub fn svm_grid(
    privacies: &[SvmPrivacy],
    sizes: &[usize],
    test: &[Sample],
    reps: u64,
    seed: u64,
) -> Result<Vec<Vec<f64>>, LdpError> {
    assert!(reps > 0, "need at least one repetition per cell");
    static SWEEP: SpanTimer = SpanTimer::new("eval.svm_grid");
    static CELLS: Counter = Counter::new("eval.svm.cells");
    let _span = SWEEP.enter();
    let cells: Vec<(usize, usize)> = (0..privacies.len())
        .flat_map(|p| (0..sizes.len()).map(move |s| (p, s)))
        .collect();
    CELLS.add(cells.len() as u64);
    let accs: Vec<f64> = ulp_par::par_map(&cells, |&(p, s)| -> Result<f64, LdpError> {
        let mut acc = 0.0;
        for r in 0..reps {
            acc += svm_accuracy(
                sizes[s],
                privacies[p],
                test,
                stream_seed(seed, &[p as u64, s as u64, r]),
            )?;
        }
        Ok(acc / reps as f64)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(accs.chunks(sizes.len()).map(<[f64]>::to_vec).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halfspace_data_is_separable() {
        let data = halfspace_dataset(2_000, 2, 0.05, 1);
        assert_eq!(data.len(), 2_000);
        let svm = LinearSvm::train(&data, 1e-3, 10, 2);
        assert!(svm.accuracy(&data) > 0.97, "{}", svm.accuracy(&data));
    }

    #[test]
    fn clean_training_generalizes() {
        let test = halfspace_dataset(2_000, 2, 0.05, 99);
        let acc = svm_accuracy(3_000, SvmPrivacy::NoDp, &test, 3).unwrap();
        assert!(acc > 0.95, "clean accuracy {acc}");
    }

    #[test]
    fn noised_training_still_learns() {
        let test = halfspace_dataset(2_000, 2, 0.05, 100);
        let acc = svm_accuracy(3_000, SvmPrivacy::Eps(2.0), &test, 4).unwrap();
        assert!(acc > 0.7, "ε=2 accuracy {acc}");
    }

    #[test]
    fn stronger_privacy_needs_more_data() {
        // Table VI trend: at fixed size, accuracy grows with ε; noised
        // training is below clean training.
        let test = halfspace_dataset(2_000, 2, 0.05, 101);
        let acc_05 = svm_accuracy(4_000, SvmPrivacy::Eps(0.5), &test, 5).unwrap();
        let acc_2 = svm_accuracy(4_000, SvmPrivacy::Eps(2.0), &test, 5).unwrap();
        let acc_clean = svm_accuracy(4_000, SvmPrivacy::NoDp, &test, 5).unwrap();
        assert!(
            acc_05 <= acc_2 + 0.03,
            "ε=0.5 ({acc_05}) should not beat ε=2 ({acc_2})"
        );
        assert!(
            acc_2 <= acc_clean + 0.02,
            "ε=2 {acc_2} vs clean {acc_clean}"
        );
    }

    #[test]
    fn grid_shape_matches_inputs() {
        let test = halfspace_dataset(500, 2, 0.05, 103);
        let grid = svm_grid(
            &[SvmPrivacy::NoDp, SvmPrivacy::Eps(2.0)],
            &[300, 600],
            &test,
            1,
            7,
        )
        .unwrap();
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(|r| r.len() == 2));
        assert!(grid[0][1] > 0.9, "clean 600-sample cell: {}", grid[0][1]);
    }

    #[test]
    fn more_data_helps_under_noise() {
        let test = halfspace_dataset(2_000, 2, 0.05, 102);
        let small = svm_accuracy(500, SvmPrivacy::Eps(1.0), &test, 6).unwrap();
        let large = svm_accuracy(8_000, SvmPrivacy::Eps(1.0), &test, 6).unwrap();
        assert!(
            large >= small - 0.02,
            "8k-sample accuracy {large} vs 500-sample {small}"
        );
    }
}
