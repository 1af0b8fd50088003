//! Exact privacy-loss analysis (paper Eq. 4) on fixed-point mechanisms.
//!
//! The privacy loss incurred by reporting output `y` for adjacent inputs
//! `x₁, x₂` is `ln(Pr[y|x₁] / Pr[y|x₂])`. Local DP holds at level `ε'` iff
//! the loss is bounded by `ε'` over *every* output and *every* input pair.
//! Because [`ulp_rng::FxpNoisePmf`] stores exact integer outcome counts,
//! every quantity here is an exact integer ratio: a zero denominator is a
//! genuine zero-probability event, not a rounding artifact — this is what
//! lets the test suite *prove* (for a given configuration) the paper's
//! claims rather than merely sample them.

use std::collections::{BTreeMap, VecDeque};

use ulp_rng::FxpNoisePmf;

use crate::range::QuantizedRange;

/// The privacy loss of an output: finite (in nats) or infinite
/// (a distinguishing event — the mechanism is not differentially private).
///
/// # Examples
///
/// ```
/// use ldp_core::PrivacyLoss;
///
/// let a = PrivacyLoss::Finite(0.5);
/// let b = PrivacyLoss::Infinite;
/// assert!(a.is_bounded_by(0.6));
/// assert!(!b.is_bounded_by(1.0e9));
/// assert_eq!(a.max(b), PrivacyLoss::Infinite);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrivacyLoss {
    /// Bounded loss, in nats.
    Finite(f64),
    /// Unbounded loss: some output is possible under one input and
    /// impossible under the other.
    Infinite,
}

impl PrivacyLoss {
    /// Whether the loss is at most `bound` (infinite loss never is).
    pub fn is_bounded_by(self, bound: f64) -> bool {
        match self {
            PrivacyLoss::Finite(l) => l <= bound,
            PrivacyLoss::Infinite => false,
        }
    }

    /// The larger of two losses.
    pub fn max(self, other: PrivacyLoss) -> PrivacyLoss {
        match (self, other) {
            (PrivacyLoss::Infinite, _) | (_, PrivacyLoss::Infinite) => PrivacyLoss::Infinite,
            (PrivacyLoss::Finite(a), PrivacyLoss::Finite(b)) => PrivacyLoss::Finite(a.max(b)),
        }
    }

    /// The finite value, if any.
    pub fn finite(self) -> Option<f64> {
        match self {
            PrivacyLoss::Finite(l) => Some(l),
            PrivacyLoss::Infinite => None,
        }
    }
}

/// The exact conditional output distribution `Pr[y | x]` of a fixed-point
/// mechanism, as integer weights over a common normalizer.
///
/// `Pr[y = kΔ] = weights[k] / norm`, where weights are exact outcome counts
/// derived from the RNG's [`FxpNoisePmf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionalDist {
    weights: BTreeMap<i64, u128>,
    norm: u128,
}

impl ConditionalDist {
    /// Distribution of the **naive** mechanism `y = x + n` (no resampling or
    /// thresholding): the noise PMF shifted by the input index.
    pub fn naive(pmf: &FxpNoisePmf, x_k: i64) -> Self {
        let mut weights = BTreeMap::new();
        for (k, w) in pmf.iter() {
            if w > 0 {
                weights.insert(x_k + k, w);
            }
        }
        ConditionalDist {
            weights,
            norm: pmf.total_weight(),
        }
    }

    /// Distribution of the **thresholding** mechanism: `y = clamp(x + n,
    /// m - n_th, M + n_th)`. The boundary points absorb the clipped tails as
    /// atoms (paper Fig. 7).
    ///
    /// # Panics
    ///
    /// Panics if `n_th_k < 0`.
    pub fn thresholded(pmf: &FxpNoisePmf, range: QuantizedRange, n_th_k: i64, x_k: i64) -> Self {
        assert!(n_th_k >= 0, "threshold must be non-negative");
        let lo = range.min_k() - n_th_k;
        let hi = range.max_k() + n_th_k;
        let mut weights: BTreeMap<i64, u128> = BTreeMap::new();
        for (k, w) in pmf.iter() {
            if w == 0 {
                continue;
            }
            let y = (x_k + k).clamp(lo, hi);
            *weights.entry(y).or_insert(0) += w;
        }
        ConditionalDist {
            weights,
            norm: pmf.total_weight(),
        }
    }

    /// Distribution of the **resampling** mechanism: noise is redrawn until
    /// `x + n ∈ [m - n_th, M + n_th]`, i.e. the naive distribution restricted
    /// to the window and renormalized (paper Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `n_th_k < 0` or if no noise value lands in the window
    /// (the resampler would loop forever).
    pub fn resampled(pmf: &FxpNoisePmf, range: QuantizedRange, n_th_k: i64, x_k: i64) -> Self {
        assert!(n_th_k >= 0, "threshold must be non-negative");
        let lo = range.min_k() - n_th_k;
        let hi = range.max_k() + n_th_k;
        let mut weights = BTreeMap::new();
        let mut norm: u128 = 0;
        for (k, w) in pmf.iter() {
            let y = x_k + k;
            if w > 0 && y >= lo && y <= hi {
                weights.insert(y, w);
                norm += w;
            }
        }
        assert!(
            norm > 0,
            "resampling window [{lo}, {hi}] has zero acceptance probability for x={x_k}"
        );
        ConditionalDist { weights, norm }
    }

    /// Builds a distribution from raw `(output index, weight)` pairs —
    /// typically empirical outcome counts collected by a fault-injection
    /// campaign — so observed output histograms become comparable with the
    /// exact constructors above through [`ConditionalDist::loss_at`] and
    /// [`ConditionalDist::worst_common_support_loss`]. Duplicate indices
    /// accumulate; zero weights are dropped.
    ///
    /// Returns `None` when no pair carries positive weight: an empty
    /// histogram defines no distribution.
    pub fn from_weights<I>(pairs: I) -> Option<Self>
    where
        I: IntoIterator<Item = (i64, u128)>,
    {
        let mut weights: BTreeMap<i64, u128> = BTreeMap::new();
        let mut norm: u128 = 0;
        for (k, w) in pairs {
            if w > 0 {
                *weights.entry(k).or_insert(0) += w;
                norm += w;
            }
        }
        if norm == 0 {
            None
        } else {
            Some(ConditionalDist { weights, norm })
        }
    }

    /// Exact probability of output index `y`.
    pub fn prob(&self, y_k: i64) -> f64 {
        *self.weights.get(&y_k).unwrap_or(&0) as f64 / self.norm as f64
    }

    /// Exact weight (numerator) of output index `y`.
    pub fn weight(&self, y_k: i64) -> u128 {
        *self.weights.get(&y_k).unwrap_or(&0)
    }

    /// The normalizer all weights are expressed over.
    pub fn norm(&self) -> u128 {
        self.norm
    }

    /// Smallest and largest output indices with positive probability.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty (cannot occur for distributions
    /// built by the constructors above).
    pub fn support_bounds(&self) -> (i64, i64) {
        let lo = *self.weights.keys().next().expect("nonempty support");
        let hi = *self.weights.keys().next_back().expect("nonempty support");
        (lo, hi)
    }

    /// Iterates over `(y_k, weight)` pairs with positive weight.
    pub fn iter(&self) -> impl Iterator<Item = (i64, u128)> + '_ {
        self.weights.iter().map(|(&k, &w)| (k, w))
    }

    /// The mean output index `Σ y·Pr[y]`, in grid units.
    pub fn mean(&self) -> f64 {
        let mut acc = 0.0;
        for (&k, &w) in &self.weights {
            acc += k as f64 * w as f64;
        }
        acc / self.norm as f64
    }

    /// Privacy loss at a single output between this distribution (`x₁`) and
    /// another (`x₂`): `ln(Pr[y|x₁]/Pr[y|x₂])`, exact in the zero cases.
    ///
    /// Returns `None` when the output is impossible under *both* inputs
    /// (no loss is incurred by an event that cannot happen).
    pub fn loss_at(&self, other: &ConditionalDist, y_k: i64) -> Option<PrivacyLoss> {
        let w1 = self.weight(y_k);
        let w2 = other.weight(y_k);
        match (w1, w2) {
            (0, 0) => None,
            (_, 0) => Some(PrivacyLoss::Infinite),
            (0, _) => Some(PrivacyLoss::Finite(f64::NEG_INFINITY)),
            (w1, w2) => {
                // ln((w1/n1)/(w2/n2)) = ln(w1·n2) − ln(w2·n1), exact integers.
                let num = w1 as f64 * other.norm as f64;
                let den = w2 as f64 * self.norm as f64;
                Some(PrivacyLoss::Finite((num / den).ln()))
            }
        }
    }

    /// Worst-case (two-sided) privacy loss between this distribution and
    /// another, over every output possible under either input.
    ///
    /// Symmetric: the loss of reporting `y` is `|ln ratio|`, so swapping the
    /// inputs gives the same bound.
    pub fn worst_loss(&self, other: &ConditionalDist) -> PrivacyLoss {
        let mut worst: f64 = 0.0;
        for (&y, _) in self.weights.iter().chain(other.weights.iter()) {
            match self.loss_at(other, y) {
                Some(PrivacyLoss::Infinite) => return PrivacyLoss::Infinite,
                Some(PrivacyLoss::Finite(l)) => {
                    if l == f64::NEG_INFINITY {
                        return PrivacyLoss::Infinite;
                    }
                    worst = worst.max(l.abs());
                }
                None => {}
            }
        }
        PrivacyLoss::Finite(worst)
    }

    /// Worst absolute loss restricted to outputs possible under **both**
    /// distributions. For sparse *empirical* histograms [`Self::worst_loss`]
    /// is almost surely [`PrivacyLoss::Infinite`] — an output merely not yet
    /// observed under one input reads as a distinguishing event — so
    /// campaigns compare on the common support and report the disjoint mass
    /// (see [`Self::disjoint_mass`]) separately.
    ///
    /// Returns `None` when the supports are disjoint.
    pub fn worst_common_support_loss(&self, other: &ConditionalDist) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for &y in self.weights.keys() {
            if other.weights.contains_key(&y) {
                if let Some(PrivacyLoss::Finite(l)) = self.loss_at(other, y) {
                    let l = l.abs();
                    worst = Some(worst.map_or(l, |w| w.max(l)));
                }
            }
        }
        worst
    }

    /// Probability mass this distribution places on outputs with zero
    /// weight under `other` — the complement of the common support that
    /// [`Self::worst_common_support_loss`] compares over. For exact
    /// distributions a positive value certifies infinite loss; for
    /// empirical histograms it bounds how much evidence the common-support
    /// comparison ignores.
    pub fn disjoint_mass(&self, other: &ConditionalDist) -> f64 {
        let mut disjoint: u128 = 0;
        for (&y, &w) in &self.weights {
            if !other.weights.contains_key(&y) {
                disjoint += w;
            }
        }
        disjoint as f64 / self.norm as f64
    }
}

/// Which output-limiting mechanism a distribution/threshold refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitMode {
    /// Redraw out-of-window noise (paper Section III-B1).
    Resampling,
    /// Clamp out-of-window outputs to the window edge (Section III-B2).
    Thresholding,
}

/// Builds the conditional distribution for `mode` (or the naive mechanism if
/// `n_th_k` is `None`).
pub fn conditional(
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: Option<i64>,
    x_k: i64,
) -> ConditionalDist {
    match (mode, n_th_k) {
        (_, None) => ConditionalDist::naive(pmf, x_k),
        (LimitMode::Thresholding, Some(t)) => ConditionalDist::thresholded(pmf, range, t, x_k),
        (LimitMode::Resampling, Some(t)) => ConditionalDist::resampled(pmf, range, t, x_k),
    }
}

/// `Σ_{k ≥ j} w(k)` for any `j` (below 1, by the PMF's symmetry).
fn tail_from(pmf: &FxpNoisePmf, j: i64) -> u128 {
    if j >= 1 {
        pmf.tail_weight_ge(j)
    } else {
        pmf.total_weight() - pmf.tail_weight_ge(1 - j)
    }
}

/// `ln(max / min)` of an output's extreme probabilities, exact fractions
/// `(weight, normalizer)`: `None` if no input produces it.
fn extreme_ratio_loss(min: (u128, u128), max: (u128, u128)) -> Option<PrivacyLoss> {
    match (min.0, max.0) {
        (_, 0) => None,
        (0, _) => Some(PrivacyLoss::Infinite),
        _ => Some(PrivacyLoss::Finite(
            ((max.0 as f64 * min.1 as f64) / (min.0 as f64 * max.1 as f64)).ln(),
        )),
    }
}

/// The loss of the clamp atoms at overshoot `t`: each weighs the tail
/// `Σ_{k ≥ t + d} w(k)`, monotone in the distance `d ∈ [0, span]` to its
/// nearer input, so the extreme pair is exact.
pub(crate) fn atom_loss(pmf: &FxpNoisePmf, range: QuantizedRange, t: i64) -> Option<PrivacyLoss> {
    let far = tail_from(pmf, t + range.span_k());
    extreme_ratio_loss((far, 1), (tail_from(pmf, t), 1))
}

/// `(min, max)` of every window `a[i..i + len]`, in order, by monotone deques.
fn window_extrema(a: &[u128], len: usize) -> Vec<(u128, u128)> {
    let (mut lo, mut hi) = (VecDeque::<usize>::new(), VecDeque::<usize>::new());
    let mut out = Vec::with_capacity((a.len() + 1).saturating_sub(len));
    for (i, &v) in a.iter().enumerate() {
        while lo.back().is_some_and(|&j| a[j] >= v) {
            lo.pop_back();
        }
        lo.push_back(i);
        while hi.back().is_some_and(|&j| a[j] <= v) {
            hi.pop_back();
        }
        hi.push_back(i);
        if let Some(start) = (i + 1).checked_sub(len) {
            while lo[0] < start {
                lo.pop_front();
            }
            while hi[0] < start {
                hi.pop_front();
            }
            out.push((a[lo[0]], a[hi[0]]));
        }
    }
    out
}

/// Every output with its exact loss over every input pair, ascending and
/// computed as consumed, so a solver can stop at the first over its bound.
/// Output `y` has `Pr[y|x] = w(y − x) / Z(x)`; one sliding pass takes the
/// extremes of the `span + 1` weights each output's inputs see. Without
/// resampling `Z` is `2^(Bu+1)`, so those are the output's extremes; under
/// resampling `Z(x)` is `x`'s acceptance weight in the window, and only the
/// inputs within `Z`'s spread of an extreme weight are compared exactly.
pub(crate) fn output_losses<'a>(
    pmf: &'a FxpNoisePmf,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: Option<i64>,
) -> impl Iterator<Item = (i64, PrivacyLoss)> + 'a {
    let (m, big_m) = (range.min_k(), range.max_k());
    let reach = n_th_k.unwrap_or(pmf.support_max_k());
    assert!(reach >= 0, "threshold must be non-negative");
    let (lo, hi) = (m - reach, big_m + reach);
    let clamped = n_th_k.is_some() && mode == LimitMode::Thresholding;
    let resampled = n_th_k.is_some() && mode == LimitMode::Resampling;
    // Input M − i sees w(y − M + i), entry y − lo + i of the weights.
    let weights: Vec<u128> = (lo - big_m..=hi - m).map(|k| pmf.weight(k)).collect();
    let windows = window_extrema(&weights, (big_m - m) as usize + 1);
    let norms: Vec<u128> = (m..=big_m)
        .rev()
        .filter(|_| resampled)
        .map(|x| tail_from(pmf, lo - x) - tail_from(pmf, hi - x + 1))
        .collect();
    let (z_min, z_max) = (norms.iter().min().copied(), norms.iter().max().copied());
    // As for [`ConditionalDist::resampled`]: a resampler must halt.
    assert!(z_min != Some(0), "an input has zero acceptance probability");
    let atom = atom_loss(pmf, range, reach);
    let below = |a: (u128, u128), b: (u128, u128)| a.0 * b.1 < b.0 * a.1;
    (lo..=hi).filter_map(move |y| {
        if clamped && (y == lo || y == hi) {
            return atom.map(|l| (y, l));
        }
        let off = (y - lo) as usize;
        let (w_min, w_max) = windows[off];
        let (Some(z_min), Some(z_max)) = (z_min, z_max) else {
            return extreme_ratio_loss((w_min, 1), (w_max, 1)).map(|l| (y, l));
        };
        let (min_cut, max_cut) = (w_min * z_max / z_min, (w_max * z_min).div_ceil(z_max));
        let probs = weights[off..].iter().copied().zip(norms.iter().copied());
        let min = probs.clone().filter(|p| p.0 <= min_cut);
        let max = probs.filter(|p| p.0 >= max_cut);
        extreme_ratio_loss(
            min.reduce(|a, b| if below(b, a) { b } else { a })?,
            max.reduce(|a, b| if below(a, b) { b } else { a })?,
        )
        .map(|l| (y, l))
    })
}

/// The worst loss at each overshoot `0..=n_th_k`, either side, under window `n_th_k`.
pub(crate) fn losses_by_overshoot(
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: i64,
) -> Vec<PrivacyLoss> {
    let mut worst = vec![PrivacyLoss::Finite(0.0); n_th_k as usize + 1];
    for (y, loss) in output_losses(pmf, range, mode, Some(n_th_k)) {
        let o = (range.min_k() - y).max(0) + (y - range.max_k()).max(0);
        worst[o as usize] = worst[o as usize].max(loss);
    }
    worst
}

/// The exact privacy loss of every output the mechanism can release, over
/// **every** pair of inputs in the range, as `(y_k, PrivacyLoss)` sorted by
/// `y_k` — the per-output claim Algorithm 1 charges by and Fig. 8 plots.
/// `n_th_k = None` is the naive mechanism; a negative `n_th_k` panics.
pub fn loss_profile(
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: Option<i64>,
) -> Vec<(i64, PrivacyLoss)> {
    output_losses(pmf, range, mode, n_th_k).collect()
}

/// The worst-case loss over every output and every input pair: the maximum
/// of [`loss_profile`].
pub fn worst_case_loss(
    pmf: &FxpNoisePmf,
    range: QuantizedRange,
    mode: LimitMode,
    n_th_k: Option<i64>,
) -> PrivacyLoss {
    output_losses(pmf, range, mode, n_th_k)
        .map(|(_, l)| l)
        .fold(PrivacyLoss::Finite(0.0), PrivacyLoss::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_rng::FxpLaplaceConfig;

    fn paper_pmf() -> (FxpNoisePmf, QuantizedRange) {
        // Fig. 4 config; range [0, 10] with Δ = 10/32 → d = 10, span 32.
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        (pmf, range)
    }

    #[test]
    fn naive_mechanism_has_infinite_loss() {
        // The paper's central negative result (Section III-A3).
        let (pmf, range) = paper_pmf();
        let loss = worst_case_loss(&pmf, range, LimitMode::Thresholding, None);
        assert_eq!(loss, PrivacyLoss::Infinite);
    }

    #[test]
    fn ideal_shift_invariance_means_interior_pairs_lose_less() {
        let (pmf, range) = paper_pmf();
        let d_min = ConditionalDist::naive(&pmf, range.min_k());
        let d_mid = ConditionalDist::naive(&pmf, (range.min_k() + range.max_k()) / 2);
        let d_max = ConditionalDist::naive(&pmf, range.max_k());
        // Both pairs are infinite here (bounded support), but in the body
        // the pointwise loss of the nearer pair is smaller.
        let y = range.max_k() + 10;
        let near = d_mid.loss_at(&d_max, y).unwrap().finite().unwrap().abs();
        let far = d_min.loss_at(&d_max, y).unwrap().finite().unwrap().abs();
        assert!(near < far);
    }

    #[test]
    fn thresholding_bounds_the_loss() {
        let (pmf, range) = paper_pmf();
        // Very conservative threshold: well inside the healthy tail.
        let n_th = 300;
        let loss = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(n_th));
        assert!(
            loss.finite().is_some(),
            "thresholding must yield finite loss"
        );
    }

    #[test]
    fn resampling_bounds_the_loss() {
        let (pmf, range) = paper_pmf();
        let n_th = 300;
        let loss = worst_case_loss(&pmf, range, LimitMode::Resampling, Some(n_th));
        assert!(loss.finite().is_some(), "resampling must yield finite loss");
    }

    #[test]
    fn thresholded_dist_has_boundary_atoms() {
        let (pmf, range) = paper_pmf();
        let n_th = 100;
        let d = ConditionalDist::thresholded(&pmf, range, n_th, range.min_k());
        let (lo, hi) = d.support_bounds();
        assert_eq!(lo, range.min_k() - n_th);
        assert_eq!(hi, range.max_k() + n_th);
        // The upper boundary atom (far from x = m) carries the whole
        // clipped tail, so it is heavier than its interior neighbour.
        assert!(d.weight(hi) > d.weight(hi - 1));
    }

    #[test]
    fn resampled_dist_is_renormalized() {
        let (pmf, range) = paper_pmf();
        let n_th = 100;
        let d = ConditionalDist::resampled(&pmf, range, n_th, range.min_k());
        let total: u128 = d.iter().map(|(_, w)| w).sum();
        assert_eq!(total, d.norm());
        assert!(d.norm() < pmf.total_weight()); // some mass was rejected
        let (lo, hi) = d.support_bounds();
        assert!(lo >= range.min_k() - n_th);
        assert!(hi <= range.max_k() + n_th);
    }

    #[test]
    fn resampled_norm_is_symmetric_at_extremes() {
        // Z(m) = Z(M) by PMF symmetry — the paper's closed form silently
        // relies on this.
        let (pmf, range) = paper_pmf();
        let n_th = 150;
        let dm = ConditionalDist::resampled(&pmf, range, n_th, range.min_k());
        let dm2 = ConditionalDist::resampled(&pmf, range, n_th, range.max_k());
        assert_eq!(dm.norm(), dm2.norm());
    }

    #[test]
    fn loss_at_handles_all_zero_cases() {
        let (pmf, range) = paper_pmf();
        let d1 = ConditionalDist::naive(&pmf, range.min_k());
        let d2 = ConditionalDist::naive(&pmf, range.max_k());
        // Way beyond both supports: impossible under both.
        assert_eq!(d1.loss_at(&d2, 1_000_000), None);
        // Above x=M's support shifted but below x=m's? The top of d2's
        // support is range.max + support_max; that output is impossible
        // under x = m.
        let top2 = range.max_k() + pmf.support_max_k();
        assert_eq!(d2.loss_at(&d1, top2), Some(PrivacyLoss::Infinite));
        assert_eq!(
            d1.loss_at(&d2, top2),
            Some(PrivacyLoss::Finite(f64::NEG_INFINITY))
        );
    }

    #[test]
    fn worst_loss_is_symmetric() {
        let (pmf, range) = paper_pmf();
        let t = 200;
        let d1 = ConditionalDist::thresholded(&pmf, range, t, range.min_k());
        let d2 = ConditionalDist::thresholded(&pmf, range, t, range.max_k());
        let l12 = d1.worst_loss(&d2).finite().unwrap();
        let l21 = d2.worst_loss(&d1).finite().unwrap();
        assert!((l12 - l21).abs() < 1e-12);
    }

    #[test]
    fn smaller_threshold_gives_smaller_loss() {
        let (pmf, range) = paper_pmf();
        let tight = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(80))
            .finite()
            .unwrap();
        let loose = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(400))
            .finite()
            .unwrap();
        assert!(tight <= loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn loss_profile_grows_toward_the_tail() {
        let (pmf, range) = paper_pmf();
        let n_th = 300;
        let profile = loss_profile(&pmf, range, LimitMode::Thresholding, Some(n_th));
        // The profile's maximum is exactly the worst-case loss.
        let max = profile
            .iter()
            .map(|(_, l)| *l)
            .fold(PrivacyLoss::Finite(0.0), PrivacyLoss::max);
        let worst = worst_case_loss(&pmf, range, LimitMode::Thresholding, Some(n_th));
        match (max, worst) {
            (PrivacyLoss::Finite(a), PrivacyLoss::Finite(b)) => assert!((a - b).abs() < 1e-9),
            (a, b) => assert_eq!(a, b),
        }
        // Fig. 8 trend: the worst loss deep in the overshoot region exceeds
        // the worst loss just outside the range — count raggedness grows as
        // the per-bin counts shrink toward the tail. (The *typical* loss
        // stays near ε everywhere; it is the worst case that degrades, and
        // that is what budget segmentation charges for.)
        let max_in = |lo: i64, hi: i64| {
            profile
                .iter()
                .filter(|(y, _)| *y > range.max_k() + lo && *y <= range.max_k() + hi)
                .filter_map(|(_, l)| l.finite())
                .fold(0.0f64, f64::max)
        };
        assert!(max_in(200, 300) > max_in(0, 100));
    }

    #[test]
    fn from_weights_accumulates_and_normalizes() {
        let d = ConditionalDist::from_weights([(3, 2u128), (5, 1), (3, 4), (7, 0)])
            .expect("positive mass");
        assert_eq!(d.weight(3), 6);
        assert_eq!(d.weight(5), 1);
        assert_eq!(d.weight(7), 0); // zero weights dropped
        assert_eq!(d.norm(), 7);
        assert_eq!(d.support_bounds(), (3, 5));
        assert!((d.prob(3) - 6.0 / 7.0).abs() < 1e-15);
    }

    #[test]
    fn from_weights_rejects_empty_histograms() {
        assert_eq!(ConditionalDist::from_weights([]), None);
        assert_eq!(ConditionalDist::from_weights([(1, 0u128), (2, 0)]), None);
    }

    #[test]
    fn from_weights_reproduces_an_exact_distribution() {
        // Round-tripping an exact conditional through its (y, weight) pairs
        // must preserve every loss computation bit-for-bit.
        let (pmf, range) = paper_pmf();
        let d1 = ConditionalDist::thresholded(&pmf, range, 100, range.min_k());
        let d2 = ConditionalDist::from_weights(d1.iter()).expect("nonempty");
        assert_eq!(d1, d2);
    }

    #[test]
    fn common_support_loss_matches_worst_loss_on_shared_support() {
        let (pmf, range) = paper_pmf();
        let t = 150;
        let d1 = ConditionalDist::thresholded(&pmf, range, t, range.min_k());
        let d2 = ConditionalDist::thresholded(&pmf, range, t, range.max_k());
        // Thresholded extremes share their full support, so the restricted
        // loss equals the unrestricted worst case.
        let full = d1.worst_loss(&d2).finite().expect("finite");
        let common = d1.worst_common_support_loss(&d2).expect("overlap");
        assert!((full - common).abs() < 1e-12);
        assert_eq!(d1.disjoint_mass(&d2), 0.0);
    }

    #[test]
    fn disjoint_empirical_supports_are_reported_not_infinite() {
        let a = ConditionalDist::from_weights([(0, 3u128), (1, 1)]).unwrap();
        let b = ConditionalDist::from_weights([(1, 2u128), (2, 2)]).unwrap();
        // Only y = 1 is shared: loss |ln((1/4)/(2/4))| = ln 2.
        let l = a.worst_common_support_loss(&b).expect("y = 1 shared");
        assert!((l - (2.0f64).ln()).abs() < 1e-12);
        assert!((a.disjoint_mass(&b) - 0.75).abs() < 1e-12);
        assert!((b.disjoint_mass(&a) - 0.5).abs() < 1e-12);
        let c = ConditionalDist::from_weights([(9, 1u128)]).unwrap();
        assert_eq!(a.worst_common_support_loss(&c), None);
        assert_eq!(a.disjoint_mass(&c), 1.0);
    }

    #[test]
    fn naive_dist_mean_is_near_input() {
        let (pmf, range) = paper_pmf();
        let d = ConditionalDist::naive(&pmf, range.max_k());
        assert!((d.mean() - range.max_k() as f64).abs() < 1.0);
    }
}
