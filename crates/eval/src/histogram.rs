//! Histogram tooling for the distribution figures (Figs. 4 and 12).

use ulp_obs::{Counter, SpanTimer};
use ulp_rng::{stream_seed, Taus88};

/// A fixed-bin histogram over a closed interval, filled by
/// [`sample_histogram`].
///
/// # Examples
///
/// ```
/// use ldp_eval::{distinguishing_bins, sample_histogram};
///
/// // Outputs that never overlap: both occupied bins distinguish.
/// let a = sample_histogram(0.0, 10.0, 10, 100, 1, |_| 0.5);
/// let b = sample_histogram(0.0, 10.0, 10, 100, 2, |_| 9.5);
/// assert_eq!(a.bins(), 10);
/// assert_eq!(distinguishing_bins(&a, &b), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "empty histogram range");
        assert!(bins > 0, "at least one bin required");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of one bin.
    fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Adds one sample.
    fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let last = self.counts.len() - 1;
            let idx = ((x - self.lo) / self.bin_width()) as usize;
            self.counts[idx.min(last)] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Adds every count of `other` (same binning) into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different binning.
    fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins(), other.bins(), "histograms must share binning");
        assert_eq!(self.lo, other.lo, "histograms must share range");
        assert_eq!(self.hi, other.hi, "histograms must share range");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

/// Samples per histogram shard in [`sample_histogram`]; fixed (independent
/// of the thread count) so the shard partition — and with it the output —
/// is deterministic.
const SHARD_SAMPLES: usize = 4096;

/// Fills a histogram over `[lo, hi)` with `n` samples drawn by `sample`,
/// fanning fixed-size shards out over [`ulp_par`].
///
/// Shard `s` draws from its own [`Taus88`] stream seeded by
/// `stream_seed(seed, &[s])`, and the shard partition depends only on `n`,
/// so the merged histogram is byte-identical at any thread count.
///
/// # Panics
///
/// Panics if `lo >= hi` or `bins == 0`.
pub fn sample_histogram(
    lo: f64,
    hi: f64,
    bins: usize,
    n: usize,
    seed: u64,
    sample: impl Fn(&mut Taus88) -> f64 + Sync,
) -> Histogram {
    static SWEEP: SpanTimer = SpanTimer::new("eval.sample_histogram");
    static CELLS: Counter = Counter::new("eval.histogram.samples");
    let _span = SWEEP.enter();
    CELLS.add(n as u64);
    let shards: Vec<(u64, usize)> = (0..n.div_ceil(SHARD_SAMPLES))
        .map(|s| (s as u64, SHARD_SAMPLES.min(n - s * SHARD_SAMPLES)))
        .collect();
    let parts = ulp_par::par_map(&shards, |&(s, count)| {
        let mut rng = Taus88::from_seed(stream_seed(seed, &[s]));
        let mut h = Histogram::new(lo, hi, bins);
        for _ in 0..count {
            h.add(sample(&mut rng));
        }
        h
    });
    let mut out = Histogram::new(lo, hi, bins);
    for part in &parts {
        out.merge(part);
    }
    out
}

/// Number of bins where exactly one of two histograms has samples — the
/// "distinguishing outputs" evidence of Fig. 12(b): if a noised output can
/// only come from one of two sensor values, observing it reveals the value.
///
/// # Panics
///
/// Panics if the histograms have different binning.
pub fn distinguishing_bins(a: &Histogram, b: &Histogram) -> usize {
    assert_eq!(a.bins(), b.bins(), "histograms must share binning");
    assert_eq!(a.lo, b.lo, "histograms must share range");
    assert_eq!(a.hi, b.hi, "histograms must share range");
    (0..a.bins())
        .filter(|&i| (a.count(i) == 0) != (b.count(i) == 0))
        .count()
}

/// Number of outputs that are **certified** (from exact distributions, not
/// samples) to be reachable from exactly one of two inputs — the
/// ground-truth version of Fig. 12(b)'s histogram evidence.
pub fn certified_distinguishing_outputs(
    a: &ldp_core::ConditionalDist,
    b: &ldp_core::ConditionalDist,
) -> usize {
    let (lo_a, hi_a) = a.support_bounds();
    let (lo_b, hi_b) = b.support_bounds();
    (lo_a.min(lo_b)..=hi_a.max(hi_b))
        .filter(|&y| (a.weight(y) == 0) != (b.weight(y) == 0))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certified_distinguishability_matches_analysis() {
        use ldp_core::{ConditionalDist, QuantizedRange};
        use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf};
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        // Naive: many certified distinguishing outputs.
        let a = ConditionalDist::naive(&pmf, range.min_k());
        let b = ConditionalDist::naive(&pmf, range.max_k());
        assert!(certified_distinguishing_outputs(&a, &b) > 0);
        // Thresholded: exactly zero, by construction.
        let at = ConditionalDist::thresholded(&pmf, range, 300, range.min_k());
        let bt = ConditionalDist::thresholded(&pmf, range, 300, range.max_k());
        assert_eq!(certified_distinguishing_outputs(&at, &bt), 0);
    }

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for x in [0.0, 0.24, 0.25, 0.5, 0.99] {
            h.add(x);
        }
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(3), 1);
    }

    #[test]
    fn under_and_overflow_are_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-0.1);
        h.add(1.0);
        assert_eq!((h.underflow, h.overflow), (1, 1));
        assert_eq!(h.counts, [0, 0]);
    }

    #[test]
    fn distinguishing_bins_detects_disjoint_support() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let mut b = Histogram::new(0.0, 10.0, 10);
        a.add(0.5); // bin 0 only in a
        b.add(9.5); // bin 9 only in b
        a.add(5.0);
        b.add(5.0); // shared bin 5
        assert_eq!(distinguishing_bins(&a, &b), 2);
    }

    #[test]
    #[should_panic(expected = "share binning")]
    fn mismatched_binning_panics() {
        let a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 8);
        distinguishing_bins(&a, &b);
    }

    #[test]
    fn merge_adds_counts_and_outliers() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let mut b = Histogram::new(0.0, 1.0, 2);
        a.add(0.1);
        b.add(0.1);
        b.add(0.9);
        b.add(-1.0);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(1), 1);
        assert_eq!((a.underflow, a.overflow), (1, 0));
    }

    #[test]
    fn parallel_sampling_is_deterministic_and_complete() {
        use ulp_rng::RandomBits;
        // Uses more samples than one shard, so the merge path is exercised.
        let n = 3 * super::SHARD_SAMPLES + 17;
        let draw = |rng: &mut Taus88| f64::from(rng.next_u32()) / f64::from(u32::MAX);
        let h1 = sample_histogram(0.0, 1.0, 16, n, 9, draw);
        let h2 = sample_histogram(0.0, 1.0, 16, n, 9, draw);
        assert_eq!(h1, h2);
        assert_eq!(h1.counts.iter().sum::<u64>(), n as u64);
        assert_eq!((h1.underflow, h1.overflow), (0, 0));
        // Roughly uniform: every bin populated at this sample count.
        assert!((0..h1.bins()).all(|i| h1.count(i) > 0));
    }
}
