//! Per-dataset experiment setup: ADC, noise configuration, mechanisms.
//!
//! Everything downstream (utility tables, latency, figures) builds on this:
//! the dataset's physical range is mapped onto `q`-bit ADC codes, the
//! privacy pipeline runs in code space (`Δ = 1` code), and the four
//! evaluated mechanisms are constructed from one shared noise
//! configuration.

use ldp_core::{
    exact_threshold_cached, FxpBaseline, IdealLaplaceMechanism, LdpError, LimitMode,
    QuantizedRange, ResamplingMechanism, SamplerPath, ThresholdingMechanism,
};
use ldp_datasets::{generate, DatasetSpec};
use ulp_rng::{cached_pmf, FxpLaplace, FxpLaplaceConfig, FxpNoisePmf};

use crate::adc::Adc;

/// A dataset realization prepared for evaluation: the setup plus the
/// generated values and their deterministic encodings.
///
/// Every sweep used to repeat the same three steps per cell — build an
/// [`ExperimentSetup`], call [`ldp_datasets::generate`], and encode the
/// values to ADC codes. This hoists that block so the utility, latency,
/// adversary, and fleet sweeps all share one copy (and one definition of
/// "ground truth") instead of each keeping their own.
///
/// Generation and encoding are pure functions of `(spec, seed)`, so
/// preparing a `GroundTruth` consumes no RNG stream shared with any
/// mechanism: sweeps rewired through it reproduce their previous bytes
/// exactly.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The configured experiment (ADC, range, noise PMF, mechanisms).
    pub setup: ExperimentSetup,
    /// The generated physical sensor values.
    pub data: Vec<f64>,
    /// `data` encoded to ADC codes, as grid indices (the batched
    /// privatization and device input format).
    pub codes_k: Vec<i64>,
}

impl GroundTruth {
    /// Prepares a dataset realization under the paper's default operating
    /// point (`Bu = 17`, 8-bit ADC).
    ///
    /// # Errors
    ///
    /// See [`ExperimentSetup::new`].
    pub fn prepare(spec: &DatasetSpec, eps: f64, seed: u64) -> Result<Self, LdpError> {
        Ok(Self::from_setup(
            ExperimentSetup::paper_default(spec, eps)?,
            seed,
        ))
    }

    /// Prepares a realization with explicit RNG widths (the Fig. 15 sweep
    /// varies `By`).
    ///
    /// # Errors
    ///
    /// See [`ExperimentSetup::with_output_bits`].
    pub fn with_output_bits(
        spec: &DatasetSpec,
        eps: f64,
        bu: u8,
        by: u8,
        adc_bits: u8,
        seed: u64,
    ) -> Result<Self, LdpError> {
        Ok(Self::from_setup(
            ExperimentSetup::with_output_bits(spec, eps, bu, by, adc_bits)?,
            seed,
        ))
    }

    /// Generates and encodes the dataset for an already-built setup.
    fn from_setup(setup: ExperimentSetup, seed: u64) -> Self {
        let data = generate(&setup.spec, seed);
        let adc = setup.adc;
        let codes_k: Vec<i64> = data.iter().map(|&x| adc.encode(x)).collect();
        GroundTruth {
            setup,
            data,
            codes_k,
        }
    }

    /// Number of entries in the realization.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the realization is empty (a zero-entry spec).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Which of the paper's four evaluated settings a mechanism instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechKind {
    /// Continuous double-precision Laplace (the mathematical ideal).
    Ideal,
    /// Naive fixed-point implementation (no privacy guarantee).
    Baseline,
    /// Fixed-point with resampling.
    Resampling,
    /// Fixed-point with thresholding.
    Thresholding,
}

impl MechKind {
    /// All four settings in the tables' column order.
    pub fn all() -> [MechKind; 4] {
        [
            MechKind::Ideal,
            MechKind::Baseline,
            MechKind::Resampling,
            MechKind::Thresholding,
        ]
    }

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            MechKind::Ideal => "Ideal Local DP",
            MechKind::Baseline => "FxP HW Baseline",
            MechKind::Resampling => "Resampling",
            MechKind::Thresholding => "Thresholding",
        }
    }
}

/// A fully configured experiment for one dataset at one privacy level.
///
/// Every mechanism it builds privatizes batches on
/// [`SamplerPath::Fast`]; single draws stay on the cycle-faithful reference
/// datapath.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// The dataset specification.
    pub spec: DatasetSpec,
    /// The ADC mapping physical values to codes.
    pub adc: Adc,
    /// The sensor range in code space.
    pub range: QuantizedRange,
    /// The fixed-point noise configuration (`Δ = 1` code).
    pub cfg: FxpLaplaceConfig,
    /// The exact output PMF of the noise RNG.
    pub pmf: FxpNoisePmf,
    /// The privacy parameter ε.
    pub eps: f64,
}

impl ExperimentSetup {
    /// Builds a setup: `q`-bit ADC, `Bu`-bit URNG, scale `λ = 2^q/ε` codes,
    /// 20-bit output word.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] for a non-positive ε; RNG configuration
    /// errors propagate.
    pub fn new(spec: &DatasetSpec, eps: f64, bu: u8, adc_bits: u8) -> Result<Self, LdpError> {
        Self::with_output_bits(spec, eps, bu, 20, adc_bits)
    }

    /// Builds a setup with an explicit RNG output word width `By` — Fig. 15
    /// sweeps this to show the low-resolution utility floor.
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] for a non-positive ε; RNG configuration
    /// errors propagate.
    pub fn with_output_bits(
        spec: &DatasetSpec,
        eps: f64,
        bu: u8,
        by: u8,
        adc_bits: u8,
    ) -> Result<Self, LdpError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(LdpError::InvalidEpsilon(eps));
        }
        let adc = Adc::new(spec.min, spec.max, adc_bits);
        let range = QuantizedRange::new(0, adc.max_code(), 1.0)?;
        let lambda = adc.max_code() as f64 / eps;
        let cfg = FxpLaplaceConfig::new(bu, by, 1.0, lambda)?;
        // Memoized: structurally identical to `FxpNoisePmf::closed_form(cfg)`
        // but shared across the thousands of setups a sweep constructs.
        let pmf = (*cached_pmf(cfg)?).clone();
        Ok(ExperimentSetup {
            spec: spec.clone(),
            adc,
            range,
            cfg,
            pmf,
            eps,
        })
    }

    /// The paper's default operating point: `Bu = 17`, 8-bit ADC.
    ///
    /// # Errors
    ///
    /// See [`ExperimentSetup::new`].
    pub fn paper_default(spec: &DatasetSpec, eps: f64) -> Result<Self, LdpError> {
        Self::new(spec, eps, 17, 8)
    }

    /// The ideal continuous mechanism.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn ideal(&self) -> Result<IdealLaplaceMechanism, LdpError> {
        Ok(IdealLaplaceMechanism::new(self.range, self.eps)?.with_sampler_path(SamplerPath::Fast))
    }

    /// The naive fixed-point baseline.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation.
    pub fn baseline(&self) -> Result<FxpBaseline, LdpError> {
        Ok(
            FxpBaseline::new(FxpLaplace::analytic(self.cfg), self.range)?
                .with_sampler_path(SamplerPath::Fast),
        )
    }

    /// The resampling mechanism at loss target `multiple · ε`.
    ///
    /// # Errors
    ///
    /// Threshold-solver errors propagate.
    pub fn resampling(&self, multiple: f64) -> Result<ResamplingMechanism, LdpError> {
        let spec = exact_threshold_cached(self.cfg, self.range, multiple, LimitMode::Resampling)?;
        Ok(
            ResamplingMechanism::new(FxpLaplace::analytic(self.cfg), self.range, spec)?
                .with_sampler_path(SamplerPath::Fast),
        )
    }

    /// The thresholding mechanism at loss target `multiple · ε`.
    ///
    /// # Errors
    ///
    /// Threshold-solver errors propagate.
    pub fn thresholding(&self, multiple: f64) -> Result<ThresholdingMechanism, LdpError> {
        let spec = exact_threshold_cached(self.cfg, self.range, multiple, LimitMode::Thresholding)?;
        Ok(
            ThresholdingMechanism::new(FxpLaplace::analytic(self.cfg), self.range, spec)?
                .with_sampler_path(SamplerPath::Fast),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::Mechanism;
    use ldp_datasets::statlog_heart;
    use ulp_rng::Taus88;

    #[test]
    fn paper_default_builds_all_mechanisms() {
        let setup = ExperimentSetup::paper_default(&statlog_heart(), 0.5).unwrap();
        assert_eq!(setup.adc.bits(), 8);
        assert_eq!(setup.range.span_k(), 256);
        let mut rng = Taus88::from_seed(1);
        for mech in [
            Box::new(setup.ideal().unwrap()) as Box<dyn Mechanism>,
            Box::new(setup.baseline().unwrap()),
            Box::new(setup.resampling(2.0).unwrap()),
            Box::new(setup.thresholding(2.0).unwrap()),
        ] {
            let out = mech.privatize(131.0_f64.round(), &mut rng).unwrap();
            assert!(out.value.is_finite());
        }
    }

    #[test]
    fn lambda_scales_with_adc_resolution() {
        let s8 = ExperimentSetup::new(&statlog_heart(), 0.5, 17, 8).unwrap();
        let s10 = ExperimentSetup::new(&statlog_heart(), 0.5, 17, 10).unwrap();
        assert_eq!(s8.cfg.lambda(), 512.0);
        assert_eq!(s10.cfg.lambda(), 2048.0);
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(ExperimentSetup::paper_default(&statlog_heart(), 0.0).is_err());
        assert!(ExperimentSetup::paper_default(&statlog_heart(), f64::NAN).is_err());
    }

    #[test]
    fn ground_truth_matches_manual_prep() {
        let spec = statlog_heart();
        let gt = GroundTruth::prepare(&spec, 0.5, 7).unwrap();
        let data = ldp_datasets::generate(&spec, 7);
        assert_eq!(gt.data, data);
        let codes_k: Vec<i64> = data.iter().map(|&x| gt.setup.adc.encode(x)).collect();
        assert_eq!(gt.codes_k, codes_k);
        // On the unit grid (min_k = 0) every code is its own grid index:
        // `quantize` of the code as a value gives it back.
        for &k in &codes_k {
            assert_eq!(gt.setup.range.quantize(gt.setup.range.to_value(k)), k);
        }
        assert_eq!(gt.len(), spec.entries);
        assert!(!gt.is_empty());
    }

    #[test]
    fn mech_kind_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            MechKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
