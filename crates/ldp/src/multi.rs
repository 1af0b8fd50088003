//! Multi-sensor budget sharing (Section IV).
//!
//! "If there is more than one sensor, there also may need to be a hardware
//! mechanism for sharing the budget between all sensors since the readings
//! of different sensors could be combined to compromise privacy." A single
//! shared pool meters the *combined* loss: every sensor's charge draws from
//! it, so correlated-sensor attacks cannot multiply the leakage.

use ulp_rng::{FxpLaplace, RandomBits};

use crate::budget::SegmentTable;
use crate::error::LdpError;
use crate::range::QuantizedRange;

/// One sensor's slot in the shared-budget device: its segment table, range,
/// sampler, and reply cache.
#[derive(Debug, Clone)]
struct SensorSlot {
    table: SegmentTable,
    range: QuantizedRange,
    sampler: FxpLaplace,
    cache: Option<f64>,
}

/// A privacy budget shared across several sensors (Section IV's
/// multi-sensor hardware mechanism).
///
/// # Examples
///
/// ```
/// use ldp_core::{LimitMode, MultiSensorBudget, QuantizedRange, SegmentTable};
/// use ulp_rng::{FxpLaplace, FxpLaplaceConfig, FxpNoisePmf, Taus88};
///
/// let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0)?;
/// let pmf = FxpNoisePmf::closed_form(cfg);
/// let range = QuantizedRange::new(0, 32, cfg.delta())?;
/// let table = SegmentTable::build(cfg, &pmf, range, &[1.5, 2.0, 3.0], LimitMode::Thresholding)?;
///
/// let mut shared = MultiSensorBudget::new(10.0)?;
/// let heart = shared.register(table.clone(), range, FxpLaplace::analytic(cfg));
/// let skin = shared.register(table, range, FxpLaplace::analytic(cfg));
///
/// let mut rng = Taus88::from_seed(1);
/// let y1 = shared.respond(heart, 5.0, &mut rng)?;
/// let y2 = shared.respond(skin, 2.0, &mut rng)?;
/// assert!(y1.is_finite() && y2.is_finite());
/// // Both requests drew from the same pool.
/// assert!(shared.remaining() < 10.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiSensorBudget {
    budget: f64,
    remaining: f64,
    sensors: Vec<SensorSlot>,
    served: u64,
    cached: u64,
}

/// Handle identifying a registered sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SensorId(usize);

impl MultiSensorBudget {
    /// Creates a shared pool with the given total budget (nats per period).
    ///
    /// # Errors
    ///
    /// [`LdpError::InvalidEpsilon`] if the budget is not finite and
    /// positive.
    pub fn new(budget: f64) -> Result<Self, LdpError> {
        if !(budget.is_finite() && budget > 0.0) {
            return Err(LdpError::InvalidEpsilon(budget));
        }
        Ok(MultiSensorBudget {
            budget,
            remaining: budget,
            sensors: Vec::new(),
            served: 0,
            cached: 0,
        })
    }

    /// Registers a sensor, returning its handle.
    pub fn register(
        &mut self,
        table: SegmentTable,
        range: QuantizedRange,
        sampler: FxpLaplace,
    ) -> SensorId {
        self.sensors.push(SensorSlot {
            table,
            range,
            sampler,
            cache: None,
        });
        SensorId(self.sensors.len() - 1)
    }

    /// Remaining shared budget.
    pub fn remaining(&self) -> f64 {
        self.remaining
    }

    /// Whether the pool is spent.
    pub fn exhausted(&self) -> bool {
        self.remaining <= 0.0
    }

    /// `(fresh, cached)` request counters across all sensors.
    pub fn counters(&self) -> (u64, u64) {
        (self.served, self.cached)
    }

    /// Resets the pool (replenishment timer). Caches are kept — replays are
    /// free.
    pub fn replenish(&mut self) {
        self.remaining = self.budget;
    }

    /// Serves one request for the given sensor, charging the shared pool.
    ///
    /// # Errors
    ///
    /// [`LdpError::BudgetExhausted`] if the pool is spent and this sensor
    /// has no cached reply; [`LdpError::InvalidRange`] for an unknown
    /// handle; [`LdpError::ResampleBudgetExhausted`] if resampling mode
    /// rejects 100 000 consecutive draws.
    pub fn respond<R: RandomBits + ?Sized>(
        &mut self,
        id: SensorId,
        x: f64,
        rng: &mut R,
    ) -> Result<f64, LdpError> {
        let slot = self
            .sensors
            .get_mut(id.0)
            .ok_or(LdpError::InvalidRange { min_k: 0, max_k: 0 })?;
        if self.remaining <= 0.0 {
            self.cached += 1;
            return slot.cache.ok_or(LdpError::BudgetExhausted);
        }
        let x_k = slot.range.quantize(x);
        let sampler = &slot.sampler;
        let (y_k, _, charge) = slot
            .table
            .release(slot.range, x_k, &mut || sampler.sample_index(&mut *rng))?;
        self.remaining -= charge;
        self.served += 1;
        let y = slot.range.to_value(y_k);
        slot.cache = Some(y);
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LimitMode;
    use ulp_rng::{FxpLaplaceConfig, FxpNoisePmf, Taus88};

    fn pool(budget: f64) -> (MultiSensorBudget, SensorId, SensorId) {
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        let table =
            SegmentTable::build(cfg, &pmf, range, &[1.5, 2.0, 3.0], LimitMode::Thresholding)
                .unwrap();
        let mut shared = MultiSensorBudget::new(budget).unwrap();
        let a = shared.register(table.clone(), range, FxpLaplace::analytic(cfg));
        let b = shared.register(table, range, FxpLaplace::analytic(cfg));
        (shared, a, b)
    }

    #[test]
    fn both_sensors_draw_from_one_pool() {
        let (mut shared, a, b) = pool(100.0);
        let mut rng = Taus88::from_seed(1);
        shared.respond(a, 5.0, &mut rng).unwrap();
        let after_one = shared.remaining();
        shared.respond(b, 2.0, &mut rng).unwrap();
        assert!(shared.remaining() < after_one);
    }

    #[test]
    fn exhaustion_affects_every_sensor() {
        let (mut shared, a, b) = pool(1.2);
        let mut rng = Taus88::from_seed(2);
        // Sensor A alone burns the pool.
        while !shared.exhausted() {
            shared.respond(a, 5.0, &mut rng).unwrap();
        }
        // Sensor B never answered fresh — it has no cache, so it halts:
        // the combined-leakage attack is blocked.
        assert_eq!(
            shared.respond(b, 2.0, &mut rng),
            Err(LdpError::BudgetExhausted)
        );
        // Sensor A replays its cache.
        assert!(shared.respond(a, 5.0, &mut rng).is_ok());
    }

    #[test]
    fn replenish_restores_pool() {
        let (mut shared, a, _) = pool(1.2);
        let mut rng = Taus88::from_seed(3);
        while !shared.exhausted() {
            shared.respond(a, 5.0, &mut rng).unwrap();
        }
        shared.replenish();
        assert!(!shared.exhausted());
        let (served_before, _) = shared.counters();
        shared.respond(a, 5.0, &mut rng).unwrap();
        assert_eq!(shared.counters().0, served_before + 1);
    }

    #[test]
    fn one_sensor_pool_answers_like_the_controller() {
        // The pool and the controller share Algorithm 1's release step: on
        // the same table, range, sampler, budget and seed they give the same
        // outputs and charges, through exhaustion and replay.
        use crate::budget::BudgetController;
        let cfg = FxpLaplaceConfig::new(17, 12, 10.0 / 32.0, 20.0).unwrap();
        let pmf = FxpNoisePmf::closed_form(cfg);
        let range = QuantizedRange::new(0, 32, cfg.delta()).unwrap();
        let sampler = FxpLaplace::analytic(cfg);
        for mode in [LimitMode::Thresholding, LimitMode::Resampling] {
            let table = SegmentTable::build(cfg, &pmf, range, &[1.5, 2.0, 3.0], mode).unwrap();
            let mut pool = MultiSensorBudget::new(3.0).unwrap();
            let id = pool.register(table.clone(), range, sampler.clone());
            let mut ctrl = BudgetController::new(table, range, 3.0).unwrap();
            let (mut a, mut b) = (Taus88::from_seed(5), Taus88::from_seed(5));
            for i in 0..40 {
                let x = f64::from(i % 11);
                assert_eq!(
                    pool.respond(id, x, &mut a),
                    ctrl.respond(x, &sampler, &mut b),
                    "{mode:?}: request {i}"
                );
            }
            // The ledger holds one charge per fresh answer; the rest of the
            // 40 replayed the cache.
            let served = ctrl.ledger().len() as u64;
            assert_eq!(pool.counters(), (served, 40 - served));
            assert!(served < 40, "{mode:?}: the budget must run out");
            assert_eq!(pool.remaining().to_bits(), ctrl.remaining().to_bits());
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn unknown_handle_is_rejected() {
        let (mut shared, _, _) = pool(10.0);
        let mut rng = Taus88::from_seed(4);
        let bogus = SensorId(99);
        assert!(shared.respond(bogus, 1.0, &mut rng).is_err());
    }

    #[test]
    fn rejects_bad_budget() {
        assert!(MultiSensorBudget::new(0.0).is_err());
        assert!(MultiSensorBudget::new(f64::NEG_INFINITY).is_err());
    }
}
