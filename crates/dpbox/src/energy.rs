//! Latency and energy model (Sections III-D and V).
//!
//! The paper synthesizes DP-Box in 65 nm at 16 MHz and compares against
//! software noising on an MSP430-class microcontroller:
//!
//! * hardware: 10431 gates, 158.3 µW, 58.66 ns critical path; noising in 2
//!   cycles, conservatively accounted as 4 (one memory write + one read on
//!   the host side);
//! * software, 20-bit fixed point: 4043 cycles;
//! * software, half-precision float: 1436 cycles;
//! * reported energy benefits: 894× and 318× respectively.
//!
//! We model energy as `cycles × cycle_time × active_power`. The MSP430
//! active power is not stated in the paper; 140 µW at 16 MHz is the unique
//! value consistent with *both* published ratios (894× and 318×), so the
//! model uses it and the tests pin the two ratios.

/// Implementation style being costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Implementation {
    /// The DP-Box hardware module.
    HardwareDpBox,
    /// Software noising with 20-bit fixed-point arithmetic.
    SoftwareFixedPoint,
    /// Software noising with half-precision floating point.
    SoftwareHalfFloat,
}

/// A latency/energy cost model for one noising operation.
///
/// # Examples
///
/// ```
/// use dp_box::{EnergyModel, Implementation};
///
/// let model = EnergyModel::paper_65nm();
/// let hw = model.energy_per_noising(Implementation::HardwareDpBox, 0);
/// let sw = model.energy_per_noising(Implementation::SoftwareFixedPoint, 0);
/// // The paper's headline: ~894× energy advantage.
/// assert!((sw / hw / 894.0 - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Clock frequency in Hz (both sides run at 16 MHz in the paper).
    pub clock_hz: f64,
    /// DP-Box active power in watts.
    pub dpbox_power_w: f64,
    /// Microcontroller active power in watts.
    pub mcu_power_w: f64,
    /// Host-visible DP-Box cycles per noising (conservative 4 in the paper).
    hw_cycles: u64,
    /// Software fixed-point cycles per noising.
    sw_fxp_cycles: u64,
    /// Software half-float cycles per noising.
    sw_half_cycles: u64,
    /// Gate count of the synthesized module (for area reporting).
    pub gate_count: u64,
}

impl EnergyModel {
    /// The 65 nm / 16 MHz operating point of Section V.
    pub fn paper_65nm() -> Self {
        EnergyModel {
            clock_hz: 16.0e6,
            dpbox_power_w: 158.3e-6,
            mcu_power_w: 140.0e-6,
            hw_cycles: 4,
            sw_fxp_cycles: 4043,
            sw_half_cycles: 1436,
            gate_count: 10_431,
        }
    }

    /// The relaxed-timing variant mentioned in Section V (30 ns critical
    /// path, 9621 gates, 252 µW).
    pub fn paper_65nm_relaxed() -> Self {
        EnergyModel {
            dpbox_power_w: 252.0e-6,
            gate_count: 9_621,
            ..Self::paper_65nm()
        }
    }

    /// Cycles one noising takes, including `resamples` extra cycles for the
    /// hardware (software implementations pay the full sampling cost per
    /// redraw).
    pub fn cycles_per_noising(&self, imp: Implementation, resamples: u64) -> u64 {
        match imp {
            Implementation::HardwareDpBox => self.hw_cycles + resamples,
            Implementation::SoftwareFixedPoint => self.sw_fxp_cycles * (1 + resamples),
            Implementation::SoftwareHalfFloat => self.sw_half_cycles * (1 + resamples),
        }
    }

    /// Latency of one noising in seconds.
    pub fn latency_per_noising(&self, imp: Implementation, resamples: u64) -> f64 {
        self.cycles_per_noising(imp, resamples) as f64 / self.clock_hz
    }

    /// Energy of one noising in joules.
    pub fn energy_per_noising(&self, imp: Implementation, resamples: u64) -> f64 {
        let power = match imp {
            Implementation::HardwareDpBox => self.dpbox_power_w,
            _ => self.mcu_power_w,
        };
        self.latency_per_noising(imp, resamples) * power
    }

    /// Energy ratio of a software implementation to the hardware DP-Box
    /// (the paper's "energy benefit").
    pub fn energy_benefit(&self, sw: Implementation) -> f64 {
        self.energy_per_noising(sw, 0) / self.energy_per_noising(Implementation::HardwareDpBox, 0)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper_65nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_894x_fixed_point_benefit() {
        let m = EnergyModel::paper_65nm();
        let benefit = m.energy_benefit(Implementation::SoftwareFixedPoint);
        assert!(
            (benefit / 894.0 - 1.0).abs() < 0.01,
            "fixed-point benefit {benefit}"
        );
    }

    #[test]
    fn reproduces_318x_half_float_benefit() {
        let m = EnergyModel::paper_65nm();
        let benefit = m.energy_benefit(Implementation::SoftwareHalfFloat);
        assert!(
            (benefit / 318.0 - 1.0).abs() < 0.01,
            "half-float benefit {benefit}"
        );
    }

    #[test]
    fn hardware_latency_is_microseconds_scale() {
        let m = EnergyModel::paper_65nm();
        let l = m.latency_per_noising(Implementation::HardwareDpBox, 0);
        assert!((l - 4.0 / 16.0e6).abs() < 1e-12);
    }

    #[test]
    fn resamples_add_single_cycles_in_hardware_only() {
        let m = EnergyModel::paper_65nm();
        let hw0 = m.cycles_per_noising(Implementation::HardwareDpBox, 0);
        let hw3 = m.cycles_per_noising(Implementation::HardwareDpBox, 3);
        assert_eq!(hw3 - hw0, 3);
        let sw0 = m.cycles_per_noising(Implementation::SoftwareFixedPoint, 0);
        let sw1 = m.cycles_per_noising(Implementation::SoftwareFixedPoint, 1);
        assert_eq!(sw1, 2 * sw0, "software repeats the full sampling routine");
    }

    #[test]
    fn relaxed_variant_trades_power_for_area() {
        let tight = EnergyModel::paper_65nm();
        let relaxed = EnergyModel::paper_65nm_relaxed();
        assert!(relaxed.gate_count < tight.gate_count);
        assert!(relaxed.dpbox_power_w > tight.dpbox_power_w);
    }
}
