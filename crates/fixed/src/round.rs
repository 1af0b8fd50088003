//! Rounding modes used when a wire adapter drops fractional bits.

/// How a value is mapped to the nearest representable grid point when
/// [`Fx::resize`](crate::Fx::resize) narrows it.
///
/// The paper's RNG hardware "rounds to the nearest value `kΔ`"
/// (Section III-A2); [`Rounding::NearestTiesAway`] models the usual
/// add-half-and-truncate hardware rounder. The other modes are provided for
/// modelling alternative datapaths.
///
/// # Examples
///
/// ```
/// use ulp_fixed::{Fx, QFormat, Rounding};
///
/// let half = QFormat::new(8, 1)?;
/// let whole = QFormat::new(8, 0)?;
/// let x = Fx::from_raw(5, half)?; // 2.5
/// assert_eq!(x.resize(whole, Rounding::NearestTiesAway)?.raw(), 3);
/// assert_eq!(x.resize(whole, Rounding::NearestTiesEven)?.raw(), 2);
/// assert_eq!(x.resize(whole, Rounding::Floor)?.raw(), 2);
/// # Ok::<(), ulp_fixed::FixedError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round to nearest; ties away from zero (`f64::round` semantics).
    #[default]
    NearestTiesAway,
    /// Round to nearest; ties to the even integer (IEEE default).
    NearestTiesEven,
    /// Round toward negative infinity.
    Floor,
    /// Round toward positive infinity.
    Ceil,
    /// Round toward zero (truncation).
    TowardZero,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ties_away() {
        assert_eq!(Rounding::default(), Rounding::NearestTiesAway);
    }
}
