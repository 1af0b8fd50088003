//! Property-based tests for `ulp-fixed`.

use proptest::prelude::*;
use ulp_fixed::{Fx, QFormat, Rounding};

fn arb_format() -> impl Strategy<Value = QFormat> {
    (1u8..=63).prop_flat_map(|total| {
        (0u8..=total).prop_map(move |frac| QFormat::new(total, frac).unwrap())
    })
}

fn arb_fx(fmt: QFormat) -> impl Strategy<Value = Fx> {
    (fmt.min_raw()..=fmt.max_raw()).prop_map(move |raw| Fx::from_raw(raw, fmt).unwrap())
}

fn arb_pair() -> impl Strategy<Value = (Fx, Fx)> {
    arb_format().prop_flat_map(|fmt| (arb_fx(fmt), arb_fx(fmt)))
}

const MODES: [Rounding; 5] = [
    Rounding::NearestTiesAway,
    Rounding::NearestTiesEven,
    Rounding::Floor,
    Rounding::Ceil,
    Rounding::TowardZero,
];

/// `raw · 2^−shift` rounded by `mode`, from i128 floor division: the exact
/// reference for a narrowing [`Fx::resize`].
fn exact_narrowing(raw: i64, shift: u32, mode: Rounding) -> i128 {
    let (raw, d) = (i128::from(raw), 1i128 << shift);
    let floor = raw.div_euclid(d);
    let ceil = floor + i128::from(floor * d != raw);
    // Twice the remainder against the divisor: below, at or above a half.
    let half_way = (2 * (raw - floor * d)).cmp(&d);
    let nearest = |tie| match half_way {
        std::cmp::Ordering::Less => floor,
        std::cmp::Ordering::Greater => ceil,
        std::cmp::Ordering::Equal => tie,
    };
    match mode {
        Rounding::Floor => floor,
        Rounding::Ceil => ceil,
        Rounding::TowardZero => {
            if raw < 0 {
                ceil
            } else {
                floor
            }
        }
        Rounding::NearestTiesAway => nearest(if raw < 0 { floor } else { ceil }),
        Rounding::NearestTiesEven => nearest(if floor % 2 == 0 { floor } else { ceil }),
    }
}

/// Checks one narrowing `resize` of `raw` from `src` to `dst` against
/// [`exact_narrowing`]: the exact result, or an overflow when it does not
/// fit `dst`.
fn check_narrowing(raw: i64, src: QFormat, dst: QFormat, mode: Rounding) -> Result<(), String> {
    let shift = u32::from(src.frac_bits() - dst.frac_bits());
    let want = exact_narrowing(raw, shift, mode);
    let got = Fx::from_raw(raw, src).unwrap().resize(dst, mode);
    let fits = i64::try_from(want).is_ok_and(|w| dst.contains_raw(w));
    match got {
        Ok(v) if fits && i128::from(v.raw()) == want => Ok(()),
        Err(_) if !fits => Ok(()),
        _ => Err(format!(
            "{raw} from {src:?} to {dst:?} under {mode:?}: got {got:?}, want {want}"
        )),
    }
}

#[test]
fn resize_narrows_every_extreme_exactly_at_every_shift() {
    let mut failures = Vec::new();
    for shift in 1..=63u8 {
        for src in [
            QFormat::new(63, 63).unwrap(),
            QFormat::new(63, shift).unwrap(),
        ] {
            let dst_frac = src.frac_bits() - shift;
            let dsts = [8, 63].map(|t| QFormat::new(t.max(dst_frac), dst_frac).unwrap());
            let (min, max) = (src.min_raw(), src.max_raw());
            let half = 1i64 << (shift - 1).min(61);
            let raws = [
                0,
                1,
                -1,
                min,
                min + 1,
                max,
                max - 1,
                half,
                -half,
                half * 3,
                -half * 3,
            ];
            for raw in raws.into_iter().filter(|&r| src.contains_raw(r)) {
                for (dst, mode) in dsts.iter().flat_map(|&d| MODES.map(|m| (d, m))) {
                    failures.extend(check_narrowing(raw, src, dst, mode).err());
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Number of distinct representable values, `2^total_bits`.
fn cardinality(fmt: QFormat) -> u64 {
    1u64 << fmt.total_bits()
}

proptest! {
    #[test]
    fn raw_roundtrip(fmt in arb_format(), raw in any::<i64>()) {
        let raw = raw.rem_euclid(cardinality(fmt) as i64) + fmt.min_raw();
        let v = Fx::from_raw(raw, fmt).unwrap();
        prop_assert_eq!(v.raw(), raw);
        prop_assert_eq!(v.format(), fmt);
    }

    #[test]
    fn resize_widen_is_exact(fmt in arb_format(), raw in any::<i64>()) {
        prop_assume!(fmt.total_bits() <= 40);
        let raw = raw.rem_euclid(cardinality(fmt) as i64) + fmt.min_raw();
        let v = Fx::from_raw(raw, fmt).unwrap();
        let wide = QFormat::new(fmt.total_bits() + 10, fmt.frac_bits() + 5).unwrap();
        let w = v.resize(wide, Rounding::Floor).unwrap();
        prop_assert_eq!(w.to_f64(), v.to_f64());
        // And shrinking back recovers the original value.
        let back = w.resize(fmt, Rounding::NearestTiesAway).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn resize_narrow_error_bounded((a, _) in arb_pair()) {
        let fmt = a.format();
        prop_assume!(fmt.frac_bits() >= 2 && fmt.total_bits() <= 40);
        let narrow = QFormat::new(fmt.total_bits(), fmt.frac_bits() - 2).unwrap();
        let n = a.resize(narrow, Rounding::NearestTiesAway).unwrap();
        prop_assert!((n.to_f64() - a.to_f64()).abs() <= narrow.delta() / 2.0);
    }

    #[test]
    fn resize_narrows_as_exact_rounding(
        shift in 1u8..=63,
        src_total in 1u8..=63,
        frac_pick in any::<u8>(),
        dst_total in 1u8..=63,
        raw in any::<i64>(),
        mode in 0usize..5,
    ) {
        let src_total = src_total.max(shift);
        let src_frac = shift + frac_pick % (src_total - shift + 1);
        let src = QFormat::new(src_total, src_frac).unwrap();
        let dst_frac = src.frac_bits() - shift;
        let dst = QFormat::new(dst_total.max(dst_frac), dst_frac).unwrap();
        let raw = raw.rem_euclid(cardinality(src) as i64) + src.min_raw();
        prop_assert_eq!(check_narrowing(raw, src, dst, MODES[mode]), Ok(()));
    }

    #[test]
    fn ordering_agrees_with_f64((a, b) in arb_pair()) {
        prop_assume!(a.format().total_bits() <= 52);
        let by_fx = a.partial_cmp(&b).unwrap();
        let by_f64 = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
        prop_assert_eq!(by_fx, by_f64);
    }

    #[test]
    fn narrowing_floor_and_ceil_bracket(fmt in arb_format(), raw in any::<i64>(), drop in 1u8..=16) {
        prop_assume!(fmt.frac_bits() >= drop);
        let raw = raw.rem_euclid(cardinality(fmt) as i64) + fmt.min_raw();
        let v = Fx::from_raw(raw, fmt).unwrap();
        let narrow = QFormat::new(fmt.total_bits(), fmt.frac_bits() - drop).unwrap();
        if let (Ok(fl), Ok(ce)) = (
            v.resize(narrow, Rounding::Floor),
            v.resize(narrow, Rounding::Ceil),
        ) {
            let scale = 1i128 << drop;
            prop_assert!(i128::from(fl.raw()) * scale <= i128::from(raw));
            prop_assert!(i128::from(ce.raw()) * scale >= i128::from(raw));
            prop_assert!(ce.raw() - fl.raw() <= 1);
        }
    }
}
