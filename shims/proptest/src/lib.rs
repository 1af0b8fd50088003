//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment cannot reach crates.io, so the workspace vendors a
//! minimal property-testing engine with the same surface syntax as the real
//! `proptest`: the [`proptest!`] macro, [`Strategy`](strategy::Strategy)
//! with `prop_map`/`prop_flat_map`, range and tuple strategies, `any::<T>()`,
//! `collection::vec`, and the `prop_assert*`/`prop_assume!` macros.
//!
//! Differences from upstream (all acceptable for this workspace's tests):
//!
//! * **No shrinking.** A failing case reports its values (via the assertion
//!   message), test name, case index, and seed; reproduction is
//!   deterministic because case seeds are derived from the test name.
//! * Generation is driven by SplitMix64, not upstream's PRNG, so generated
//!   sequences differ from real `proptest` runs.

#![forbid(unsafe_code)]

/// Deterministic per-case random source used by strategies.
pub mod test_runner {
    /// The PRNG handed to strategies (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator from a case seed.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next uniform 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform value in `[0, span)` (`span > 0`).
        pub fn below(&mut self, span: u128) -> u128 {
            debug_assert!(span > 0);
            ((self.next_u64() as u128) << 64 | self.next_u64() as u128) % span
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject(String),
        /// An assertion failed; the test fails.
        Fail(String),
    }

    /// Stable 64-bit FNV-1a hash of the test name, for seeding.
    pub fn name_seed(name: &str) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Runs `cases` accepted cases of `body`, skipping rejected ones.
    ///
    /// # Panics
    ///
    /// Panics (failing the test) on the first [`TestCaseError::Fail`].
    pub fn run(
        name: &str,
        cases: u32,
        mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        let base = name_seed(name);
        let mut accepted = 0u32;
        let mut attempt = 0u64;
        let max_attempts = cases as u64 * 16 + 64;
        while accepted < cases && attempt < max_attempts {
            let seed = base ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = TestRng::new(seed);
            attempt += 1;
            match body(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest case failed: {name} (case {attempt}, seed {seed:#x}): {msg}")
                }
            }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream proptest there is no value tree: `generate` directly
    /// yields a value (no shrinking).
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// from it (dependent generation).
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let v = self.start + (self.end - self.start) * rng.unit_f64();
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + (hi - lo) * rng.unit_f64()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// Types with a canonical full-domain strategy (see [`any`]).
    pub trait Arbitrary: Sized {
        /// Generates one uniform value of the type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone)]
    pub struct Any<T> {
        _marker: core::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T` (`any::<u64>()`, …).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: core::marker::PhantomData,
        }
    }

    /// A type-erased union arm: a weight and a boxed generator.
    type UnionArm<T> = (u32, Box<dyn Fn(&mut TestRng) -> T>);

    /// Weighted choice among strategies sharing a value type; built by
    /// [`prop_oneof!`](crate::prop_oneof). Arms are type-erased so they
    /// may be heterogeneous strategy types, as in upstream proptest.
    pub struct Union<T> {
        arms: Vec<UnionArm<T>>,
    }

    impl<T> Union<T> {
        /// An empty union; generation panics until an arm is added.
        #[allow(clippy::new_without_default)]
        pub fn new() -> Self {
            Union { arms: Vec::new() }
        }

        /// Adds an arm picked with probability `weight / total_weight`.
        pub fn arm<S: Strategy<Value = T> + 'static>(mut self, weight: u32, strat: S) -> Self {
            assert!(weight > 0, "prop_oneof arm weight must be positive");
            self.arms
                .push((weight, Box::new(move |rng| strat.generate(rng))));
            self
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof needs at least one arm");
            let mut pick = rng.below(u128::from(total)) as u64;
            for (w, gen) in &self.arms {
                if pick < u64::from(*w) {
                    return gen(rng);
                }
                pick -= u64::from(*w);
            }
            unreachable!("weighted pick exceeded total weight")
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use core::ops::Range;

    /// A length specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    /// Strategy for vectors of `element` values with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u128 + 1;
            let n = self.size.lo + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration (`ProptestConfig::with_cases`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Everything tests usually import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Weighted (`3 => strat`) or uniform (`strat`) choice among strategies
/// with a common value type: `prop_oneof![2 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.arm($weight, $strat))+
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.arm(1, $strat))+
    };
}

/// Defines property tests: `proptest! { #[test] fn p(x in strat) { … } }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident ($($pat:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::test_runner::run(
                    stringify!($name),
                    config.cases,
                    |__proptest_rng| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                        let ($($pat,)+) = ($(
                            $crate::strategy::Strategy::generate(&($strat), __proptest_rng),
                        )+);
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// `assert!` that fails the current proptest case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// `assert_eq!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: `{:?}` != `{:?}`", __l, __r
                );
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                        ::std::format!(
                            "assertion failed: `{:?}` != `{:?}`: {}",
                            __l, __r, ::std::format!($($fmt)+),
                        ),
                    ));
                }
            }
        }
    };
}

/// `assert_ne!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(*__l != *__r, "assertion failed: `{:?}` == `{:?}`", __l, __r);
            }
        }
    };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(a in 3u8..=9, b in -4i64..4, f in 0.25f64..0.75) {
            prop_assert!((3..=9).contains(&a));
            prop_assert!((-4..4).contains(&b));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn flat_map_chains_dependent_values(pair in (1u8..=10).prop_flat_map(|n| (Just(n), 0u8..=n))) {
            let (n, k) = pair;
            prop_assert!(k <= n, "k = {k} > n = {n}");
        }

        #[test]
        fn vec_lengths_in_range(v in collection::vec(0u64..100, 3..6)) {
            prop_assert!(v.len() >= 3 && v.len() < 6);
            prop_assert!(v.iter().all(|x| *x < 100));
        }

        #[test]
        fn assume_skips_cases(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn oneof_draws_from_every_arm(v in collection::vec(
            prop_oneof![3 => Just(0u8), 1 => 10u8..20, 1 => (20u8..30).prop_map(|x| x)],
            64..65,
        )) {
            prop_assert!(v.iter().all(|&x| x == 0 || (10..30).contains(&x)));
            // 64 draws with weights 3:1:1 — overwhelmingly likely to hit
            // both the constant arm and a ranged arm.
            prop_assert!(v.contains(&0));
            prop_assert!(v.iter().any(|&x| x != 0));
        }
    }

    #[test]
    fn failing_property_panics() {
        let result = std::panic::catch_unwind(|| {
            crate::test_runner::run("always_fails", 4, |_| {
                Err(crate::test_runner::TestCaseError::Fail("nope".into()))
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn seeds_are_stable_per_name() {
        assert_eq!(
            crate::test_runner::name_seed("x"),
            crate::test_runner::name_seed("x")
        );
        assert_ne!(
            crate::test_runner::name_seed("x"),
            crate::test_runner::name_seed("y")
        );
    }
}
