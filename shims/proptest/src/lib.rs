//! Offline stand-in for the crates.io `proptest` crate.
//!
//! The build container has no network access, so this shim implements the
//! subset of proptest the workspace's property tests use: the
//! [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`,
//! integer-range and tuple strategies, [`collection::vec`],
//! [`strategy::Just`], `prop_oneof!`, the `proptest!`
//! test macro and the `prop_assert*` macros.
//!
//! Semantics differ from upstream in two deliberate ways: inputs are drawn
//! from a deterministic per-test RNG (seeded from the test name, so runs are
//! reproducible without a persistence file), and there is **no shrinking** —
//! a failing case reports its panic message together with the property's
//! name, the case's 0-based index `i`, the case count and the
//! `PROPTEST_SHIM_SEED` in effect. The case sequence does not depend on the
//! count, so `PROPTEST_CASES=i+1` (with the same seed) reruns exactly up to
//! the failing input. Both are acceptable for a CI gate; swapping back to
//! the registry crate is a one-line change in the workspace `Cargo.toml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Error type carried by `Result`-returning property bodies. The shim's
/// `prop_assert*` macros panic instead of returning this, but bodies may
/// still `return Ok(())` early exactly as with upstream proptest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCaseError(pub String);

/// Executes case `case` (0-based) of `cases` of the property `name` (used
/// by `proptest!`). Failures surface as panics, either directly from
/// `prop_assert*` or from an `Err` return; either way the panic message
/// names the property, the case, the count and the seed in effect, and how
/// to rerun up to that case.
pub fn run_case<F: FnOnce() -> Result<(), TestCaseError>>(
    name: &str,
    case: u32,
    cases: u32,
    body: F,
) {
    let message = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(Ok(())) => return,
        Ok(Err(TestCaseError(msg))) => format!("property returned an error: {msg}"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    };
    let seed = std::env::var("PROPTEST_SHIM_SEED").unwrap_or_else(|_| "unset".to_string());
    panic!(
        "property `{name}` failed at case {case} (0-based) of {cases}, \
         PROPTEST_SHIM_SEED={seed}; rerun with PROPTEST_CASES={}: {message}",
        case + 1
    );
}

/// Runner configuration (the `ProptestConfig` subset in use).
pub mod test_runner {
    /// How many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated inputs per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

/// Strategies: composable random-value generators.
pub mod strategy {
    use super::*;

    /// The RNG handed to strategies by the `proptest!` macro.
    pub type TestRng = StdRng;

    /// Builds the RNG for one property: deterministic per test name by
    /// default, so CI is reproducible. Set `PROPTEST_SHIM_SEED` to any u64
    /// to explore a different case sequence (the fixed default sequence
    /// would otherwise be the only one ever exercised).
    pub fn rng_for(test_name: &str) -> TestRng {
        let mut seed = match std::env::var("PROPTEST_SHIM_SEED") {
            Ok(v) => v
                .parse::<u64>()
                .expect("PROPTEST_SHIM_SEED must be an unsigned 64-bit integer"),
            Err(_) => 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
        };
        for byte in test_name.bytes() {
            seed ^= u64::from(byte);
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        StdRng::seed_from_u64(seed)
    }

    /// The case count for one property: the configured value unless
    /// `PROPTEST_CASES` overrides it (mirroring upstream proptest's env
    /// knob for widening or narrowing exploration without edits).
    pub fn effective_cases(configured: u32) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v
                .parse::<u32>()
                .expect("PROPTEST_CASES must be an unsigned integer"),
            Err(_) => configured,
        }
    }

    /// A generator of random values of type `Self::Value`.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Feeds generated values into `f` to build a dependent strategy.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among several strategies (backs `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `options`.
        ///
        /// # Panics
        /// Panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.gen_range(0..self.options.len());
            self.options[idx].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
        (A: 0, B: 1, C: 2, D: 3, E: 4)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
    }
}

/// Collection strategies (the `prop::collection` subset in use).
pub mod collection {
    use super::strategy::{Strategy, TestRng};
    use rand::Rng;

    /// Bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors with lengths in `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Namespace mirror so `prop::collection::vec` resolves after a prelude
/// glob import, as with upstream proptest.
pub mod prop {
    pub use crate::collection;
}

/// The one-stop import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property, with optional format arguments.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property, with optional format arguments.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_eq!($left, $right, $($fmt)*) };
}

/// Asserts inequality inside a property, with optional format arguments.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_ne!($left, $right, $($fmt)*) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests: each `fn name(binding in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `config.cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($binding:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                let cases = $crate::strategy::effective_cases(config.cases);
                let mut rng = $crate::strategy::rng_for(stringify!($name));
                for case in 0..cases {
                    $(
                        let $binding =
                            $crate::strategy::Strategy::generate(&$strategy, &mut rng);
                    )+
                    $crate::run_case(stringify!($name), case, cases, || {
                        $body
                        ::std::result::Result::Ok(())
                    });
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($rest)*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_tuples_and_vec_generate_in_bounds() {
        let mut rng = crate::strategy::rng_for("shim_self_test");
        let strat = (2usize..=6, 1usize..6).prop_map(|(a, b)| (a, b));
        for _ in 0..200 {
            let (a, b) = strat.generate(&mut rng);
            assert!((2..=6).contains(&a));
            assert!((1..6).contains(&b));
        }
        let vecs = prop::collection::vec(0u64..10, 1..5);
        for _ in 0..200 {
            let v = vecs.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn flat_map_and_just_compose() {
        let mut rng = crate::strategy::rng_for("flat_map_test");
        let strat = (1usize..=4).prop_flat_map(|n| (Just(n), prop::collection::vec(0..n, n..=n)));
        for _ in 0..100 {
            let (n, v) = strat.generate(&mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn oneof_covers_all_options() {
        let mut rng = crate::strategy::rng_for("oneof_test");
        let strat = prop_oneof![(0usize..1).prop_map(|_| "a"), (0usize..1).prop_map(|_| "b"),];
        let mut seen_a = false;
        let mut seen_b = false;
        for _ in 0..100 {
            match strat.generate(&mut rng) {
                "a" => seen_a = true,
                _ => seen_b = true,
            }
        }
        assert!(seen_a && seen_b);
    }

    /// The panic message of a failed `run_case`.
    fn failure_of(body: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
            .expect_err("the property must fail");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("run_case panics with a String")
    }

    #[test]
    fn failures_name_the_property_case_count_and_seed() {
        let seed = std::env::var("PROPTEST_SHIM_SEED").unwrap_or_else(|_| "unset".to_string());
        let asserted = failure_of(|| {
            crate::run_case("some_property", 6, 40, || {
                prop_assert!(1 + 1 == 3, "arithmetic broke");
                Ok(())
            })
        });
        let returned = failure_of(|| {
            crate::run_case("some_property", 6, 40, || {
                Err(TestCaseError("typed failure".to_string()))
            })
        });
        for (message, cause) in [(asserted, "arithmetic broke"), (returned, "typed failure")] {
            assert!(
                message.starts_with("property `some_property` failed at case 6 (0-based) of 40"),
                "{message}"
            );
            assert!(
                message.contains(&format!("PROPTEST_SHIM_SEED={seed};")),
                "{message}"
            );
            assert!(message.contains("rerun with PROPTEST_CASES=7"), "{message}");
            assert!(message.contains(cause), "{message}");
        }
    }

    thread_local! {
        /// The case count of `fails_on_zero`, set by the test driving it.
        static CASES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES.with(|c| c.get())))]

        /// Fails on the first draw of 0; no `#[test]`, it is driven below.
        fn fails_on_zero(x in 0u32..8) {
            prop_assert_ne!(x, 0);
        }
    }

    #[test]
    fn the_reported_case_reruns_as_the_last_one() {
        if std::env::var("PROPTEST_CASES").is_ok() {
            // The environment's count would override the one set here.
            return;
        }
        // Replay the property's own case sequence to find its first failure.
        let mut rng = crate::strategy::rng_for("fails_on_zero");
        let first = (0u32..)
            .find(|_| (0u32..8).generate(&mut rng) == 0)
            .unwrap();
        let run = |cases: u32| {
            CASES.with(|c| c.set(cases));
            failure_of(fails_on_zero)
        };
        let expected = |cases: u32| {
            format!(
                "property `fails_on_zero` failed at case {first} (0-based) of {cases}, \
                 PROPTEST_SHIM_SEED="
            )
        };
        let message = run(first + 10);
        assert!(message.starts_with(&expected(first + 10)), "{message}");
        assert!(
            message.contains(&format!("rerun with PROPTEST_CASES={}", first + 1)),
            "{message}"
        );
        // The advertised count fails on the same case, and one fewer passes.
        let rerun = run(first + 1);
        assert!(rerun.starts_with(&expected(first + 1)), "{rerun}");
        CASES.with(|c| c.set(first));
        fails_on_zero();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: bindings, early `return Ok(())`, prop_assert*.
        #[test]
        fn macro_runs_bodies(x in 0u64..100, (a, b) in (0usize..4, 0usize..4)) {
            if x == 0 {
                return Ok(());
            }
            prop_assert!(x < 100, "x was {x}");
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(x, 100);
        }
    }
}
