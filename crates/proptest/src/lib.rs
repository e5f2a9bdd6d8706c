//! A self-contained, offline stand-in for the `proptest` crate.
//!
//! The container this workspace builds in has no access to crates.io, so
//! the property-test suites link against this drop-in instead. It
//! implements the API subset the workspace actually uses — the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), `prop_assert*!`,
//! [`prop_assume!`], [`prop_oneof!`], integer-range and tuple strategies,
//! [`arbitrary::any`], [`strategy::Just`], `prop_map`, and
//! [`collection::vec`] — with deterministic generation: every test function
//! draws from a PRNG seeded from its own module path, so failures
//! reproduce exactly across runs.
//!
//! Unlike real proptest there is no shrinking and no failure persistence;
//! a failing case panics with the bound values interpolated by the
//! assertion message, which is enough to reproduce (generation is a pure
//! function of the test name).

#![forbid(unsafe_code)]

/// Test-runner configuration and the deterministic RNG.
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(..)]`.
    ///
    /// Only `cases` is honoured; the other fields exist so struct-update
    /// syntax against `ProptestConfig::default()` compiles unchanged.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
        /// Unused compatibility field.
        pub max_local_rejects: u32,
        /// Unused compatibility field.
        pub max_global_rejects: u32,
        /// Unused compatibility field.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_local_rejects: 65_536,
                max_global_rejects: 1024,
                max_shrink_iters: 0,
            }
        }
    }

    /// A small, fast, deterministic PRNG (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// An RNG seeded directly.
        #[must_use]
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// An RNG seeded from a test's fully qualified name, so each
        /// property gets its own reproducible stream.
        #[must_use]
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the name.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Next 128 random bits.
        pub fn next_u128(&mut self) -> u128 {
            (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64())
        }

        /// Uniform value in `[0, bound)` (`bound` > 0).
        pub fn below(&mut self, bound: u128) -> u128 {
            assert!(bound > 0, "empty sampling bound");
            if bound == 1 {
                return 0;
            }
            // Modulo reduction; the bias is irrelevant for test generation.
            self.next_u128() % bound
        }
    }
}

/// Strategies: composable value generators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Type-erases the strategy (used by [`prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let s = self;
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| s.generate(rng)))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice between type-erased alternatives ([`prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options` (must be non-empty).
        #[must_use]
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u128) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = rng.below(span) as i128;
                    (self.start as i128 + off) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    let off = rng.below(span) as i128;
                    (start as i128 + off) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    // u128/i128 ranges need widening beyond i128 differences; handled
    // separately over the values this workspace actually samples.
    impl Strategy for std::ops::Range<u128> {
        type Value = u128;
        fn generate(&self, rng: &mut TestRng) -> u128 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.below(self.end - self.start)
        }
    }
    impl Strategy for std::ops::RangeInclusive<u128> {
        type Value = u128;
        fn generate(&self, rng: &mut TestRng) -> u128 {
            let (start, end) = (*self.start(), *self.end());
            assert!(start <= end, "empty range strategy");
            if start == 0 && end == u128::MAX {
                return rng.next_u128();
            }
            start + rng.below(end - start + 1)
        }
    }

    macro_rules! tuple_strategies {
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

    tuple_strategies!(A);
    tuple_strategies!(A, B);
    tuple_strategies!(A, B, C);
    tuple_strategies!(A, B, C, D);
    tuple_strategies!(A, B, C, D, E);
    tuple_strategies!(A, B, C, D, E, F);
    tuple_strategies!(A, B, C, D, E, F, G);
    tuple_strategies!(A, B, C, D, E, F, G, H);
}

/// `proptest::sample` — uniform selection from a fixed set of values.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The result of [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u128) as usize;
            self.0[i].clone()
        }
    }

    /// Uniformly selects one of `values` (must be non-empty).
    #[must_use]
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select() needs at least one value");
        Select(values)
    }
}

/// `any::<T>()` — the canonical strategy for a type.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// The canonical whole-domain strategy for `A`.
    #[must_use]
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u128() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Anything usable as the size argument of [`vec`].
    pub trait IntoSizeRange {
        /// The inclusive `(min, max)` length bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// The strategy returned by [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.min == self.max {
                self.min
            } else {
                self.min + rng.below((self.max - self.min + 1) as u128) as usize
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors of `element` values with a length drawn from
    /// `size` (a fixed `usize` or a range).
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

/// The everything-you-need import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Defines deterministic property tests.
///
/// Each `fn name(bindings) { body }` becomes a zero-argument test that
/// draws `cases` sets of bindings and runs the body on each. Bindings are
/// either `pat in strategy` or `name: Type` (shorthand for
/// `name in any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$attr:meta])*
      fn $name:ident( $($params:tt)* ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                let _ = __case;
                $crate::__proptest_body! { (__rng) ($($params)*) $body }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_body {
    ( ($rng:ident) () $body:block ) => {
        $body
    };
    ( ($rng:ident) ($pat:pat in $strat:expr $(, $($rest:tt)*)?) $body:block ) => {{
        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_body! { ($rng) ($($($rest)*)?) $body }
    }};
    ( ($rng:ident) ($id:ident : $ty:ty $(, $($rest:tt)*)?) $body:block ) => {{
        let $id: $ty = $crate::strategy::Strategy::generate(
            &$crate::arbitrary::any::<$ty>(),
            &mut $rng,
        );
        $crate::__proptest_body! { ($rng) ($($($rest)*)?) $body }
    }};
}

/// Uniform choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_streams() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        use crate::strategy::Strategy;
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = (-5i32..=7).generate(&mut rng);
            assert!((-5..=7).contains(&v));
            let u = (3u8..9).generate(&mut rng);
            assert!((3..9).contains(&u));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 50, ..ProptestConfig::default() })]

        #[test]
        fn macro_binds_all_forms(
            (a, b) in (0u64..10, 0u64..10),
            c in prop_oneof![Just(1u8), Just(2u8)],
            d: bool,
            v in crate::collection::vec(0u8..=9, 0..=4),
        ) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(c == 1 || c == 2);
            prop_assume!(u8::from(d) <= 1);
            prop_assert!(v.len() <= 4);
            for x in v {
                prop_assert!(x <= 9);
            }
        }
    }
}
