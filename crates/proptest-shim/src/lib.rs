//! Offline stand-in for the `proptest` property-testing framework.
//!
//! The build environment has no network access, so this workspace member
//! implements — under the same crate name — the subset of the proptest API
//! the workspace's tests use: the [`proptest!`] macro with a
//! `proptest_config` attribute, integer-range and array strategies,
//! `prop::collection::vec`, and the `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!` macros.
//!
//! Cases are generated from a deterministic per-test seed (derived from the
//! test's name), so failures are reproducible run-to-run. There is no
//! shrinking: a failing case reports its inputs via the assertion message.

#![warn(missing_docs)]

use rand::rngs::StdRng;

/// Run-count configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run.
    pub cases: usize,
}

impl ProptestConfig {
    /// A config running `cases` accepted cases.
    pub fn with_cases(cases: usize) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed; the case does not count toward the quota.
    Reject,
    /// `prop_assert!`-style failure: the property is false.
    Fail(String),
}

/// Result type threaded through generated test bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A value generator. The single-method stand-in for proptest's `Strategy`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                use rand::RngExt;
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                use rand::RngExt;
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u32, u64, usize);

impl<S: Strategy, const N: usize> Strategy for [S; N] {
    type Value = [S::Value; N];

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        std::array::from_fn(|i| self[i].generate(rng))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Strategy combinators, mirroring the `proptest::prelude::prop` module.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;

        /// Inclusive bounds on a generated collection's length. Mirrors
        /// proptest's `SizeRange` so that `1..6` infers as `usize`.
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self {
                    lo: n,
                    hi_inclusive: n,
                }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                Self {
                    lo: r.start,
                    hi_inclusive: r.end - 1,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> Self {
                assert!(r.start() <= r.end(), "empty size range");
                Self {
                    lo: *r.start(),
                    hi_inclusive: *r.end(),
                }
            }
        }

        /// A `Vec` strategy: `len` elements of `element`, with `len` drawn
        /// from `sizes`.
        pub fn vec<E: Strategy>(element: E, sizes: impl Into<SizeRange>) -> VecStrategy<E> {
            VecStrategy {
                element,
                sizes: sizes.into(),
            }
        }

        /// See [`vec()`].
        pub struct VecStrategy<E> {
            element: E,
            sizes: SizeRange,
        }

        impl<E: Strategy> Strategy for VecStrategy<E> {
            type Value = Vec<E::Value>;

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                use rand::RngExt;
                let len = rng.random_range(self.sizes.lo..=self.sizes.hi_inclusive);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult,
    };
}

/// Stable 64-bit hash of a test name, for per-test deterministic seeds.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Drives one property: repeatedly generates inputs and runs the body until
/// `cases` accepted runs complete, panicking on the first failure.
pub fn run_property(
    name: &str,
    config: &ProptestConfig,
    mut case: impl FnMut(&mut StdRng) -> TestCaseResult,
) {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed_for(name));
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let max_rejects = config.cases.saturating_mul(64).max(1024);
    while accepted < config.cases {
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "{name}: too many rejected cases ({rejected}); weaken prop_assume!"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("{name}: property failed after {accepted} passing cases: {msg}")
            }
        }
    }
}

/// Declares property tests, mirroring `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::run_property(stringify!($name), &config, |rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), rng);)*
                    #[allow(unused_mut)]
                    let mut body = || -> $crate::TestCaseResult { $body Ok(()) };
                    body()
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// Asserts inside a property body, mirroring `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion, mirroring `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)*)
        );
    }};
}

/// Inequality assertion, mirroring `proptest::prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Discards a case without failing, mirroring `proptest::prop_assume!`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs_generate_in_bounds(
            x in 1u32..15,
            rows in prop::collection::vec([0usize..3, 0usize..3], 1..=4),
        ) {
            prop_assert!((1..15).contains(&x));
            prop_assert!((1..=4).contains(&rows.len()));
            for r in &rows {
                prop_assert!(r[0] < 3 && r[1] < 3, "row out of range: {:?}", r);
            }
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn seeds_differ_by_name() {
        assert_ne!(crate::seed_for("a"), crate::seed_for("b"));
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic() {
        crate::run_property(
            "always_fails",
            &ProptestConfig::with_cases(1),
            |_| Err(TestCaseError::Fail("nope".into())),
        );
    }
}
