//! A minimal, dependency-free property-testing shim exposing the subset
//! of the `proptest` crate API this workspace uses.
//!
//! The build environment has no access to the crates.io registry, so
//! the real `proptest` cannot be fetched; this vendored stand-in keeps
//! the property-test suites source-compatible. It provides:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`),
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`],
//! * [`Strategy`](strategy::Strategy) with `prop_map` / `prop_filter`,
//! * range strategies for the primitive integer and float types,
//!   tuple and fixed-array strategies,
//! * `prop::collection::vec` and `prop::array::uniform{5,25}`.
//!
//! Generation is **deterministic**: each test derives its RNG seed from
//! its own name, so failures reproduce exactly across runs. Shrinking
//! is not implemented — failing cases report their generated inputs via
//! `Debug` formatting inside the assertion message instead.

#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// The subset of `proptest::prelude` used by the workspace.
pub mod prelude {
    pub use crate::strategy::{prop, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Assert a condition inside a property test body; on failure the case
/// is reported with the formatted message (or the stringified
/// condition).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert two values are equal inside a property test body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}` ({:?} vs {:?})",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}` ({:?} vs {:?}): {}",
            stringify!($a),
            stringify!($b),
            a,
            b,
            format!($($fmt)*)
        );
    }};
}

/// Assert two values are unequal inside a property test body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{} != {}` (both {:?})",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Discard the current case (counts as a rejection, not a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Define property tests. Each `fn name(arg in strategy, ...) { body }`
/// item becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_tests! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal: expand each test item under a shared config.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng =
                $crate::test_runner::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            let mut accepted: u32 = 0;
            let mut rejected: u32 = 0;
            while accepted < config.cases {
                $(
                    let $arg = match $crate::strategy::Strategy::generate(&$strat, &mut rng) {
                        ::core::result::Result::Ok(v) => v,
                        ::core::result::Result::Err(_) => {
                            rejected += 1;
                            assert!(
                                rejected < config.max_global_rejects,
                                "too many rejected cases in {}",
                                stringify!($name)
                            );
                            continue;
                        }
                    };
                )+
                let formatted_args = format!(
                    concat!($(stringify!($arg), " = {:?}, ",)+),
                    $(&$arg),+
                );
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                match outcome {
                    ::core::result::Result::Ok(()) => accepted += 1,
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {
                        rejected += 1;
                        assert!(
                            rejected < config.max_global_rejects,
                            "too many rejected cases in {}",
                            stringify!($name)
                        );
                    }
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property `{}` failed after {} passing case(s)\n  inputs: {}\n  {}",
                            stringify!($name),
                            accepted,
                            formatted_args,
                            msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
}
