//! Offline stand-in for the [proptest](https://docs.rs/proptest) crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! crate implements exactly the strategy surface Prophet's property
//! tests use: range strategies, tuples, `prop_map`/`prop_filter`/
//! `prop_recursive`, `prop_oneof!`, collection/option/sample modules, a
//! regex-lite string strategy, and the `proptest!` test macro.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case panics with the case number and
//!   the runner's deterministic seed; re-running reproduces it exactly.
//! * **Deterministic seeding.** Each test derives its seed from the test
//!   name (override with `PROPTEST_SEED=<u64>`), so CI runs are stable.
//! * **Case budget.** `PROPTEST_CASES=<u32>` overrides every test's
//!   configured case count, like the real crate — CI uses it to pin the
//!   model-fuzzing budget.
//! * **Regex strategies** support the subset used here: one or more
//!   atoms (`\PC` or a `[...]` character class) each followed by an
//!   optional `{m,n}` repetition.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod rng;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The subset of the proptest prelude the workspace uses.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace alias matching `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
        pub use crate::sample;
    }
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Assert inside a proptest case; fails the case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{}: `{:?}` != `{:?}`", format!($($fmt)*), l, r);
    }};
}

/// Assert inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: both sides are `{:?}`", l);
    }};
}

/// Define property tests: each `#[test] fn name(x in strategy, ...)`
/// becomes a standard test that runs the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut runner =
                    $crate::test_runner::TestRunner::new_for(stringify!($name), config);
                runner.run(|__proptest_rng| {
                    #[allow(unused_imports)]
                    use $crate::strategy::Strategy as _;
                    $(let $arg = ($strategy).generate(__proptest_rng);)+
                    let mut __proptest_case =
                        move || -> $crate::test_runner::TestCaseResult {
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        };
                    __proptest_case()
                });
            }
        )*
    };
}
