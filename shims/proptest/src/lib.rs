//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no registry access, so the workspace
//! vendors the slice of `proptest` its tests use: the [`Strategy`]
//! trait with `prop_map` / `prop_flat_map` / `prop_filter` /
//! `prop_filter_map`, range and tuple and regex-literal strategies,
//! [`collection::vec`], [`strategy::Just`], `prop_oneof!`, `any`, and
//! the `proptest!` / `prop_assert*!` / `prop_assume!` macros.
//!
//! Semantics match upstream except that failing inputs are **not
//! shrunk**: a failure reports the assertion message and the case seed
//! (re-run with `PROPTEST_CASES` / the printed seed to reproduce).
//! Cases are deterministic per test name, so CI runs are stable.
//!
//! [`Strategy`]: strategy::Strategy

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

mod pattern;

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// The property-test entry macro. Mirrors `proptest::proptest!`:
/// an optional `#![proptest_config(...)]` inner attribute followed by
/// `#[test]` functions whose arguments are `pattern in strategy` or
/// `name: Type` (implicit [`arbitrary::any`]).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $cfg:expr;) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($args:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run_cases(
                concat!(module_path!(), "::", stringify!($name)),
                &__config,
                |__rng| {
                    $crate::__proptest_bind!(__rng; ($($args)*); $body);
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:expr; (); $body:block) => { $body };
    ($rng:expr; ($pat:pat in $strat:expr $(, $($rest:tt)*)?); $body:block) => {
        let $pat = $crate::strategy::Strategy::generate(&($strat), $rng)?;
        $crate::__proptest_bind!($rng; ($($($rest)*)?); $body)
    };
    ($rng:expr; ($name:ident : $ty:ty $(, $($rest:tt)*)?); $body:block) => {
        let $name: $ty =
            $crate::strategy::Strategy::generate(&$crate::arbitrary::any::<$ty>(), $rng)?;
        $crate::__proptest_bind!($rng; ($($($rest)*)?); $body)
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args...)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `prop_assert_eq!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// `prop_assert_ne!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, $($fmt)*);
    }};
}

/// Rejects the current case (regenerates inputs) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($strat)),+])
    };
}
