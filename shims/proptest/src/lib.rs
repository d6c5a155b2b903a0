//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace's property tests use: the
//! `proptest!` macro (both `name in strategy` and `name: Type` argument
//! forms), `prop_assert!` / `prop_assert_eq!` / `prop_assume!`, range and
//! tuple strategies, `prop::collection::vec`, `prop::sample::select`, and
//! `any::<T>()`. Cases are generated from a deterministic per-test seed
//! (derived from the test name) so failures are reproducible; there is no
//! shrinking — the failure message reports the case seed instead.

use std::ops::Range;

/// Number of accepted cases per property (override with `PROPTEST_CASES`).
const DEFAULT_CASES: u32 = 64;

// ---------------------------------------------------------------------------
// Deterministic generator.

/// Case-local random source (splitmix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------------
// Strategies.

/// A recipe for producing random values (no shrinking in the shim).
pub trait Strategy {
    type Value;

    fn pick(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn pick(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn pick(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.next_f64() as $t
            }
        }
    )*};
}
impl_strategy_float_range!(f32, f64);

macro_rules! impl_strategy_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn pick(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.pick(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Full-domain floats (upstream mixes in specials; tests here only
        // use finite values, so sample a wide symmetric range).
        (rng.next_f64() - 0.5) * 2e12
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::arbitrary(rng) as f32
    }
}

/// Strategy wrapper for [`Arbitrary`] types.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn pick(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T` (mirror of `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

/// Strategy namespace (`prop::collection::vec`, `prop::sample::select`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.pick(rng)).collect()
        }
    }

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn pick(&self, rng: &mut TestRng) -> T {
            self.options[(rng.next_u64() % self.options.len() as u64) as usize].clone()
        }
    }

    /// Uniform choice among the given options.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }
}

// ---------------------------------------------------------------------------
// Runner.

/// Why a case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure — fails the whole property.
    Fail(String),
    /// `prop_assume!` rejection — the case is skipped, not failed.
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }

    pub fn reject(msg: String) -> Self {
        TestCaseError::Reject(msg)
    }
}

fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_CASES)
}

/// Drives one property: repeatedly generates a case seed, runs the body, and
/// panics with the seed on the first failure. Not part of the upstream API —
/// the `proptest!` macro expands to calls of this.
pub fn __run_cases<F>(name: &str, mut body: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    // Stable per-test base seed (FNV-1a over the name).
    let mut base = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        base = (base ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    let cases = configured_cases();
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    let mut case = 0u64;
    while accepted < cases {
        let seed = base.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        case += 1;
        let mut rng = TestRng::new(seed);
        match body(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected < cases * 20,
                    "property {name}: too many prop_assume! rejections ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("property {name} failed (case seed {seed:#x}): {msg}")
            }
        }
    }
}

/// Declares property tests. Each function body runs once per generated case;
/// arguments are bound either from an explicit strategy (`x in 0..10`) or
/// from the type's [`Arbitrary`] impl (`x: u64`).
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::__run_cases(stringify!($name), |__rng| {
                    $crate::__bind!(__rng, $($args)*);
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
}

/// Internal: binds `proptest!` argument lists. Public only for macro
/// expansion.
#[doc(hidden)]
#[macro_export]
macro_rules! __bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::pick(&($strat), $rng);
        $crate::__bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::pick(&($strat), $rng);
    };
    ($rng:ident, $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name: $ty = $crate::Arbitrary::arbitrary($rng);
        $crate::__bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident : $ty:ty) => {
        let $name: $ty = $crate::Arbitrary::arbitrary($rng);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let __left = $left;
        let __right = $right;
        if __left != __right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __left,
                __right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __left = $left;
        let __right = $right;
        if __left != __right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: {} == {}: {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                ::std::format!($($fmt)+),
                __left,
                __right
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(
                ::std::format!("assumption failed: {}", stringify!($cond)),
            ));
        }
    };
}

/// Mirror of `proptest::prelude` — the glob import property tests start with.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, Strategy, TestCaseError};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0usize..17, y in -3i64..4, f in 0.25f64..0.75) {
            prop_assert!(x < 17);
            prop_assert!((-3..4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn arbitrary_and_strategy_forms_mix(value: u64, low_bits in 0u32..8, flag: bool) {
            let masked = value >> low_bits;
            prop_assert!(masked <= value);
            if flag {
                prop_assert_eq!(masked << low_bits >> low_bits, masked);
            }
        }

        #[test]
        fn vec_strategy_respects_size(items in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&items.len()));
        }

        #[test]
        fn select_only_yields_options(v in prop::sample::select(vec![3usize, 5, 8])) {
            prop_assert!(v == 3 || v == 5 || v == 8);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let mut first: Vec<u64> = Vec::new();
        crate::__run_cases("determinism_probe", |rng| {
            first.push(rng.next_u64());
            Ok(())
        });
        let mut second: Vec<u64> = Vec::new();
        crate::__run_cases("determinism_probe", |rng| {
            second.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(first, second);
        assert!(!first.is_empty());
    }
}
